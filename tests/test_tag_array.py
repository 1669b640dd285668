"""The shared set-associative tag array behind ``Cache`` and ``BTB``.

``Cache`` and ``BTB`` create a set's bookkeeping on its first insert.
The model tests below replay seeded random operation sequences against
small eager references that build every set up front (the per-set
layout the lazy array replaced) and compare every return value, every
counter, the resident lines and each set's LRU recency order.  The
goldens use only the default geometry, so these are what pin small
geometries and the BTB.  The allocation guard keeps per-set state from
being built up front again.
"""

import gc
import random

import pytest

from repro.config import CacheConfig, MemConfig, SimConfig
from repro.core.ooo import OutOfOrderCore
from repro.frontend.btb import BTB
from repro.fuzz.generator import generate
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.replacement import LRUPolicy

SEEDS = range(6)


class EagerCache:
    """Reference: every set's tag maps and LRU built at construction."""

    def __init__(self, num_sets, assoc, line_bytes):
        self.num_sets = num_sets
        self.assoc = assoc
        self.line_shift = line_bytes.bit_length() - 1
        self.hits = self.misses = self.fills = self.invalidations = 0
        self.flush_all()

    def flush_all(self):
        self.tags = [{} for _ in range(self.num_sets)]  # way -> tag
        self.ways = [{} for _ in range(self.num_sets)]  # tag -> way
        self.repl = [LRUPolicy(self.assoc) for _ in range(self.num_sets)]

    def _split(self, addr):
        line = addr >> self.line_shift
        return line % self.num_sets, line // self.num_sets

    def probe(self, addr):
        index, tag = self._split(addr)
        return tag in self.ways[index]

    def access(self, addr, fill):
        index, tag = self._split(addr)
        if tag in self.ways[index]:
            self.hits += 1
            self.repl[index].touch(self.ways[index][tag])
            return True
        self.misses += 1
        if fill:
            self._fill(index, tag)
        return False

    def _fill(self, index, tag):
        ways, tags = self.ways[index], self.tags[index]
        if len(ways) < self.assoc:
            way = next(w for w in range(self.assoc) if w not in tags)
        else:
            way = self.repl[index].victim()
            del ways[tags.pop(way)]
        ways[tag] = way
        tags[way] = tag
        self.repl[index].touch(way)
        self.fills += 1

    def fill(self, addr):
        index, tag = self._split(addr)
        if tag in self.ways[index]:
            self.repl[index].touch(self.ways[index][tag])
        else:
            self._fill(index, tag)

    def invalidate(self, addr):
        index, tag = self._split(addr)
        way = self.ways[index].pop(tag, None)
        if way is None:
            return False
        del self.tags[index][way]
        self.repl[index].forget(way)
        self.invalidations += 1
        return True

    def resident_lines(self):
        return sum(len(ways) for ways in self.ways)


class EagerBTB:
    """Reference: every set's pc/way maps and LRU built at construction."""

    def __init__(self, entries, assoc):
        self.num_sets = entries // assoc
        self.assoc = assoc
        self.lookups = self.hits = self.updates = 0
        self.flush()

    def flush(self):
        sets = range(self.num_sets)
        self.targets = [{} for _ in sets]  # pc -> target
        self.ways = [{} for _ in sets]  # pc -> way
        self.way_pc = [{} for _ in sets]  # way -> pc
        self.repl = [LRUPolicy(self.assoc) for _ in sets]

    def lookup(self, pc):
        self.lookups += 1
        index = pc % self.num_sets
        target = self.targets[index].get(pc)
        if target is not None:
            self.hits += 1
            self.repl[index].touch(self.ways[index][pc])
        return target

    def probe(self, pc):
        return self.targets[pc % self.num_sets].get(pc)

    def update(self, pc, target):
        self.updates += 1
        index = pc % self.num_sets
        targets, ways = self.targets[index], self.ways[index]
        if pc in targets:
            targets[pc] = target
            self.repl[index].touch(ways[pc])
            return
        if len(targets) >= self.assoc:
            way = self.repl[index].victim()
            victim = self.way_pc[index].pop(way)
            del targets[victim]
            del ways[victim]
            self.repl[index].forget(way)
        else:
            way = next(w for w in range(self.assoc) if w not in ways.values())
        targets[pc] = target
        ways[pc] = way
        self.way_pc[index][way] = pc
        self.repl[index].touch(way)

    def invalidate(self, pc):
        index = pc % self.num_sets
        if pc not in self.targets[index]:
            return False
        way = self.ways[index].pop(pc)
        del self.targets[index][pc]
        del self.way_pc[index][way]
        self.repl[index].forget(way)
        return True


def recency_orders(repl_per_set):
    """Each set's LRU order; a set never filled has an empty one."""
    return [[] if repl is None else repl.recency_order()
            for repl in repl_per_set]


class TestCacheModel:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_ops_match_model(self, seed):
        rng = random.Random("cache/lru/%d" % seed)
        num_sets = rng.choice((1, 2, 4, 8))
        assoc = rng.choice((1, 2, 4))
        line_bytes = rng.choice((16, 64))
        cache = Cache(
            CacheConfig(num_sets * assoc * line_bytes, line_bytes, assoc, 4),
            "model",
        )
        model = EagerCache(num_sets, assoc, line_bytes)
        # About three lines per way, so sets overflow and evict often.
        lines = rng.sample(range(1 << 12), 3 * num_sets * assoc)
        for _ in range(400):
            addr = rng.choice(lines) * line_bytes + rng.randrange(line_bytes)
            roll = rng.random()
            if roll < 0.35:
                assert cache.access(addr) == model.access(addr, True)
            elif roll < 0.5:
                assert cache.access(addr, fill=False) == \
                    model.access(addr, False)
            elif roll < 0.65:
                assert cache.probe(addr) == model.probe(addr)
            elif roll < 0.8:
                cache.fill(addr)
                model.fill(addr)
            elif roll < 0.97:
                assert cache.invalidate(addr) == model.invalidate(addr)
            else:
                cache.flush_all()
                model.flush_all()
            stats = cache.stats
            assert (stats.hits, stats.misses, stats.fills,
                    stats.invalidations) == (model.hits, model.misses,
                                             model.fills, model.invalidations)
            assert cache.resident_lines() == model.resident_lines()
            assert [cache.probe(line * line_bytes) for line in lines] == \
                [model.probe(line * line_bytes) for line in lines]
            assert recency_orders(cache._repl) == recency_orders(model.repl)


class TestBTBModel:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_ops_match_model(self, seed):
        rng = random.Random("btb/%d" % seed)
        assoc = rng.choice((1, 2, 4))
        entries = assoc * rng.choice((1, 2, 4, 8))
        btb = BTB(entries, assoc)
        model = EagerBTB(entries, assoc)
        pcs = rng.sample(range(1 << 12), 3 * entries)
        for _ in range(400):
            pc = rng.choice(pcs)
            roll = rng.random()
            if roll < 0.3:
                assert btb.lookup(pc) == model.lookup(pc)
            elif roll < 0.45:
                assert btb.probe(pc) == model.probe(pc)
            elif roll < 0.8:
                target = rng.randrange(1 << 12)
                btb.update(pc, target)
                model.update(pc, target)
            elif roll < 0.97:
                assert btb.invalidate(pc) == model.invalidate(pc)
            else:
                btb.flush()
                model.flush()
            assert (btb.lookups, btb.hits, btb.updates) == \
                (model.lookups, model.hits, model.updates)
            assert [btb.probe(p) for p in pcs] == [model.probe(p) for p in pcs]
            assert recency_orders(btb._repl) == recency_orders(model.repl)


def test_misses_in_untouched_sets_allocate_nothing():
    cache = Cache(CacheConfig(4096, 64, 4, 4), "lazy")
    btb = BTB(64, 4)
    for addr in range(0, 1 << 16, 40):
        assert not cache.probe(addr)
        assert not cache.access(addr, fill=False)
        assert not cache.invalidate(addr)
        assert btb.lookup(addr) is None
        assert btb.probe(addr) is None
        assert not btb.invalidate(addr)
    assert cache._ways == [None] * cache.num_sets
    assert btb._ways == [None] * btb.num_sets


def tracked_objects_added(build):
    """GC-tracked objects that ``build()`` leaves alive, counted with
    the collector off so no collection runs mid-count."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        built = build()  # kept alive until counted
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    return added


class TestAllocationGuard:
    """Per-set state is created on first fill, never up front.

    Building every set eagerly adds about 6.4k tracked objects for the
    default hierarchy and BTB and 6.5k for a core; the lazy array adds
    a few dozen.
    """

    def test_hierarchy_and_btb(self):
        added = tracked_objects_added(
            lambda: (MemoryHierarchy(MemConfig()), BTB())
        )
        assert added < 100

    def test_core(self):
        program = generate(1).program
        OutOfOrderCore(program, SimConfig())  # lowers and caches program
        added = tracked_objects_added(
            lambda: OutOfOrderCore(program, SimConfig())
        )
        assert added < 400
