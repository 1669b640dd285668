"""Branch target buffer.

A set-associative map from branch PC to predicted target.  Entries are
installed and replaced at branch *execution*, including on the wrong path,
and squash never reverts them — the paper's §3 demonstrates that this makes
the BTB a covert channel, and our :mod:`repro.attacks.spectre_btb` PoC
exercises precisely this structure.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.memory.cache import TagArray


class BTB(TagArray):
    """Set-associative branch target buffer with LRU replacement.

    The set/way/LRU bookkeeping is the caches' :class:`TagArray`, keyed
    by branch PC; the BTB adds the predicted targets and its counters.
    """

    def __init__(self, entries: int = 4096, assoc: int = 4):
        if entries % assoc:
            raise ValueError("BTB entries must divide evenly into ways")
        num_sets = entries // assoc
        if num_sets & (num_sets - 1):
            raise ValueError("BTB set count must be a power of two")
        super().__init__(num_sets, assoc)
        # pc -> predicted target for every resident entry.
        self._targets: Dict[int, int] = {}
        self.lookups = 0
        self.hits = 0
        self.updates = 0

    def lookup(self, pc: int) -> Optional[int]:
        """Predicted target for the branch at *pc*, or None on miss."""
        self.lookups += 1
        target = self._targets.get(pc)
        if target is not None:
            self.hits += 1
            index = pc & self._set_mask
            self._repl[index].touch(self._ways[index][pc])
        return target

    def probe(self, pc: int) -> Optional[int]:
        """Non-destructive lookup (no stats, no LRU update)."""
        return self._targets.get(pc)

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the mapping ``pc -> target``.

        Called at branch execution for every taken or indirect branch,
        wrong-path included; the core emits the ``btb_update`` event.
        """
        self.updates += 1
        targets = self._targets
        index = pc & self._set_mask
        if pc in targets:
            self._repl[index].touch(self._ways[index][pc])
        else:
            evicted = self._insert(index, pc)
            if evicted is not None:
                del targets[evicted]
        targets[pc] = target

    def invalidate(self, pc: int) -> bool:
        """Drop the entry for *pc*; True when one existed."""
        if not self._remove(pc & self._set_mask, pc):
            return False
        del self._targets[pc]
        return True

    def flush(self) -> None:
        self._clear()
        self._targets.clear()
