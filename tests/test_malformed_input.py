"""Malformed files on disk get a clean rejection, never a traceback.

Files are the only outside input the repo reads: fuzz corpus entries
and result-store entries.  The corpus loader either returns a usable
document or raises one ``ValueError`` that names the file; a damaged
store entry is a miss.  The CLI turns that ``ValueError`` into one
``error:`` line on stderr and exit 2.
"""

from __future__ import annotations

import copy
import json
import tempfile
from dataclasses import fields
from functools import lru_cache, reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.config import ConfigSpec, baseline_ooo
from repro.engine import expand_jobs
from repro.engine.store import ShardedDiskStore, job_key
from repro.fuzz.campaign import FuzzJob, FuzzRunResult
from repro.fuzz.corpus import load_witness_file
from repro.fuzz.taint import LeakWitness
from repro.isa.program import Program
from repro.stats.counters import PipelineStats

CORPUS_FILE = (
    Path(__file__).parent / "golden" / "fuzz_corpus"
    / "btb-indirect-table.json"
)

#: Any JSON value: what a file on disk may hold.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

EXAMPLES = settings(max_examples=150, deadline=None)


@lru_cache(maxsize=None)
def _sim_job():
    """The job a window entry is stored for (never executed)."""
    return expand_jobs(
        ["exchange2"], [ConfigSpec("OoO", baseline_ooo())], 1, 300, 800, 2500
    )[0]


#: Per result-store entry kind: the job it is stored for, and the valid
#: result it holds.
STORE_ENTRIES = {
    "window-entry": (_sim_job, PipelineStats(
        cycles=20, committed=10, sim_wall_seconds=0.5,
        dispatch_to_issue_hist={0: 3, 4: 1},
    )),
    "fuzz-entry": (
        lambda: FuzzJob(seed=1, config_name="ooo", template="t"),
        FuzzRunResult(
            seed=1, config_name="ooo", template="t", channel="d-cache",
            analog="a", cycles=10, witnesses=(LeakWitness(
                channel="d-cache", seq=7, pc=0x40, addr=0x1000, cycle=12,
                detail="fill",
            ),),
        ),
    ),
}


def _store_entry(kind: str) -> dict:
    """The entry the store itself writes for a *kind* result."""
    job, result = STORE_ENTRIES[kind]
    with tempfile.TemporaryDirectory() as root:
        store = ShardedDiskStore(root)
        store.store(job(), result)
        return json.loads(store._path(job_key(job())).read_text())


@lru_cache(maxsize=None)
def valid(kind: str) -> dict:
    """One valid document of *kind*, built on first use.  Callers copy
    it before changing it."""
    if kind == "witness":
        return json.loads(CORPUS_FILE.read_text())
    return _store_entry(kind)


def _paths(doc, prefix=()):
    """Every key path into a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


@st.composite
def near_valid(draw, kind):
    """A valid document with one value replaced, or one key dropped.

    The depth is drawn first, so a top-level field is as likely a
    target as one of the many instruction fields deep inside.
    """
    doc = copy.deepcopy(valid(kind))
    paths = list(_paths(doc))
    depth = draw(st.integers(0, max(len(path) for path in paths)))
    path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
    value = draw(JSON_VALUES)
    if not path:
        return value
    parent = reduce(getitem, path[:-1], doc)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def fields_replaced(draw, kind):
    """A valid document whose top-level fields are each kept or replaced."""
    return {key: draw(st.just(value) | JSON_VALUES)
            for key, value in valid(kind).items()}


def documents(kind):
    return JSON_VALUES | near_valid(kind) | fields_replaced(kind)


@st.composite
def damaged_bytes(draw, kind):
    """A valid document's bytes cut short, or arbitrary bytes."""
    text = json.dumps(valid(kind), indent=1).encode()
    cut = draw(st.integers(min_value=0, max_value=len(text) - 2))
    return draw(st.just(text[:cut]) | st.binary(max_size=64))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed") / "doc.json"


def _write(path: Path, doc) -> Path:
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    return path


def _load_witness(path):
    entry = load_witness_file(path)
    assert isinstance(entry["program"], Program)
    assert isinstance(entry["meta"], dict)


LOADERS = {
    "witness": _load_witness,
}


class TestLoadersRejectWithValueError:
    @EXAMPLES
    @given(doc=documents("witness"))
    def test_witness_file(self, scratch, doc):
        try:
            _load_witness(_write(scratch, doc))
        except ValueError as error:
            assert str(scratch) in str(error)

    @EXAMPLES
    @given(data=st.data())
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_damaged_bytes(self, scratch, kind, data):
        try:
            LOADERS[kind](_write(scratch, data.draw(damaged_bytes(kind))))
        except ValueError as error:
            assert str(scratch) in str(error)


def _typed_like(result, reference) -> None:
    """*result* holds, field by field, what *reference* holds: the same
    types (an int may stand for a float), dicts of ints, and witnesses
    typed like the reference's."""
    assert type(result) is type(reference)
    for info in fields(reference):
        got, want = getattr(result, info.name), getattr(reference, info.name)
        if isinstance(want, float):
            assert type(got) in (int, float), info.name
        else:
            assert type(got) is type(want), info.name
        if isinstance(want, dict):
            assert all(type(item) is int for item in got.values())
        if isinstance(want, tuple):
            for witness in got:
                _typed_like(witness, want[0])


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    return tmp_path_factory.mktemp("store")


def _load_entry(root, kind, doc):
    """Write *doc* at the entry path of *kind*'s job and load it: the
    result, and whether the entry is still on disk."""
    job = STORE_ENTRIES[kind][0]()
    store = ShardedDiskStore(root)
    path = store._path(job_key(job))
    path.parent.mkdir(parents=True, exist_ok=True)
    _write(path, doc)
    return store.load(job), path.exists(), store.stats


class TestDamagedStoreEntriesMiss:
    @pytest.mark.parametrize("data", [
        [1], {"cycles": "abc"}, {"cycles": 5, "committed": None},
    ], ids=["list", "string-cycles", "null-committed"])
    def test_ill_typed_window_is_a_miss(self, tmp_path, data):
        doc = dict(valid("window-entry"), data=data)
        result, kept, stats = _load_entry(tmp_path, "window-entry", doc)
        assert result is None and not kept
        assert (stats.misses, stats.errors) == (1, 1)

    def test_deeply_nested_entry_is_a_miss(self, tmp_path):
        # Too deep for the JSON decoder, which raises RecursionError.
        result, kept, _ = _load_entry(tmp_path, "window-entry",
                                      b"[" * 100_000)
        assert result is None and not kept

    @EXAMPLES
    @given(data=st.data())
    @pytest.mark.parametrize("kind", sorted(STORE_ENTRIES))
    def test_load_misses_or_returns_a_typed_result(self, store_root, kind,
                                                   data):
        doc = data.draw(documents(kind) | damaged_bytes(kind))
        result, kept, _ = _load_entry(store_root, kind, doc)
        if result is None:
            assert not kept  # a miss on a damaged entry removes it
        else:
            _typed_like(result, STORE_ENTRIES[kind][1])


#: One malformed file per way the CLI used to die on one.
BAD_FILES = {
    "list": "[1, 2]",
    "string": '"hello"',
    "no-program": json.dumps({"schema": 1}),
    "instrs-not-a-list": json.dumps({"schema": 1, "program": {"instrs": 5}}),
    "truncated": '{"schema": "repro.result/v1", "kind": "fuz',
}


@pytest.fixture
def bad_file(tmp_path):
    def make(name):
        path = tmp_path / (name + ".json")
        path.write_text(BAD_FILES[name])
        return str(path)

    return make


def _error_line(err: str) -> str:
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def _rejected(argv, capsys) -> str:
    assert main(argv) == 2
    return _error_line(capsys.readouterr().err)


class TestCliRejectsMalformedFiles:
    @pytest.mark.parametrize("name", sorted(BAD_FILES))
    def test_fuzz_replay(self, bad_file, capsys, name):
        path = bad_file(name)
        assert path in _rejected(["fuzz", "replay", path], capsys)
