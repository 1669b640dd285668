"""A killed run resumes from the result store.

The engine stores every job's result the moment it completes, under a
content key (:func:`repro.engine.store.job_key`), so rerunning a killed
sweep or campaign against the same store serves what had finished and
executes only the rest.  The preemption test SIGTERMs a real fuzz
campaign subprocess mid-run, reruns it against the store it left
behind, and requires (a) zero re-execution of stored jobs and (b) the
identical witness corpus an uninterrupted run produces.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.config import ConfigSpec, NDAPolicyName, baseline_ooo, nda_config
from repro.engine import expand_jobs, run_jobs
from repro.engine.store import ShardedDiskStore, job_cache_key, job_key
from repro.fuzz.campaign import FuzzJob, FuzzRunResult, run_campaign
from repro.fuzz.taint import LeakWitness


def tiny_jobs(samples=2):
    specs = [
        ConfigSpec("OoO", baseline_ooo()),
        ConfigSpec("Strict", nda_config(NDAPolicyName.STRICT)),
    ]
    return expand_jobs(["exchange2"], specs, samples, 300, 800, 2500)


FUZZ_RUN = FuzzRunResult(
    seed=1, config_name="ooo", template="t", channel="d-cache",
    analog="a", cycles=10, witnesses=(LeakWitness(
        channel="d-cache", seq=7, pc=0x40, addr=0x1000, cycle=12,
        detail="fill",
    ),),
)


class TestJobKeys:
    def test_simjob_reuses_cache_key(self):
        job = tiny_jobs()[0]
        assert job_key(job) == job_cache_key(job)

    def test_dataclass_job_is_content_addressed(self):
        a = FuzzJob(seed=1, config_name="strict", template="t")
        b = FuzzJob(seed=1, config_name="strict", template="t")
        c = FuzzJob(seed=2, config_name="strict", template="t")
        assert job_key(a) == job_key(b)
        assert job_key(a) != job_key(c)
        assert len(job_key(a)) == 64


class TestRerunAgainstTheStore:
    def test_rerun_executes_nothing_and_matches(self, tmp_path):
        store = ShardedDiskStore(tmp_path)
        jobs_list = tiny_jobs()
        first, _, cold = run_jobs(jobs_list, cache=store)
        assert cold.executed == cold.stores == len(jobs_list)
        again, failures, warm = run_jobs(jobs_list, cache=store)
        assert not failures
        assert (warm.executed, warm.stores) == (0, 0)
        assert warm.cache_hits == len(jobs_list)
        assert [r.window.to_dict() for r in again] == \
            [r.window.to_dict() for r in first]

    def test_deleted_entry_is_the_only_job_executed(self, tmp_path):
        jobs_list = tiny_jobs()
        run_jobs(jobs_list, cache=ShardedDiskStore(tmp_path))
        store = ShardedDiskStore(tmp_path)
        store._path(job_key(jobs_list[1])).unlink()
        results, _, stats = run_jobs(jobs_list, cache=store)
        assert stats.executed == 1
        assert stats.cache_hits == len(jobs_list) - 1
        assert [r.job for r in results] == jobs_list
        assert not results[1].from_cache


class TestEveryJobKind:
    def test_fuzz_run_round_trips(self, tmp_path):
        job = FuzzJob(seed=1, config_name="ooo", template="t")
        ShardedDiskStore(tmp_path).store(job, FUZZ_RUN)
        assert ShardedDiskStore(tmp_path).load(job) == FUZZ_RUN

    def test_entry_of_another_result_type_is_a_miss(self, tmp_path):
        # A SimJob's entry holding a FuzzRunResult: a miss, and removed.
        job = tiny_jobs()[0]
        store = ShardedDiskStore(tmp_path)
        store.store(job, FUZZ_RUN)
        assert store.load(job) is None
        assert store.stats.errors == 1
        assert store.size() == 0


#: The child campaign the preemption test runs and kills.  Enough seeds
#: (at ~10ms each) that SIGTERM lands mid-campaign, not after the end.
_CAMPAIGN_SEEDS = 300
_CAMPAIGN_CONFIG = "strict"
_CHILD = """\
import sys
from repro.engine.store import ShardedDiskStore
from repro.fuzz.campaign import run_campaign
run_campaign(range(%d), config_names=[%r], jobs=1,
             cache=ShardedDiskStore(sys.argv[1]))
""" % (_CAMPAIGN_SEEDS, _CAMPAIGN_CONFIG)


def _witness_corpus(campaign):
    return sorted(
        (run.seed, run.config_name, json.dumps(w.to_dict(),
                                               sort_keys=True))
        for run in campaign.results
        for w in run.witnesses
    )


class TestPreemptedCampaign:
    def test_sigterm_checkpoint_resume_same_corpus(self, tmp_path):
        root = tmp_path / "store"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(root)],
            env=env, cwd=os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))),
        )
        try:
            # Wait until real progress is on disk, then preempt.
            deadline = time.monotonic() + 120.0
            stored = 0
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    pytest.fail("campaign finished before SIGTERM; "
                                "raise _CAMPAIGN_SEEDS")
                stored = ShardedDiskStore(root).size()
                if stored >= 3:
                    break
                time.sleep(0.01)
            assert stored >= 3, "no stored progress within 120s"
            child.send_signal(signal.SIGTERM)
            child.wait(timeout=30.0)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30.0)

        # A SIGTERM leaves whole entries behind (writes are atomic),
        # with work left to do.
        done = ShardedDiskStore(root).size()
        assert 0 < done < _CAMPAIGN_SEEDS

        # Rerun against the store: stored runs are served from it and
        # only the remainder executes.
        resumed = run_campaign(
            range(_CAMPAIGN_SEEDS), config_names=[_CAMPAIGN_CONFIG],
            jobs=1, cache=ShardedDiskStore(root),
        )
        assert resumed.engine.cache_hits == done
        assert resumed.engine.executed == _CAMPAIGN_SEEDS - done
        assert len(resumed.results) == _CAMPAIGN_SEEDS

        # ... and converges on the uninterrupted run's witness corpus.
        reference = run_campaign(
            range(_CAMPAIGN_SEEDS), config_names=[_CAMPAIGN_CONFIG],
            jobs=2,
        )
        assert _witness_corpus(resumed) == _witness_corpus(reference)
