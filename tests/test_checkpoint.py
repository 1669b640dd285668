"""Campaign checkpoint/resume: manifests, replay accounting, preemption.

The preemption test SIGTERMs a real fuzz campaign subprocess mid-run,
asserts the checkpoint it left behind is a valid manifest, then resumes
it and requires (a) zero re-execution of completed jobs and (b) the
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
from repro.engine.checkpoint import (
    build_checkpoint,
    decode_result,
    encode_result,
    job_key,
    load_checkpoint,
    register_result_codec,
    write_checkpoint,
)
from repro.engine.jobs import JobResult
from repro.fuzz.campaign import FuzzJob, run_campaign
from repro.obs.manifest import validate_checkpoint


def tiny_jobs(samples=2):
    specs = [
        ConfigSpec("OoO", baseline_ooo()),
        ConfigSpec("Strict", nda_config(NDAPolicyName.STRICT)),
    ]
    return expand_jobs(["exchange2"], specs, samples, 300, 800, 2500)


class TestJobKeys:
    def test_simjob_reuses_cache_key(self):
        from repro.engine.store import job_cache_key

        job = tiny_jobs()[0]
        assert job_key(job) == job_cache_key(job)

    def test_dataclass_job_is_content_addressed(self):
        a = FuzzJob(seed=1, config_name="strict", template="t")
        b = FuzzJob(seed=1, config_name="strict", template="t")
        c = FuzzJob(seed=2, config_name="strict", template="t")
        assert job_key(a) == job_key(b)
        assert job_key(a) != job_key(c)
        assert len(job_key(a)) == 64

    def test_duck_typed_job_keyed_on_public_attrs(self):
        class Duck:
            def __init__(self, x):
                self.x = x
                self._hidden = object()  # unstable; must not leak in

        assert job_key(Duck(1)) == job_key(Duck(1))
        assert job_key(Duck(1)) != job_key(Duck(2))


class TestCodecs:
    def test_pipeline_stats_roundtrip(self):
        job = tiny_jobs()[0]
        results, _, _ = run_jobs([job])
        entry = encode_result(results[0])
        assert entry["type"] == "PipelineStats"
        replay = decode_result(job, entry)
        assert replay.resumed
        assert replay.window.to_dict() == results[0].window.to_dict()

    def test_uncodable_result_stays_pending(self):
        class Opaque:
            pass

        result = JobResult(job=tiny_jobs()[0], window=Opaque())
        assert encode_result(result) is None
        assert decode_result(tiny_jobs()[0], {"type": "Opaque"}) is None

    def test_registering_a_codec_enables_roundtrip(self):
        register_result_codec(
            "_TestBlob", lambda blob: blob, lambda data: data,
        )
        try:
            class _TestBlob(dict):
                pass

            result = JobResult(
                job=tiny_jobs()[0], window=_TestBlob(x=1), elapsed=2.0,
            )
            entry = encode_result(result)
            replay = decode_result(result.job, entry)
            assert replay.window == {"x": 1}
            assert replay.elapsed == 2.0
        finally:
            from repro.engine import checkpoint as ckpt
            ckpt._CODECS.pop("_TestBlob", None)


class TestCheckpointManifest:
    def test_written_checkpoint_validates(self, tmp_path):
        path = tmp_path / "ck.json"
        jobs_list = tiny_jobs()
        run_jobs(jobs_list, checkpoint=str(path), checkpoint_interval=1)
        manifest = json.loads(path.read_text())
        assert validate_checkpoint(manifest) == []
        assert manifest["kind"] == "checkpoint"
        progress = manifest["extra"]["checkpoint"]
        assert progress["total"] == len(jobs_list)
        assert len(progress["completed"]) == len(jobs_list)
        assert progress["pending"] == []

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "not-a-checkpoint.json"
        path.write_text(json.dumps({"kind": "run"}))
        with pytest.raises(ValueError, match="not a usable checkpoint"):
            load_checkpoint(path)

    def test_failures_are_recorded_not_resumed(self, tmp_path):
        from repro.engine.jobs import SimJob

        jobs_list = tiny_jobs()[:2]
        bad = SimJob(**{
            **jobs_list[0].__dict__, "benchmark": "no_such_bench",
        })
        path = tmp_path / "ck.json"
        run_jobs([bad] + jobs_list, checkpoint=str(path),
                 checkpoint_interval=1)
        progress = json.loads(path.read_text())["extra"]["checkpoint"]
        assert len(progress["failed"]) == 1
        assert job_key(bad) in progress["failed"]
        assert job_key(bad) not in progress["completed"]

    def test_write_is_atomic_in_place(self, tmp_path):
        path = tmp_path / "nested" / "ck.json"
        jobs_list = tiny_jobs()[:1]
        keys = [job_key(j) for j in jobs_list]
        manifest = build_checkpoint(jobs_list, keys, [None], label="t")
        write_checkpoint(path, manifest)
        write_checkpoint(path, manifest)  # rewrite, same file
        assert validate_checkpoint(json.loads(path.read_text())) == []


class TestResume:
    def test_resume_executes_nothing_and_matches(self, tmp_path):
        path = tmp_path / "ck.json"
        jobs_list = tiny_jobs()
        first, _, cold = run_jobs(
            jobs_list, checkpoint=str(path), checkpoint_interval=1,
        )
        assert cold.executed == len(jobs_list)
        again, failures, warm = run_jobs(jobs_list, resume=str(path))
        assert not failures
        assert warm.resumed == len(jobs_list)
        assert warm.executed == 0
        assert [r.window.to_dict() for r in again] == \
            [r.window.to_dict() for r in first]

    def test_partial_checkpoint_runs_only_the_remainder(self, tmp_path):
        path = tmp_path / "ck.json"
        jobs_list = tiny_jobs()
        run_jobs(jobs_list, checkpoint=str(path), checkpoint_interval=1)
        manifest = json.loads(path.read_text())
        completed = manifest["extra"]["checkpoint"]["completed"]
        dropped = sorted(completed)[0]
        del completed[dropped]
        manifest["extra"]["checkpoint"]["pending"].append(dropped)
        path.write_text(json.dumps(manifest))
        results, _, stats = run_jobs(jobs_list, resume=str(path))
        assert stats.resumed == len(jobs_list) - 1
        assert stats.executed == 1
        assert len(results) == len(jobs_list)

    def test_resumed_results_skip_the_cache_store(self, tmp_path):
        from repro.engine.store import ShardedDiskStore

        path = tmp_path / "ck.json"
        jobs_list = tiny_jobs()[:2]
        run_jobs(jobs_list, checkpoint=str(path), checkpoint_interval=1)
        cache = ShardedDiskStore(tmp_path / "cache")
        _, _, stats = run_jobs(jobs_list, resume=str(path), cache=cache)
        assert stats.resumed == 2
        assert cache.stats.stores == 0  # replays are not re-stored


#: The child campaign the preemption test runs and kills.  Enough seeds
#: (at ~10ms each) that SIGTERM lands mid-campaign, not after the end.
_CAMPAIGN_SEEDS = 300
_CAMPAIGN_CONFIG = "strict"
_CHILD = """\
import sys
from repro.fuzz.campaign import run_campaign
run_campaign(range(%d), config_names=[%r], jobs=1,
             checkpoint=sys.argv[1], checkpoint_interval=1)
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
        path = tmp_path / "campaign.ck.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(path)],
            env=env, cwd=os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))),
        )
        try:
            # Wait until real progress is on disk, then preempt.
            deadline = time.monotonic() + 120.0
            completed = 0
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    pytest.fail("campaign finished before SIGTERM; "
                                "raise _CAMPAIGN_SEEDS")
                try:
                    manifest = json.loads(path.read_text())
                    completed = len(
                        manifest["extra"]["checkpoint"]["completed"]
                    )
                except (OSError, ValueError, KeyError):
                    completed = 0
                if completed >= 3:
                    break
                time.sleep(0.01)
            assert completed >= 3, "no checkpoint progress within 120s"
            child.send_signal(signal.SIGTERM)
            child.wait(timeout=30.0)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30.0)

        # The file a SIGTERM leaves behind is a complete, valid manifest
        # (writes are atomic), with work left to do.
        manifest = json.loads(path.read_text())
        assert validate_checkpoint(manifest) == []
        progress = manifest["extra"]["checkpoint"]
        done = len(progress["completed"])
        assert 0 < done < _CAMPAIGN_SEEDS
        assert progress["total"] == _CAMPAIGN_SEEDS

        # Resume: completed seeds replay, only the remainder executes.
        resumed = run_campaign(
            range(_CAMPAIGN_SEEDS), config_names=[_CAMPAIGN_CONFIG],
            jobs=1, resume=str(path),
        )
        assert resumed.engine.resumed == done
        assert resumed.engine.executed == _CAMPAIGN_SEEDS - done
        assert len(resumed.results) == _CAMPAIGN_SEEDS

        # ... and converges on the uninterrupted run's witness corpus.
        reference = run_campaign(
            range(_CAMPAIGN_SEEDS), config_names=[_CAMPAIGN_CONFIG],
            jobs=2,
        )
        assert _witness_corpus(resumed) == _witness_corpus(reference)
