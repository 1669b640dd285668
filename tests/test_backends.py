"""Job placement: serial and fork-pool runs are bit-identical.

``tests/golden/backend_equivalence.json`` pins the serial run's windows
for a tiny sweep; the fork pool must reproduce them exactly — placement
may never change results.

Regenerating (only after an *intentional* timing change)::

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.config import (ConfigSpec, NDAPolicyName, baseline_ooo,
                              nda_config)
    from repro.engine import expand_jobs, run_jobs
    specs = [ConfigSpec("OoO", baseline_ooo()),
             ConfigSpec("Strict", nda_config(NDAPolicyName.STRICT)),
             ConfigSpec("In-Order", baseline_ooo(), in_order=True)]
    jobs = expand_jobs(["exchange2"], specs, 2, 300, 800, 2500)
    results, _, _ = run_jobs(jobs, backend="serial")
    windows = {"%s/%s/%d" % r.job.coordinates: r.window.to_dict()
               for r in results}
    json.dump({"comment": "see tests/test_backends.py",
               "params": {"benchmarks": ["exchange2"],
                          "configs": ["OoO", "Strict", "In-Order"],
                          "samples": 2, "warmup": 300, "measure": 800,
                          "instructions": 2500},
               "windows": windows},
              open("tests/golden/backend_equivalence.json", "w"),
              indent=1, sort_keys=True)
    EOF
"""

import json
import pathlib

import pytest

from repro.config import ConfigSpec, NDAPolicyName, baseline_ooo, nda_config
from repro.engine import expand_jobs, run_jobs

GOLDEN = pathlib.Path(__file__).parent / "golden" / \
    "backend_equivalence.json"


def tiny_specs():
    return [
        ConfigSpec("OoO", baseline_ooo()),
        ConfigSpec("Strict", nda_config(NDAPolicyName.STRICT)),
        ConfigSpec("In-Order", baseline_ooo(), in_order=True),
    ]


def tiny_jobs():
    return expand_jobs(["exchange2"], tiny_specs(), 2, 300, 800, 2500)


def windows_by_coords(results):
    return {
        "%s/%s/%d" % r.job.coordinates: r.window.to_dict()
        for r in results
    }


class TestBitIdentity:
    """Both placements reproduce the golden (serial) windows exactly."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())["windows"]

    def run_backend(self, backend, **kwargs):
        results, failures, stats = run_jobs(
            tiny_jobs(), backend=backend, **kwargs
        )
        assert not failures
        assert len(results) == 6
        return results, stats

    def test_serial_matches_golden(self, golden):
        results, stats = self.run_backend("serial")
        assert stats.backend == "serial"
        assert stats.workers == 1
        assert windows_by_coords(results) == golden

    def test_local_pool_matches_golden(self, golden):
        results, stats = self.run_backend("local-pool", jobs=2)
        assert stats.backend == "local-pool"
        assert windows_by_coords(results) == golden

    def test_serial_overrides_jobs(self):
        # ``backend="serial"`` is one worker whatever ``jobs`` says.
        def no_pool(**kwargs):
            raise AssertionError("a serial run must not build a pool")

        results, failures, stats = run_jobs(
            tiny_jobs()[:2], jobs=4, backend="serial",
            executor_factory=no_pool,
        )
        assert not failures and len(results) == 2
        assert (stats.workers, stats.backend) == (1, "serial")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="local-pool"):
            run_jobs(tiny_jobs(), backend="slurm")
