"""Statistics: counters, sampling methodology, and report rendering.

``repro.stats.sampling`` is intentionally not re-exported here: it imports
the cores (which themselves use ``repro.stats.counters``), so pulling it
into the package root would create an import cycle.  Import it directly::

    from repro.stats.sampling import SampledRun, run_window
"""

from repro.stats.counters import CycleClass, PipelineStats
from repro.stats.report import render_histogram, render_series, render_table

__all__ = [
    "CycleClass",
    "PipelineStats",
    "render_histogram",
    "render_series",
    "render_table",
]
