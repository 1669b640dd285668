"""``repro.engine.backends``: pluggable job placement.

Two built-ins, selected by name (``run_jobs(..., backend="...")`` or
CLI ``--backend``):

======================  =================================================
``serial``              every job in the driver process, in order — the
                        bit-identity reference and universal fallback
``local-pool``          fork-based ``ProcessPoolExecutor`` on this host
                        (the default for ``--jobs > 1``)
======================  =================================================

Both produce bit-identical windows for the same job set (pinned by
``tests/golden/backend_equivalence.json``); they differ only in how
concurrently the deterministic jobs execute.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.engine.backends.base import BackendContext, ExecutionBackend
from repro.engine.backends.local_pool import LocalPoolBackend
from repro.engine.backends.serial import SerialBackend

#: name -> backend class; third parties may register via this dict.
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    LocalPoolBackend.name: LocalPoolBackend,
}


def available_backends() -> List[str]:
    return sorted(BACKENDS)


def make_backend(name: str) -> ExecutionBackend:
    """Instantiate a backend by registry name."""
    try:
        backend_cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            "unknown backend %r (available: %s)"
            % (name, ", ".join(available_backends()))
        ) from None
    return backend_cls()


__all__ = [
    "BACKENDS",
    "BackendContext",
    "ExecutionBackend",
    "LocalPoolBackend",
    "SerialBackend",
    "available_backends",
    "make_backend",
]
