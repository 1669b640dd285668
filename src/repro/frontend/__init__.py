"""Front-end: branch prediction structures and the fetch unit."""

from repro.frontend.btb import BTB
from repro.frontend.direction import (
    AlwaysNotTaken,
    AlwaysTaken,
    Bimodal,
    DirectionPredictor,
    GShare,
    Tournament,
)
from repro.frontend.fetch import INSTR_BYTES, FetchedOp, FetchUnit
from repro.frontend.ras import RAS

__all__ = [
    "BTB",
    "AlwaysNotTaken",
    "AlwaysTaken",
    "Bimodal",
    "DirectionPredictor",
    "GShare",
    "Tournament",
    "INSTR_BYTES",
    "FetchedOp",
    "FetchUnit",
    "RAS",
]
