"""Branch direction predictors.

All predictors update speculatively at branch *execution* and are never
rolled back on squash — the property that lets an attacker mis-train them
(Spectre v1's access phase) and that makes the pattern history table itself
a potential side channel (§2 of the paper).
"""

from __future__ import annotations

from typing import List


class DirectionPredictor:
    """Interface: predict and update a conditional branch's direction."""

    def predict(self, pc: int) -> bool:
        raise NotImplementedError

    def update(self, pc: int, taken: bool) -> None:
        raise NotImplementedError


class AlwaysTaken(DirectionPredictor):
    """Degenerate predictor used by tests."""

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        pass


class AlwaysNotTaken(DirectionPredictor):
    """Degenerate predictor used by tests."""

    def predict(self, pc: int) -> bool:
        return False

    def update(self, pc: int, taken: bool) -> None:
        pass


class Bimodal(DirectionPredictor):
    """Classic table of 2-bit saturating counters indexed by PC."""

    def __init__(self, index_bits: int = 12):
        self.mask = (1 << index_bits) - 1
        self.table: List[int] = [2] * (1 << index_bits)  # weakly taken

    def _index(self, pc: int) -> int:
        return pc & self.mask

    def predict(self, pc: int) -> bool:
        return self.table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self.table[index]
        if taken:
            self.table[index] = min(3, counter + 1)
        else:
            self.table[index] = max(0, counter - 1)


class GShare(DirectionPredictor):
    """Global-history predictor: PC xor history indexes the counter table."""

    def __init__(self, index_bits: int = 12, history_bits: int = 12):
        self.index_mask = (1 << index_bits) - 1
        self.history_mask = (1 << history_bits) - 1
        self.table: List[int] = [2] * (1 << index_bits)
        self.history = 0

    def _index(self, pc: int) -> int:
        return (pc ^ self.history) & self.index_mask

    def predict(self, pc: int) -> bool:
        return self.table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self.table[index]
        if taken:
            self.table[index] = min(3, counter + 1)
        else:
            self.table[index] = max(0, counter - 1)
        self.history = ((self.history << 1) | int(taken)) & self.history_mask


class Tournament(DirectionPredictor):
    """Chooser between a bimodal and a gshare component (Alpha 21264 style)."""

    def __init__(self, index_bits: int = 12):
        self.bimodal = Bimodal(index_bits)
        self.gshare = GShare(index_bits)
        self.chooser: List[int] = [2] * (1 << index_bits)
        self.mask = (1 << index_bits) - 1

    def predict(self, pc: int) -> bool:
        if self.chooser[pc & self.mask] >= 2:
            return self.gshare.predict(pc)
        return self.bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        bimodal_correct = self.bimodal.predict(pc) == taken
        gshare_correct = self.gshare.predict(pc) == taken
        index = pc & self.mask
        if gshare_correct and not bimodal_correct:
            self.chooser[index] = min(3, self.chooser[index] + 1)
        elif bimodal_correct and not gshare_correct:
            self.chooser[index] = max(0, self.chooser[index] - 1)
        self.bimodal.update(pc, taken)
        self.gshare.update(pc, taken)
