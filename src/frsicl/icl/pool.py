"""Bounded experience pool with nearest-neighbour retrieval over normalized
feature vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..states import Action

DEFAULT_CAPACITY = 512


@dataclass(frozen=True)
class ExperienceRecord:
    """One (state, action, outcome) demonstration unit."""

    features: np.ndarray
    action: Action
    outcome_avg_aoi: float
    step: int
    avg_aoi_before_s: float  # mean AoI of the observed state, seconds


class ExperiencePool:
    """Ring buffer of ExperienceRecords; eviction is oldest-first.

    Row i of one (capacity, F) matrix holds the features of the record in
    slot i; F is fixed by the first add.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._count = 0  # records ever added; the next one goes to row count % capacity
        self._records: List[ExperienceRecord] = []
        self._rows: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Sequence[ExperienceRecord]:
        """Oldest first."""
        head = self._count % self.capacity
        return tuple(self._records[head:] + self._records[:head])

    def _check_length(self, features: np.ndarray) -> None:
        if features.shape != self._rows.shape[1:]:
            raise ValueError(f"feature length mismatch: {features.shape} "
                             f"vs {self._rows.shape[1:]}")

    def add(self, record: ExperienceRecord) -> None:
        if not math.isfinite(record.outcome_avg_aoi) or record.outcome_avg_aoi < 0:
            raise ValueError("outcome_avg_aoi must be finite and >= 0")
        features = np.asarray(record.features, dtype=np.float64)
        if self._rows is None:
            self._rows = np.empty((self.capacity, len(features)))
        self._check_length(features)
        row = self._count % self.capacity
        self._rows[row] = features
        if row < len(self._records):
            self._records[row] = record
        else:
            self._records.append(record)
        self._count += 1

    def retrieve(self, current: np.ndarray, k: int) -> List[ExperienceRecord]:
        """Top-k records by Euclidean distance to `current`; distance ties
        go to the newer record; the result is oldest first."""
        if k <= 0 or not self._records:
            return []
        current = np.asarray(current, dtype=np.float64)
        self._check_length(current)
        n = len(self._records)
        diff = self._rows[:n] - current
        # vecdot gives the same bits as one norm(a - b) per record;
        # norm(axis=1) and einsum round differently and can split ties.
        distance = np.sqrt(np.vecdot(diff, diff))
        age = (self._count - 1 - np.arange(n)) % self.capacity  # 0 = newest
        picked = np.lexsort((age, distance))[:k]
        oldest_first = sorted(picked, key=age.__getitem__, reverse=True)
        return [self._records[i] for i in oldest_first]
