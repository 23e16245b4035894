"""Initial suspect partition from reported-vs-measured distance comparison.

Two sparse directed matrices are compared entry by entry: the distances
implied by reported positions and the distances actually claimed.  A pair
whose squared distances disagree by at least (d/2)^2, or that is claimed in
one direction only, puts both endpoints into the suspected set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attacks import AttackedScenario
from .swarm import InvalidParameterError, MeasurementSet, row_norms


@dataclass(frozen=True)
class ReportedDistanceMatrix:
    """Sparse map (i, j) -> ||reported_i - reported_j|| over measurement adjacency."""

    n: int
    entries: dict[tuple[int, int], float]

    def get(self, i: int, j: int) -> float:
        return self.entries[(i, j)]


@dataclass(frozen=True)
class SuspectSets:
    """Partition of UAV ids into suspected and trusted."""

    suspected: tuple[int, ...]
    trusted: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "suspected", tuple(sorted(self.suspected)))
        object.__setattr__(self, "trusted", tuple(sorted(self.trusted)))
        if set(self.suspected) & set(self.trusted):
            raise InvalidParameterError("suspected and trusted must be disjoint")

    @property
    def n(self) -> int:
        return len(self.suspected) + len(self.trusted)

    def all_ids(self) -> frozenset[int]:
        return frozenset(self.suspected) | frozenset(self.trusted)


def build_reported_matrix(scenario: AttackedScenario) -> ReportedDistanceMatrix:
    """Euclidean distances between reported positions, on the claimed adjacency."""
    pos = scenario.swarm.reported_positions()
    keys = list(scenario.measurements.entries)
    pairs = np.array(keys, dtype=np.intp).reshape(-1, 2)
    dist = row_norms(pos[pairs[:, 0]] - pos[pairs[:, 1]])
    return ReportedDistanceMatrix(scenario.n, dict(zip(keys, dist.tolist())))


def violating_pairs(
    e_r: ReportedDistanceMatrix, e_n: MeasurementSet, d: float
) -> list[tuple[int, int]]:
    """Directed pairs failing the element-wise comparison.

    A pair violates when (a) it is claimed in exactly one structure or one
    direction, or (b) |r_claimed^2 - r_reported^2| >= (d/2)^2.
    """
    if e_r.n != e_n.n:
        raise InvalidParameterError("matrix dimensions disagree")
    threshold = (d / 2.0) ** 2
    keys = sorted(e_r.entries.keys() | e_n.entries.keys())
    # A pair missing from one structure gets an infinite distance there, so
    # its gap is infinite and it violates like a one-directional claim.
    claimed = np.array([e_n.entries.get(k, np.inf) for k in keys])
    implied = np.array([e_r.entries.get(k, np.inf) for k in keys])
    mutual = np.array([(j, i) in e_n.entries for (i, j) in keys], dtype=bool)
    bad = ~mutual | (np.abs(claimed**2 - implied**2) >= threshold)
    return [keys[t] for t in np.flatnonzero(bad)]


def violation_counts(
    e_r: ReportedDistanceMatrix, e_n: MeasurementSet, d: float
) -> dict[int, int]:
    """Per-UAV count of incident violating pairs (0 for clean ids)."""
    ends = np.array(violating_pairs(e_r, e_n, d), dtype=np.intp).ravel()
    return dict(enumerate(np.bincount(ends, minlength=e_n.n).tolist()))


def initial_suspects(
    e_r: ReportedDistanceMatrix, e_n: MeasurementSet, d: float
) -> SuspectSets:
    """Both endpoints of every violating pair are suspected; the detectors
    later reduce the overreach."""
    suspected: set[int] = set()
    for (i, j) in violating_pairs(e_r, e_n, d):
        suspected.update((i, j))
    trusted = [k for k in range(e_n.n) if k not in suspected]
    return SuspectSets(tuple(sorted(suspected)), tuple(trusted))
