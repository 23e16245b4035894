"""Initial suspect partition from reported-vs-measured distance comparison.

Two sparse directed matrices are compared entry by entry: the distances
implied by reported positions and the distances actually claimed.  A pair
whose squared distances disagree by at least the acceptance window
(``conic.acceptance_window``), or that is claimed in one direction only,
puts both endpoints into the suspected set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conic
from .attacks import AttackedScenario
from .swarm import InvalidParameterError, MeasurementSet, PairDistances, row_norms


class ReportedDistanceMatrix(PairDistances):
    """Sparse map (i, j) -> ||reported_i - reported_j|| over measurement
    adjacency: ``r`` holds the distances, aligned with the pairs ``src`` and
    ``dst`` (see ``swarm.PairDistances``)."""


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
    ms = scenario.measurements
    return ReportedDistanceMatrix.from_arrays(scenario.n, ms.src, ms.dst, row_norms(pos[ms.src] - pos[ms.dst]))


def _violations(e_r: ReportedDistanceMatrix, e_n: MeasurementSet, d: float) -> np.ndarray:
    """The violating pairs, each coded i * n + j, in sorted order."""
    if e_r.n != e_n.n:
        raise InvalidParameterError("matrix dimensions disagree")
    n = e_n.n
    threshold = conic.acceptance_window(d)
    keys = np.sort(np.concatenate([e_r.codes, e_n.codes]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    # A pair missing from one structure gets an infinite distance there, so
    # its gap is infinite and it violates like a one-directional claim.
    claimed, implied = e_n.lookup(keys), e_r.lookup(keys)
    mutual = np.isfinite(e_n.lookup(keys % n * n + keys // n))
    return keys[~mutual | (np.abs(claimed**2 - implied**2) >= threshold)]


def violating_pairs(
    e_r: ReportedDistanceMatrix, e_n: MeasurementSet, d: float
) -> list[tuple[int, int]]:
    """Directed pairs failing the element-wise comparison.

    A pair violates when (a) it is claimed in exactly one structure or one
    direction, or (b) |r_claimed^2 - r_reported^2| >= the acceptance window
    (``conic.acceptance_window(d)``).
    """
    bad = _violations(e_r, e_n, d)
    return list(zip((bad // e_n.n).tolist(), (bad % e_n.n).tolist()))


def violation_counts(
    e_r: ReportedDistanceMatrix, e_n: MeasurementSet, d: float
) -> dict[int, int]:
    """Per-UAV count of incident violating pairs (0 for clean ids)."""
    bad = _violations(e_r, e_n, d)
    ends = np.concatenate([bad // e_n.n, bad % e_n.n])
    return dict(enumerate(np.bincount(ends, minlength=e_n.n).tolist()))


def initial_suspects(
    e_r: ReportedDistanceMatrix, e_n: MeasurementSet, d: float
) -> SuspectSets:
    """Both endpoints of every violating pair are suspected; the detectors
    later reduce the overreach."""
    return partition(violation_counts(e_r, e_n, d))


def partition(counts: dict[int, int]) -> SuspectSets:
    """The initial partition read off per-UAV violation counts: an id is
    suspected iff a violating pair touches it."""
    # Lists, not generator-fed tuples: CPython resizes those, moving each from
    # one per-size tuple free list to another, which grows the process.
    return SuspectSets([k for k, c in counts.items() if c], [k for k, c in counts.items() if not c])
