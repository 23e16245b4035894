"""Swarm generation, noise models, and pairwise distance measurement.

A swarm is a set of UAVs with true 3-D positions (what physics sees) and
reported positions (what each UAV broadcasts).  Distance measurements are
taken against true geometry and gated by the communication range, producing a
sparse directed measurement map that doubles as the neighbor graph.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import seeds

# Floor for stored distances: keeps every entry strictly positive so that
# "an entry exists iff r > 0" stays a valid adjacency convention.
DISTANCE_FLOOR = 1e-12


class InvalidParameterError(ValueError):
    """Raised when an operation receives out-of-contract parameters."""


@dataclass(frozen=True)
class Uav:
    """One swarm member.

    ``true_pos`` is the physical location; ``reported_pos`` is what the UAV
    broadcasts.  They differ by measurement noise for benign UAVs and by an
    arbitrary spoof for malicious ones.
    """

    id: int
    true_pos: np.ndarray
    reported_pos: np.ndarray
    ground_truth_malicious: bool = False

    def __post_init__(self):
        object.__setattr__(self, "true_pos", _as_position(self.true_pos))
        object.__setattr__(self, "reported_pos", _as_position(self.reported_pos))


def _as_position(p) -> np.ndarray:
    arr = np.array(p, dtype=float)
    if arr.shape != (3,):
        raise InvalidParameterError(f"position must be a 3-vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidParameterError("position must be finite in every coordinate")
    arr.flags.writeable = False
    return arr


def row_norms(d: np.ndarray) -> np.ndarray:
    """Norm of each row of a (k, 3) array, bit-equal to ``np.linalg.norm``
    of the row alone: each stacked 1x3 by 3x1 product goes to the same BLAS
    dot as ``norm`` (``norm(axis=1)``, row sums and ``einsum`` add in another
    order and differ in the last bit on about one row in eight)."""
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])


@dataclass(frozen=True)
class Swarm:
    uavs: tuple[Uav, ...]
    comm_range: float
    cube_half_width: float
    rng_seed: int

    def __post_init__(self):
        object.__setattr__(self, "uavs", tuple(self.uavs))
        if len(self.uavs) < 2:
            raise InvalidParameterError("a swarm needs at least 2 UAVs")
        if not (0 < self.comm_range < math.inf and 0 < self.cube_half_width < math.inf):
            raise InvalidParameterError("comm_range and cube_half_width must be positive and finite")
        ids = [u.id for u in self.uavs]
        if ids != list(range(len(self.uavs))):
            raise InvalidParameterError("UAV ids must be 0..N-1 in order")

    @property
    def n(self) -> int:
        return len(self.uavs)

    def true_positions(self) -> np.ndarray:
        """(N, 3) array of true positions."""
        return np.array([u.true_pos for u in self.uavs])

    def reported_positions(self) -> np.ndarray:
        """(N, 3) array of reported positions."""
        return np.array([u.reported_pos for u in self.uavs])

    def malicious_ids(self) -> frozenset[int]:
        return frozenset(u.id for u in self.uavs if u.ground_truth_malicious)


@dataclass(frozen=True)
class NoiseParams:
    """Per-axis position noise variance and pairwise distance noise variance."""

    pos_var: float = 1e-6
    dist_var: float = 1e-6

    def __post_init__(self):
        if not (0 <= self.pos_var < math.inf and 0 <= self.dist_var < math.inf):
            raise InvalidParameterError("noise variances must be nonnegative and finite")


@dataclass(frozen=True)
class MeasurementSet:
    """Sparse directed map (i, j) -> measured/claimed distance.

    An entry (i, j) means UAV i reports a ranging measurement to UAV j.  The
    adjacency indicator is entry presence; ``neighbor_set`` symmetrizes it.
    A set is immutable once built (``entries`` must not change afterwards):
    its pair index is built from the entries on first use and kept.  Stages
    that change claims build a new entries dict and one new set from it
    (``measure_distances`` once, each attack phase once).
    """

    n: int
    entries: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        for (i, j), r in self.entries.items():
            if i == j or not (0 <= i < self.n and 0 <= j < self.n):
                raise InvalidParameterError(f"bad measurement pair ({i}, {j})")
            if not 0 < r < math.inf:
                raise InvalidParameterError(f"measurement ({i}, {j}) must be positive and finite, got {r}")

    def get(self, i: int, j: int) -> float:
        return self.entries[(i, j)]

    def directed_pairs(self) -> list[tuple[int, int, float]]:
        """All (i, j, r) triplets in sorted pair order."""
        return [(i, j, self.entries[(i, j)]) for (i, j) in sorted(self.entries)]

    @cached_property
    def outgoing(self) -> dict[int, tuple[tuple[int, int, float], ...]]:
        """Source id -> its (i, j, r) triplets sorted by j (sources without
        entries are absent)."""
        out: dict[int, list] = {}
        for t in self.directed_pairs():
            out.setdefault(t[0], []).append(t)
        return {i: tuple(t) for i, t in out.items()}

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        """Id -> its one-hop neighbors in either direction (ids without
        entries are absent)."""
        adj: dict[int, set[int]] = {}
        for (i, j) in self.entries:
            adj.setdefault(i, set()).add(j)
            adj.setdefault(j, set()).add(i)
        return {k: frozenset(v) for k, v in adj.items()}


def generate_swarm(n: int, cube_half_width: float, comm_range: float, seed: int) -> Swarm:
    """Generate n UAVs uniformly in the cube [-w, +w]^3.

    Reported positions start equal to true positions and every UAV is benign;
    noise and attacks are applied by later pipeline stages.
    """
    if not (isinstance(n, numbers.Integral) and n >= 2):
        raise InvalidParameterError(f"need an integer n >= 2, got {n!r}")
    if not (0 < cube_half_width < math.inf and 0 < comm_range < math.inf):
        raise InvalidParameterError("cube_half_width and comm_range must be positive and finite")
    rng = seeds.stream(seed, seeds.SWARM)
    pts = rng.uniform(-cube_half_width, cube_half_width, size=(n, 3))
    uavs = tuple(Uav(i, pts[i], pts[i]) for i in range(n))
    return Swarm(uavs, comm_range, cube_half_width, seed)


def apply_position_noise(swarm: Swarm, params: NoiseParams, seed: int) -> Swarm:
    """Corrupt benign UAVs' reported positions with zero-mean Gaussian noise.

    Malicious UAVs are untouched here: the attack engine overwrites their
    reports anyway.
    """
    if params.pos_var == 0:
        return swarm
    rng = seeds.stream(seed, seeds.POS_NOISE)
    noise = rng.normal(0.0, np.sqrt(params.pos_var), size=(swarm.n, 3))
    uavs = []
    for u in swarm.uavs:
        if u.ground_truth_malicious:
            uavs.append(u)
        else:
            uavs.append(replace(u, reported_pos=u.true_pos + noise[u.id]))
    return replace(swarm, uavs=tuple(uavs))


def measure_distances(swarm: Swarm, params: NoiseParams, seed: int) -> MeasurementSet:
    """Measure every directed pair whose true distance is within comm range.

    Measurements are taken against true geometry (a ranging signal reflects
    where the counterpart physically is, not where it claims to be).  The
    (i, j) and (j, i) noise draws are independent, so directed entries may
    disagree slightly.
    """
    pos = swarm.true_positions()
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    in_range = dist <= swarm.comm_range
    np.fill_diagonal(in_range, False)
    if params.dist_var > 0:
        rng = seeds.stream(seed, seeds.DIST_NOISE)
        dist = dist + rng.normal(0.0, np.sqrt(params.dist_var), size=(swarm.n, swarm.n))
    # Row-major, so entries come in (i, j) order.
    i, j = np.nonzero(in_range)
    values = np.maximum(dist[i, j], DISTANCE_FLOOR)
    return MeasurementSet(swarm.n, dict(zip(zip(i.tolist(), j.tolist()), values.tolist())))


def neighbor_set(measurements: MeasurementSet, k: int) -> frozenset[int]:
    """One-hop neighbors of k: union of both measurement directions."""
    if not 0 <= k < measurements.n:
        raise InvalidParameterError(f"UAV id {k} out of range [0, {measurements.n})")
    return measurements.adjacency.get(k, frozenset())
