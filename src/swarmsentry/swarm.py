"""Swarm generation, noise models, and pairwise distance measurement.

A swarm is a set of UAVs with true 3-D positions (what physics sees) and
reported positions (what each UAV broadcasts).  Distance measurements are
taken against true geometry and gated by the communication range, producing a
sparse directed measurement map that doubles as the neighbor graph.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import seeds

# Floor for stored distances: keeps every entry strictly positive so that
# "an entry exists iff r > 0" stays a valid adjacency convention.
DISTANCE_FLOOR = 1e-12

# Entries per block of rows when pairwise arrays are built (``row_blocks``):
# each temporary holds about this many, never n x n of them.
BLOCK_ELEMENTS = 1 << 14


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


def _as_positions(p) -> np.ndarray:
    """``_as_position`` for a whole (N, 3) array, checked once."""
    arr = np.array(p, dtype=float)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1:] != (3,):
        raise InvalidParameterError(f"positions must be 3-vectors, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidParameterError("position must be finite in every coordinate")
    arr.flags.writeable = False
    return arr


def _uavs_from_rows(ids, true_pos, reported_pos, malicious) -> tuple[Uav, ...]:
    """One ``Uav`` per row of (N, 3) position arrays, each array checked once
    as a whole: every UAV holds a read-only row of it.  ``Swarm`` checks the
    ids."""
    true_pos, reported_pos = _as_positions(true_pos), _as_positions(reported_pos)
    if not len(ids) == len(true_pos) == len(reported_pos) == len(malicious):
        raise InvalidParameterError("every UAV needs one id, two positions and one flag")
    uavs = []
    for uid, true, reported, flag in zip(ids, true_pos, reported_pos, malicious):
        # The rows are checked: build each UAV without copying them again.
        uav = object.__new__(Uav)
        uav.__dict__.update(id=uid, true_pos=true, reported_pos=reported, ground_truth_malicious=flag)
        uavs.append(uav)
    return tuple(uavs)


def _is_id(value) -> bool:
    """Whether ``value`` can be a UAV id: an integer (numpy's too), not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        if ids != list(range(len(self.uavs))) or not ({*map(type, ids)} <= {int} or all(map(_is_id, ids))):
            raise InvalidParameterError("UAV ids must be the integers 0..N-1 in order")

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


class PairDistances:
    """Distances on directed pairs of ``n`` UAVs, as three read-only arrays
    aligned entry by entry: ``src`` and ``dst`` (intp) name the pair and
    ``r`` (float) is its distance.

    ``PairDistances(n, src, dst, r)`` is the set whose k-th entry is
    ``(src[k], dst[k]) -> r[k]``, from integer id arrays (or sequences of
    integer ids) and distances.  ``n`` must be a nonnegative integer.  Every
    id must be an integer (numpy's too, never a bool), each pair two
    distinct ids in [0, n), and no pair may repeat; the first entry that
    breaks a rule is named.  A set is immutable once built.
    """

    def __init__(self, n: int, src, dst, r):
        if not (_is_id(n) and n >= 0):
            raise InvalidParameterError(f"n must be a nonnegative integer, got {n!r}")
        if not len(src) == len(dst) == len(r):
            raise InvalidParameterError("a set needs one source, destination and distance per entry")
        self.n = n
        count = _integer_prefix(src, dst)
        self.src, self.dst = (_id_array(ids[:count]) for ids in (src, dst))
        self.r = np.array(r[:count], dtype=float)
        for arr in (self.src, self.dst, self.r):
            arr.flags.writeable = False
        bad_pair = (self.src == self.dst) | (self.src < 0) | (self.src >= n) | (self.dst < 0) | (self.dst >= n)
        bad_value = self._bad_values()
        # An entry repeats a pair when an earlier one has its code: the
        # stable sort keeps the entries of one code in entry order.
        order, codes = self.order, self.codes
        repeat = np.zeros(count, dtype=bool)
        repeat[order[1:]] = codes[order[1:]] == codes[order[:-1]]
        bad = bad_pair | bad_value | repeat
        if bad.any():
            k = int(np.argmax(bad))
            i, j = src[k], dst[k]
            if bad_pair[k]:
                raise InvalidParameterError(f"bad measurement pair ({i}, {j})")
            if bad_value[k]:
                raise InvalidParameterError(f"measurement ({i}, {j}) must be positive and finite, got {r[k]}")
            raise InvalidParameterError(f"repeated measurement pair ({i}, {j})")
        if count < len(src):
            raise InvalidParameterError(f"measurement ids must be integers, got ({src[count]!r}, {dst[count]!r})")

    def _bad_values(self) -> np.ndarray:
        """Entries whose distance the set refuses (none here)."""
        return np.zeros(len(self.r), dtype=bool)

    @cached_property
    def codes(self) -> np.ndarray:
        """Each pair as the one integer i * n + j."""
        return self.src * self.n + self.dst

    @cached_property
    def order(self) -> np.ndarray:
        """The entries sorted by (src, dst): one stable sort of ``codes``."""
        return np.argsort(self.codes, kind="stable")

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        """The distance of each pair code in ``codes``, inf for pairs the set
        lacks."""
        if not len(self.codes):
            return np.full(len(codes), np.inf)
        known = self.codes[self.order]
        at = np.minimum(np.searchsorted(known, codes), len(known) - 1)
        return np.where(known[at] == codes, self.r[self.order[at]], np.inf)


def _id_array(ids) -> np.ndarray:
    try:
        return np.array(ids, dtype=np.intp)
    except OverflowError:
        # An id beyond intp is out of every range: mark it -1.
        return np.array([i if -2**62 < i < 2**62 else -1 for i in ids], dtype=np.intp)


def _integer_prefix(src, dst) -> int:
    """How many leading entries have integer ids at both ends."""
    if all(isinstance(ids, np.ndarray) and ids.dtype.kind in "iu" for ids in (src, dst)):
        return len(src)
    if {*map(type, src), *map(type, dst)} <= {int}:
        return len(src)
    # ``type(...) is int`` first: the common case, at a fraction of the ABC check's cost.
    return next((k for k, (i, j) in enumerate(zip(src, dst))
                 if not ((type(i) is int or _is_id(i)) and (type(j) is int or _is_id(j)))), len(src))


class MeasurementSet(PairDistances):
    """Sparse directed map (i, j) -> measured/claimed distance, kept as the
    arrays ``src``, ``dst`` and ``r`` (see ``PairDistances``).

    An entry (i, j) means UAV i reports a ranging measurement to UAV j.  The
    adjacency indicator is entry presence; ``neighbor_set`` symmetrizes it.
    Every distance must be positive and finite.  Stages that change claims
    build new arrays and one new set from them (``measure_distances`` once,
    each attack phase once).  ``order`` and ``row_start`` index the claims
    by source (a CSR index).
    """

    def _bad_values(self) -> np.ndarray:
        return ~((self.r > 0) & (self.r < math.inf))

    @cached_property
    def row_start(self) -> np.ndarray:
        """CSR row offsets over ``order``: the claims of source i are
        ``order[row_start[i]:row_start[i + 1]]``."""
        return np.searchsorted(self.src[self.order], np.arange(self.n + 1))


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
    return Swarm(_uavs_from_rows(range(n), pts, pts, [False] * n), comm_range, cube_half_width, seed)


def apply_position_noise(swarm: Swarm, params: NoiseParams, seed: int) -> Swarm:
    """Corrupt benign UAVs' reported positions with zero-mean Gaussian noise.

    Malicious UAVs are untouched here: the attack engine overwrites their
    reports anyway.
    """
    if params.pos_var == 0:
        return swarm
    rng = seeds.stream(seed, seeds.POS_NOISE)
    noise = rng.normal(0.0, np.sqrt(params.pos_var), size=(swarm.n, 3))
    true, malicious = swarm.true_positions(), [u.ground_truth_malicious for u in swarm.uavs]
    reported = np.where(np.array(malicious)[:, None], swarm.reported_positions(), true + noise)
    return replace(swarm, uavs=_uavs_from_rows(range(swarm.n), true, reported, malicious))


def row_blocks(rows: int, width: int) -> list[tuple[int, int]]:
    """The [a, b) ranges that cover ``rows`` rows of ``width`` entries in
    order, each of about ``BLOCK_ELEMENTS`` entries (at least one row)."""
    step = max(1, BLOCK_ELEMENTS // width)
    return [(a, min(a + step, rows)) for a in range(0, rows, step)]


def measure_distances(swarm: Swarm, params: NoiseParams, seed: int) -> MeasurementSet:
    """Measure every directed pair whose true distance is within comm range.

    Measurements are taken against true geometry (a ranging signal reflects
    where the counterpart physically is, not where it claims to be).  The
    (i, j) and (j, i) noise draws are independent, so directed entries may
    disagree slightly.

    The pairs are taken a block of rows at a time (``row_blocks``), so
    memory is O(block * n) besides the claims themselves: no n x n array
    is built.  All n * n noise draws are still made, row by row, so the
    ``DIST_NOISE`` stream gives each pair the value one (n, n) draw would.
    """
    pos, n = swarm.true_positions(), swarm.n
    rng = seeds.stream(seed, seeds.DIST_NOISE) if params.dist_var > 0 else None
    src, dst, r = [], [], []
    for a, b in row_blocks(n, n):
        # sqrt(dx^2 + dy^2 + dz^2), added in that order: what a sum over the
        # coordinate axis of the (b - a, N, 3) differences gives, without that array.
        dx, dy, dz = (c[a:b, None] - c for c in pos.T)
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        in_range = dist <= swarm.comm_range
        in_range[np.arange(b - a), np.arange(a, b)] = False
        if rng is not None:
            dist = dist + rng.normal(0.0, np.sqrt(params.dist_var), size=(b - a, n))
        # Row-major, so entries come in (i, j) order.
        i, j = np.nonzero(in_range)
        src.append(i + a)
        dst.append(j)
        r.append(dist[i, j])
    return MeasurementSet(n, np.concatenate(src), np.concatenate(dst), np.maximum(np.concatenate(r), DISTANCE_FLOOR))


def neighbor_set(measurements: MeasurementSet, k: int) -> frozenset[int]:
    """One-hop neighbors of k: union of both measurement directions."""
    if not (_is_id(k) and 0 <= k < measurements.n):
        raise InvalidParameterError(f"UAV id must be an integer in [0, {measurements.n}), got {k!r}")
    src, dst = measurements.src, measurements.dst
    return frozenset(dst[src == k].tolist()) | frozenset(src[dst == k].tolist())
