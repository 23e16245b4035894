"""Position-spoofing attack injection.

Three attack flavors are supported:

* distributed — each attacker independently reports a fake position far from
  its true one and fabricates ranging claims consistent with the fake;
* collusion — attackers place their fakes inside one benign target's
  communication range to frame it;
* mixed — a distributed phase followed by a collusion phase on disjoint
  attacker subsets.

Each attack phase is one spoof step (``_spoof``): every attacker's report
moves to its fake, and the phase builds one new measurement set in which each
attacker's outgoing claims are replaced by the distances its fake would see.
Attackers rewrite only their own outgoing claims.  Honest measurements taken
*of* an attacker still reflect true geometry, so directed entries can
disagree; that asymmetry is evidence for the detectors, not a bug.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import seeds
from .swarm import (
    DISTANCE_FLOOR,
    InvalidParameterError,
    MeasurementSet,
    Swarm,
    _is_id,
    row_norms,
)

# Colluders keep their fakes this fraction of the range away from the
# boundary so fabricated edges always clear the range gate.
COLLUSION_MARGIN = 0.05

# Rejection-sampling attempts before falling back to a deterministic worst
# case placement.
_MAX_REJECTS = 1000

DISTRIBUTED = "distributed"
COLLUSION = "collusion"
MIXED = "mixed"
ATTACK_KINDS = (DISTRIBUTED, COLLUSION, MIXED)


@dataclass(frozen=True)
class AttackPlan:
    kind: str
    malicious_ids: frozenset[int]
    seed: int
    fake_offset_min: float | None = None   # None -> comm_range at apply time
    target: int | None = None              # collusion / mixed
    distributed_ids: frozenset[int] | None = None  # mixed only
    collusion_ids: frozenset[int] | None = None    # mixed only

    def __post_init__(self):
        object.__setattr__(self, "malicious_ids", frozenset(self.malicious_ids))
        ids = [*self.malicious_ids, *(self.distributed_ids or ()), *(self.collusion_ids or ())]
        if not all(map(_is_id, ids + ([] if self.target is None else [self.target]))):
            raise InvalidParameterError("attacker, subset and target ids must be integers")
        if self.kind not in ATTACK_KINDS:
            raise InvalidParameterError(f"unknown attack kind {self.kind!r}")
        if self.kind in (COLLUSION, MIXED):
            if self.target is None:
                raise InvalidParameterError(f"{self.kind} attack needs a target")
            if self.target in self.malicious_ids:
                raise InvalidParameterError("target must be benign")
        if self.kind == MIXED:
            d_ids = frozenset(self.distributed_ids or ())
            c_ids = frozenset(self.collusion_ids or ())
            if d_ids & c_ids:
                raise InvalidParameterError("distributed and collusion sets overlap")
            if d_ids | c_ids != self.malicious_ids:
                raise InvalidParameterError("mixed subsets must partition malicious_ids")
            object.__setattr__(self, "distributed_ids", d_ids)
            object.__setattr__(self, "collusion_ids", c_ids)


@dataclass(frozen=True)
class AttackedScenario:
    """A swarm after spoofing plus the measurement set after fabrication."""

    swarm: Swarm
    measurements: MeasurementSet
    plan: AttackPlan | None = None

    @property
    def n(self) -> int:
        return self.swarm.n

    def truth(self) -> frozenset[int]:
        return self.swarm.malicious_ids()


def select_malicious(swarm: Swarm, m: int, seed: int) -> frozenset[int]:
    """Uniformly choose m distinct UAV ids to be attackers."""
    if not (isinstance(m, numbers.Integral) and 0 <= m < swarm.n):
        raise InvalidParameterError(f"need an integer 0 <= m < N, got m={m!r}, N={swarm.n}")
    if m == 0:
        return frozenset()
    rng = seeds.stream(seed, seeds.SELECT_MALICIOUS)
    return frozenset(int(i) for i in rng.choice(swarm.n, size=m, replace=False))


def default_collusion_target(swarm: Swarm, measurements: MeasurementSet, malicious_ids: frozenset[int]) -> int:
    """Benign UAV with the highest honest degree (ties broken by lowest id)."""
    n, src, dst = measurements.n, measurements.src, measurements.dst
    # Each unordered linked pair once, then both its ends.
    links = np.sort(np.minimum(src, dst) * n + np.maximum(src, dst))
    links = links[np.diff(links, prepend=-1) != 0]
    degree = np.bincount(np.concatenate([links // n, links % n]), minlength=swarm.n)[:swarm.n]
    degree[np.isin(np.arange(swarm.n), list(malicious_ids))] = -1
    if degree.max() < 0:
        raise InvalidParameterError("no benign UAV available as collusion target")
    return int(np.argmax(degree))


def _spoof(
    swarm: Swarm,
    measurements: MeasurementSet,
    fakes: dict[int, np.ndarray],
    dist_var: float,
    rng: np.random.Generator,
    target: int | None = None,
) -> tuple[Swarm, MeasurementSet]:
    """Move each attacker's report to its fake, mark it malicious, and
    rewrite its outgoing claims to match.

    Claims go to every UAV whose *reported* position, after the spoof, lies
    within range of the fake (a rational attacker fabricates exactly what its
    fake location would see), and always to ``target`` (the collusion target,
    in range by construction anyway).  Non-attacker entries keep their order;
    each attacker's claims follow, in id order.
    """
    uavs = list(swarm.uavs)
    for m_id, fake in fakes.items():
        uavs[m_id] = replace(uavs[m_id], reported_pos=fake, ground_truth_malicious=True)
    attacked = replace(swarm, uavs=tuple(uavs))
    reported = attacked.reported_positions()
    attackers = np.array(sorted(fakes), dtype=np.intp)
    ids = np.arange(swarm.n)
    # One row of distances per attacker, each the per-pair norm (row_norms).
    dist = row_norms((reported[attackers, None, :] - reported[None, :, :]).reshape(-1, 3)).reshape(-1, swarm.n)
    in_reach = ((dist <= swarm.comm_range) | (ids == target)) & (ids != attackers[:, None])
    # Row-major: each attacker's claims in id order, attackers in id order.
    row, js = np.nonzero(in_reach)
    # One draw of k values equals k scalar draws, in the same order.
    noise = rng.normal(0.0, np.sqrt(dist_var), size=js.size) if dist_var > 0 else 0.0
    claims = np.maximum(dist[row, js] + noise, DISTANCE_FLOOR)
    is_attacker = np.zeros(swarm.n, dtype=bool)
    is_attacker[attackers] = True
    keep = ~is_attacker[measurements.src]
    return attacked, MeasurementSet.from_arrays(
        swarm.n,
        np.concatenate([measurements.src[keep], attackers[row]]),
        np.concatenate([measurements.dst[keep], js]),
        np.concatenate([measurements.r[keep], claims]),
    )


def _sample_distributed_fake(
    true_pos: np.ndarray, half_width: float, offset_min: float, rng: np.random.Generator
) -> np.ndarray:
    for _ in range(_MAX_REJECTS):
        cand = rng.uniform(-half_width, half_width, size=3)
        if np.linalg.norm(cand - true_pos) >= offset_min:
            return cand
    # Farthest cube corner from the true position is always a valid fallback.
    corners = np.array([[sx, sy, sz] for sx in (-half_width, half_width)
                        for sy in (-half_width, half_width)
                        for sz in (-half_width, half_width)])
    return corners[int(np.argmax(np.linalg.norm(corners - true_pos, axis=1)))]


def apply_distributed(
    swarm: Swarm,
    measurements: MeasurementSet,
    malicious_ids: frozenset[int],
    fake_offset_min: float | None = None,
    seed: int = 0,
    dist_var: float = 0.0,
    plan: AttackPlan | None = None,
) -> AttackedScenario:
    """Each attacker reports an independent fake position and claims to match."""
    malicious_ids = frozenset(malicious_ids)
    _check_inputs(swarm, measurements, malicious_ids)
    if not malicious_ids:
        return AttackedScenario(swarm, measurements, plan)
    offset = swarm.comm_range if fake_offset_min is None else fake_offset_min
    place_rng = seeds.stream(seed, seeds.PLACE_DISTRIBUTED)
    fakes = {m: _sample_distributed_fake(swarm.uavs[m].true_pos, swarm.cube_half_width, offset, place_rng)
             for m in sorted(malicious_ids)}
    attacked, ms = _spoof(swarm, measurements, fakes, dist_var, seeds.stream(seed, seeds.FABRICATE))
    if plan is None:
        plan = AttackPlan(DISTRIBUTED, malicious_ids, seed, fake_offset_min=offset)
    return AttackedScenario(attacked, ms, plan)


def _sample_collusion_fake(
    true_pos: np.ndarray,
    center: np.ndarray,
    radius: float,
    half_width: float,
    offset_min: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform point in ball(center, radius), inside the cube, preferring
    points at least offset_min from the attacker's true position.

    When the colluder's true position sits inside the target ball the offset
    requirement may be unsatisfiable; we then take the in-ball point farthest
    from the true position (best-effort spoof displacement).
    """
    best, best_off = None, -1.0
    for _ in range(_MAX_REJECTS):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        r = radius * rng.uniform() ** (1.0 / 3.0)
        cand = center + r * u
        if np.max(np.abs(cand)) > half_width:
            continue
        off = float(np.linalg.norm(cand - true_pos))
        if off >= offset_min:
            return cand
        if off > best_off:
            best, best_off = cand, off
    if best is None:  # target ball entirely outside cube: clamp the center
        best = np.clip(center, -half_width, half_width)
    return best


def apply_collusion(
    swarm: Swarm,
    measurements: MeasurementSet,
    malicious_ids: frozenset[int],
    target: int,
    seed: int = 0,
    dist_var: float = 0.0,
    fake_offset_min: float | None = None,
    plan: AttackPlan | None = None,
) -> AttackedScenario:
    """Attackers fake positions inside the target's range to frame it."""
    malicious_ids = frozenset(malicious_ids)
    _check_inputs(swarm, measurements, malicious_ids)
    if not malicious_ids:
        raise InvalidParameterError("collusion attack needs at least one attacker")
    if not isinstance(target, numbers.Integral) or target in malicious_ids or not 0 <= target < swarm.n:
        raise InvalidParameterError("collusion target must be a benign UAV id")
    offset = swarm.comm_range if fake_offset_min is None else fake_offset_min
    radius = swarm.comm_range * (1.0 - COLLUSION_MARGIN)
    place_rng = seeds.stream(seed, seeds.PLACE_COLLUSION)
    center = swarm.uavs[target].reported_pos
    fakes = {m: _sample_collusion_fake(swarm.uavs[m].true_pos, center, radius, swarm.cube_half_width,
                                       offset, place_rng)
             for m in sorted(malicious_ids)}
    attacked, ms = _spoof(swarm, measurements, fakes, dist_var, seeds.stream(seed, seeds.FABRICATE, 1), target)
    if plan is None:
        plan = AttackPlan(COLLUSION, malicious_ids, seed, fake_offset_min=offset, target=target)
    return AttackedScenario(attacked, ms, plan)


def apply_mixed(
    swarm: Swarm,
    measurements: MeasurementSet,
    distributed_ids: frozenset[int],
    collusion_ids: frozenset[int],
    target: int,
    seed: int = 0,
    dist_var: float = 0.0,
    fake_offset_min: float | None = None,
) -> AttackedScenario:
    """Distributed attack on one subset, collusion on the other."""
    distributed_ids = frozenset(distributed_ids)
    collusion_ids = frozenset(collusion_ids)
    plan = AttackPlan(
        MIXED, distributed_ids | collusion_ids, seed,
        fake_offset_min=swarm.comm_range if fake_offset_min is None else fake_offset_min,
        target=target, distributed_ids=distributed_ids, collusion_ids=collusion_ids,
    )
    _check_inputs(swarm, measurements, plan.malicious_ids)
    scen = AttackedScenario(swarm, measurements, plan)
    if distributed_ids:
        scen = apply_distributed(
            scen.swarm, scen.measurements, distributed_ids, fake_offset_min, seed, dist_var, plan
        )
    if collusion_ids:
        scen = apply_collusion(
            scen.swarm, scen.measurements, collusion_ids, target, seed, dist_var, fake_offset_min, plan
        )
    return scen


def build_attack(
    swarm: Swarm,
    measurements: MeasurementSet,
    kind: str,
    m: int,
    seed: int,
    dist_var: float = 0.0,
    fake_offset_min: float | None = None,
    target: int | None = None,
) -> AttackedScenario:
    """Select attackers and apply one attack of the given kind.

    The mixed attack splits attackers evenly, with the odd one going to the
    distributed group.  The collusion target defaults to the benign UAV with
    the most honest neighbors.
    """
    if kind not in ATTACK_KINDS:
        raise InvalidParameterError(f"unknown attack kind {kind!r}")
    if not (target is None or isinstance(target, numbers.Integral)):
        raise InvalidParameterError(f"collusion target must be an integer id, got {target!r}")
    if not (0 <= dist_var < math.inf and (fake_offset_min is None or 0 <= fake_offset_min < math.inf)):
        raise InvalidParameterError("dist_var and fake_offset_min must be nonnegative and finite")
    _check_inputs(swarm, measurements)
    malicious = select_malicious(swarm, m, seed)
    if not malicious:
        return AttackedScenario(swarm, measurements, AttackPlan(DISTRIBUTED, malicious, seed, fake_offset_min))
    if kind == DISTRIBUTED:
        return apply_distributed(swarm, measurements, malicious, fake_offset_min, seed, dist_var)
    if target is None:
        target = default_collusion_target(swarm, measurements, malicious)
    if kind == COLLUSION:
        return apply_collusion(swarm, measurements, malicious, target, seed, dist_var, fake_offset_min)
    ordered = sorted(malicious)
    half = (len(ordered) + 1) // 2
    return apply_mixed(swarm, measurements, frozenset(ordered[:half]), frozenset(ordered[half:]),
                       target, seed, dist_var, fake_offset_min)


def _check_inputs(swarm: Swarm, measurements: MeasurementSet, ids: frozenset[int] = frozenset()) -> None:
    if measurements.n != swarm.n:
        raise InvalidParameterError(f"measurement set has N={measurements.n}, swarm has N={swarm.n}")
    if any(not 0 <= i < swarm.n for i in ids):
        raise InvalidParameterError("malicious id out of range")
    if len(ids) >= swarm.n:
        raise InvalidParameterError("at least one UAV must stay benign")
