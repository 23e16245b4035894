"""Assembly and feasibility checking of the lifted localization problem.

For a chosen sub-network, the question is whether some assignment of actual
positions is simultaneously consistent with every reported position (within a
small displacement budget) and every claimed pairwise distance (within range
and window bounds).  The nonconvex coupling between positions is relaxed by
lifting to a PSD matrix with an identity corner block, turning each distance
expression into a linear trace functional; an infeasible relaxation certifies
the original system infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import conic
from .attacks import AttackedScenario
from .swarm import InvalidParameterError, _is_id

if TYPE_CHECKING:
    from .detectors import DetectorOptions

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

# Displacement budget between a UAV's actual and reported position.  The base
# value matches the position-noise variance scale; the default multiplier
# gives honest swarms headroom against their own noise.  Paper-replication
# mode keeps the budget at the base value.
EPSILON_BASE = 1e-6
EPSILON_MULTIPLIER = 10.0

DEFAULT_DELTA = 1e-9


@dataclass(frozen=True)
class OracleOptions:
    tol_feas: float = 1e-6
    tol_infeas: float = 1e-4

    def __post_init__(self):
        if not (math.isfinite(self.tol_feas) and math.isfinite(self.tol_infeas)):
            raise InvalidParameterError("oracle tolerances must be finite")
        if self.tol_feas >= self.tol_infeas:
            raise InvalidParameterError("need tol_feas < tol_infeas")


@dataclass(frozen=True)
class FeasibilityProblem:
    """One assembled feasibility instance over a sub-network.

    ``node_order`` fixes the local column mapping (distinct UAV ids, sorted
    by ``assemble``);
    ``constraint_pairs`` holds directed claimed measurements with both
    endpoints inside the sub-network, in global ids.
    """

    node_order: tuple[int, ...]
    reported_positions: dict[int, np.ndarray]
    constraint_pairs: tuple[tuple[int, int, float], ...]
    comm_range: float
    epsilon: float
    strictness_margin: float
    window_sq: float

    def __post_init__(self):
        if not self.node_order:
            raise InvalidParameterError("sub-network must be nonempty")
        if not all(map(_is_id, [*self.node_order, *(x for t in self.constraint_pairs for x in t[:2])])):
            raise InvalidParameterError("node ids must be integers")
        if len(set(self.node_order)) != self.n_sub:
            raise InvalidParameterError("node ids must be distinct: each UAV has one column")
        if not all(math.isfinite(x) for x in (self.comm_range, self.epsilon, self.strictness_margin, self.window_sq)):
            raise InvalidParameterError("range, epsilon, margin and window must be finite")
        if self.epsilon < 0 or self.strictness_margin <= 0 or self.comm_range <= 0:
            raise InvalidParameterError("need epsilon >= 0, margin > 0, range > 0")
        try:
            pos = np.array([self.reported_positions[uid] for uid in self.node_order], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParameterError(f"every node needs a reported position: {exc!r}") from exc
        if pos.shape != (self.n_sub, 3) or not np.all(np.isfinite(pos)):
            raise InvalidParameterError("reported positions must be finite 3-vectors")
        members = set(self.node_order)
        for (i, j, r) in self.constraint_pairs:
            if i not in members or j not in members:
                raise InvalidParameterError(f"constraint pair ({i}, {j}) leaves the sub-network")
            if not 0 < r < math.inf:
                raise InvalidParameterError("claimed distances must be positive and finite")

    @property
    def n_sub(self) -> int:
        return len(self.node_order)

    def dimension(self) -> int:
        return 3 + self.n_sub

    def compiled(self) -> conic.CompiledConstraints:
        local = {uid: k for k, uid in enumerate(self.node_order)}
        positions = np.array([self.reported_positions[uid] for uid in self.node_order])
        pairs = [(local[i], local[j], r) for (i, j, r) in self.constraint_pairs]
        return conic.compile_constraints(
            positions, pairs, self.comm_range, self.epsilon, self.strictness_margin, self.window_sq
        )


@dataclass(frozen=True)
class OracleResult:
    status: str
    phase1_slack: float
    max_residual: float
    recovered_positions: dict[int, np.ndarray] | None = None
    rank_gap: float | None = None
    diagnostics: dict[str, float | str] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def pair_constraint_matrix(reported_pos: np.ndarray, local_index: int, n_sub: int) -> np.ndarray:
    """Rank-one matrix whose trace product with a lifted matrix evaluates
    the squared distance between column ``local_index`` and ``reported_pos``."""
    if not 0 <= local_index < n_sub:
        raise InvalidParameterError(f"local index {local_index} out of range [0, {n_sub})")
    v = np.zeros(3 + n_sub)
    v[:3] = np.asarray(reported_pos, dtype=float)
    v[3 + local_index] = -1.0
    return np.outer(v, v)


def default_epsilon(paper_replication: bool = False) -> float:
    return EPSILON_BASE if paper_replication else EPSILON_BASE * EPSILON_MULTIPLIER


def _uav_ids(sub_ids, n: int) -> np.ndarray:
    """The ids of a sub-network of a scenario of ``n`` UAVs, as an integer
    array: nonempty, integers (no truncated floats) and within the scenario."""
    ids = np.array(list(sub_ids))
    if ids.size == 0:
        raise InvalidParameterError("sub-network must be nonempty")
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise InvalidParameterError(f"sub-network ids must be integers, got {sub_ids!r}")
    if ids.min() < 0 or ids.max() >= n:
        raise InvalidParameterError("sub-network ids must be UAV ids of the scenario")
    return ids


def _settings(comm_range: float, paper_replication: bool) -> tuple[float, float, float]:
    """The displacement budget, strictness margin and acceptance window of
    every check on a scenario of this range."""
    return default_epsilon(paper_replication), DEFAULT_DELTA, conic.acceptance_window(comm_range)


def assemble(sub_ids, scenario: AttackedScenario, paper_replication: bool = False) -> FeasibilityProblem:
    """Build the feasibility instance for a sub-network of a scenario.

    Constraints cover every directed claimed measurement whose endpoints both
    lie in the sub-network: the claimed distance must sit within the
    acceptance window of the distance to the counterpart's report, and that
    distance must stay within communication range.
    """
    ids = np.unique(_uav_ids(sub_ids, scenario.n))
    d = scenario.swarm.comm_range
    eps, delta, window_sq = _settings(d, paper_replication)
    member = np.zeros(scenario.n, dtype=bool)
    member[ids] = True
    ms = scenario.measurements
    # The claims in (src, dst) order, kept where both ends are members.
    rows = ms.order[member[ms.src[ms.order]] & member[ms.dst[ms.order]]]
    ids = tuple(ids.tolist())
    return FeasibilityProblem(
        node_order=ids,
        reported_positions={i: scenario.swarm.uavs[i].reported_pos for i in ids},
        constraint_pairs=tuple(zip(ms.src[rows].tolist(), ms.dst[rows].tolist(), ms.r[rows].tolist())),
        comm_range=d,
        epsilon=eps,
        strictness_margin=delta,
        window_sq=window_sq,
    )


def verdict(upper: float, lower: float, opts: OracleOptions) -> str:
    """The status certified slack bounds prove: feasible iff ``upper`` is
    within ``tol_feas``, infeasible iff ``lower`` reaches ``tol_infeas``,
    else unknown."""
    if upper <= opts.tol_feas:
        return FEASIBLE
    if lower >= opts.tol_infeas:
        return INFEASIBLE
    return UNKNOWN


def check_feasibility(problem: FeasibilityProblem, opts: OracleOptions | None = None) -> OracleResult:
    """Decide feasibility of the lifted relaxation with certified slack bounds.

    Runs the oracle's decision core (see ``conic``): the pairwise bound
    (``conic.pairwise_slack_bound``), then, unless it already proves
    infeasibility, the node loop (``conic.refine_witness``) from the
    reports, and ``verdict`` on the two bounds.  Only this path returns
    positions, so only it pulls each solved node's point back toward the
    node's report as far as it stays within min(tol_feas, 0)
    (``conic.retract``).  A node solve that loses precision, or whose
    optimum sits within its final duality gap of a tolerance, keeps the
    bounds it has: the verdict is then an unbracketed unknown with its own
    reason, never an exception.

    ``diagnostics["slack_lower"]`` starts from the pairwise bound, which is
    floored at zero, so it lower-bounds max(t*, 0) rather than the optimal
    slack t* itself; on a feasible call with t* < 0 it is not a bound on t*.
    """
    opts = opts or OracleOptions()
    cons = problem.compiled()
    lower = conic.pairwise_slack_bound(cons)
    witness = conic.evaluate_witness(cons, cons.positions.copy())
    if lower < opts.tol_infeas:
        solved = conic.refine_witness(cons, witness, opts.tol_feas, opts.tol_infeas)
        lower = max([lower, *solved.values()])
        for i in solved:
            witness.put(i, conic.retract(cons.node(i), witness.entry(i), min(opts.tol_feas, 0.0)))
    upper = witness.slack
    status = verdict(upper, lower, opts)
    max_residual, rank_gap = _residuals(conic.complete_lift(witness.X, witness.s))
    diagnostics: dict[str, float | str] = {
        "slack_upper": upper,
        "slack_lower": float(lower),
    }
    if status == UNKNOWN:
        diagnostics["reason"] = (
            "slack bracketed inside tolerance gap"
            if lower > opts.tol_feas and upper < opts.tol_infeas
            else "node solve stalled before its bounds settled the verdict"
        )
    recovered = None
    if status == FEASIBLE:
        recovered = {uid: witness.X[k].copy() for k, uid in enumerate(problem.node_order)}
    return OracleResult(
        status=status,
        phase1_slack=float(lower) if status == INFEASIBLE else upper,
        max_residual=max_residual,
        recovered_positions=recovered,
        rank_gap=rank_gap,
        diagnostics=diagnostics,
    )


def _residuals(Z: np.ndarray) -> tuple[float, float | None]:
    sym = float(np.max(np.abs(Z - Z.T)))
    block = float(np.max(np.abs(Z[:3, :3] - np.eye(3))))
    eigvals = np.linalg.eigvalsh(Z)
    neg = float(max(0.0, -eigvals[0]))
    rank_gap = None
    if len(eigvals) >= 4:
        desc = eigvals[::-1]
        rank_gap = float(desc[3] / desc[2]) if desc[2] > 1e-12 else None
    return max(sym, block, neg), rank_gap


def id_mask(ids) -> int:
    """The bitmask of UAV ids: bit i is set for id i."""
    mask = 0
    for i in ids:
        mask |= 1 << int(i)
    return mask


def claim_masks(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[list[int], list[int]]:
    """Per-UAV bitmasks of the directed claims ``(src[k], dst[k])`` among
    ``n`` UAVs: each UAV's claims (the ids it claims a distance to) and its
    claimants (the ids claiming a distance to it)."""
    claims, claimants = [0] * n, [0] * n
    for i, j in zip(src.tolist(), dst.tolist()):
        claims[i] |= 1 << j
        claimants[j] |= 1 << i
    return claims, claimants


def mask_ids(mask: int) -> list[int]:
    """The UAV ids of a bitmask, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


class ScenarioOracle:
    """Feasibility status of sub-networks of one scenario, for the detection
    runs of one ``detectors.DetectionContext``.

    ``check(sub_ids)`` gives the status ``check_feasibility(assemble(sub_ids,
    scenario, options.paper_replication))`` gives under the default
    ``OracleOptions``, through the same decision core (see ``conic``), but
    builds no problem, witness or lift.  ``paper_replication`` is the one
    setting: every other value of a check is fixed.  ``check_mask`` is the
    same check of a sub-network given as a bitmask of its ids (see
    ``id_mask``), as the detectors keep their sets.  The whole scenario is
    compiled once, and since the relaxation is separable per UAV:

    * a pair the float predicate ``conic.PairThresholds.satisfied`` rejects
      at ``tol_infeas`` certifies t* > tol_infeas, so each node keeps the
      mask of the nodes it shares such a *refuting* pair with
      (``refuting``), and a sub-network holding a refuting pair is
      infeasible.  That predicate is monotone in t, so this is the status
      the pairwise bound gives wherever its certified threshold reaches
      ``tol_infeas``; only a threshold within a few hundred ulps of
      ``tol_infeas`` can be refuted here and stepped down below it there;
    * each member is looked up by the mask of its measured counterparts in
      the sub-network (the rows it owns there), and its bounds are kept
      per (UAV, that mask).  A member not yet kept first takes its report
      slack over those rows from the maxima of their violations at the
      reports, computed once per scenario.  A report that fits (that
      slack is below ``tol_feas`` by more than its rounding margin, so the
      exact slack is within ``tol_feas`` too) is kept as (that slack,
      -inf);
    * a member whose report misses is settled by its kept point (the last
      node solve of it that ended within ``tol_feas``, whatever its
      counterparts were then) when that point's exact slack is within
      ``tol_feas``, and kept as (that slack, -inf); the members it does not
      settle go through ``conic.refine_witness`` together, as one family of
      their present rows, and keep the bounds of their solve.

    A kept point within ``tol_feas`` proves the node's optimum is too, so no
    valid lower bound of it reaches ``tol_infeas``: it settles the node as
    its solve would, unless that solve would have stalled.  A node not yet
    decided counts as unbounded above; the order in which nodes are decided
    does not change the status.

    A check may name a *certified base*: a sub-network proved feasible, or
    a subset of one.  Each member of a feasible sub-network has a witness
    within ``tol_feas`` for its counterparts there, and a witness for a set
    of counterparts is one for any subset, so every member of the base
    whose counterparts in the tested sub-network lie inside the base is
    within ``tol_feas`` without a lookup.  The check then looks up only the
    members outside the base and the base members that claim a distance to
    one of them; with no base it looks up every member.  Base members skip
    only bounds below ``tol_infeas``, so the status is the one a check
    without the base gives.  No refuting pair lies inside a base, since
    the check that made it feasible would have found it, so only the
    refuting pairs of members outside the base are read.  Statuses are
    kept per tested mask.

    ``node_solves``, ``node_iterations`` (the steps of those solves),
    ``carried`` (nodes settled by a kept point), ``nodes_checked`` (member
    lookups) and ``cache_hits`` (lookups answered by kept bounds) count the
    work done so far.
    """

    def __init__(self, scenario: AttackedScenario, options: DetectorOptions):
        d = scenario.swarm.comm_range
        self.opts = OracleOptions()
        self.n = n = scenario.n
        ms = scenario.measurements
        # The claims in (src, dst) order: node i's pair rows are first_row[i]
        # up to first_row[i + 1].
        self.first_row = ms.row_start.tolist()
        src, self.dst = ms.src[ms.order], ms.dst[ms.order]
        self.cons = cons = conic.compile_constraints(
            scenario.swarm.reported_positions(), np.column_stack([src, self.dst, ms.r[ms.order]]), d,
            *_settings(d, options.paper_replication)
        )
        p = cons.n_pairs
        # Each node's claims (the counterparts of the rows it owns) and
        # claimants, and the nodes it shares a pair with that the float
        # predicate rejects at tol_infeas: such a pair certifies t* > tol_infeas.
        self.claims, self.claimants = claim_masks(n, src, self.dst)
        refuted = ~conic.PairThresholds.of(cons).satisfied(self.opts.tol_infeas)
        self.refuting = [a | b for a, b in zip(*claim_masks(n, src[refuted], self.dst[refuted]))]
        # Every row's violations at the reports.  Node i's pair rows, from
        # first_row[i] on, are kept twice: with its upper violations, largest
        # first, and with its lower ones, largest first, each beside the
        # row's counterpart.  Its own displacement row's is ``self_over[i]``.
        vals = cons.values_at(cons.positions)
        over, under = vals - cons.hi, cons.lo - vals
        self.self_over = over[p:].tolist()
        by_over = np.lexsort((-over[:p], src))
        by_under = np.lexsort((-under[:p], src))
        self.over, self.over_end = over[by_over].tolist(), self.dst[by_over].tolist()
        self.under, self.under_end = under[by_under].tolist(), self.dst[by_under].tolist()
        # A report fits below this without an exact evaluation: the slack
        # from row maxima is within 32 ulps of that scale of the exact one,
        # so the two sides of tol_feas agree.
        finite_lo = cons.lo[np.isfinite(cons.lo)]
        scale = max(np.abs(vals).max(), np.abs(cons.hi).max(), np.abs(finite_lo).max(initial=0.0))
        self.fit_limit = self.opts.tol_feas - 32 * np.finfo(float).eps * scale
        self.verdicts: dict[tuple[int, int], tuple[float, float]] = {}
        self.statuses: dict[int, str] = {}
        # Each node's last solved point within tol_feas (NaN before one).
        self.kept = np.full((self.n, 3), np.nan)
        self.node_solves = self.node_iterations = self.carried = self.nodes_checked = self.cache_hits = 0

    def check(self, sub_ids) -> str:
        """Status of the sub-network ``sub_ids`` (an iterable of UAV ids)."""
        return self.check_mask(id_mask(_uav_ids(sub_ids, self.n).tolist()))

    def check_mask(self, tested: int, base: int = 0) -> str:
        """Status of the sub-network whose ids are the bits of ``tested``,
        none of them validated, over the certified base ``base`` (0 for
        none): the bitmask of a sub-network this scenario's checks proved
        feasible, or of a subset of one.  Only its part inside ``tested``
        is used."""
        status = self.statuses.get(tested)
        if status is None:
            status = self.statuses[tested] = self._status(tested, base & tested)
        return status

    def _status(self, tested: int, base: int) -> str:
        """A refuting pair of a member outside the base makes the
        sub-network infeasible.  Base members that claim no distance to a
        member outside the base are settled by it.  Members whose bounds are
        kept come first; members not yet kept are decided only when none of
        those proves infeasibility."""
        touched = tested & ~base
        added = mask_ids(touched)
        if any(self.refuting[i] & tested for i in added):
            return INFEASIBLE
        upper, lower = -np.inf, -np.inf
        for i in added:
            touched |= self.claimants[i]
        members = mask_ids(tested & touched)
        self.nodes_checked += len(members)
        misses = []
        for i in members:
            key = (i, self.claims[i] & tested)
            bounds = self.verdicts.get(key)
            if bounds is None:
                slack = self._report_slack(*key)
                if not slack <= self.fit_limit:
                    misses.append(key)
                    continue
                bounds = self.verdicts[key] = (slack, -np.inf)
            else:
                self.cache_hits += 1
            if bounds[0] > upper:
                upper = bounds[0]
            if bounds[1] > lower:
                lower = bounds[1]
        if misses:
            decided = self._decide(misses, tested) if lower < self.opts.tol_infeas else []
            lower = max([lower, *(lo for _up, lo in decided)])
            upper = max([upper, *(up for up, _lo in decided)]) if len(decided) == len(misses) else np.inf
        return verdict(upper, lower, self.opts)

    def _report_slack(self, i: int, present: int) -> float:
        """Node ``i``'s report slack over its rows to the counterparts in
        ``present``: the largest upper violation U and lower violation L
        over those rows and its own, and U plus the Gram surplus
        ``conic.best_gram_surplus`` takes from them, in its float
        operations."""
        a, b = self.first_row[i], self.first_row[i + 1]
        upper, lower = self.self_over[i], -np.inf
        for k in range(a, b):
            if self.over[k] <= upper:
                break
            if present >> self.over_end[k] & 1:
                upper = self.over[k]
                break
        for k in range(a, b):
            if present >> self.under_end[k] & 1:
                lower = self.under[k]
                break
        return upper + ((lower - upper) / 2.0 if lower > upper else 0.0)

    def _decide(self, misses: list[tuple[int, int]], tested: int) -> list[tuple[float, float]]:
        """Settle the uncached nodes ``misses`` (node, counterpart mask) of
        the sub-network ``tested``, whose reports miss, by their kept
        points, then by the node loop (from their reports), and keep and
        return the verdict of each node settled."""
        ids = [i for i, _present in misses]
        inside = np.unpackbits(np.frombuffer(tested.to_bytes(self.n // 8 + 1, "little"), dtype=np.uint8),
                               bitorder="little").view(bool)
        rows = np.concatenate([np.arange(self.first_row[i], self.first_row[i + 1]) for i in ids])
        rows = np.concatenate([rows[inside[self.dst[rows]]], self.cons.n_pairs + np.array(ids)])
        family = self.cons.family(ids, rows)
        tol = self.opts.tol_feas
        witness = conic.evaluate_witness(family, family.positions.copy())
        kept = self.kept[ids]
        retry = (witness.node_slack > tol) & ~np.isnan(kept[:, 0])
        if np.any(retry):
            # Nodes are separable, so each node's slack here is exactly that
            # of its kept point on its one-node family.
            at_kept = conic.evaluate_witness(family, np.where(retry[:, None], kept, family.positions))
            for k in np.flatnonzero(retry & (at_kept.node_slack <= tol)).tolist():
                witness.put(k, at_kept.entry(k))
                self.carried += 1
        steps: list[int] = []
        solved = conic.refine_witness(family, witness, tol, self.opts.tol_infeas, steps)
        self.node_solves += len(solved)
        self.node_iterations += sum(steps)
        decided = []
        for k, key in enumerate(misses):
            if k in solved or witness.node_slack[k] <= tol:
                self.verdicts[key] = (float(witness.node_slack[k]), solved.get(k, -np.inf))
                decided.append(self.verdicts[key])
                if k in solved and witness.node_slack[k] <= tol:
                    self.kept[key[0]] = witness.X[k]
        return decided
