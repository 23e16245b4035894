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

lift_positions = conic.complete_lift

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

    ``node_order`` fixes the local column mapping (sorted UAV ids);
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

    def constraint_counts(self) -> dict[str, int]:
        p = len(self.constraint_pairs)
        return {
            "range_upper": p,
            "window_upper": p,
            "window_lower": p,
            "self_upper": self.n_sub,
            "identity_block": 1,
        }

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
    return default_epsilon(paper_replication), DEFAULT_DELTA, (comm_range / 2.0) ** 2


def assemble(sub_ids, scenario: AttackedScenario, paper_replication: bool = False) -> FeasibilityProblem:
    """Build the feasibility instance for a sub-network of a scenario.

    Constraints cover every directed claimed measurement whose endpoints both
    lie in the sub-network: the claimed distance must sit within the
    acceptance window of the distance to the counterpart's report, and that
    distance must stay within communication range.
    """
    ids = tuple(np.unique(_uav_ids(sub_ids, scenario.n)).tolist())
    d = scenario.swarm.comm_range
    eps, delta, window_sq = _settings(d, paper_replication)
    members = set(ids)
    pos = {u.id: u.reported_pos for u in scenario.swarm.uavs if u.id in members}
    outgoing = scenario.measurements.outgoing
    pairs = tuple(t for i in ids for t in outgoing.get(i, ()) if t[1] in members)
    return FeasibilityProblem(
        node_order=ids,
        reported_positions=pos,
        constraint_pairs=pairs,
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


class ScenarioOracle:
    """Feasibility status of sub-networks of one scenario, for the detection
    runs of one ``detectors.DetectionContext``.

    ``check(sub_ids)`` gives the status ``check_feasibility(assemble(sub_ids,
    scenario, options.paper_replication))`` gives under the default
    ``OracleOptions``, through the same decision core (see ``conic``), but
    builds no problem, witness or lift.  ``paper_replication`` is the one
    setting: every other value of a check is fixed.
    The whole scenario is compiled once, and since the relaxation is
    separable per UAV:

    * the pairwise bound is ``conic.PairThresholds.bound`` over the pairs in
      the sub-network, from thresholds computed once for every directed pair
      of the scenario;
    * a UAV whose report fits all of its anchors (slack <= 0) is
      ``settled``: it fits every sub-network, adds its all-anchor slack to
      the upper bound and nothing to the lower one;
    * any other node's verdict depends only on which of its measured
      counterparts are in the sub-network.  It is kept per (node,
      counterparts present), and looked up on every check;
    * an uncached node is settled by the first of three certificates: the
      exact slack of its own report, then the exact slack of its kept point
      (the last node solve of it that ended within ``tol_feas``, whatever
      its counterparts were then), each when within ``tol_feas`` and kept as
      (that slack, -inf); the nodes that miss both go through
      ``conic.refine_witness`` together, and keep the bounds of their solve.

    A kept point within ``tol_feas`` proves the node's optimum is too, so no
    valid lower bound of it reaches ``tol_infeas``: it settles the node as
    its solve would, unless that solve would have stalled.  A node not yet
    decided counts as unbounded above; the order in which nodes are decided
    does not change the status.  A check keeps nothing but verdicts, kept
    points and counters, so its status does not depend on earlier checks.
    ``node_solves``, ``carried`` (nodes settled by a kept point) and
    ``cache_hits`` (verdict lookups of nodes that are not settled) count
    the work done so far.
    """

    def __init__(self, scenario: AttackedScenario, options: DetectorOptions):
        d = scenario.swarm.comm_range
        self.opts = OracleOptions()
        self.n = scenario.n
        outgoing = scenario.measurements.outgoing
        pairs = [t for i in range(self.n) for t in outgoing.get(i, ())]
        self.cons = conic.compile_constraints(
            scenario.swarm.reported_positions(), pairs, d, *_settings(d, options.paper_replication)
        )
        p = self.cons.n_pairs
        self.src = self.cons.owner[:p]
        self.dst = np.array([j for (_i, j, _r) in pairs], dtype=int)
        # Node i's pair rows are first_row[i] up to first_row[i + 1], and
        # ``counterparts[i]`` their counterparts, padded with n (no UAV).
        self.first_row = np.searchsorted(self.src, np.arange(self.n + 1))
        self.counterparts = np.full((self.n, max(np.diff(self.first_row).max(), 1)), self.n)
        self.counterparts[self.src, np.arange(p) - self.first_row[self.src]] = self.dst
        self.pairs = conic.PairThresholds.of(self.cons)
        # A node's report slack is a min over its Gram surplus of a max over
        # its anchor rows, so it can only fall as anchors leave the family:
        # a report that fits all of its anchors fits any subset of them.
        self.report_slack = conic.evaluate_witness(self.cons, self.cons.positions).node_slack
        self.settled = self.report_slack <= 0
        self.verdicts: dict[tuple[int, bytes], tuple[float, float]] = {}
        # Each node's last solved point within tol_feas (NaN before one).
        self.kept = np.full((self.n, 3), np.nan)
        self.node_solves = self.carried = self.cache_hits = 0

    def check(self, sub_ids) -> str:
        """Status of the sub-network ``sub_ids`` (an iterable of UAV ids)."""
        member, active = self._select(sub_ids)
        upper, lower = np.inf, self.pairs.bound(active)
        if lower < self.opts.tol_infeas:
            upper, node_lower = self._node_bounds(np.flatnonzero(member & ~self.settled), member)
            upper = max(upper, np.max(self.report_slack[member & self.settled], initial=-np.inf))
            lower = max(lower, node_lower)
        return verdict(upper, lower, self.opts)

    def pairwise_bound(self, sub_ids) -> float:
        """The sub-network's pairwise bound: bit for bit what
        ``conic.pairwise_slack_bound`` gives its assembled problem."""
        return self.pairs.bound(self._select(sub_ids)[1])

    def _select(self, sub_ids) -> tuple[np.ndarray, np.ndarray]:
        """Member mask of the sub-network's UAVs, and of its pair rows."""
        member = np.zeros(self.n, dtype=bool)
        member[_uav_ids(sub_ids, self.n)] = True
        return member, member[self.src] & member[self.dst]

    def _node_bounds(self, members: np.ndarray, member: np.ndarray) -> tuple[float, float]:
        """Largest upper and lower node bounds over ``members``, in the
        sub-network of member mask ``member``.  Cached verdicts come first;
        uncached nodes are decided only when none of those proves
        infeasibility."""
        # A member's pair row is present iff its counterpart is a member.
        present = np.append(member, False)[self.counterparts[members]]
        keys = list(zip(members.tolist(), present.view(np.dtype((np.void, present.shape[1]))).ravel().tolist()))
        hits = [self.verdicts.get(key) for key in keys]
        bounds = [hit for hit in hits if hit is not None]
        self.cache_hits += len(bounds)
        if len(bounds) < len(keys) and max([lower for _upper, lower in bounds], default=-np.inf) < self.opts.tol_infeas:
            bounds += self._decide([(i, self.first_row[i] + np.flatnonzero(present[k]), (i, bits))
                                    for k, ((i, bits), hit) in enumerate(zip(keys, hits)) if hit is None])
        lower = max([lower for _upper, lower in bounds], default=-np.inf)
        if len(bounds) < len(members):
            return np.inf, lower
        return max([upper for upper, _lower in bounds], default=-np.inf), lower

    def _decide(self, misses: list) -> list[tuple[float, float]]:
        """Settle the uncached nodes by their reports, then by their kept
        points, then by the node loop, and keep and return the verdict of
        each node settled."""
        ids = [i for i, _rows, _key in misses]
        rows = np.concatenate([r for _i, r, _key in misses] + [self.cons.n_pairs + np.array(ids)])
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
        solved = conic.refine_witness(family, witness, tol, self.opts.tol_infeas)
        self.node_solves += len(solved)
        decided = []
        for k, (i, _rows, key) in enumerate(misses):
            if k in solved or witness.node_slack[k] <= tol:
                self.verdicts[key] = (float(witness.node_slack[k]), solved.get(k, -np.inf))
                decided.append(self.verdicts[key])
                if k in solved and witness.node_slack[k] <= tol:
                    self.kept[i] = witness.X[k]
        return decided
