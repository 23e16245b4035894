"""Exact per-node phase-I solve for the lifted localization feasibility problem.

The problem family: find a symmetric PSD matrix Z of size (3 + n) whose
top-left 3x3 block is the identity, subject to interval bounds on the trace
functionals <v v^T, Z> with v = [p_j; -e_i] (p_j a reported position, e_i a
local basis vector).  Functional values equal ||x_i - p_j||^2 + s_i under the
lifting, where x_i is column i of the position block and s_i >= 0 is the
Gram-diagonal surplus, so everything reduces to noisy ball geometry.

The relaxation is separable per node: every functional touches one node's
column and its Gram diagonal, measured against fixed reported anchors, and Z
is PSD with an identity corner exactly when Y - X X^T is PSD, which
Y = X X^T + diag(s) reaches for any s >= 0.  So the minimal uniform
relaxation t* of the whole system is the maximum over nodes of each node's
own optimum, a convex program in (x, y = ||x||^2 + s, t): linear constraints
plus y >= ||x||^2.

That question is answered with certified two-sided bounds by one decision
core, which ``sdp.check_feasibility`` (one assembled sub-network) and
``sdp.ScenarioOracle`` (the detectors' sub-networks of one scenario) share:

* the pairwise bound, ``pairwise_slack_bound``, is the largest relaxation
  at which the float predicate ``PairThresholds.satisfied`` rejects a pair
  of the sub-network, and certifies most infeasible sub-networks without
  any solve.  The predicate is monotone in the relaxation, so the bound
  reaches ``tol_infeas`` exactly when some pair is rejected at
  ``tol_infeas``; ``sdp.ScenarioOracle``, which needs only that, marks
  those pairs once per scenario;
* the node loop, ``refine_witness``, starts from each node's own report
  with its best Gram surplus, and gives every node that misses the
  tolerance, worst first, one deterministic primal-dual interior-point
  solve of its one-node family (``CompiledConstraints.node``) on five
  variables (``solve_node``, Mehrotra predictor-corrector steps).  The
  solve starts at the report, its residuals sized by the report's own
  slack rather than the data's scale, and that report's evaluation is its
  first upper bound.  Each iterate's position, evaluated
  exactly, is an upper bound; its normalized multipliers, fed to the
  node's closed-form Lagrange dual, are a lower bound.  The solve stops at
  the first point that certifies its verdict, usually within two or three
  steps, and the loop at the first node proven infeasible.
  ``sdp.ScenarioOracle``, which meets each node again under other anchor
  sets, computes every row's violation at the reports once per scenario,
  so a node's report slack in any sub-network comes from the maxima of
  those violations over its present rows; a report below the tolerance by
  more than that slack's rounding margin settles its node there without
  any other work.  It keeps each node's bounds per set of present
  counterparts, and looks up only the nodes a check adds to a sub-network
  it already proved feasible, and the nodes of that sub-network that
  claim a distance to them.  It gives the loop a second certificate
  first: a node whose report misses the tolerance is evaluated exactly at
  its kept point (its last solved point within ``tol_feas``), and enters
  the witness there when that point is within ``tol_feas``, so only nodes
  that miss both are solved;
* ``sdp.verdict`` turns the two bounds into a status.

Only ``sdp.check_feasibility``, which returns positions, then pulls each
solved node's point back toward its report (``retract``).

Everything is deterministic: fixed schedules and step rules, no time-based
decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The node solve stops once its duality gap is 1e-9 of the gap of a start
# at the data's scale; its certificates usually stop it first, within two or
# three steps of its start at the report.
_STEP_BACK = 0.99
_GAP_REDUCTION = 1e-9
_MAX_STEPS = 50
# The start's residuals are at least this fraction of the data's scale, so
# they stay positive when the report's slack and epsilon are both zero.
_DELTA_FLOOR = 1e-6
_RETRACT_STEPS = 20


@dataclass
class CompiledConstraints:
    """Local-index constraint family for one sub-network.

    Functionals are ordered pairs first, then one self functional per node.
    ``anchor[q]`` is the position the functional measures against (reported
    position of the pair counterpart, or the node's own report), ``owner[q]``
    the local index of the node whose position enters the functional.
    """

    n: int                      # sub-network size
    positions: np.ndarray       # (n, 3) reported positions, local order
    owner: np.ndarray           # (q,) int
    anchor: np.ndarray          # (q, 3)
    hi: np.ndarray              # (q,) upper bounds
    lo: np.ndarray              # (q,) lower bounds (-inf where absent)
    epsilon: float
    n_pairs: int

    @property
    def q(self) -> int:
        return len(self.owner)

    def values_at(self, X: np.ndarray, s: np.ndarray | None = None) -> np.ndarray:
        """Functional values ||x_owner - anchor||^2 (+ s_owner) for positions X (n,3)."""
        diff = X[self.owner] - self.anchor
        vals = (diff * diff).sum(axis=1)
        if s is not None:
            vals = vals + s[self.owner]
        return vals

    def node(self, i: int) -> "CompiledConstraints":
        """The one-node family of node ``i``: its pair functionals, then its
        self functional, against the same fixed anchors."""
        return self.family([i], np.nonzero(self.owner == i)[0])

    def family(self, ids, rows: np.ndarray) -> "CompiledConstraints":
        """The family of nodes ``ids`` (local index k for ``ids[k]``) over the
        functionals ``rows``, all owned by those nodes, in order."""
        local = np.zeros(self.n, dtype=int)
        local[ids] = np.arange(len(ids))
        return CompiledConstraints(
            n=len(ids),
            positions=self.positions[ids],
            owner=local[self.owner[rows]],
            anchor=self.anchor[rows],
            hi=self.hi[rows],
            lo=self.lo[rows],
            epsilon=self.epsilon,
            n_pairs=int(np.count_nonzero(rows < self.n_pairs)),
        )


def acceptance_window(comm_range: float) -> float:
    """The acceptance window w = (d/2)^2 of a swarm of communication range d:
    how far a claimed squared distance may sit from the squared distance
    between reports.  The suspect screen, the detectors' conflicting
    testimony and every feasibility check of a scenario take it from here."""
    return (comm_range / 2.0) ** 2


def claim_bounds(r, comm_range: float, delta: float, window_sq: float):
    """The bounds a claimed distance ``r`` (a float or an array) puts on its
    pair functional: range upper d^2 - delta, window upper r^2 + w - delta and
    window lower r^2 - w + delta, for range d, strictness margin delta and
    window w.  The functional's upper bound is the smaller of the two upper
    ones.  ``compile_constraints`` and the constraint dump
    (``serialize.problem_dump``) both take them from here."""
    sq = r * r
    return comm_range**2 - delta, sq + window_sq - delta, sq - window_sq + delta


def compile_constraints(
    positions: np.ndarray,
    pairs: list[tuple[int, int, float]] | np.ndarray,
    comm_range: float,
    epsilon: float,
    delta: float,
    window_sq: float,
) -> CompiledConstraints:
    """Build the slab family: the bounds of ``claim_bounds`` per measured
    pair, a displacement bound per node.  ``pairs`` holds (i, j, r) rows:
    triplets or a (p, 3) array."""
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    cols = np.array(pairs, dtype=float).reshape(-1, 3)
    i, j, r = cols[:, 0].astype(int), cols[:, 1].astype(int), cols[:, 2]
    range_upper, window_upper, window_lower = claim_bounds(r, comm_range, delta, window_sq)
    return CompiledConstraints(
        n=n,
        positions=positions,
        owner=np.concatenate([i, np.arange(n)]),
        anchor=np.concatenate([positions[j], positions]),
        hi=np.concatenate([np.minimum(range_upper, window_upper), np.full(n, float(epsilon))]),
        lo=np.concatenate([window_lower, np.full(n, -np.inf)]),
        epsilon=epsilon,
        n_pairs=len(pairs),
    )


# ---------------------------------------------------------------------------
# Lower bounds on the phase-I slack
# ---------------------------------------------------------------------------

@dataclass
class PairThresholds:
    """The pair functionals of a family as the pairwise bound reads them:
    reported separation ``D``, bounds ``hi``/``lo`` and the displacement
    budget ``eps``.

    For a relaxation t, any lifted solution confines x_i to a ball of radius
    r = sqrt(eps + t) around the node's report and allows a Gram surplus of
    at most eps + t, so each pair functional is boxed into an interval
    around D.  ``satisfied`` asks whether that interval meets the pair's
    slab: it reaches down to hi, up to lo, and the slab is nonempty.  Each
    of the three conditions is monotone in t in floating point too, since
    every operation in it is, so a pair rejected at some t is rejected at
    every smaller one.
    """

    D: np.ndarray
    hi: np.ndarray
    lo: np.ndarray
    eps: float

    @classmethod
    def of(cls, cons: CompiledConstraints) -> "PairThresholds":
        sl = slice(0, cons.n_pairs)
        D = np.linalg.norm(cons.positions[cons.owner[sl]] - cons.anchor[sl], axis=1)
        return cls(D, cons.hi[sl], cons.lo[sl], cons.epsilon)

    def satisfied(self, t):
        """The floating-point predicate: which pairs admit relaxation ``t``."""
        radius = np.sqrt(self.eps + t)
        amin = np.maximum(0.0, self.D - radius) ** 2
        amax = (self.D + radius) ** 2 + self.eps + t
        ok_upper = amin <= self.hi + t
        ok_lower = amax >= self.lo - t
        ok_nonempty = self.lo - t <= self.hi + t
        return ok_upper & ok_lower & ok_nonempty


def pairwise_slack_bound(cons: CompiledConstraints) -> float:
    """Certified lower bound on the optimal slack from single-pair analysis:
    the largest float t at which ``PairThresholds.satisfied`` rejects some
    pair of ``cons``, or zero when every pair admits t = 0.

    The predicate is monotone in t, so the bound reaches a tolerance exactly
    when some pair is rejected at that tolerance.  Nonnegative doubles sort
    as their bit patterns do, so it is found by bisecting those patterns
    between 0.0, which some pair rejects, and inf, which every pair admits:
    at most 63 more calls of the predicate, each over every pair.
    """
    pairs = PairThresholds.of(cons)
    if pairs.satisfied(0.0).all():
        return 0.0
    rejected, admitted = 0, int(np.float64(np.inf).view(np.int64))
    # Near the top of the range the squares overflow to inf, which keeps
    # each condition monotone.
    with np.errstate(over="ignore"):
        while admitted - rejected > 1:
            mid = (rejected + admitted) // 2
            if pairs.satisfied(float(np.int64(mid).view(np.float64))).all():
                admitted = mid
            else:
                rejected = mid
    return float(np.int64(rejected).view(np.float64))


def dual_slack_bound(cons: CompiledConstraints, w_up: np.ndarray, w_lo: np.ndarray) -> float:
    """Certified lower bound on a one-node family's slack from its dual weights.

    Weights (one upper and one lower weight per functional) must be
    nonnegative and sum to one.  The bound is the node problem's Lagrange
    dual in closed form: the rank-one PSD completion of the compressed 4x4
    dual matrix; validity needs only the weight normalization and a positive
    corner coefficient.
    """
    anchors = cons.anchor
    sq = (anchors * anchors).sum(axis=1)
    sigma = w_up - w_lo
    c = float(np.sum(sigma))
    if c <= 1e-14:
        return -np.inf
    b = -(sigma[:, None] * anchors).sum(axis=0)
    trace_a = float(np.dot(sigma, sq))
    lin = float(np.dot(w_lo, np.where(np.isfinite(cons.lo), cons.lo, 0.0))
                - np.dot(w_up, cons.hi))
    return lin + trace_a - float(np.dot(b, b)) / c


# ---------------------------------------------------------------------------
# Witnesses (upper bounds)
# ---------------------------------------------------------------------------

def _per_node_max(cons: CompiledConstraints, values: np.ndarray) -> np.ndarray:
    out = np.full(cons.n, -np.inf)
    np.maximum.at(out, cons.owner, values)
    return out


def _surplus(upper_env: np.ndarray, lower_env: np.ndarray) -> np.ndarray:
    """The Gram surplus minimizing a node's worst violation, from its largest
    upper and lower violations at zero surplus.

    Violations are piecewise linear in the surplus s_i: upper ones (the
    node's own displacement bound among them) grow, lower ones shrink.  The
    minimizer of the max is the midpoint of the two envelopes when the lower
    one is higher, else zero.
    """
    return np.where(lower_env > upper_env, (lower_env - upper_env) / 2.0, 0.0)


def best_gram_surplus(cons: CompiledConstraints, vals: np.ndarray) -> np.ndarray:
    """Per-node Gram surplus minimizing the worst violation at the
    functional values ``vals`` (``cons.values_at`` of the positions)."""
    return _surplus(_per_node_max(cons, vals - cons.hi), _per_node_max(cons, cons.lo - vals))


def complete_lift(X: np.ndarray, gram_surplus: np.ndarray | None = None) -> np.ndarray:
    """Lifted matrix [[I3, X^T], [X, X X^T + diag(surplus)]] for positions X (n, 3).

    Exactly PSD by construction: the Schur complement of the identity block
    is the diagonal of the (clipped nonnegative) surplus.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    Z = np.zeros((3 + n, 3 + n))
    Z[:3, :3] = np.eye(3)
    Z[:3, 3:] = X.T
    Z[3:, :3] = X
    Z[3:, 3:] = X @ X.T
    if gram_surplus is not None:
        Z[3:, 3:][np.diag_indices(n)] += np.maximum(np.asarray(gram_surplus, dtype=float), 0.0)
    return Z


@dataclass
class WitnessResult:
    X: np.ndarray
    s: np.ndarray
    node_slack: np.ndarray    # exact max violation per node with the surplus applied

    @property
    def slack(self) -> float:
        return float(np.max(self.node_slack))

    def entry(self, i: int) -> "WitnessResult":
        """Node ``i``'s entry, as a witness of its one-node family."""
        return WitnessResult(self.X[i:i + 1], self.s[i:i + 1], self.node_slack[i:i + 1])

    def put(self, i: int, node: "WitnessResult") -> None:
        """Replace node ``i``'s entry with a one-node witness."""
        self.X[i], self.s[i], self.node_slack[i] = node.X[0], node.s[0], node.node_slack[0]


def evaluate_witness(cons: CompiledConstraints, X: np.ndarray) -> WitnessResult:
    vals = cons.values_at(X)
    s = best_gram_surplus(cons, vals)
    vals = vals + s[cons.owner]
    violation = np.maximum(vals - cons.hi, cons.lo - vals)
    return WitnessResult(X=X, s=s, node_slack=_per_node_max(cons, violation))


# ---------------------------------------------------------------------------
# The exact per-node solve
# ---------------------------------------------------------------------------

class NodeSolver:
    """Primal-dual interior-point state for one node's program (``cons.n == 1``).

    Variables v = (u, z, t), with u = x - report and z = ||u||^2 + s:
    minimize t subject to every functional within t of its bounds (linear
    residuals c + G v >= 0) and z >= ||u||^2 (cone residual z - ||u||^2).
    ``s`` holds the linear residuals and then the cone residual, ``y`` their
    multipliers, so y s is the complementarity of every constraint and
    y . s the surrogate duality gap.  ``report`` is the family's evaluation
    at its report, which sizes the start.
    """

    def __init__(self, cons: CompiledConstraints):
        self.cons = cons
        d = cons.positions[0] - cons.anchor
        dd = (d * d).sum(axis=1)
        self.has_lo = has_lo = np.isfinite(cons.lo)
        k = cons.q
        m = k + int(np.count_nonzero(has_lo))
        # Rows: upper bounds, lower bounds, then the cone residual's
        # gradient (-2u, 1, 0), which ``iterate`` keeps current.
        self.G = G = np.zeros((m + 1, 5))
        G[:k, :3] = -2.0 * d
        G[k:m, :3] = 2.0 * d[has_lo]
        G[:k, 3] = -1.0
        G[k:, 3] = 1.0
        G[:m, 4] = 1.0
        self.c = np.concatenate([cons.hi - dd, (dd - cons.lo)[has_lo]])
        # Start at the report (u = 0) with cone residual z and every linear
        # residual at least z, on the central path of the weight that zeroes
        # the t-gradient there, so the linear multipliers sum to one.  Here
        # z is the report's best Gram surplus plus delta, the magnitude of
        # the report's slack (at least epsilon, and at least a sliver of the
        # data's scale so that delta is positive): the first steps stay on
        # the report's scale instead of making the upper bound worse than
        # the report's own.
        self.report = evaluate_witness(cons, cons.positions.copy())
        scale = float(np.abs(self.c).max()) + cons.epsilon + 1e-12
        delta = max(abs(float(self.report.node_slack[0])), cons.epsilon, _DELTA_FLOOR * scale)
        z = float(self.report.s[0]) + delta
        self.v = np.array([0.0, 0.0, 0.0, z, z - float((self.c + G[:m, 3] * z).min())])
        self.s = self.residuals(self.v)
        self.y = 1.0 / self.s
        self.y /= self.y[:-1].sum()
        # The stop rule's reference: the gap y . s of that start taken at
        # z = scale, which is len(s) over the sum of 1 / s_i over its linear
        # residuals.
        lin = self.c + G[:m, 3] * scale
        self.start_gap = (m + 1) / float(np.sum(1.0 / (lin + scale - lin.min())))

    def residuals(self, v: np.ndarray) -> np.ndarray:
        """The linear residuals and the cone residual at ``v``."""
        s = np.empty(len(self.G))
        np.matmul(self.G[:-1], v, out=s[:-1])
        s[:-1] += self.c
        s[-1] = v[3] - v[:3] @ v[:3]
        return s

    def gap(self) -> float:
        return float(self.y @ self.s)

    def iterate(self, steps: int) -> bool:
        """At most ``steps`` predictor-corrector steps (Mehrotra).

        Each step solves the Newton system of the KKT conditions twice with
        one factorization: once aimed at zero complementarity, then aimed
        at the centering target (sigma times the mean complementarity, with
        sigma the cube of the gap ratio the first direction reaches)
        corrected by the first direction's second-order terms, the cone's
        curvature among them.  The step keeps every residual and multiplier
        strictly positive.  Returns False when rounding broke a step (a
        singular Newton system or a point outside the domain); bounds taken
        at earlier points still hold.
        """
        G = self.G
        v, y, s = self.v, self.y, self.s
        for _ in range(steps):
            np.multiply(v[:3], -2.0, out=G[-1, :3])
            weight = y / s
            H = (G.T * weight) @ G
            cone_curvature = 2.0 * float(y[-1])
            H[0, 0] += cone_curvature
            H[1, 1] += cone_curvature
            H[2, 2] += cone_curvature
            try:
                inv = np.linalg.inv(H)
            except np.linalg.LinAlgError:
                return False
            # Predictor: the right-hand side is minus the objective's gradient.
            dv = -inv[:, 4]
            ds = G @ dv
            dy = -y - weight * ds
            curve = float(dv[:3] @ dv[:3])
            step = _step_length(y, dy, s, ds, curve)
            y_step, s_step = y + step * dy, s + step * ds
            reached = float(y_step @ s_step) - float(y_step[-1]) * step * step * curve
            gap = float(y @ s)
            target = (reached / gap) ** 3 * gap / len(s) - dy * ds
            target[-1] += float(y[-1] + dy[-1]) * curve
            # Corrector.
            rhs = G.T @ (target / s)
            rhs[4] -= 1.0
            dv = inv @ rhs
            ds = G @ dv
            dy = target / s - y - weight * ds
            step = _STEP_BACK * _step_length(y, dy, s, ds, float(dv[:3] @ dv[:3]))
            v = v + step * dv
            y = y + step * dy
            s = self.residuals(v)
            if not (s.min() > 0 and y.min() > 0):
                return False
            self.v, self.y, self.s = v, y, s
        return True

    def dual_bound(self) -> float:
        """Closed-form dual bound at the normalized linear multipliers."""
        k = self.cons.q
        weights = self.y[:-1] / self.y[:-1].sum()
        w_lo = np.zeros(k)
        w_lo[self.has_lo] = weights[k:]
        return dual_slack_bound(self.cons, weights[:k], w_lo)

    def position(self) -> np.ndarray:
        return self.cons.positions + self.v[:3]


def _step_length(y: np.ndarray, dy: np.ndarray, s: np.ndarray, ds: np.ndarray, curve: float) -> float:
    """The largest step in (0, 1] along (dy, ds) that keeps the multipliers
    ``y`` and the residuals ``s`` nonnegative, the cone residual ``s[-1]``
    falling by ``curve`` times the step squared beside its linear change."""
    # Ratios over positive entries: no division by zero.
    fall = -min(float((dy / y).min()), float((ds / s).min()))
    cone, slope = float(s[-1]), float(ds[-1])
    root = math.sqrt(slope * slope + 4.0 * curve * cone)
    # The cone's first zero, in the form free of cancellation for its sign.
    if slope < 0:
        fall = max(fall, (root - slope) / (2.0 * cone))
    elif curve > 0:
        fall = max(fall, 2.0 * curve / (slope + root))
    return 1.0 / max(fall, 1.0)


# bench/tracing.py times the node iterations (and counts their step
# budgets) under the name of the consensus solver they replaced; drop this
# alias once its stage list names NodeSolver.
ConsensusSolver = NodeSolver


def solve_node(
    cons: CompiledConstraints, tol_feas: float, tol_infeas: float, iterations: list | None = None
) -> tuple[WitnessResult, float]:
    """Certified bounds on the optimal slack of a one-node family (``cons.n == 1``).

    Runs the primal-dual iteration one step at a time.  After each step the
    position is evaluated exactly (upper bound) and, unless that proves the
    node feasible, the normalized multipliers go through the closed-form
    dual (lower bound).  Stops once the upper bound proves the node
    feasible, the lower bound proves it infeasible, or both lie inside the
    tolerance gap: the witness is the point that certified the verdict,
    wherever it lies within the node's budget, unretracted.  Also stops,
    with the bounds it has, once the duality gap is ``_GAP_REDUCTION`` of
    its start, after ``_MAX_STEPS`` steps, or when rounding breaks a step.
    ``iterations``, when given, receives the number of steps taken.
    """
    node = NodeSolver(cons)
    best = node.report
    upper, lower = best.slack, -np.inf
    steps = 0
    while steps < _MAX_STEPS and node.gap() > _GAP_REDUCTION * node.start_gap:
        steps += 1
        if not node.iterate(1):
            break
        cand = evaluate_witness(cons, node.position())
        if cand.slack < upper:
            best, upper = cand, cand.slack
        if upper <= tol_feas:
            break
        lower = max(lower, node.dual_bound())
        if lower >= tol_infeas or (lower > tol_feas and upper < tol_infeas):
            break
    if iterations is not None:
        iterations.append(steps)
    return best, lower


def retract(cons: CompiledConstraints, witness: WitnessResult, target: float) -> WitnessResult:
    """The point of the segment from a one-node family's report to
    ``witness`` nearest the report whose exact slack is still <= ``target``
    (``witness`` itself when it misses ``target``).

    The node's exact slack is convex in its position, so the part of the
    segment where it stays <= target is an interval ending at the witness:
    bisect for its near end.  Without this, recovered positions sit
    wherever the node solve stopped, up to the edge of the displacement budget.
    """
    if witness.slack > target:
        return witness
    report = cons.positions[0]
    offset = witness.X[0] - report
    near, far = 0.0, 1.0
    for _ in range(_RETRACT_STEPS):
        mid = 0.5 * (near + far)
        cand = evaluate_witness(cons, (report + mid * offset)[None, :])
        if cand.slack <= target:
            far, witness = mid, cand
        else:
            near = mid
    return witness


def refine_witness(
    cons: CompiledConstraints, witness: WitnessResult, tol_feas: float, tol_infeas: float,
    iterations: list | None = None,
) -> dict[int, float]:
    """The oracle's node loop: replace, worst first, every node entry of
    ``witness``, a witness of the family ``cons``, that misses ``tol_feas``
    with the solve of its one-node family ``cons.node(i)`` (``solve_node``,
    unretracted), and return each solved node's lower bound by local index.
    The first node whose lower bound reaches ``tol_infeas`` ends the loop.
    ``iterations``, when given, receives each solve's step count.
    """
    lowers: dict[int, float] = {}
    for i in np.argsort(-witness.node_slack, kind="stable").tolist():
        if witness.node_slack[i] <= tol_feas:
            break
        found, lowers[i] = solve_node(cons.node(i), tol_feas, tol_infeas, iterations)
        witness.put(i, found)
        if lowers[i] >= tol_infeas:
            break
    return lowers
