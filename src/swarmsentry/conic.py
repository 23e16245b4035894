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

* the pairwise bound, ``PairThresholds.bound`` over the sub-network's pairs,
  is closed form and certifies most infeasible sub-networks without any
  solve;
* the node loop, ``refine_witness``, starts from each node's own report
  with its best Gram surplus, and gives every node that misses the
  tolerance, worst first, one deterministic log-barrier Newton solve on its
  five variables (``solve_node``).  Its primal point, evaluated exactly, is
  an upper bound; its normalized central-path multipliers, fed to the
  node's closed-form Lagrange dual, are a lower bound.  The solve stops at
  the first point that certifies its verdict, and the loop at the first
  node proven infeasible.  ``sdp.ScenarioOracle``, which meets each node
  again under other anchor sets, evaluates every report once against all
  of its node's anchors (``evaluate_witness`` over the whole scenario): a
  node's report slack only falls as anchors leave, so a report within zero
  there settles its node in every sub-network.  It gives the loop a second
  certificate first: a node whose report misses the tolerance is evaluated
  exactly at its kept point (its last solved point within ``tol_feas``),
  and enters the witness there when that point is within ``tol_feas``, so
  only nodes that miss both are solved;
* ``sdp.verdict`` turns the two bounds into a status.

Only ``sdp.check_feasibility``, which returns positions, then pulls each
solved node's point back toward its report (``retract``).

Everything is deterministic: fixed schedules and step rules, no time-based
decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_CERTIFY_STEPS = 64
# Each barrier stage shrinks the duality gap tenfold, from about the data
# scale to about 1e-9 of it; later stages lose centering to rounding.
_BARRIER_STAGES = 9
_BARRIER_GROWTH = 10.0
_NEWTON_STEPS = 50          # per stage; centering usually ends far sooner
_NEWTON_DECREMENT = 1e-6
_RETRACT_STEPS = 20
_EYE3 = np.eye(3)


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

    def max_violation(self, X: np.ndarray, s: np.ndarray | None = None) -> float:
        vals = self.values_at(X, s)
        over = vals - self.hi
        under = self.lo - vals
        return float(np.max(np.maximum(over, under)))

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


def compile_constraints(
    positions: np.ndarray,
    pairs: list[tuple[int, int, float]],
    comm_range: float,
    epsilon: float,
    delta: float,
    window_sq: float,
) -> CompiledConstraints:
    """Build the slab family: range and window bounds per measured pair, a
    displacement bound per node."""
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    cols = np.array(pairs, dtype=float).reshape(-1, 3)
    i, j, r = cols[:, 0].astype(int), cols[:, 1].astype(int), cols[:, 2]
    pair_hi = np.minimum(comm_range**2 - delta, r * r + window_sq - delta)
    return CompiledConstraints(
        n=n,
        positions=positions,
        owner=np.concatenate([i, np.arange(n)]),
        anchor=np.concatenate([positions[j], positions]),
        hi=np.concatenate([pair_hi, np.full(n, float(epsilon))]),
        lo=np.concatenate([r * r - window_sq + delta, np.full(n, -np.inf)]),
        epsilon=epsilon,
        n_pairs=len(pairs),
    )


# ---------------------------------------------------------------------------
# Lower bounds on the phase-I slack
# ---------------------------------------------------------------------------

@dataclass
class PairThresholds:
    """Per-pair data of the pairwise bound for the pair functionals of a
    family: reported separation ``D``, bounds ``hi``/``lo`` and the
    displacement budget ``eps``.

    For a relaxation t, any lifted solution confines x_i to a ball of radius
    r = sqrt(eps + t) around the node's report and allows a Gram surplus of
    at most eps + t, so each pair functional is boxed into an interval
    around D.  Each of the three conditions of ``satisfied`` (the interval
    reaches down to hi, up to lo, and the slab is nonempty) is monotone in
    t, so a pair's threshold ``tau`` is the largest of their roots:

    * upper: (D - r)^2 <= hi + t holds from r = (D^2 - hi + eps) / (2 D)
      while that root is at most D, else (and at D = 0) from t = -hi;
    * lower: 3 r^2 + 2 D r + D^2 - lo - eps >= 0 holds from its positive root;
    * nonempty: t >= (lo - hi) / 2.
    """

    D: np.ndarray
    hi: np.ndarray
    lo: np.ndarray
    eps: float
    _certified: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of(cls, cons: CompiledConstraints) -> "PairThresholds":
        sl = slice(0, cons.n_pairs)
        D = np.linalg.norm(cons.positions[cons.owner[sl]] - cons.anchor[sl], axis=1)
        return cls(D, cons.hi[sl], cons.lo[sl], cons.epsilon)

    def satisfied(self, t, k=slice(None)):
        """The floating-point predicate: pair(s) ``k`` admit relaxation ``t``."""
        radius = np.sqrt(self.eps + t)
        D, hi, lo = self.D[k], self.hi[k], self.lo[k]
        amin = np.maximum(0.0, D - radius) ** 2
        amax = (D + radius) ** 2 + self.eps + t
        ok_upper = amin <= hi + t
        ok_lower = amax >= lo - t
        ok_nonempty = lo - t <= hi + t
        return ok_upper & ok_lower & ok_nonempty

    @cached_property
    def unmet(self) -> np.ndarray:
        """The pairs that admit no relaxation t = 0."""
        return ~self.satisfied(0.0)

    @cached_property
    def tau(self) -> np.ndarray:
        """Each pair's closed-form threshold."""
        D, hi, lo, eps = self.D, self.hi, self.lo, self.eps
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r_up = (D * D - hi + eps) / (2.0 * D)
            t_up = np.where((D > 0) & (r_up <= D), np.maximum(r_up, 0.0) ** 2 - eps, -hi)
            # Positive root of the lower condition, in its cancellation-free form.
            disc = 3.0 * (lo + eps) - 2.0 * D * D
            den = D + np.sqrt(np.maximum(disc, 0.0))
            r_lo = np.where(den > 0, (lo + eps - D * D) / den, 0.0)
            t_lo = np.where(disc >= 0, np.maximum(r_lo, 0.0) ** 2 - eps, -np.inf)
        return np.maximum(np.maximum(t_up, t_lo), (lo - hi) / 2.0)

    def bound(self, mask: np.ndarray | None = None) -> float:
        """Certified lower bound on the slack of the pairs in ``mask`` (all
        pairs by default): the certified threshold of the first of them with
        the largest ``tau``, or zero when each of them admits t = 0.

        Nonnegative by construction; zero is vacuous (no violation provable
        this way).  Certified thresholds are kept per pair.
        """
        unmet = self.unmet if mask is None else self.unmet & mask
        if not np.any(unmet):
            return 0.0
        worst = int(np.argmax(self.tau if mask is None else np.where(mask, self.tau, -np.inf)))
        if worst not in self._certified:
            self._certified[worst] = self._certify(worst)
        return self._certified[worst]

    def _certify(self, k: int) -> float:
        """Pair ``k``'s threshold stepped down until the float predicate
        rejects that pair, so it certifies as an exact bisection would; zero
        when no positive relaxation is rejected."""
        bound, step = float(self.tau[k]), 0.0
        for _ in range(_CERTIFY_STEPS):
            if bound <= 0.0:
                return 0.0
            # ``[k]``: a numpy scalar's ``** 2`` can round apart from ``unmet``'s.
            if not self.satisfied(bound, [k])[0]:
                return bound
            # One ulp first, then doubling steps: rounding in the closed form
            # rarely puts it more than a few ulps past the float predicate.
            step = 2.0 * step if step else bound - float(np.nextafter(bound, -np.inf))
            bound -= step
        return 0.0


def pairwise_slack_bound(cons: CompiledConstraints) -> float:
    """Certified lower bound on the optimal slack from single-pair analysis:
    ``PairThresholds.bound`` over every pair of ``cons``."""
    return PairThresholds.of(cons).bound()


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


def best_gram_surplus(cons: CompiledConstraints, X: np.ndarray) -> np.ndarray:
    """Per-node Gram surplus minimizing the worst violation at positions X.

    Violations are piecewise linear in the surplus s_i: upper ones (the
    node's own displacement bound among them) grow, lower ones shrink.  The
    minimizer of the max is the midpoint of the two envelopes when the lower
    one is higher, else zero.
    """
    vals = cons.values_at(X)
    upper_env = _per_node_max(cons, vals - cons.hi)
    lower_env = _per_node_max(cons, cons.lo - vals)
    return np.where(lower_env > upper_env, (lower_env - upper_env) / 2.0, 0.0)


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
    s = best_gram_surplus(cons, X)
    vals = cons.values_at(X, s)
    violation = np.maximum(vals - cons.hi, cons.lo - vals)
    return WitnessResult(X=X, s=s, node_slack=_per_node_max(cons, violation))


# ---------------------------------------------------------------------------
# The exact per-node solve
# ---------------------------------------------------------------------------

class NodeBarrier:
    """Log-barrier Newton state for one node's program (``cons.n == 1``).

    Variables v = (u, z, t), with u = x - report and z = ||u||^2 + s:
    minimize t subject to every functional within t of its bounds (linear
    residuals r = c + G v > 0) and z > ||u||^2.
    """

    def __init__(self, cons: CompiledConstraints):
        self.cons = cons
        d = cons.positions[0] - cons.anchor
        dd = (d * d).sum(axis=1)
        self.has_lo = np.isfinite(cons.lo)
        ones = np.ones(cons.q)
        self.G = np.vstack([
            np.column_stack([-2.0 * d, -ones, ones]),
            np.column_stack([2.0 * d, ones, ones])[self.has_lo],
        ])
        self.c = np.concatenate([cons.hi - dd, (dd - cons.lo)[self.has_lo]])
        # Start at the report with every residual at least the data's own scale.
        scale = float(np.max(np.abs(self.c))) + cons.epsilon + 1e-12
        self.v = np.array([0.0, 0.0, 0.0, scale, 0.0])
        self.v[4] = scale - float(np.min(self.residuals()))
        self.tau = float(np.sum(1.0 / self.residuals()))  # zeroes the t-gradient at the start

    def residuals(self) -> np.ndarray:
        return self.c + self.G @ self.v

    def iterate(self, steps: int) -> bool:
        """Center at the current barrier weight with at most ``steps`` damped
        Newton steps on tau t - sum(log r) - log(z - ||u||^2).

        The step length 1 / (1 + decrement) never leaves the barrier's domain
        in exact arithmetic.  Returns False when rounding broke the stage (a
        singular Newton system or a point outside the domain); bounds taken
        after earlier stages still hold.
        """
        G, v = self.G, self.v
        cone_grad = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
        for _ in range(steps):
            r = self.c + G @ v
            u = v[:3]
            cone = v[3] - u @ u
            np.multiply(u, -2.0, out=cone_grad[:3])
            Gs = G / r[:, None]
            grad = -Gs.sum(axis=0) - cone_grad / cone
            grad[4] += self.tau
            H = Gs.T @ Gs + cone_grad[:, None] * cone_grad[None, :] / cone**2
            H[:3, :3] += _EYE3 * (2.0 / cone)
            try:
                step = -np.linalg.solve(H, grad)
            except np.linalg.LinAlgError:
                return False
            decrement = math.sqrt(max(-grad @ step, 0.0))
            v = v + step / (1.0 + decrement)
            if decrement < _NEWTON_DECREMENT:
                break
        self.v = v
        return bool(np.all(self.residuals() > 0) and v[3] > v[:3] @ v[:3])

    def dual_bound(self) -> float:
        """Closed-form dual bound at the normalized central-path multipliers 1 / (tau r)."""
        k = self.cons.q
        weights = 1.0 / self.residuals()
        weights /= weights.sum()
        w_lo = np.zeros(k)
        w_lo[self.has_lo] = weights[k:]
        return dual_slack_bound(self.cons, weights[:k], w_lo)

    def position(self) -> np.ndarray:
        return self.cons.positions + self.v[:3]


# bench/tracing.py times the barrier stages (and counts their Newton step
# budgets) under the name of the consensus solver they replaced; drop this
# alias once its stage list names NodeBarrier.
ConsensusSolver = NodeBarrier


def solve_node(
    cons: CompiledConstraints, tol_feas: float, tol_infeas: float
) -> tuple[WitnessResult, float]:
    """Certified bounds on the optimal slack of a one-node family (``cons.n == 1``).

    Runs the barrier stage by stage, growing its weight tenfold in between.
    After each stage the position is evaluated exactly (upper bound) and the
    multipliers go through the closed-form dual (lower bound).  Stops once
    the upper bound proves the node feasible, the lower bound proves it
    infeasible, or both lie inside the tolerance gap: the witness is the
    barrier point that certified the verdict, wherever it lies within the
    node's budget, unretracted.
    """
    barrier = NodeBarrier(cons)
    best = evaluate_witness(cons, cons.positions.copy())
    lower = -np.inf
    for _ in range(_BARRIER_STAGES):
        if not barrier.iterate(_NEWTON_STEPS):
            break
        lower = max(lower, barrier.dual_bound())
        cand = evaluate_witness(cons, barrier.position())
        if cand.slack < best.slack:
            best = cand
        if best.slack <= tol_feas or lower >= tol_infeas or (
            lower > tol_feas and best.slack < tol_infeas
        ):
            break
        barrier.tau *= _BARRIER_GROWTH
    return best, lower


def retract(cons: CompiledConstraints, witness: WitnessResult, target: float) -> WitnessResult:
    """The point of the segment from a one-node family's report to
    ``witness`` nearest the report whose exact slack is still <= ``target``
    (``witness`` itself when it misses ``target``).

    The node's exact slack is convex in its position, so the part of the
    segment where it stays <= target is an interval ending at the witness:
    bisect for its near end.  Without this, recovered positions sit
    wherever the barrier stopped, up to the edge of the displacement budget.
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
    cons: CompiledConstraints, witness: WitnessResult, tol_feas: float, tol_infeas: float
) -> dict[int, float]:
    """The oracle's node loop: replace, worst first, every node entry of
    ``witness`` that misses ``tol_feas`` with its node solve (``solve_node``,
    unretracted), and return each solved node's lower bound by local index.
    The first node whose lower bound reaches ``tol_infeas`` ends the loop.
    """
    lowers: dict[int, float] = {}
    for i in np.argsort(-witness.node_slack, kind="stable").tolist():
        if witness.node_slack[i] <= tol_feas:
            break
        found, lowers[i] = solve_node(cons.node(i), tol_feas, tol_infeas)
        witness.put(i, found)
        if lowers[i] >= tol_infeas:
            break
    return lowers
