"""Independent cross-check of the exact per-node solve against scipy's SLSQP.

Each instance is one free node measured against fixed anchors.  Its phase-I
program, minimize t over (x, y, t) subject to every functional
y - 2 a.x + |a|^2 lying within t of its bounds and y >= |x|^2, is solved here
from first principles with a general-purpose solver.  The oracle's certified
bracket must contain that optimum, and its verdict must be the one the
optimum implies.  Skipped when scipy is not installed; it is not a package
dependency.
"""

import numpy as np
import pytest

optimize = pytest.importorskip("scipy.optimize")

from swarmsentry import conic
from swarmsentry.sdp import FEASIBLE, INFEASIBLE, UNKNOWN, FeasibilityProblem, OracleOptions, check_feasibility

OPTS = OracleOptions()
MARGIN = 1e-7


def slsqp_optimum(report, anchors, hi, lo) -> float:
    """Smallest t found by SLSQP from a few starts, in coordinates centred on
    the report; only points satisfying every constraint to 1e-10 count."""
    d = anchors - report
    has_lo = np.isfinite(lo)

    def residuals(v):
        u, z, t = v[:3], v[3], v[4]
        g = z - 2.0 * d @ u + (d * d).sum(axis=1)
        return np.concatenate([hi + t - g, (g - lo + t)[has_lo], [z - u @ u]])

    best = np.inf
    rng = np.random.default_rng(0)
    for _ in range(4):
        u0 = rng.normal(size=3) * 1e-3
        z0 = u0 @ u0 + 1e-3
        v0 = np.array([*u0, z0, 0.0])
        v0[4] = max(0.0, -float(np.min(residuals(v0)))) + 1e-3
        res = optimize.minimize(
            lambda v: v[4], v0, jac=lambda v: np.array([0.0, 0.0, 0.0, 0.0, 1.0]),
            constraints=[{"type": "ineq", "fun": residuals}], method="SLSQP",
            options={"ftol": 1e-15, "maxiter": 500},
        )
        if np.min(residuals(res.x)) >= -1e-10:
            best = min(best, float(res.x[4]))
    assert np.isfinite(best)
    return best


def random_node(rng):
    """One node, 1-6 anchors, claims perturbed on scales from 1e-4 to 0.1 so
    the optimum lands on both sides of the tolerance gap and inside it."""
    k = int(rng.integers(1, 7))
    report = rng.uniform(-0.4, 0.4, size=3)
    anchors = report + rng.normal(size=(k, 3)) * 0.12
    true = np.linalg.norm(anchors - report, axis=1)
    claims = np.abs(true + rng.normal(size=k) * 10 ** rng.uniform(-4, -1)) + 1e-3
    return report, anchors, claims


def shell_conflict():
    return np.zeros(3), np.array([[0.2, 0.0, 0.0], [-0.2, 0.0, 0.0]]), np.array([0.33, 0.33])


def surplus_only():
    """Anchors on all six axes demand more separation than any displacement
    gives: only the Gram surplus satisfies them, so the node is feasible in
    the relaxation (optimum about -0.0025 with epsilon 0.01) but not by
    moving alone."""
    anchors = 0.2 * np.vstack([np.eye(3), -np.eye(3)])
    return np.zeros(3), anchors, np.full(6, np.sqrt(0.0675))


def problem_for(report, anchors, claims, epsilon):
    positions = {0: report, **{j + 1: a for j, a in enumerate(anchors)}}
    return FeasibilityProblem(
        node_order=tuple(range(len(anchors) + 1)),
        reported_positions=positions,
        constraint_pairs=tuple((0, j + 1, float(r)) for j, r in enumerate(claims)),
        comm_range=0.3,
        epsilon=epsilon,
        strictness_margin=1e-9,
        window_sq=0.0225,
    )


def expected_status(optimum):
    if optimum <= OPTS.tol_feas - MARGIN:
        return FEASIBLE
    if optimum >= OPTS.tol_infeas + MARGIN:
        return INFEASIBLE
    if OPTS.tol_feas + MARGIN < optimum < OPTS.tol_infeas - MARGIN:
        return UNKNOWN
    return None  # too close to a tolerance to call


def test_node_bracket_contains_slsqp_optimum():
    rng = np.random.default_rng(2024)
    cases = [(*shell_conflict(), 0.04), (*surplus_only(), 0.01)]
    cases += [(*random_node(rng), 1e-5) for _ in range(50)]
    seen = set()
    for report, anchors, claims, epsilon in cases:
        problem = problem_for(report, anchors, claims, epsilon)
        node = problem.compiled().node(0)
        optimum = slsqp_optimum(report, node.anchor, node.hi, node.lo)

        found, lower = conic.solve_node(node, OPTS.tol_feas, OPTS.tol_infeas)
        assert lower - MARGIN <= optimum <= found.slack + MARGIN

        # The anchors hold only their own displacement bound (slack -epsilon),
        # and the call's lower bound is floored at zero.
        call_optimum = max(optimum, -epsilon)
        res = check_feasibility(problem, OPTS)
        assert res.diagnostics["slack_lower"] - MARGIN <= max(call_optimum, 0.0)
        assert call_optimum <= res.diagnostics["slack_upper"] + MARGIN
        status = expected_status(call_optimum)
        if status is not None:
            assert res.status == status
            seen.add(status)
    assert seen == {FEASIBLE, INFEASIBLE, UNKNOWN}
