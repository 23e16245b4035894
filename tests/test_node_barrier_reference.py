"""The primal-dual node solve (``conic.NodeSolver``, ``conic.solve_node``).

On one-node families of attacked scenarios, across attack kinds and noise
levels:

* ``NodeSolver.iterate`` must take the step of ``reference_iterate``, which
  builds the same Mehrotra predictor-corrector step the plain way: it solves
  the full Newton system of the KKT conditions in (dv, dy, ds) with
  ``np.linalg.solve`` and finds each step to the boundary from the roots of
  every residual, where the library eliminates dy and ds into one 5x5
  inverse and takes the ratios in closed form.  The two must agree to
  rounding over the steps ``solve_node`` takes, and ``solve_node`` must
  give the same steps, bounds and verdict with either.
* every iterate stays strictly interior (linear residuals, cone residual
  and multipliers all positive), and every lower bound stays at or below
  the exact upper bound of its own iterate;
* ``solve_node`` ends within ``STEP_CAP`` steps with the verdict class a
  long run of the same iteration reaches.

(The module keeps the name it had when the node solve was a log-barrier.)
"""

import contextlib

import numpy as np
import pytest

from swarmsentry import conic, sdp, serialize

from conftest import honest_scenario, make_scenario

KINDS = ("distributed", "collusion", "mixed")
DIST_VARS = (1e-6, 1e-4, 1e-3)
PER_SCENARIO = 4
# Steps a solve takes before a certificate stops it: at most 4 over the
# node solves of the acceptance sweep bundle and on these families (7 and 6
# from a start at the data's scale).
STEP_CAP = 6
# The two ways of taking a step differ by rounding only: at most 4e-11
# relative over these families, far below this.
RTOL = 1e-8
OPTS = sdp.OracleOptions()


def _to_boundary(values: np.ndarray, slopes: np.ndarray) -> float:
    """The largest step in (0, 1] keeping ``values + step * slopes`` >= 0."""
    falling = slopes < 0
    if not falling.any():
        return 1.0
    return min(1.0, float(np.min(-values[falling] / slopes[falling])))


def _cone_to_boundary(cone: float, slope: float, curve: float) -> float:
    """The largest step in (0, 1] keeping ``cone + step * slope - step**2 * curve`` >= 0."""
    roots = np.roots([-curve, slope, cone]) if curve > 0 else np.roots([slope, cone])
    ahead = [r.real for r in np.atleast_1d(roots) if r.imag == 0 and r.real > 0]
    return min([1.0, *ahead])


def reference_iterate(self, steps: int) -> bool:
    v, y, s = self.v, self.y, self.s
    G = self.G[:-1]
    m = len(s)
    objective = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    for _ in range(steps):
        J = np.vstack([G, [*(-2.0 * v[:3]), 1.0, 0.0]])
        # Unknowns (dv, dy, ds): the Lagrangian's Newton equation (the
        # cone's Hessian enters with its multiplier), the linearized
        # residuals ds = J dv, and the linearized complementarity.
        K = np.zeros((5 + 2 * m, 5 + 2 * m))
        K[:3, :3] = 2.0 * y[-1] * np.eye(3)
        K[:5, 5:5 + m] = -J.T
        K[5:5 + m, :5] = J
        K[5:5 + m, 5 + m:] = -np.eye(m)
        K[5 + m:, 5:5 + m] = np.diag(s)
        K[5 + m:, 5 + m:] = np.diag(y)

        def direction(target):
            rhs = np.concatenate([J.T @ y - objective, np.zeros(m), target - y * s])
            d = np.linalg.solve(K, rhs)
            return d[:5], d[5:5 + m], d[5 + m:]

        def step_length(dv, dy, ds):
            curve = float(dv[:3] @ dv[:3])
            return curve, min(_to_boundary(y, dy), _to_boundary(s[:-1], ds[:-1]),
                              _cone_to_boundary(float(s[-1]), float(ds[-1]), curve))

        # Predictor, aimed at zero complementarity.
        dv, dy, ds = direction(np.zeros(m))
        curve, step = step_length(dv, dy, ds)
        y_step, s_step = y + step * dy, s + step * ds
        s_step[-1] -= step * step * curve
        sigma = (float(y_step @ s_step) / float(y @ s)) ** 3
        # Corrector, aimed at sigma times the mean complementarity, less
        # the predictor's second-order terms (the cone's curvature among them).
        target = sigma * float(y @ s) / m - dy * ds
        target[-1] += float(y[-1] + dy[-1]) * curve
        dv, dy, ds = direction(target)
        _, step = step_length(dv, dy, ds)
        step *= conic._STEP_BACK
        v = v + step * dv
        y = y + step * dy
        s = self.residuals(v)
        if not (s.min() > 0 and y.min() > 0):
            return False
        self.v, self.y, self.s = v, y, s
    return True


@contextlib.contextmanager
def reference_step():
    lean = conic.NodeSolver.iterate
    conic.NodeSolver.iterate = reference_iterate
    try:
        yield
    finally:
        conic.NodeSolver.iterate = lean


def node_families():
    """One-node families the node loop solves: the nodes whose reports miss
    tol_feas against all their counterparts, and against the first half of
    them, up to ``PER_SCENARIO`` of each per scenario (54 families)."""
    families = []
    for kind in KINDS:
        for dist_var in DIST_VARS:
            scen = make_scenario(kind, 4, seed=1, n=40, dist_var=dist_var)
            cons = sdp.assemble(range(scen.n), scen).compiled()
            for half in (False, True):
                picked = []
                for i in range(scen.n):
                    rows = np.flatnonzero(cons.owner[:cons.n_pairs] == i)
                    if half:
                        rows = rows[:max(1, len(rows) // 2)]
                    family = cons.family([i], np.concatenate([rows, [cons.n_pairs + i]]))
                    if conic.evaluate_witness(family, family.positions.copy()).slack > OPTS.tol_feas:
                        picked.append(family)
                families += picked[:PER_SCENARIO]
    return families


FAMILIES = node_families()


def verdict_class(upper: float, lower: float) -> str:
    if upper <= OPTS.tol_feas:
        return sdp.FEASIBLE
    if lower >= OPTS.tol_infeas:
        return sdp.INFEASIBLE
    return "bracketed" if lower > OPTS.tol_feas and upper < OPTS.tol_infeas else "open"


def test_enough_families():
    assert len(FAMILIES) >= 50


@pytest.mark.parametrize("k", range(len(FAMILIES)))
def test_matches_reference_step(k):
    cons = FAMILIES[k]
    steps = []
    found, lower = conic.solve_node(cons, OPTS.tol_feas, OPTS.tol_infeas, steps)
    lean, ref = conic.NodeSolver(cons), conic.NodeSolver(cons)
    for _ in range(steps[0]):
        assert lean.iterate(1)
        assert reference_iterate(ref, 1)
        np.testing.assert_allclose(lean.v, ref.v, rtol=RTOL, atol=RTOL * np.abs(ref.v).max())
        np.testing.assert_allclose(lean.y, ref.y, rtol=RTOL, atol=0.0)
        np.testing.assert_allclose(lean.dual_bound(), ref.dual_bound(), rtol=RTOL, atol=0.0)
    expected_steps = []
    with reference_step():
        expected, expected_lower = conic.solve_node(cons, OPTS.tol_feas, OPTS.tol_infeas, expected_steps)
    assert steps == expected_steps
    assert verdict_class(found.slack, lower) == verdict_class(expected.slack, expected_lower)
    np.testing.assert_allclose(found.slack, expected.slack, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(lower, expected_lower, rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("k", range(len(FAMILIES)))
def test_iterates_stay_interior_and_bounds_ordered(k):
    # Past every certificate, down to a tenth of the gap at which
    # ``solve_node`` stops (the bounds are still 1e-13 apart there, far
    # above their rounding).
    cons = FAMILIES[k]
    node = conic.NodeSolver(cons)
    for _ in range(conic._MAX_STEPS):
        node.iterate(1)
        v = node.v
        assert np.all(node.c + node.G[:-1] @ v > 0)
        assert v[3] - v[:3] @ v[:3] > 0
        assert np.all(node.y > 0)
        upper = conic.evaluate_witness(cons, node.position()).slack
        assert node.dual_bound() <= upper
        if node.gap() <= 0.1 * conic._GAP_REDUCTION * node.start_gap:
            break


@pytest.mark.parametrize("k", range(len(FAMILIES)))
def test_solve_ends_within_cap(k):
    cons = FAMILIES[k]
    steps = []
    found, lower = conic.solve_node(cons, OPTS.tol_feas, OPTS.tol_infeas, steps)
    assert 1 <= steps[0] <= STEP_CAP
    assert lower <= found.slack
    assert found.slack == conic.evaluate_witness(cons, found.X.copy()).slack
    # A long run of the same iteration reaches the same verdict class.
    node = conic.NodeSolver(cons)
    node.iterate(conic._MAX_STEPS)
    upper = min(found.slack, conic.evaluate_witness(cons, node.position()).slack)
    assert verdict_class(found.slack, lower) == verdict_class(upper, max(lower, node.dual_bound()))


def test_start_interior_at_zero_report_slack_and_epsilon():
    # From a problem file with epsilon = 0, a report that meets every pair
    # bound has slack exactly 0, so the start's size comes from the data's
    # scale alone; a negative tol_feas sends such nodes to the solve, whose
    # optimum is exactly 0.
    data = serialize.problem_to_dict(sdp.assemble(range(8), honest_scenario(seed=3, n=8)))
    problem = serialize.problem_from_dict({**data, "epsilon": 0.0})
    cons = problem.compiled()
    zero = [i for i in range(cons.n)
            if conic.evaluate_witness(cons.node(i), cons.positions[i:i + 1].copy()).slack == 0.0]
    assert zero
    for i in zero:
        node = conic.NodeSolver(cons.node(i))
        assert node.s.min() > 0
        assert np.all(np.isfinite(node.y)) and node.y.min() > 0
    opts = sdp.OracleOptions(tol_feas=-1e-9, tol_infeas=1e-4)
    res = sdp.check_feasibility(problem, opts)
    assert res.status == sdp.UNKNOWN
    assert res.diagnostics["slack_lower"] <= 0.0 <= res.diagnostics["slack_upper"]
