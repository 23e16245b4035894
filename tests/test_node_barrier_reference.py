"""The Newton step of ``conic.NodeBarrier.iterate`` against the step it replaced.

``reference_iterate`` keeps the per-step code that built the cone gradient
with ``np.array`` from the unpacked position, added ``np.eye(3)``, took the
rank-one term with ``np.outer`` and the decrement with ``np.sqrt``.  The
library's step does the same arithmetic with less per-step overhead, so both
must agree bit for bit: the same ``v`` and ``tau`` after every barrier stage,
and the same ``solve_node`` results, on one-node families of attacked
scenarios across attack kinds and noise levels.
"""

import contextlib

import numpy as np
import pytest

from swarmsentry import conic, sdp

from conftest import make_scenario

KINDS = ("distributed", "collusion", "mixed")
DIST_VARS = (1e-6, 1e-4, 1e-3)
PER_SCENARIO = 4


def reference_iterate(self, steps: int) -> bool:
    G, v = self.G, self.v
    for _ in range(steps):
        r = self.c + G @ v
        u = v[:3]
        cone = v[3] - u @ u
        cone_grad = np.array([*(-2.0 * u), 1.0, 0.0])
        Gs = G / r[:, None]
        grad = -Gs.sum(axis=0) - cone_grad / cone
        grad[4] += self.tau
        H = Gs.T @ Gs + np.outer(cone_grad, cone_grad) / cone**2
        H[:3, :3] += np.eye(3) * (2.0 / cone)
        try:
            step = -np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            return False
        decrement = float(np.sqrt(max(-grad @ step, 0.0)))
        v = v + step / (1.0 + decrement)
        if decrement < conic._NEWTON_DECREMENT:
            break
    self.v = v
    return bool(np.all(self.residuals() > 0) and v[3] > v[:3] @ v[:3])


@contextlib.contextmanager
def reference_step():
    lean = conic.NodeBarrier.iterate
    conic.NodeBarrier.iterate = reference_iterate
    try:
        yield
    finally:
        conic.NodeBarrier.iterate = lean


def node_families():
    """One-node families the node loop solves: the nodes whose reports miss
    tol_feas against all their counterparts, and against the first half of
    them, up to ``PER_SCENARIO`` of each per scenario (54 families)."""
    tol = sdp.OracleOptions().tol_feas
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
                    if conic.evaluate_witness(family, family.positions.copy()).slack > tol:
                        picked.append(family)
                families += picked[:PER_SCENARIO]
    return families


FAMILIES = node_families()


def test_enough_families():
    assert len(FAMILIES) >= 50


@pytest.mark.parametrize("k", range(len(FAMILIES)))
def test_matches_reference_step(k):
    cons, opts = FAMILIES[k], sdp.OracleOptions()
    lean, ref = conic.NodeBarrier(cons), conic.NodeBarrier(cons)
    for _ in range(conic._BARRIER_STAGES):
        ok = lean.iterate(conic._NEWTON_STEPS)
        assert ok == reference_iterate(ref, conic._NEWTON_STEPS)
        assert lean.v.tobytes() == ref.v.tobytes()
        assert lean.tau == ref.tau
        if not ok:
            break
        lean.tau *= conic._BARRIER_GROWTH
        ref.tau *= conic._BARRIER_GROWTH
    found, lower = conic.solve_node(cons, opts.tol_feas, opts.tol_infeas)
    with reference_step():
        expected, expected_lower = conic.solve_node(cons, opts.tol_feas, opts.tol_infeas)
    assert np.float64(lower).tobytes() == np.float64(expected_lower).tobytes()
    for name in ("X", "s", "node_slack"):
        assert getattr(found, name).tobytes() == getattr(expected, name).tobytes()
