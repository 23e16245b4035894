import numpy as np
import pytest
from dataclasses import replace

import swarmsentry as ss
from swarmsentry import conic
from swarmsentry.sdp import (
    FEASIBLE,
    INFEASIBLE,
    UNKNOWN,
    FeasibilityProblem,
    OracleOptions,
    assemble,
    check_feasibility,
    pair_constraint_matrix,
)
from swarmsentry.swarm import InvalidParameterError

from brute_oracle import find_satisfying_assignment
from conftest import hand_swarm, honest_scenario, make_scenario


def displaced_scenario(seed, n=20, who=None, offset=0.65):
    """Honest swarm with one report displaced; measurements stay physical."""
    scen = honest_scenario(seed=seed, n=n)
    rng = np.random.default_rng(seed + 77)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    uavs = list(scen.swarm.uavs)
    k = who if who is not None else n // 2
    uavs[k] = replace(uavs[k], reported_pos=uavs[k].true_pos + offset * direction)
    return ss.AttackedScenario(replace(scen.swarm, uavs=tuple(uavs)), scen.measurements), k


class TestConstraintMatrix:
    def test_zero_position_single_diagonal_one(self):
        mat = pair_constraint_matrix(np.zeros(3), 2, 5)
        expected = np.zeros((8, 8))
        expected[5, 5] = 1.0
        assert np.array_equal(mat, expected)

    def test_trace_identity(self):
        p = np.array([0.1, -0.2, 0.3])
        mat = pair_constraint_matrix(p, 1, 4)
        assert np.trace(mat) == pytest.approx(float(p @ p) + 1.0)

    def test_rank_one(self):
        mat = pair_constraint_matrix(np.array([0.3, 0.1, -0.5]), 0, 3)
        assert np.linalg.matrix_rank(mat) == 1

    def test_trace_product_evaluates_squared_distance(self):
        # Direct expansion check on explicit positions.
        X = np.array([[0.1, 0.2, 0.3], [-0.2, 0.0, 0.4], [0.25, -0.1, 0.0]])
        Z = conic.complete_lift(X)
        anchor = np.array([0.05, 0.15, -0.2])
        for i in range(3):
            mat = pair_constraint_matrix(anchor, i, 3)
            assert float(np.sum(mat * Z)) == pytest.approx(
                float(np.sum((X[i] - anchor) ** 2)), abs=1e-12
            )

    def test_index_validation(self):
        with pytest.raises(InvalidParameterError):
            pair_constraint_matrix(np.zeros(3), 5, 5)


class TestLift:
    def test_block_structure(self):
        X = np.random.default_rng(0).normal(size=(4, 3))
        Z = conic.complete_lift(X)
        assert np.array_equal(Z[:3, :3], np.eye(3))
        assert np.array_equal(Z, Z.T)
        assert np.min(np.linalg.eigvalsh(Z)) >= -1e-12

    def test_surplus_keeps_psd(self):
        X = np.random.default_rng(1).normal(size=(4, 3))
        Z = conic.complete_lift(X, gram_surplus=np.array([0.1, 0.0, 0.5, 0.2]))
        assert np.min(np.linalg.eigvalsh(Z)) >= -1e-12


class TestAssemble:
    def test_single_node_always_feasible(self):
        scen = honest_scenario(seed=1, n=5)
        problem = assemble([2], scen)
        assert problem.constraint_pairs == ()
        res = check_feasibility(problem)
        assert res.status == FEASIBLE
        assert res.phase1_slack == -problem.epsilon  # the report itself is the witness

    def test_constraint_counts(self):
        scen = make_scenario("distributed", 4, seed=11)
        problem = assemble(range(30), scen)
        counts = problem.constraint_counts()
        p = len(problem.constraint_pairs)
        assert p == len(scen.measurements.entries)
        assert counts == {
            "range_upper": p,
            "window_upper": p,
            "window_lower": p,
            "self_upper": 30,
            "identity_block": 1,
        }
        assert problem.dimension() == 33

    def test_pairs_restricted_to_subnetwork(self):
        scen = make_scenario("distributed", 2, seed=12)
        sub = [0, 1, 2, 3, 4, 5]
        problem = assemble(sub, scen)
        for (i, j, _) in problem.constraint_pairs:
            assert i in sub and j in sub

    def test_ground_truth_witness_satisfies(self):
        scen = honest_scenario(seed=2, n=12, pos_var=0.0, dist_var=0.0)
        problem = assemble(range(12), scen)
        cons = problem.compiled()
        slack = cons.max_violation(cons.positions)
        assert slack <= -min(problem.epsilon, 1e-9) / 2

    def test_empty_subnetwork_rejected(self):
        scen = honest_scenario(seed=2, n=5)
        with pytest.raises(InvalidParameterError):
            assemble([], scen)

    @pytest.mark.parametrize("bad", [[0.5, 1.7], [0, 1.0], ["1"], [0, 5], [-1]])
    def test_non_integral_or_foreign_ids_rejected(self, bad):
        # Ids are never truncated: [0.5, 1.7] is not the sub-network {0, 1}.
        with pytest.raises(InvalidParameterError):
            assemble(bad, honest_scenario(seed=2, n=5))


class TestCheckFeasibility:
    def test_honest_zero_noise_recovers_positions(self):
        scen = honest_scenario(seed=3, n=10, pos_var=0.0, dist_var=0.0)
        res = check_feasibility(assemble(range(10), scen))
        assert res.status == FEASIBLE
        assert res.phase1_slack <= 0
        for u in scen.swarm.uavs:
            assert float(np.linalg.norm(res.recovered_positions[u.id] - u.reported_pos)) < 1e-3
        assert res.max_residual <= 1e-7
        assert res.rank_gap < 1e-3  # honest witness is essentially rank three

    def test_displaced_report_infeasible_and_brute_agrees(self):
        scen, k = displaced_scenario(seed=5, n=5, who=2)
        neighbors = ss.neighbor_set(scen.measurements, k)
        if len(neighbors) < 1:
            pytest.skip("isolated displacement, no evidence")
        problem = assemble(range(5), scen)
        res = check_feasibility(problem)
        assert res.status in (INFEASIBLE, UNKNOWN)
        found = find_satisfying_assignment(
            problem.node_order,
            problem.reported_positions,
            problem.constraint_pairs,
            problem.comm_range,
            problem.epsilon,
        )
        assert found is None

    def test_full_swarm_attack_vs_benign_subnetwork(self):
        scen = make_scenario("distributed", 4, seed=11)
        full = check_feasibility(assemble(range(30), scen))
        assert full.status == INFEASIBLE
        benign = [u.id for u in scen.swarm.uavs if not u.ground_truth_malicious]
        sub = check_feasibility(assemble(benign, scen))
        assert sub.status == FEASIBLE

    def test_status_invariants(self):
        opts = OracleOptions()
        scen = make_scenario("distributed", 3, seed=13)
        res = check_feasibility(assemble(range(30), scen), opts)
        if res.status == FEASIBLE:
            assert res.phase1_slack <= opts.tol_feas
            assert res.max_residual <= 1e-7
        if res.status == INFEASIBLE:
            assert res.phase1_slack >= opts.tol_infeas
        if res.status == UNKNOWN:
            lower, upper = res.diagnostics["slack_lower"], res.diagnostics["slack_upper"]
            assert opts.tol_feas < lower <= upper < opts.tol_infeas

    def test_determinism(self):
        scen = make_scenario("collusion", 3, seed=14)
        problem = assemble(range(30), scen)
        a = check_feasibility(problem)
        b = check_feasibility(problem)
        assert a.status == b.status
        assert abs(a.phase1_slack - b.phase1_slack) <= 1e-9
        assert a.diagnostics == b.diagnostics

    def test_monotonicity_under_pair_removal(self):
        # Dropping constraint pairs can only keep or enlarge the feasible
        # set: a feasible verdict never flips to infeasible.
        for seed in range(6):
            scen = honest_scenario(seed=seed, n=10)
            problem = assemble(range(10), scen)
            res = check_feasibility(problem)
            if res.status != FEASIBLE:
                continue
            reduced = replace(problem, constraint_pairs=problem.constraint_pairs[::2])
            assert check_feasibility(reduced).status != INFEASIBLE

    def test_witness_soundness(self):
        # Any instance whose reported positions satisfy everything with a
        # comfortable margin must come back feasible.
        for seed in range(8):
            scen = honest_scenario(seed=seed, n=8, pos_var=0.0, dist_var=0.0)
            problem = assemble(range(8), scen)
            cons = problem.compiled()
            margin = -cons.max_violation(cons.positions)
            assert margin >= 10 * OracleOptions().tol_feas
            assert check_feasibility(problem).status == FEASIBLE

    def test_marginal_instance_not_misjudged(self):
        # A single pair just past the acceptance window: the optimal slack is
        # positive but below the infeasibility threshold, so the oracle may
        # not answer either way; it must never answer feasible.
        positions = [[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]]
        swarm = hand_swarm(positions)
        excess = 2e-3
        eps = 1e-5
        alpha_max = (0.2 + np.sqrt(eps)) ** 2 + eps
        claim = float(np.sqrt(alpha_max + excess + (0.15) ** 2))
        ms = ss.MeasurementSet(2, {(0, 1): claim})
        scen = ss.AttackedScenario(swarm, ms)
        problem = replace(assemble([0, 1], scen), epsilon=eps)
        res = check_feasibility(problem)
        assert res.status in (UNKNOWN, INFEASIBLE)

    def test_relaxation_direction_small_instances(self):
        # Whenever independent brute force finds a satisfying assignment,
        # the relaxation cannot be declared infeasible.
        checked = 0
        for seed in range(30):
            scen = make_scenario("distributed", 1, seed=seed, n=5)
            problem = assemble(range(5), scen)
            found = find_satisfying_assignment(
                problem.node_order,
                problem.reported_positions,
                problem.constraint_pairs,
                problem.comm_range,
                problem.epsilon,
            )
            if found is None:
                continue
            checked += 1
            assert check_feasibility(problem).status != INFEASIBLE
        assert checked >= 5


# Averaging the shell conflict's two window lower bounds against the
# displacement bound: 2 t* = (0.33^2 - 0.0225 + delta) - 0.2^2 - epsilon.
SHELL_OPTIMUM = (0.33**2 - 0.0225 + 1e-9 - 0.2**2 - 0.04) / 2


def shell_conflict_problem(positions, pairs):
    return FeasibilityProblem(
        node_order=(0, 1, 2),
        reported_positions=dict(enumerate(positions)),
        constraint_pairs=pairs,
        comm_range=0.3,
        epsilon=0.04,
        strictness_margin=1e-9,
        window_sq=0.0225,
    )


def loop_compile(positions, pairs, comm_range, epsilon, delta, window_sq):
    """Reference for ``conic.compile_constraints``: one functional at a time."""
    owner, anchor, hi, lo = [], [], [], []
    for (i, j, r) in pairs:
        owner.append(i)
        anchor.append(positions[j])
        hi.append(min(comm_range**2 - delta, r * r + window_sq - delta))
        lo.append(r * r - window_sq + delta)
    for i in range(len(positions)):
        owner.append(i)
        anchor.append(positions[i])
        hi.append(epsilon)
        lo.append(-np.inf)
    return np.array(owner), np.array(anchor), np.array(hi), np.array(lo)


class TestOracleOptions:
    @pytest.mark.parametrize("tol_feas,tol_infeas", [
        (np.nan, 1e-4), (1e-6, np.nan), (-np.inf, 1e-4), (1e-6, np.inf),
    ])
    def test_non_finite_tolerances_rejected(self, tol_feas, tol_infeas):
        with pytest.raises(InvalidParameterError, match="finite"):
            OracleOptions(tol_feas=tol_feas, tol_infeas=tol_infeas)

    @pytest.mark.parametrize("tol_feas,tol_infeas", [(1e-3, 1e-6), (1e-4, 1e-4)])
    def test_tolerance_gap_must_be_open(self, tol_feas, tol_infeas):
        with pytest.raises(InvalidParameterError, match="tol_feas < tol_infeas"):
            OracleOptions(tol_feas=tol_feas, tol_infeas=tol_infeas)


class TestConicEngine:
    @pytest.mark.parametrize("seed", range(4))
    def test_compile_matches_loop_reference(self, seed):
        scen = make_scenario("mixed", 4, seed=seed)
        rng = np.random.default_rng(seed)
        for size in (1, 2, 7, 30):
            problem = assemble(rng.choice(30, size=size, replace=False), scen)
            local = {uid: k for k, uid in enumerate(problem.node_order)}
            positions = np.array([problem.reported_positions[uid] for uid in problem.node_order])
            pairs = [(local[i], local[j], r) for (i, j, r) in problem.constraint_pairs]
            cons = problem.compiled()
            for got, want in zip((cons.owner, cons.anchor, cons.hi, cons.lo),
                                 loop_compile(positions, pairs, 0.3, problem.epsilon, problem.strictness_margin,
                                              problem.window_sq)):
                assert np.array_equal(got, want.reshape(got.shape))

    def test_pairwise_bound_on_contradictory_claim(self):
        # Claimed distance far beyond what range plus window allow.
        positions = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        cons = conic.compile_constraints(positions, [(0, 1, 0.4)], 0.3, 1e-5, 1e-9, 0.0225)
        bound = conic.pairwise_slack_bound(cons)
        assert bound >= 0.02

    def test_dual_bound_on_shell_conflict(self):
        # Two anchors demand the node sit 0.33 away from both while its own
        # report pins it between them: every single pair is satisfiable, the
        # conjunction is not.  Only the node's dual certificate sees it.
        positions = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [-0.2, 0.0, 0.0]])
        pairs = ((0, 1, 0.33), (0, 2, 0.33))
        cons = conic.compile_constraints(positions, list(pairs), 0.3, 0.04, 1e-9, 0.0225)
        assert conic.pairwise_slack_bound(cons) == 0.0
        res = check_feasibility(shell_conflict_problem(positions, pairs))
        assert res.status == INFEASIBLE
        assert 1e-4 <= res.phase1_slack <= 0.0033  # true optimum is ~0.0032
        assert res.diagnostics["slack_lower"] <= SHELL_OPTIMUM + 1e-15
        assert res.diagnostics["slack_upper"] >= SHELL_OPTIMUM - 1e-15

    def test_unknown_without_bracket_says_so(self):
        # Tolerances closer to the optimum than the solve's final duality
        # gap: neither bound settles the node, nor do both fit the gap.
        positions = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [-0.2, 0.0, 0.0]])
        problem = shell_conflict_problem(positions, ((0, 1, 0.33), (0, 2, 0.33)))
        opts = OracleOptions(tol_feas=SHELL_OPTIMUM - 1e-14, tol_infeas=SHELL_OPTIMUM + 1e-14)
        res = check_feasibility(problem, opts)
        assert res.status == UNKNOWN
        assert "stalled" in res.diagnostics["reason"]
        assert res.diagnostics["slack_lower"] <= SHELL_OPTIMUM + 1e-15
        assert res.diagnostics["slack_upper"] >= SHELL_OPTIMUM - 1e-15

    def test_dual_bound_never_exceeds_witness(self):
        # Every verdict's certified bounds are ordered, and the verdict is
        # exactly what they prove: unknown only for a slack bracketed inside
        # the tolerance gap.  Node by node, too.
        opts = OracleOptions()
        for seed in range(10):
            scen = make_scenario("distributed", 2, seed=seed, n=8)
            problem = assemble(range(8), scen)
            res = check_feasibility(problem, opts)
            lower, upper = res.diagnostics["slack_lower"], res.diagnostics["slack_upper"]
            assert lower <= max(upper, 0.0) + 1e-12
            if res.status == FEASIBLE:
                assert upper <= opts.tol_feas
            elif res.status == INFEASIBLE:
                assert lower >= opts.tol_infeas
            else:
                assert opts.tol_feas < lower <= upper < opts.tol_infeas
            cons = problem.compiled()
            for i in range(cons.n):
                found, node_lower = conic.solve_node(cons.node(i), opts.tol_feas, opts.tol_infeas)
                assert node_lower <= found.slack + 1e-12

    def test_feasible_verdict_carries_exact_witness(self):
        # Reports 0.3005 apart with both claims inside range: each report
        # misses its range bound, so both nodes need the exact solve, and
        # each can move within its displacement budget to satisfy it.
        swarm = hand_swarm([[0.0, 0.0, 0.0], [0.3005, 0.0, 0.0]])
        ms = ss.MeasurementSet(2, {(0, 1): 0.2999, (1, 0): 0.2999})
        boundary = assemble([0, 1], ss.AttackedScenario(swarm, ms))
        honest = assemble(range(8), honest_scenario(seed=6, n=8))
        assert boundary.compiled().max_violation(boundary.compiled().positions) > 1e-4
        for problem in (boundary, honest):
            res = check_feasibility(problem)
            assert res.status == FEASIBLE
            cons = problem.compiled()
            X = np.array([res.recovered_positions[uid] for uid in problem.node_order])
            witness = conic.evaluate_witness(cons, X)
            assert witness.slack == res.phase1_slack <= 0.0
            moved = np.linalg.norm(X - cons.positions, axis=1)
            assert np.all(moved ** 2 + witness.s <= problem.epsilon)
            assert res.max_residual <= 1e-12

    def test_node_solve_stops_at_its_certificate(self):
        # On the instances above, each node's own solve returns the barrier
        # point that certified it, unretracted; the recovered position is
        # that point pulled back along the segment toward the report.
        opts = OracleOptions()
        swarm = hand_swarm([[0.0, 0.0, 0.0], [0.3005, 0.0, 0.0]])
        ms = ss.MeasurementSet(2, {(0, 1): 0.2999, (1, 0): 0.2999})
        pulled_back = []
        for problem in (assemble([0, 1], ss.AttackedScenario(swarm, ms)),
                        assemble(range(8), honest_scenario(seed=6, n=8))):
            res = check_feasibility(problem, opts)
            assert res.status == FEASIBLE
            cons = problem.compiled()
            for k, uid in enumerate(problem.node_order):
                found, _lower = conic.solve_node(cons.node(k), opts.tol_feas, opts.tol_infeas)
                assert found.slack <= opts.tol_feas
                report, raw = cons.positions[k], found.X[0]
                offset, pulled = raw - report, res.recovered_positions[uid] - report
                if not offset.any():
                    assert not pulled.any()
                    continue
                lam = float(pulled @ offset) / float(offset @ offset)
                assert 0.0 <= lam <= 1.0
                assert np.linalg.norm(pulled - lam * offset) <= 1e-12 * np.linalg.norm(offset)
                assert np.linalg.norm(pulled) <= np.linalg.norm(offset)
                pulled_back.append(lam < 1.0)
        # The boundary pair's solves stop well short of their retraction.
        assert pulled_back == [True, True]
