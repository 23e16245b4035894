import numpy as np
import pytest
from dataclasses import replace

import swarmsentry as ss
from swarmsentry import sdp
from swarmsentry.detectors import (
    DetectionContext,
    DetectorOptions,
    cdi,
    detect,
    ecdi,
    nlos_baseline,
    random_baseline,
)
from swarmsentry.suspects import SuspectSets, build_reported_matrix, initial_suspects
from swarmsentry.swarm import InvalidParameterError

from conftest import hand_swarm, honest_scenario, make_scenario


def init_of(scen):
    return initial_suspects(build_reported_matrix(scen), scen.measurements, scen.swarm.comm_range)


def call_bounds(n_init, hood_max):
    """Safe oracle-call cap for one run given the pass structure."""
    return (2 * n_init + 3) * n_init * (2 + hood_max) + 1


class TestTrivialCases:
    def test_empty_suspects_zero_calls(self):
        scen = honest_scenario(seed=0, n=10)
        initial = init_of(scen)
        assert initial.suspected == ()
        for algo in (cdi, ecdi):
            res = algo(initial, scen)
            assert res.predicted_malicious == frozenset()
            assert res.oracle_calls == 0

    def test_spurious_suspect_exonerated(self):
        # A pair whose claim just crosses the initialization threshold while
        # the displacement budget still admits a consistent localization:
        # suspected at init, cleared by both detectors.
        positions = [[0.0, 0.0, 0.0], [0.25, 0.0, 0.0], [0.1, 0.2, 0.0], [-0.1, 0.2, 0.0]]
        swarm = hand_swarm(positions)
        claim = float(np.sqrt(0.25**2 + 0.0230))  # gap 0.0230 >= (d/2)^2 = 0.0225
        entries = {(0, 1): claim, (1, 0): claim}
        pos = np.asarray(positions)
        for i in range(4):
            for j in range(4):
                if i != j and (i, j) not in entries:
                    dist = float(np.linalg.norm(pos[i] - pos[j]))
                    if dist <= 0.3:
                        entries[(i, j)] = dist
        scen = ss.AttackedScenario(swarm, ss.MeasurementSet(4, entries))
        initial = init_of(scen)
        assert set(initial.suspected) == {0, 1}
        for algo in (cdi, ecdi):
            res = algo(initial, scen)
            assert res.predicted_malicious == frozenset(), algo.__name__


class TestFigureReplications:
    def test_distributed_identification(self):
        # 30-UAV swarm, 4 independent spoofers: the neighborhood detector
        # keeps every true attacker suspected.
        scen = make_scenario("distributed", 4, seed=3)
        res = cdi(init_of(scen), scen)
        assert scen.truth() <= res.predicted_malicious

    def test_collusion_identification(self):
        # 4 colluders framing one target: the refined detector clears the
        # target and convicts exactly the colluders.
        scen = make_scenario("collusion", 4, seed=3)
        res = ecdi(init_of(scen), scen)
        assert res.predicted_malicious == scen.truth()
        assert scen.plan.target not in res.predicted_malicious

    def test_mixed_identification(self):
        scen = make_scenario("mixed", 6, seed=9)
        res = ecdi(init_of(scen), scen)
        assert res.predicted_malicious == scen.truth()

    def test_collusion_defeats_neighborhood_detector(self):
        # The framed target stays suspected under neighborhood-granularity
        # assessment; only the per-UAV refinement recovers it.
        scen = make_scenario("collusion", 4, seed=3)
        target = scen.plan.target
        res_cdi = cdi(init_of(scen), scen)
        res_ecdi = ecdi(init_of(scen), scen)
        assert target in res_cdi.predicted_malicious
        assert target not in res_ecdi.predicted_malicious


class TestAlgorithmInvariants:
    @pytest.mark.parametrize("kind,m", [("distributed", 3), ("collusion", 3), ("mixed", 4)])
    def test_refinement_is_subset_of_neighborhood(self, kind, m):
        for seed in range(12):
            scen = make_scenario(kind, m, seed=seed, n=20)
            initial = init_of(scen)
            r_cdi = cdi(initial, scen)
            r_ecdi = ecdi(initial, scen)
            assert r_ecdi.predicted_malicious <= r_cdi.predicted_malicious

    def test_monotone_and_bounded(self):
        for seed in range(10):
            scen = make_scenario("distributed", 2, seed=seed, n=16)
            initial = init_of(scen)
            hood_max = max(
                (len(ss.neighbor_set(scen.measurements, k)) for k in range(16)), default=0
            )
            for algo in (cdi, ecdi):
                res = algo(initial, scen)
                assert res.predicted_malicious <= frozenset(initial.suspected)
                assert res.passes <= 2 * len(initial.suspected) + 3
                assert res.oracle_calls <= call_bounds(len(initial.suspected), hood_max)

    def test_trusted_base_infeasible_fallback(self):
        # Two trusted nodes whose reported separation exceeds range while
        # their claims agree with it: invisible to initialization, fatal to
        # the trusted-base pre-check.
        positions = [[-0.175, 0.0, 0.0], [0.175, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, -0.3, 0.0]]
        swarm = hand_swarm(positions)
        sep = 0.35
        entries = {(0, 1): sep, (1, 0): sep}
        bad_claim = 0.29
        entries[(2, 3)] = bad_claim  # asymmetric: suspects {2, 3}
        scen = ss.AttackedScenario(swarm, ss.MeasurementSet(4, entries))
        initial = init_of(scen)
        assert set(initial.suspected) == {2, 3}
        res = ecdi(initial, scen)
        assert "trusted-set-infeasible" in res.flags

    def test_trusted_base_empty_keeps_all(self):
        swarm = hand_swarm([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]])
        entries = {(0, 1): 0.29, (1, 0): 0.29, (0, 2): 0.29, (2, 0): 0.29, (1, 2): 0.29, (2, 1): 0.29}
        scen = ss.AttackedScenario(swarm, ss.MeasurementSet(3, entries))
        initial = init_of(scen)
        assert initial.trusted == ()
        res = cdi(initial, scen)
        assert res.predicted_malicious == frozenset({0, 1, 2})
        assert "trusted-set-empty" in res.flags
        assert res.oracle_calls == 0

    def test_unknown_skip_mode_terminates(self, monkeypatch):
        # An unknown verdict never exonerates: with an oracle that answers
        # unknown to every check (or to every check but the trusted base's,
        # so the neighborhood loop and the per-UAV refinement run), both
        # detectors keep every suspect, flag it, and terminate.
        scen = make_scenario("distributed", 2, seed=1, n=20)
        initial = init_of(scen)
        assert initial.suspected  # scenario produces live suspects
        hood_max = max(len(ss.neighbor_set(scen.measurements, k)) for k in range(20))
        for base_ok in (False, True):
            trusted = set(initial.trusted) if base_ok else None
            monkeypatch.setattr(sdp.ScenarioOracle, "check_known",
                                lambda self, sub_ids: sdp.FEASIBLE if set(sub_ids) == trusted else sdp.UNKNOWN)
            for algo in (cdi, ecdi):
                res = algo(initial, scen)
                assert res.predicted_malicious == frozenset(initial.suspected)
                assert "oracle-unknown" in res.flags
                assert ("trusted-set-infeasible" in res.flags) is not base_ok
                assert res.oracle_calls <= call_bounds(len(initial.suspected), hood_max)


class TestNodeSolveMemo:
    @pytest.mark.parametrize("kind,m,seed,dist_var", [
        ("distributed", 4, 8, 1e-4), ("collusion", 4, 0, 1e-4), ("mixed", 6, 8, 1e-6),
    ])
    def test_memo_changes_nothing_but_the_work(self, monkeypatch, kind, m, seed, dist_var):
        # The per-run scenario oracle keeps pair thresholds and per-node
        # verdicts for the run: every sub-network a run asks about must get
        # the status that check_feasibility gives its assembled problem,
        # while node verdicts are actually reused (these scenarios need node
        # solves in both detectors).
        scen = make_scenario(kind, m, seed=seed, n=30, dist_var=dist_var)
        initial = init_of(scen)
        solves = []
        solve_node = ss.conic.solve_node
        monkeypatch.setattr(ss.conic, "solve_node", lambda *a: solves.append(1) or solve_node(*a))
        check = sdp.ScenarioOracle.check_known
        asked = []

        def recorded(oracle, sub_ids):
            status = check(oracle, sub_ids)
            asked.append((frozenset(sub_ids), status))
            return status

        monkeypatch.setattr(sdp.ScenarioOracle, "check_known", recorded)
        for algo in (cdi, ecdi):
            asked.clear()
            solves.clear()
            res = algo(initial, scen)
            n_solved = len(solves)
            assert res.oracle_calls == len(asked)
            assert 0 < n_solved < res.oracle_calls
            for sub, status in asked:
                assert sdp.check_feasibility(sdp.assemble(sub, scen)).status == status


def counted_node_solves(monkeypatch) -> list:
    """Patch ``conic.solve_node`` to append to the returned list per call."""
    solves = []
    solve_node = ss.conic.solve_node
    monkeypatch.setattr(ss.conic, "solve_node", lambda *a: solves.append(1) or solve_node(*a))
    return solves


class TestDetectionContext:
    # One scenario per attack kind whose runs need node solves in both detectors.
    CASES = [("distributed", 4, 8, 1e-4), ("collusion", 4, 0, 1e-4), ("mixed", 6, 8, 1e-6)]

    def test_shared_context_changes_nothing_but_the_work(self, monkeypatch):
        # cdi then ecdi through one trial context give the results of
        # standalone runs (predicted set, trace, oracle calls, passes and
        # flags), and the second run reuses node verdicts of the first.
        solves = counted_node_solves(monkeypatch)
        fewer = []
        for kind, m, seed, dist_var in self.CASES:
            scen = make_scenario(kind, m, seed=seed, n=30, dist_var=dist_var)
            initial = init_of(scen)
            options = DetectorOptions()
            standalone = {}
            for algo in (cdi, ecdi):
                solves.clear()
                standalone[algo] = algo(initial, scen, options), len(solves)
            context = DetectionContext(scen, options)
            for algo in (cdi, ecdi):
                solves.clear()
                res = algo(initial, scen, options, context=context)
                assert res == standalone[algo][0]
                assert len(solves) <= standalone[algo][1]
            assert standalone[ecdi][1] > 0
            fewer.append(len(solves) < standalone[ecdi][1])
        assert any(fewer)

    def test_standalone_runs_share_nothing(self, monkeypatch):
        # Nothing is cached across calls or on the scenario: a repeated
        # standalone run does all of its node solves again.
        solves = counted_node_solves(monkeypatch)
        kind, m, seed, dist_var = self.CASES[0]
        scen = make_scenario(kind, m, seed=seed, n=30, dist_var=dist_var)
        initial = init_of(scen)
        counts = []
        for _ in range(2):
            solves.clear()
            ecdi(initial, scen)
            counts.append(len(solves))
        assert counts[0] == counts[1] > 0

    def test_detect_passes_the_context_on(self, monkeypatch):
        scen = make_scenario("distributed", 4, seed=8, n=30, dist_var=1e-4)
        initial = init_of(scen)
        options = DetectorOptions()
        context = DetectionContext(scen, options)
        assert detect("cdi", scen, initial, options, context=context) == cdi(initial, scen, options)
        # The discrepancy baseline reads the context's matrix, building none.
        expected = detect("nlos", scen, initial, options, 4, seed=3)
        monkeypatch.setattr(ss.detectors, "build_reported_matrix", None)
        assert detect("nlos", scen, initial, options, 4, seed=3, context=context) == expected

    def test_context_of_another_scenario_or_options_rejected(self):
        scen = make_scenario("distributed", 4, seed=8, n=30)
        other = make_scenario("distributed", 4, seed=9, n=30)
        initial = init_of(scen)
        context = DetectionContext(scen, DetectorOptions())
        with pytest.raises(InvalidParameterError, match="detection context"):
            ecdi(init_of(other), other, context=context)
        with pytest.raises(InvalidParameterError, match="detection context"):
            cdi(initial, scen, DetectorOptions(paper_replication=True), context=context)
        with pytest.raises(InvalidParameterError, match="detection context"):
            detect("nlos", other, init_of(other), malicious_count=4, context=context)


class TestNlosBaseline:
    def test_zero_sample(self):
        scen = make_scenario("distributed", 2, seed=0)
        assert nlos_baseline(build_reported_matrix(scen), scen.measurements, 0, seed=0) == frozenset()

    def test_single_pair_forced(self):
        swarm = hand_swarm([[0, 0, 0], [0.1, 0, 0], [0.5, 0.5, 0.5]])
        ms = ss.MeasurementSet(3, {(0, 1): 0.1})
        e_r = build_reported_matrix(ss.AttackedScenario(swarm, ms))
        assert nlos_baseline(e_r, ms, 2, seed=0) == frozenset({0, 1})

    def test_sample_capped_at_pool(self):
        swarm = hand_swarm([[0, 0, 0], [0.1, 0, 0], [0.5, 0.5, 0.5]])
        ms = ss.MeasurementSet(3, {(0, 1): 0.1, (1, 0): 0.1})
        e_r = build_reported_matrix(ss.AttackedScenario(swarm, ms))
        assert nlos_baseline(e_r, ms, 10, seed=0) == frozenset({0, 1})

    def test_hit_rate_increases_with_displacement(self):
        # One report displaced by an exact amount; detection overlap grows
        # through the noise-transition regime.
        def hit_rate(delta):
            hits = 0
            for seed in range(60):
                scen = honest_scenario(seed=seed, n=30)
                rng = np.random.default_rng(seed + 1000)
                k = int(rng.integers(30))
                direction = rng.normal(size=3)
                direction /= np.linalg.norm(direction)
                uavs = list(scen.swarm.uavs)
                uavs[k] = replace(uavs[k], reported_pos=uavs[k].true_pos + delta * direction)
                tampered = ss.AttackedScenario(replace(scen.swarm, uavs=tuple(uavs)), scen.measurements)
                pred = nlos_baseline(build_reported_matrix(tampered), tampered.measurements, 1, seed)
                hits += int(k in pred)
            return hits / 60

        small, mid, large = hit_rate(0.001), hit_rate(0.01), hit_rate(0.08)
        assert small < mid < large
        assert large > 0.1


class TestRandomBaseline:
    def test_trivials(self):
        assert random_baseline(set(), 3, seed=0) == frozenset()
        assert random_baseline({4, 7}, 0, seed=0) == frozenset()
        assert random_baseline({4, 7}, 5, seed=0) == frozenset({4, 7})

    def test_recall_matches_hypergeometric_expectation(self):
        pool = frozenset(range(12))
        truth = frozenset({0, 3, 5, 8})
        m = 4
        expected_recall = (m / len(pool)) * len(pool & truth) / len(truth)
        recalls = []
        for seed in range(4000):
            picked = random_baseline(pool, m, seed)
            recalls.append(len(picked & truth) / len(truth))
        assert abs(float(np.mean(recalls)) - expected_recall) / expected_recall < 0.10


class TestEstimatorApi:
    def test_detect_dispatches_by_name(self):
        scen = make_scenario("distributed", 3, seed=7, n=20)
        initial = init_of(scen)
        e_r = build_reported_matrix(scen)
        assert detect("cdi", scen, initial) == cdi(initial, scen)
        assert detect("ecdi", scen, initial) == ecdi(initial, scen)
        nlos = detect("nlos", scen, initial, malicious_count=3, seed=7)
        assert nlos.predicted_malicious == nlos_baseline(e_r, scen.measurements, 3, 7)
        rand = detect("random", scen, initial, malicious_count=3, seed=7)
        assert rand.predicted_malicious == random_baseline(initial.suspected, 3, 7)
        with pytest.raises(InvalidParameterError):
            detect("nope", scen, initial)
        with pytest.raises(InvalidParameterError):
            detect("random", scen, initial)  # baselines need the true count

    @pytest.mark.parametrize("algo", ["nlos", "random"])
    @pytest.mark.parametrize("count", [-2, -1, 2.5, 3.0, True, False, np.float64(2.0), "3"])
    def test_baseline_count_must_be_nonnegative_integer(self, algo, count):
        # A negative count used to give an empty prediction, a float numpy's TypeError.
        scen = make_scenario("distributed", 3, seed=7, n=20)
        with pytest.raises(InvalidParameterError, match="attacker count"):
            detect(algo, scen, init_of(scen), malicious_count=count)

    @pytest.mark.parametrize("algo", ["nlos", "random"])
    def test_baseline_zero_and_numpy_counts(self, algo):
        scen = make_scenario("distributed", 3, seed=7, n=20)
        initial = init_of(scen)
        assert detect(algo, scen, initial, malicious_count=0).predicted_malicious == frozenset()
        assert detect(algo, scen, initial, malicious_count=np.int64(3), seed=7) == \
            detect(algo, scen, initial, malicious_count=3, seed=7)
