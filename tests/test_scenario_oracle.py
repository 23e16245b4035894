"""The detectors' per-run scenario oracle against the assembled-problem oracle.

``sdp.ScenarioOracle`` decides a sub-network from pair thresholds and
per-node verdicts kept for the whole run, never building the problem.  Every
sub-network it is asked about must get the status ``check_feasibility`` gives
``assemble`` of it, and the same pairwise bound bit for bit, whatever the
order of the questions.  Sub-networks are drawn at random and in the shapes
the detectors ask (trusted set plus one suspect, with or without its
neighborhood).  A long-lived oracle settles a node by the point it kept from
an earlier solve when that point is within tolerance: it must still give
every sub-network the status a fresh oracle gives it.
"""

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import swarmsentry as ss
from swarmsentry import conic, detectors, experiments, sdp
from swarmsentry.detectors import DetectorOptions
from swarmsentry.suspects import build_reported_matrix, initial_suspects
from swarmsentry.swarm import neighbor_set

from conftest import hand_swarm, make_scenario

SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(("distributed", "collusion", "mixed")))
    n = draw(st.integers(10, 20))
    m = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10_000))
    dist_var = draw(st.sampled_from((1e-6, 1e-4)))
    return make_scenario(kind, m, seed=seed, n=n, dist_var=dist_var)


@st.composite
def detector_scenarios(draw):
    kind = draw(st.sampled_from(("distributed", "collusion", "mixed")))
    n = draw(st.integers(20, 40))
    m = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10_000))
    d = draw(st.sampled_from((0.3, 0.45)))
    dist_var = draw(st.sampled_from((1e-6, 1e-3)))
    return make_scenario(kind, m, seed=seed, n=n, d=d, dist_var=dist_var)


def node_family(oracle, i: int, present: np.ndarray) -> conic.CompiledConstraints:
    """Node ``i``'s one-node family with the pair rows marked in ``present``."""
    first = oracle.first_row[i]
    rows = np.concatenate([first + np.flatnonzero(present), [oracle.cons.n_pairs + i]])
    return oracle.cons.family([i], rows)


def checked_against_fresh(oracle: sdp.ScenarioOracle, scen, sub) -> str:
    """``oracle.check_known(sub)``, asserting that a fresh oracle gives the
    same status, that the work counters count this call's solves and
    kept-point settlements, that a verdict is kept only for a node whose
    report misses the oracle's fit limit on its family (up to the limit's
    rounding margin), and that every verdict a kept point settled is that
    point's exact slack on the node's family, within tol_feas."""
    tol = oracle.opts.tol_feas
    margin = tol - oracle.fit_limit
    seen, carried, solves = set(oracle.verdicts), oracle.carried, oracle.node_solves
    with counted_node_solves() as solved:
        status = sdp.ScenarioOracle.check_known(oracle, sub)
    assert status == sdp.ScenarioOracle(scen, DetectorOptions()).check(sub)
    assert oracle.node_solves - solves == len(solved)
    solved_anchors = {family.anchor.tobytes() for family in solved}
    settled_by_kept = 0
    for key in oracle.verdicts.keys() - seen:
        i, present = key
        family = node_family(oracle, i, np.frombuffer(present, dtype=bool))
        assert conic.evaluate_witness(family, family.positions.copy()).slack > oracle.fit_limit - margin
        if family.anchor.tobytes() in solved_anchors:
            continue
        upper, lower = oracle.verdicts[key]
        assert upper == conic.evaluate_witness(family, oracle.kept[i][None, :].copy()).slack
        assert upper <= tol and lower == -np.inf
        settled_by_kept += 1
    assert oracle.carried - carried == settled_by_kept
    return status


def star(past) -> ss.AttackedScenario:
    """UAV 0 at the origin, measuring four neighbors along +x, -x, +y and -y
    whose reports sit ``past`` beyond communication range 0.3, with claims
    1e-3 inside it."""
    d = 0.3
    axes = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
    positions = np.vstack([np.zeros(3), (d + np.array(past))[:, None] * axes])
    entries = {}
    for k in range(1, 5):
        entries[(0, k)] = entries[(k, 0)] = d - 1e-3
    return ss.AttackedScenario(hand_swarm(positions, d), ss.MeasurementSet(5, entries))


def sub_network(data, scen) -> frozenset[int]:
    initial = initial_suspects(build_reported_matrix(scen), scen.measurements, scen.swarm.comm_range)
    shape = data.draw(st.sampled_from(("random", "suspect", "neighborhood")))
    if shape != "random" and initial.suspected:
        k = data.draw(st.sampled_from(sorted(initial.suspected)))
        sub = set(initial.trusted) | {k}
        if shape == "neighborhood":
            sub |= neighbor_set(scen.measurements, k)
        return frozenset(sub)
    mask = data.draw(st.lists(st.booleans(), min_size=scen.n, max_size=scen.n))
    return frozenset(i for i, keep in enumerate(mask) if keep) or frozenset({0})


@contextlib.contextmanager
def counted_node_solves():
    """Patch ``conic.solve_node`` to append each call's one-node family to
    the yielded list."""
    solves, solve_node = [], conic.solve_node
    conic.solve_node = lambda *a: solves.append(a[0]) or solve_node(*a)
    try:
        yield solves
    finally:
        conic.solve_node = solve_node


class TestScenarioOracle:
    @SETTINGS
    @given(scen=scenarios(), data=st.data())
    def test_matches_assembled_problem(self, scen, data):
        # Both paths run one decision core: on a fresh oracle, the first
        # check solves exactly the nodes check_feasibility solves.
        oracle = sdp.ScenarioOracle(scen, DetectorOptions())
        for k in range(8):
            sub = sub_network(data, scen)
            problem = sdp.assemble(sub, scen)
            with counted_node_solves() as direct:
                status = sdp.check_feasibility(problem).status
            with counted_node_solves() as scenario:
                assert oracle.check(sub) == status
            if k == 0:
                assert len(scenario) == len(direct)
            assert oracle.pairwise_bound(sub) == conic.pairwise_slack_bound(problem.compiled())

    @SETTINGS
    @given(scen=scenarios(), data=st.data())
    def test_settled_nodes_fit_every_sub_network(self, scen, data):
        # A member whose report fits the rows present in a sub-network is
        # settled by its report slack, taken from masked maxima of per-row
        # violations computed once per scenario.  That slack must be the
        # exact slack of the report on the member's family, as the
        # assembled problem compiles it, within the rounding margin below
        # tol_feas that the oracle's fit limit keeps, the whole swarm (all
        # of its anchors) included.  So a report that fits has an exact
        # slack within tol_feas.
        oracle = sdp.ScenarioOracle(scen, DetectorOptions())
        margin = oracle.opts.tol_feas - oracle.fit_limit
        for sub in [range(scen.n)] + [sub_network(data, scen) for _ in range(6)]:
            problem = sdp.assemble(sub, scen)
            cons = problem.compiled()
            exact = conic.evaluate_witness(cons, cons.positions.copy()).node_slack
            masked = oracle._report_slack(*oracle._select(np.array(problem.node_order)))
            assert np.all(np.abs(masked - exact) < margin)
            assert np.all(exact[masked <= oracle.fit_limit] <= oracle.opts.tol_feas)

    @SETTINGS
    @given(scen=scenarios(), data=st.data())
    def test_exact_path_for_fitting_reports(self, scen, data):
        # A report within the rounding margin of tol_feas goes the way of a
        # miss: evaluated exactly on its family.  With no report fitting,
        # every member goes that way, and each status is unchanged.
        oracle = sdp.ScenarioOracle(scen, DetectorOptions())
        exact_only = sdp.ScenarioOracle(scen, DetectorOptions())
        exact_only.fit_limit = -np.inf
        for sub in [range(scen.n)] + [sub_network(data, scen) for _ in range(6)]:
            assert exact_only.check(sub) == oracle.check(sub)

    @SETTINGS
    @given(scen=scenarios(), data=st.data())
    def test_certificate_monotonicity(self, scen, data):
        # A certified verdict survives growing (infeasible) or shrinking
        # (feasible) the sub-network: no superset of an infeasible
        # sub-network is feasible, no subset of a feasible one infeasible.
        oracle = sdp.ScenarioOracle(scen, DetectorOptions())
        for _ in range(4):
            sub = sub_network(data, scen)
            status = oracle.check(sub)
            extra = data.draw(st.sets(st.integers(0, scen.n - 1)))
            keep = data.draw(st.lists(st.booleans(), min_size=len(sub), max_size=len(sub)))
            smaller = frozenset(i for i, k in zip(sorted(sub), keep) if k) or frozenset({min(sub)})
            if status == sdp.INFEASIBLE:
                assert oracle.check(sub | extra) != sdp.FEASIBLE
            if status == sdp.FEASIBLE:
                assert oracle.check(smaller) != sdp.INFEASIBLE

    @SETTINGS
    @given(scen=detector_scenarios(), data=st.data())
    def test_kept_points_settle_as_a_fresh_oracle(self, scen, data):
        # Detector-shaped questions: those of cdi then ecdi on one context,
        # then more of the same shape (the trusted set, grown by every
        # feasible sub-network, plus one suspect with or without its
        # neighborhood), all asked of one long-lived oracle.
        context = detectors.DetectionContext(scen)
        oracle = context.oracle
        oracle.check_known = lambda sub: checked_against_fresh(oracle, scen, sub)
        for detect in (detectors.cdi, detectors.ecdi):
            detect(context.initial, scen, context=context)
        trusted = set(context.initial.trusted)
        for _ in range(6):
            k = data.draw(st.sampled_from(sorted(context.initial.suspected or range(scen.n))))
            sub = trusted | {k}
            if data.draw(st.booleans()):
                sub |= neighbor_set(scen.measurements, k)
            if oracle.check(sub) == sdp.FEASIBLE:
                trusted |= sub

    def test_acceptance_trial_carries_kept_points(self):
        # A trial of the range sweep (range 0.45, trial 15), cdi then ecdi
        # on one context: some nodes are settled by their kept points.
        config = experiments.ExperimentConfig(
            sweep_param="comm_range", sweep_values=(0.25, 0.30, 0.35, 0.40, 0.45),
            attack="distributed", trials_per_point=20, base_seed=1, algorithms=("cdi", "ecdi"))
        scen = experiments.build_scenario(config.at_point(0.45), experiments.trial_seed(1, 4, 15))
        context = detectors.DetectionContext(scen)
        oracle = context.oracle
        oracle.check_known = lambda sub: checked_against_fresh(oracle, scen, sub)
        for detect in (detectors.cdi, detectors.ecdi):
            detect(context.initial, scen, context=context)
        assert oracle.carried > 0 and oracle.node_solves > 0 and oracle.cache_hits > 0

    @SETTINGS
    @given(
        D=st.floats(0.05, 0.29),
        r0=st.floats(0.02, 0.45),
        offsets=st.lists(st.integers(0, 12), min_size=2, max_size=6),
    )
    @example(D=0.151598, r0=0.375912, offsets=[3, 4, 7, 6, 1, 0])
    def test_near_tied_pairs(self, D, r0, offsets):
        # A star whose spokes sit at the same reported separation with
        # claims a few ulps apart: pair thresholds nearly tie, and the
        # certified step-down can reorder them.  The bound must still be
        # the certified threshold of the first pair with the largest
        # closed-form threshold, as on the assembled problem.
        axes = np.vstack([np.eye(3), -np.eye(3)])[:len(offsets)]
        entries = {}
        for k, off in enumerate(offsets, start=1):
            r = r0 + off * float(np.spacing(r0))
            entries[(0, k)] = entries[(k, 0)] = r
        positions = np.vstack([np.zeros(3), D * axes])
        scen = ss.AttackedScenario(hand_swarm(positions), ss.MeasurementSet(len(positions), entries))
        oracle = sdp.ScenarioOracle(scen, DetectorOptions())
        for size in range(1, len(offsets) + 1):
            for spokes in itertools.combinations(range(1, len(offsets) + 1), size):
                sub = (0, *spokes)
                problem = sdp.assemble(sub, scen)
                assert oracle.pairwise_bound(sub) == conic.pairwise_slack_bound(problem.compiled())
                assert oracle.check(sub) == sdp.check_feasibility(problem).status

    @SETTINGS
    @given(
        past=st.lists(st.floats(0.0, 0.004), min_size=4, max_size=4),
        order=st.permutations(range(15)),
    )
    def test_node_verdicts_follow_anchor_sets(self, past, order):
        # UAV 0 measures four neighbors along +x, -x, +y and -y whose
        # reports sit just past communication range.  It can move toward
        # one or two of them within its displacement budget, not toward
        # opposite ones, and no single pair shows the conflict, so the
        # verdict of UAV 0 changes with which neighbors are present.
        scen = star(past)
        oracle = sdp.ScenarioOracle(scen, DetectorOptions())
        subsets = [(0, *c) for size in range(1, 5) for c in itertools.combinations(range(1, 5), size)]
        for index in order:
            sub = subsets[index]
            assert oracle.check(sub) == sdp.check_feasibility(sdp.assemble(sub, scen)).status

    @pytest.mark.parametrize("past_y, carried", [(-1e-3, 1), (1e-6, 0)])
    def test_kept_point_settles_only_within_tolerance(self, past_y, carried):
        # UAV 0 is solved with only its +x neighbor (2e-3 past range) and
        # keeps a point moved toward it.  With +y added inside range, that
        # point settles UAV 0; with +y 1e-6 past range, it misses by a few
        # 1e-6, inside the tolerance gap, so UAV 0 is solved again.
        scen = star([2e-3, 0.0, past_y, 0.0])
        oracle = sdp.ScenarioOracle(scen, DetectorOptions())
        assert checked_against_fresh(oracle, scen, (0, 1)) == sdp.FEASIBLE
        present = np.isin(oracle.dst[oracle.first_row[0]:oracle.first_row[1]], (1, 3))
        family = node_family(oracle, 0, present)
        at_kept = conic.evaluate_witness(family, oracle.kept[0][None, :].copy()).slack
        assert (at_kept <= oracle.opts.tol_feas) == bool(carried)
        assert carried or at_kept < oracle.opts.tol_infeas
        assert checked_against_fresh(oracle, scen, (0, 1, 3)) == sdp.FEASIBLE
        assert (oracle.carried, oracle.node_solves) == (carried, 3 - carried)   # UAV 1 solved once

    def test_rejects_ids_outside_the_scenario(self):
        scen = make_scenario("distributed", 2, seed=1, n=12)
        oracle = sdp.ScenarioOracle(scen, DetectorOptions())
        for bad in (set(), {0, 12}, {-1}, [0.5, 1.7], {0, 1.0}, ["1"]):
            with pytest.raises(ss.InvalidParameterError):
                oracle.check(bad)
