import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swarmsentry as ss
from swarmsentry.suspects import (
    SuspectSets,
    build_reported_matrix,
    initial_suspects,
    violation_counts,
)
from swarmsentry.swarm import InvalidParameterError

from conftest import hand_swarm, honest_scenario, make_scenario, pair_set
from test_scenario_reference import claim_dict


def scenario_from(swarm, entries):
    return ss.AttackedScenario(swarm, pair_set(swarm.n, entries))


class TestReportedMatrix:
    def test_empty(self):
        swarm = ss.generate_swarm(4, 0.5, 0.3, seed=0)
        e_r = build_reported_matrix(scenario_from(swarm, {}))
        assert claim_dict(e_r) == {}

    def test_zero_noise_matches_measurements(self):
        scen = honest_scenario(seed=3, pos_var=0.0, dist_var=0.0)
        e_r = build_reported_matrix(scen)
        reported, claims = claim_dict(e_r), claim_dict(scen.measurements)
        assert set(reported) == set(claims)
        for key, val in reported.items():
            assert val == pytest.approx(claims[key], abs=1e-14)

    def test_hand_instance(self):
        # 4 UAVs on a known rectangle: distances checked by hand.
        swarm = hand_swarm([[0, 0, 0], [0.3, 0, 0], [0, 0.4, 0], [0.3, 0.4, 0]], d=0.5)
        entries = {(0, 1): 0.3, (0, 2): 0.4, (0, 3): 0.5, (2, 1): 0.5}
        reported = claim_dict(build_reported_matrix(scenario_from(swarm, entries)))
        assert reported[(0, 1)] == pytest.approx(0.3)
        assert reported[(0, 2)] == pytest.approx(0.4)
        assert reported[(0, 3)] == pytest.approx(0.5)  # 3-4-5 triangle
        assert reported[(2, 1)] == pytest.approx(0.5)


class TestInitialSuspects:
    def test_no_attack_low_noise_all_trusted(self):
        scen = honest_scenario(seed=0, n=30)
        e_r = build_reported_matrix(scen)
        sets = initial_suspects(e_r, scen.measurements, 0.3)
        assert sets.suspected == ()
        assert len(sets.trusted) == 30

    def test_displaced_attacker_pair_suspected(self):
        # Both endpoints of a pair whose squared distances disagree by more
        # than (d/2)^2 are suspected.
        swarm = hand_swarm([[0, 0, 0], [0.05, 0, 0], [0.4, 0.4, 0.4]])
        entries = {(0, 1): 0.05, (1, 0): 0.05}
        scen = scenario_from(swarm, entries)
        from dataclasses import replace
        uavs = list(scen.swarm.uavs)
        uavs[0] = replace(uavs[0], reported_pos=np.array([0.29, 0.0, 0.0]))
        scen = ss.AttackedScenario(replace(scen.swarm, uavs=tuple(uavs)), scen.measurements)
        e_r = build_reported_matrix(scen)
        # |0.05^2 - 0.24^2| = 0.0551 >= 0.0225
        sets = initial_suspects(e_r, scen.measurements, 0.3)
        assert set(sets.suspected) == {0, 1}

    def test_presence_asymmetry_suspects_both(self):
        swarm = hand_swarm([[0, 0, 0], [0.1, 0, 0], [0.4, 0.4, 0.4]])
        entries = {(0, 1): 0.1}  # (1, 0) missing
        sets = initial_suspects(build_reported_matrix(scenario_from(swarm, entries)),
                                scenario_from(swarm, entries).measurements, 0.3)
        assert set(sets.suspected) == {0, 1}

    def test_total_violation(self):
        swarm = hand_swarm([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]])
        entries = {(0, 1): 0.29, (1, 0): 0.29, (0, 2): 0.29, (2, 0): 0.29, (1, 2): 0.29, (2, 1): 0.29}
        sets = initial_suspects(build_reported_matrix(scenario_from(swarm, entries)),
                                scenario_from(swarm, entries).measurements, 0.3)
        assert set(sets.suspected) == {0, 1, 2}
        assert sets.trusted == ()

    def test_dimension_mismatch(self):
        swarm = hand_swarm([[0, 0, 0], [0.1, 0, 0]])
        e_r = build_reported_matrix(scenario_from(swarm, {}))
        with pytest.raises(InvalidParameterError):
            initial_suspects(e_r, pair_set(3, {}), 0.3)

    def test_attacked_scenario_flags_attackers(self):
        scen = make_scenario("distributed", 3, seed=5)
        e_r = build_reported_matrix(scen)
        sets = initial_suspects(e_r, scen.measurements, 0.3)
        observed = {
            m for m in scen.truth()
            if any(j == m or i == m for (i, j) in claim_dict(scen.measurements))
        }
        assert observed <= set(sets.suspected)

    def test_violation_counts_cover_suspects(self):
        scen = make_scenario("mixed", 4, seed=6)
        e_r = build_reported_matrix(scen)
        sets = initial_suspects(e_r, scen.measurements, 0.3)
        counts = violation_counts(e_r, scen.measurements, 0.3)
        assert {k for k, v in counts.items() if v > 0} == set(sets.suspected)


class TestInitializationSoundness:
    def test_adding_violation_grows_suspects(self):
        # Monotonicity: introducing one more violating pair never removes ids.
        swarm = hand_swarm([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0], [0.1, 0.1, 0]])
        entries = {(0, 1): 0.29, (1, 0): 0.29}
        base = initial_suspects(build_reported_matrix(scenario_from(swarm, entries)),
                                scenario_from(swarm, entries).measurements, 0.3)
        entries[(2, 3)] = 0.29  # asymmetric: new violation
        grown = initial_suspects(build_reported_matrix(scenario_from(swarm, entries)),
                                 scenario_from(swarm, entries).measurements, 0.3)
        assert set(base.suspected) <= set(grown.suspected)

    def test_displaced_attackers_with_benign_edges_are_suspected(self):
        # Empirical soundness at desk scale: an attacker displaced beyond the
        # communication range that shares any edge with a benign UAV lands in
        # the initial suspect set.  The lone escape channel is a fake whose
        # distances happen to be value-consistent with every counterpart,
        # which is rare (asserted at the 99% level over 549 cases).
        import numpy as np
        checked = missed = 0
        for kind, m in (("distributed", 4), ("collusion", 4), ("mixed", 6)):
            for seed in range(40):
                scen = make_scenario(kind, m, seed)
                init = initial_suspects(build_reported_matrix(scen), scen.measurements, 0.3)
                suspected = set(init.suspected)
                benign = {u.id for u in scen.swarm.uavs if not u.ground_truth_malicious}
                for mal in scen.truth():
                    u = scen.swarm.uavs[mal]
                    displaced = float(np.linalg.norm(u.reported_pos - u.true_pos)) >= 0.3
                    edged = any(
                        mal in pair and (pair[0] in benign or pair[1] in benign)
                        for pair in claim_dict(scen.measurements)
                    )
                    if displaced and edged:
                        checked += 1
                        missed += mal not in suspected
        assert checked > 500
        assert missed / checked < 0.01


class TestPartitionInvariant:
    @given(st.sets(st.integers(0, 19)), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, suspected, _):
        trusted = set(range(20)) - suspected
        sets = SuspectSets(tuple(sorted(suspected)), tuple(sorted(trusted)))
        assert set(sets.suspected) | set(sets.trusted) == set(range(20))
        assert not set(sets.suspected) & set(sets.trusted)

    def test_overlap_rejected(self):
        with pytest.raises(InvalidParameterError):
            SuspectSets((1, 2), (2, 3))
