import numpy as np
import pytest

import swarmsentry as ss
from swarmsentry.attacks import (
    COLLUSION_MARGIN,
    AttackPlan,
    apply_collusion,
    apply_distributed,
    apply_mixed,
    build_attack,
    default_collusion_target,
    select_malicious,
)
from swarmsentry.swarm import InvalidParameterError, NoiseParams, measure_distances, neighbor_set

from conftest import hand_swarm, make_scenario
from test_scenario_reference import claim_dict


def measured(swarm, dist_var=0.0, seed=0):
    return measure_distances(swarm, NoiseParams(0.0, dist_var), seed)


class TestSelectMalicious:
    def test_empty(self):
        swarm = ss.generate_swarm(10, 0.5, 0.3, seed=0)
        assert select_malicious(swarm, 0, seed=1) == frozenset()

    def test_all_but_one(self):
        swarm = ss.generate_swarm(10, 0.5, 0.3, seed=0)
        chosen = select_malicious(swarm, 9, seed=1)
        assert len(chosen) == 9

    def test_deterministic(self):
        swarm = ss.generate_swarm(10, 0.5, 0.3, seed=0)
        assert select_malicious(swarm, 4, seed=5) == select_malicious(swarm, 4, seed=5)

    def test_count_validation(self):
        swarm = ss.generate_swarm(10, 0.5, 0.3, seed=0)
        with pytest.raises(InvalidParameterError):
            select_malicious(swarm, 10, seed=1)


class TestDistributed:
    def test_noop_on_empty_set(self):
        swarm = ss.generate_swarm(8, 0.5, 0.3, seed=2)
        ms = measured(swarm)
        scen = apply_distributed(swarm, ms, frozenset(), seed=2)
        assert scen.swarm is swarm
        assert scen.measurements is ms

    def test_offset_enforced(self):
        swarm = ss.generate_swarm(20, 0.5, 0.3, seed=3)
        ms = measured(swarm)
        scen = apply_distributed(swarm, ms, frozenset({1, 5, 9}), fake_offset_min=0.3, seed=3)
        for m in (1, 5, 9):
            u = scen.swarm.uavs[m]
            assert u.ground_truth_malicious
            assert float(np.linalg.norm(u.reported_pos - u.true_pos)) >= 0.3

    def test_benign_untouched(self):
        swarm = ss.generate_swarm(20, 0.5, 0.3, seed=3)
        ms = measured(swarm)
        scen = apply_distributed(swarm, ms, frozenset({1}), seed=3)
        for u in scen.swarm.uavs:
            if u.id != 1:
                assert np.array_equal(u.reported_pos, swarm.uavs[u.id].reported_pos)
        claims = claim_dict(scen.measurements)
        for (i, j), r in claim_dict(ms).items():
            if i != 1:
                assert claims[(i, j)] == r

    def test_fabricated_claims_consistent_with_fake(self):
        swarm = ss.generate_swarm(20, 0.5, 0.3, seed=4)
        ms = measured(swarm)
        scen = apply_distributed(swarm, ms, frozenset({2}), seed=4, dist_var=0.0)
        fake = scen.swarm.uavs[2].reported_pos
        reported = scen.swarm.reported_positions()
        outgoing = [(j, r) for (i, j), r in claim_dict(scen.measurements).items() if i == 2]
        for j, r in outgoing:
            assert r == pytest.approx(float(np.linalg.norm(fake - reported[j])), abs=1e-12)
            assert r <= 0.3 + 1e-12

    def test_hand_instance_detectable_discrepancy(self):
        # Attacker at the origin with one very close true neighbor: any fake
        # at least d away makes the honest claim disagree with the reported
        # separation by more than the (d/2)^2 window.
        swarm = hand_swarm([[0.0, 0.0, 0.0], [0.05, 0.0, 0.0], [0.45, 0.45, 0.45], [-0.45, -0.45, 0.45]])
        ms = measured(swarm)
        assert (1, 0) in claim_dict(ms)
        scen = apply_distributed(swarm, ms, frozenset({0}), fake_offset_min=0.3, seed=1, dist_var=0.0)
        claim = claim_dict(scen.measurements)[(1, 0)]
        separation = float(np.linalg.norm(scen.swarm.uavs[1].reported_pos - scen.swarm.uavs[0].reported_pos))
        assert abs(claim**2 - separation**2) >= (0.3 / 2) ** 2


class TestCollusion:
    def test_fake_inside_target_ball_and_claim_exact(self):
        swarm = ss.generate_swarm(20, 0.5, 0.3, seed=5)
        ms = measured(swarm)
        scen = apply_collusion(swarm, ms, frozenset({3}), target=0, seed=5, dist_var=0.0)
        fake = scen.swarm.uavs[3].reported_pos
        target_pos = scen.swarm.uavs[0].reported_pos
        dist = float(np.linalg.norm(fake - target_pos))
        assert dist <= 0.3 * (1 - COLLUSION_MARGIN) + 1e-12
        assert claim_dict(scen.measurements)[(3, 0)] == pytest.approx(dist, abs=1e-12)

    def test_far_colluder_asymmetry(self):
        # Colluder physically out of the target's range: the fabricated claim
        # exists one way only, and that asymmetry is detectable evidence.
        swarm = hand_swarm([[0.0, 0.0, 0.0], [0.45, 0.0, 0.0], [0.1, 0.0, 0.0]])
        ms = measured(swarm)
        assert (0, 1) not in claim_dict(ms)  # true distance 0.45 > d
        scen = apply_collusion(swarm, ms, frozenset({1}), target=0, seed=2, dist_var=0.0)
        assert (1, 0) in claim_dict(scen.measurements)
        assert (0, 1) not in claim_dict(scen.measurements)

    def test_target_honest_measurements_untouched(self):
        swarm = ss.generate_swarm(20, 0.5, 0.3, seed=6)
        ms = measured(swarm)
        scen = apply_collusion(swarm, ms, frozenset({4, 9}), target=1, seed=6)
        claims = claim_dict(scen.measurements)
        for (i, j), r in claim_dict(ms).items():
            if i == 1:
                assert claims[(i, j)] == r

    def test_validation(self):
        swarm = ss.generate_swarm(10, 0.5, 0.3, seed=0)
        ms = measured(swarm)
        with pytest.raises(InvalidParameterError):
            apply_collusion(swarm, ms, frozenset(), target=0, seed=0)
        with pytest.raises(InvalidParameterError):
            apply_collusion(swarm, ms, frozenset({0}), target=0, seed=0)


class TestMixed:
    def test_degenerate_distributed_only(self):
        swarm = ss.generate_swarm(15, 0.5, 0.3, seed=7)
        ms = measured(swarm)
        mixed = apply_mixed(swarm, ms, frozenset({2, 5}), frozenset(), target=0, seed=7)
        plain = apply_distributed(swarm, ms, frozenset({2, 5}), seed=7)
        assert np.array_equal(mixed.swarm.reported_positions(), plain.swarm.reported_positions())
        assert claim_dict(mixed.measurements) == claim_dict(plain.measurements)

    def test_degenerate_collusion_only(self):
        swarm = ss.generate_swarm(15, 0.5, 0.3, seed=7)
        ms = measured(swarm)
        mixed = apply_mixed(swarm, ms, frozenset(), frozenset({2, 5}), target=0, seed=7)
        plain = apply_collusion(swarm, ms, frozenset({2, 5}), target=0, seed=7)
        assert np.array_equal(mixed.swarm.reported_positions(), plain.swarm.reported_positions())
        assert claim_dict(mixed.measurements) == claim_dict(plain.measurements)

    def test_overlap_rejected(self):
        swarm = ss.generate_swarm(15, 0.5, 0.3, seed=7)
        ms = measured(swarm)
        with pytest.raises(InvalidParameterError):
            apply_mixed(swarm, ms, frozenset({2}), frozenset({2}), target=0, seed=7)

    def test_even_split(self):
        scen = make_scenario("mixed", 6, seed=9)
        assert len(scen.plan.distributed_ids) == 3
        assert len(scen.plan.collusion_ids) == 3
        assert scen.plan.distributed_ids | scen.plan.collusion_ids == scen.truth()

    def test_odd_split_favors_distributed(self):
        scen = make_scenario("mixed", 5, seed=9)
        assert len(scen.plan.distributed_ids) == 3
        assert len(scen.plan.collusion_ids) == 2


class TestPlanValidation:
    def test_mixed_partition_enforced(self):
        with pytest.raises(InvalidParameterError):
            AttackPlan("mixed", frozenset({1, 2}), seed=0, target=0,
                       distributed_ids=frozenset({1}), collusion_ids=frozenset({3}))

    def test_target_must_be_benign(self):
        with pytest.raises(InvalidParameterError):
            AttackPlan("collusion", frozenset({1, 2}), seed=0, target=1)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            AttackPlan("sybil", frozenset({1}), seed=0)


class TestBuildAttack:
    def test_default_target_highest_degree(self):
        swarm = ss.generate_swarm(20, 0.5, 0.3, seed=8)
        ms = measured(swarm)
        malicious = select_malicious(swarm, 3, seed=8)
        target = default_collusion_target(swarm, ms, malicious)
        assert target not in malicious
        degree = lambda k: len(neighbor_set(ms, k))
        best = max(degree(u.id) for u in swarm.uavs if u.id not in malicious)
        assert degree(target) == best

    @pytest.mark.parametrize("bad", [dict(dist_var=float("nan")), dict(dist_var=-1e-6),
                                     dict(dist_var=float("inf")), dict(fake_offset_min=float("nan")),
                                     dict(fake_offset_min=-0.1), dict(m=2.5), dict(m=np.float64(2.0)),
                                     dict(target=2.5), dict(kind="collusion", target=2.5)])
    def test_rejects_bad_scalars(self, bad):
        swarm = ss.generate_swarm(10, 0.5, 0.3, seed=0)
        with pytest.raises(InvalidParameterError):
            build_attack(swarm, measured(swarm), **{"kind": "distributed", "m": 2, "seed": 0, **bad})

    def test_rejects_measurements_of_another_swarm(self):
        swarm = ss.generate_swarm(10, 0.5, 0.3, seed=0)
        other = measured(ss.generate_swarm(12, 0.5, 0.3, seed=0))
        for attack in (lambda: build_attack(swarm, other, "distributed", 0, seed=0),
                       lambda: build_attack(swarm, other, "collusion", 2, seed=0),
                       lambda: apply_distributed(swarm, other, frozenset({1}), seed=0),
                       lambda: apply_collusion(swarm, other, frozenset({1}), target=0, seed=0),
                       lambda: apply_mixed(swarm, other, frozenset(), frozenset(), target=0, seed=0)):
            with pytest.raises(InvalidParameterError, match="N=12"):
                attack()

    def test_zero_attackers_keeps_inputs(self):
        swarm = ss.generate_swarm(10, 0.5, 0.3, seed=0)
        ms = measured(swarm)
        scen = build_attack(swarm, ms, "collusion", 0, seed=0)
        assert scen.swarm is swarm and scen.measurements is ms

    def test_zero_attackers(self):
        scen = make_scenario("distributed", 0, seed=1, n=10)
        assert scen.truth() == frozenset()

    def test_scenario_flags_match_plan(self):
        scen = make_scenario("collusion", 4, seed=10)
        assert scen.truth() == scen.plan.malicious_ids
