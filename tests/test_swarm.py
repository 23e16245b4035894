import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swarmsentry as ss
from swarmsentry import serialize
from swarmsentry.swarm import DISTANCE_FLOOR, InvalidParameterError, neighbor_set

from conftest import honest_scenario, make_scenario


class TestGenerateSwarm:
    def test_table_defaults_shape(self):
        swarm = ss.generate_swarm(30, 0.5, 0.3, seed=7)
        assert swarm.n == 30
        assert swarm.comm_range == 0.3
        pos = swarm.true_positions()
        assert pos.shape == (30, 3)
        assert np.all(np.abs(pos) <= 0.5)
        assert np.allclose(pos, swarm.reported_positions())
        assert swarm.malicious_ids() == frozenset()

    def test_minimum_size(self):
        swarm = ss.generate_swarm(2, 0.5, 0.3, seed=1)
        assert swarm.n == 2
        assert not any(u.ground_truth_malicious for u in swarm.uavs)

    def test_determinism(self):
        a = ss.generate_swarm(30, 0.5, 0.3, seed=7)
        b = ss.generate_swarm(30, 0.5, 0.3, seed=7)
        assert np.array_equal(a.true_positions(), b.true_positions())

    def test_seed_sensitivity(self):
        a = ss.generate_swarm(30, 0.5, 0.3, seed=7)
        b = ss.generate_swarm(30, 0.5, 0.3, seed=8)
        assert not np.array_equal(a.true_positions(), b.true_positions())

    @pytest.mark.parametrize("bad", [dict(n=1), dict(cube_half_width=0.0), dict(comm_range=-1.0),
                                     dict(comm_range=float("nan")), dict(cube_half_width=float("nan")),
                                     dict(cube_half_width=float("inf")), dict(n=2.5), dict(n=5.0)])
    def test_invalid_parameters(self, bad):
        kwargs = dict(n=5, cube_half_width=0.5, comm_range=0.3, seed=0)
        kwargs.update(bad)
        with pytest.raises(InvalidParameterError):
            ss.generate_swarm(**kwargs)


class TestPositionNoise:
    def test_zero_noise_is_identity(self):
        swarm = ss.generate_swarm(10, 0.5, 0.3, seed=3)
        noisy = ss.apply_position_noise(swarm, ss.NoiseParams(0.0, 0.0), seed=3)
        assert np.array_equal(noisy.reported_positions(), noisy.true_positions())

    def test_empirical_variance_matches(self):
        # Per-axis variance of the reported displacement over many draws,
        # within 10% relative of the configured 1e-6.
        n, draws = 10, 1000  # 10 * 1000 * 3 axis samples
        samples = []
        for seed in range(draws):
            swarm = ss.generate_swarm(n, 0.5, 0.3, seed=0)
            noisy = ss.apply_position_noise(swarm, ss.NoiseParams(1e-6, 0.0), seed=seed)
            samples.append(noisy.reported_positions() - noisy.true_positions())
        var = float(np.var(np.concatenate(samples)))
        assert abs(var - 1e-6) / 1e-6 < 0.10

    def test_malicious_untouched(self):
        swarm = ss.generate_swarm(6, 0.5, 0.3, seed=3)
        uavs = list(swarm.uavs)
        from dataclasses import replace
        uavs[2] = replace(uavs[2], ground_truth_malicious=True)
        swarm = replace(swarm, uavs=tuple(uavs))
        noisy = ss.apply_position_noise(swarm, ss.NoiseParams(1e-4, 0.0), seed=1)
        assert np.array_equal(noisy.uavs[2].reported_pos, swarm.uavs[2].reported_pos)
        assert not np.array_equal(noisy.uavs[1].reported_pos, swarm.uavs[1].reported_pos)


class TestMeasureDistances:
    def test_zero_noise_exact(self):
        swarm = ss.generate_swarm(10, 0.5, 0.3, seed=5)
        ms = ss.measure_distances(swarm, ss.NoiseParams(0.0, 0.0), seed=5)
        pos = swarm.true_positions()
        for (i, j), r in ms.entries.items():
            assert r == pytest.approx(float(np.linalg.norm(pos[i] - pos[j])), abs=1e-15)

    def test_range_gating(self):
        swarm = ss.generate_swarm(30, 0.5, 0.3, seed=6)
        ms = ss.measure_distances(swarm, ss.NoiseParams(0.0, 0.0), seed=6)
        pos = swarm.true_positions()
        for i in range(30):
            for j in range(30):
                if i == j:
                    continue
                dist = float(np.linalg.norm(pos[i] - pos[j]))
                assert ((i, j) in ms.entries) == (dist <= 0.3)

    def test_symmetry_under_zero_noise(self):
        swarm = ss.generate_swarm(20, 0.5, 0.3, seed=2)
        ms = ss.measure_distances(swarm, ss.NoiseParams(0.0, 0.0), seed=2)
        for (i, j), r in ms.entries.items():
            assert (j, i) in ms.entries
            assert ms.entries[(j, i)] == pytest.approx(r, abs=1e-15)

    def test_entries_positive(self):
        # Extreme noise cannot push a stored distance to or below zero.
        swarm = ss.generate_swarm(20, 0.5, 0.3, seed=2)
        ms = ss.measure_distances(swarm, ss.NoiseParams(0.0, 1.0), seed=2)
        assert all(r >= DISTANCE_FLOOR for r in ms.entries.values())

    def test_mean_degree_matches_geometric_oracle(self):
        # Independent oracle: Monte-Carlo estimate of the probability that
        # two uniform cube points lie within range, via its own generator.
        rng = np.random.default_rng(123456789)
        a = rng.uniform(-0.5, 0.5, size=(200_000, 3))
        b = rng.uniform(-0.5, 0.5, size=(200_000, 3))
        p_connect = float(np.mean(np.linalg.norm(a - b, axis=1) <= 0.3))
        expected_degree = 29 * p_connect

        degrees = []
        for seed in range(100):
            swarm = ss.generate_swarm(30, 0.5, 0.3, seed=seed)
            ms = ss.measure_distances(swarm, ss.NoiseParams(0.0, 0.0), seed=seed)
            degrees.append(len(ms.entries) / 30)
        measured = float(np.mean(degrees))
        assert abs(measured - expected_degree) / expected_degree < 0.25

    def test_determinism(self):
        swarm = ss.generate_swarm(15, 0.5, 0.3, seed=11)
        a = ss.measure_distances(swarm, ss.NoiseParams(1e-6, 1e-6), seed=11)
        b = ss.measure_distances(swarm, ss.NoiseParams(1e-6, 1e-6), seed=11)
        assert a.entries == b.entries


class TestNeighborSet:
    def test_empty(self):
        ms = ss.MeasurementSet(4, {})
        assert neighbor_set(ms, 1) == frozenset()

    def test_symmetrization(self):
        ms = ss.MeasurementSet(4, {(1, 2): 0.1, (3, 1): 0.2})
        assert neighbor_set(ms, 1) == {2, 3}

    def test_out_of_range_id(self):
        ms = ss.MeasurementSet(4, {})
        with pytest.raises(InvalidParameterError):
            neighbor_set(ms, 4)

    def test_matches_bruteforce_distances(self):
        swarm = ss.generate_swarm(5, 0.5, 0.3, seed=9)
        ms = ss.measure_distances(swarm, ss.NoiseParams(0.0, 0.0), seed=9)
        pos = swarm.true_positions()
        for k in range(5):
            expected = {
                j for j in range(5)
                if j != k and float(np.linalg.norm(pos[k] - pos[j])) <= 0.3
            }
            assert neighbor_set(ms, k) == expected


class TestPairIndex:
    """The per-set pair index gives what a scan of every entry gives."""

    @given(st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1]),
                           st.floats(0.01, 1.0), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_matches_a_full_scan(self, entries):
        ms = ss.MeasurementSet(8, entries)
        assert ms.directed_pairs() == [(i, j, entries[(i, j)]) for (i, j) in sorted(entries)]
        for k in range(8):
            scan = {j for (i, j) in entries if i == k} | {i for (i, j) in entries if j == k}
            assert neighbor_set(ms, k) == scan

    @given(st.sets(st.integers(0, 29), min_size=1))
    @settings(max_examples=30, deadline=None)
    def test_assemble_keeps_sorted_member_pairs(self, sub):
        scen = make_scenario("mixed", 4, seed=5)
        pairs = ss.assemble(sub, scen).constraint_pairs
        assert list(pairs) == [t for t in scen.measurements.directed_pairs() if t[0] in sub and t[1] in sub]


def test_pipeline_zero_noise_consistency():
    # With no noise and no attack, claimed distances equal reported-position
    # distances exactly for every stored pair.
    scen = honest_scenario(seed=4, pos_var=0.0, dist_var=0.0)
    pos = scen.swarm.reported_positions()
    for (i, j), r in scen.measurements.entries.items():
        assert abs(r - float(np.linalg.norm(pos[i] - pos[j]))) < 1e-14


@pytest.mark.parametrize("make", [
    lambda: ss.NoiseParams(float("nan"), 1e-6),
    lambda: ss.NoiseParams(1e-6, float("inf")),
    lambda: ss.MeasurementSet(3, {(0, 1): float("nan")}),
    lambda: ss.MeasurementSet(3, {(0, 1): float("inf")}),
])
def test_non_finite_values_rejected(make):
    with pytest.raises(InvalidParameterError):
        make()



class TestMeasurementValidation:
    """``MeasurementSet`` names the first bad entry in insertion order,
    whether the set is built directly or decoded from JSON."""

    @pytest.mark.parametrize("entries, message", [
        ({(0, 1): 0.2, (1, 0): float("nan"), (2, 2): 0.1}, "measurement (1, 0) must be positive and finite, got nan"),
        ({(0, 1): 0.2, (1, 2): float("inf")}, "measurement (1, 2) must be positive and finite, got inf"),
        ({(0, 1): 0.2, (2, 0): -0.1, (1, 0): float("nan")}, "measurement (2, 0) must be positive and finite, got -0.1"),
        ({(0, 1): 0.2, (2, 1): 0.0}, "measurement (2, 1) must be positive and finite, got 0.0"),
        ({(0, 1): 0.2, (2, 2): 0.1, (1, 0): -1.0}, "bad measurement pair (2, 2)"),
        ({(0, 1): 0.2, (1, 3): 0.1}, "bad measurement pair (1, 3)"),
        ({(-1, 0): 0.2}, "bad measurement pair (-1, 0)"),
        ({(np.int64(0), np.int64(1)): 0.2, (np.int32(2), np.int32(2)): 0.1}, "bad measurement pair (2, 2)"),
        ({(np.int64(0), np.int64(1)): 0.2, (np.intp(1), np.intp(5)): 0.1}, "bad measurement pair (1, 5)"),
        ({(np.int64(0), np.int64(1)): np.float64("nan")}, "measurement (0, 1) must be positive and finite, got nan"),
    ], ids=["nan", "inf", "negative", "zero", "self-pair", "out-of-range", "negative-id",
            "numpy-self-pair", "numpy-out-of-range", "numpy-nan"])
    def test_first_bad_entry_named(self, entries, message):
        with pytest.raises(InvalidParameterError) as built:
            ss.MeasurementSet(3, entries)
        assert str(built.value) == message
        rows = [[int(i), int(j), float(r)] for (i, j), r in entries.items()]
        with pytest.raises(InvalidParameterError) as decoded:
            serialize.measurements_from_dict({"n": 3, "entries": rows})
        assert str(decoded.value) == message

    def test_numpy_int_keys_accepted(self):
        entries = {(np.int64(0), np.int64(1)): 0.2, (np.int32(2), np.int32(0)): np.float64(0.1)}
        assert ss.MeasurementSet(3, entries).entries is entries

    @pytest.mark.parametrize("pair", [(0.5, 1), (1, 2.0), ("1", 0), (True, 2), (np.float64(1.0), 0)],
                             ids=["fraction", "integral-float", "string", "bool", "numpy-float"])
    def test_non_integer_ids_rejected(self, pair):
        with pytest.raises(InvalidParameterError, match="measurement ids must be integers"):
            ss.MeasurementSet(3, {(0, 1): 0.2, pair: 0.1})
