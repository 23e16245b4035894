from dataclasses import replace

import numpy as np
import pytest

from swarmsentry import experiments
from swarmsentry.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    build_scenario,
    preset,
    rows_to_csv,
    rows_to_plot_data,
    run_sweep,
    run_trial,
    trial_seed,
)
from swarmsentry.metrics import malicious_ratio
from swarmsentry.suspects import build_reported_matrix, initial_suspects
from swarmsentry.swarm import InvalidParameterError


def tiny_config(**overrides):
    base = dict(
        sweep_param="malicious_count",
        sweep_values=(1, 2),
        attack="distributed",
        n_uavs=14,
        trials_per_point=2,
        base_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(sweep_param="bogus")
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(sweep_values=())
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(trials_per_point=0)
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(algorithms=("cdi", "nope"))

    @pytest.mark.parametrize("field", ["comm_range", "cube_half_width", "pos_var", "dist_var", "fake_offset_min"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-3, "0.3", True])
    def test_rejects_non_finite_or_negative_scalars(self, field, bad):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(**{field: bad})

    @pytest.mark.parametrize("bad", [dict(n_uavs=2.5), dict(malicious_count=2.5), dict(trials_per_point=2.5),
                                     dict(base_seed=-1), dict(base_seed=1.0), dict(n_uavs="30"),
                                     dict(sweep_param="malicious_count", sweep_values=(2, 2.5)),
                                     dict(sweep_param="n_uavs", sweep_values=(20, -25)),
                                     dict(trials_per_point=True), dict(n_uavs=True), dict(base_seed=False),
                                     dict(sweep_param="malicious_count", sweep_values=(2, True))])
    def test_rejects_non_integer_counts(self, bad):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize("bad", [dict(paper_replication="false"), dict(paper_replication=0),
                                     dict(timing="no"), dict(timing=None)])
    def test_rejects_non_boolean_flags(self, bad):
        # "false" would turn paper replication on (epsilon 1e-6, not 1e-5),
        # and "no" would fill runtime_ms with wall-clock time.
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(**bad)

    def test_rejects_bad_sweep_values_of_a_scalar(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(sweep_param="dist_var", sweep_values=(1e-6, float("nan")))
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(sweep_param="comm_range", sweep_values=(0.3, -0.3))
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(sweep_param="comm_range", sweep_values=(0.3, True))
        assert ExperimentConfig(fake_offset_min=None).fake_offset_min is None

    def test_roundtrip(self):
        config = tiny_config()
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig.from_dict({"sweep_par": "malicious_count"})

    def test_presets(self):
        for name, param in [
            ("attacker_count", "malicious_count"),
            ("network_scale", "n_uavs"),
            ("dist_noise", "dist_var"),
            ("comm_range", "comm_range"),
        ]:
            config = preset(name)
            assert config.sweep_param == param
            assert len(config.sweep_values) >= 4

    def test_at_point(self):
        config = preset("comm_range")
        point = config.at_point(0.45)
        assert point.comm_range == 0.45


class TestTrials:
    def test_trial_is_deterministic(self):
        config = tiny_config()
        a = run_trial(config, 0, 1)
        b = run_trial(config, 0, 1)
        assert a.truth == b.truth
        assert a.r_m == b.r_m
        for algo in config.algorithms:
            assert a.outcomes[algo].predicted == b.outcomes[algo].predicted
            assert a.outcomes[algo].f1 == b.outcomes[algo].f1

    def test_trial_seeds_distinct(self):
        seeds = {trial_seed(5, p, t) for p in range(3) for t in range(10)}
        assert len(seeds) == 30

    def test_baselines_receive_true_count(self):
        config = tiny_config(sweep_values=(3,), algorithms=("nlos", "random"))
        trial = run_trial(config, 0, 0)
        for algo in ("nlos", "random"):
            assert len(trial.outcomes[algo].predicted) <= 3

    def test_baseline_only_trial_builds_no_detection_context(self, monkeypatch):
        # Only the feasibility detectors read a detection context: a trial of
        # sampling baselines alone builds none and gives the same result.
        config = tiny_config(algorithms=("nlos", "random"))
        expected = run_trial(config, 1, 0)
        monkeypatch.setattr(experiments, "DetectionContext", None)
        assert run_trial(config, 1, 0) == expected

    def test_timing_fills_only_the_runtime_column(self):
        # With timing on every detector of a trial (sharing one context)
        # gets a positive runtime; all other outcome fields are unchanged.
        config = tiny_config()
        plain = run_trial(config, 1, 0)
        timed = run_trial(replace(config, timing=True), 1, 0)
        assert timed.outcomes.keys() == plain.outcomes.keys()
        for algo, outcome in timed.outcomes.items():
            assert outcome.runtime_ms > 0.0
            assert replace(outcome, runtime_ms=0.0) == plain.outcomes[algo]

    def test_malicious_ratio_consistent(self):
        config = tiny_config()
        trial = run_trial(config, 1, 0)
        scen = build_scenario(config.at_point(2), trial_seed(5, 1, 0))
        init = initial_suspects(build_reported_matrix(scen), scen.measurements, scen.swarm.comm_range)
        assert trial.r_m == pytest.approx(malicious_ratio(init))


class TestSweep:
    def test_csv_shape_and_determinism(self):
        config = tiny_config(algorithms=("nlos", "random"))
        rows = run_sweep(config)
        csv_a = rows_to_csv(rows)
        csv_b = rows_to_csv(run_sweep(config))
        assert csv_a == csv_b
        lines = csv_a.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(config.sweep_values) * len(config.algorithms)

    def test_parallel_matches_serial(self):
        config = tiny_config(algorithms=("nlos", "random"))
        assert rows_to_csv(run_sweep(config, jobs=2)) == rows_to_csv(run_sweep(config, jobs=1))

    def test_runtime_column_zero_without_timing(self):
        config = tiny_config(algorithms=("random",))
        rows = run_sweep(config)
        assert all(r.runtime_ms == 0.0 for r in rows)

    def test_plot_data_blocks(self):
        config = tiny_config(algorithms=("nlos", "random"))
        text = rows_to_plot_data(run_sweep(config))
        assert text.count("# algorithm:") == 2

    def test_single_point_single_trial(self):
        config = tiny_config(sweep_values=(2,), trials_per_point=1, algorithms=("random",))
        rows = run_sweep(config)
        assert len(rows) == 1
        assert rows[0].trials == 1

    def test_empty_algorithm_list_keeps_suspect_ratio(self):
        config = tiny_config(sweep_values=(2,), trials_per_point=1, algorithms=())
        rows = run_sweep(config)
        assert len(rows) == 1
        assert rows[0].algorithm == "none"
        assert rows[0].r_m > 0
        assert rows[0].f1 == 0.0
