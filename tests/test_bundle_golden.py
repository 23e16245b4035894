"""The whole acceptance sweep bundle, pinned per trial and detector.

Every trial of the four ``tests/test_acceptance.py`` configs (380 trials,
``dist_var`` point 3 trial 3 among them) runs as ``experiments.run_trial``
runs it: one ``DetectionContext`` per trial, each of the config's detectors
in turn.  Each (trial, detector) pair is pinned by the sha256 of its
predicted set, per-check trace and flags in ``tests/data/bundle_digests.txt``,
so any change to the oracle must keep every status the bundle sees.  The
oracle's work counter bounds the node-solve steps of the whole bundle, so a
node solve that needs more steps fails here on any machine.

Regenerate the golden file (only for a change meant to move statuses) with
``PYTHONPATH=src:tests python -c "import test_bundle_golden as t; t.write_golden()"``.
"""

import hashlib
from pathlib import Path

import pytest

from swarmsentry import detectors
from swarmsentry.experiments import ExperimentConfig, build_scenario, trial_seed

GOLDEN = Path(__file__).parent / "data" / "bundle_digests.txt"

CONFIGS = {
    "attacker_count": ExperimentConfig(
        sweep_param="malicious_count", sweep_values=(2, 3, 4, 5, 6),
        attack="distributed", trials_per_point=20, base_seed=3,
    ),
    "collusion": ExperimentConfig(
        sweep_param="malicious_count", sweep_values=(2, 3, 4, 5, 6),
        attack="collusion", trials_per_point=20, base_seed=4,
        algorithms=("ecdi", "nlos", "random"),
    ),
    "dist_noise": ExperimentConfig(
        sweep_param="dist_var", sweep_values=(1e-6, 1e-5, 1e-4, 1e-3),
        attack="distributed", trials_per_point=20, base_seed=4,
    ),
    "comm_range": ExperimentConfig(
        sweep_param="comm_range", sweep_values=(0.25, 0.30, 0.35, 0.40, 0.45),
        attack="distributed", trials_per_point=20, base_seed=1,
        algorithms=("cdi", "ecdi"),
    ),
}
# Node-solve steps over the whole bundle: the warm-started primal-dual
# solve takes 456, the data-scale start before it took 884.
ITERATION_CAP = 600


def digest(res: detectors.DetectionResult) -> str:
    text = repr((sorted(res.predicted_malicious), res.per_iteration_trace, res.flags))
    return hashlib.sha256(text.encode()).hexdigest()


def run_bundle() -> tuple[str, int]:
    """One golden line per (trial, detector), and the node-solve steps of
    every trial's oracle."""
    lines, steps = [], 0
    for name, config in CONFIGS.items():
        for point, value in enumerate(config.sweep_values):
            point_config = config.at_point(value)
            options = detectors.DetectorOptions(paper_replication=point_config.paper_replication)
            for trial in range(config.trials_per_point):
                seed = trial_seed(config.base_seed, point, trial)
                scenario = build_scenario(point_config, seed)
                context = detectors.DetectionContext(scenario, options)
                for algo in config.algorithms:
                    res = detectors.detect(algo, scenario, context.initial, options,
                                           point_config.malicious_count, seed, context=context)
                    lines.append(f"{name} {point} {trial} {algo} {digest(res)}\n")
                steps += context.oracle.node_iterations
    return "".join(lines), steps


def write_golden() -> None:
    GOLDEN.write_text(run_bundle()[0])


@pytest.fixture(scope="module")
def bundle():
    return run_bundle()


def test_statuses_match_golden(bundle):
    text, _steps = bundle
    assert text.count("\n") == 1220
    assert text.encode() == GOLDEN.read_bytes()


def test_node_solve_steps_bounded(bundle):
    _text, steps = bundle
    assert 0 < steps <= ITERATION_CAP
