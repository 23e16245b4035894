"""The slowest trials of the acceptance sweep bundle, pinned byte for byte.

Five trials of the ``tests/test_acceptance.py`` configs (``dist_var`` point
3, trials 5, 11 and 17; ``comm_range`` point 4, trials 1 and 10) hold the
most node solves of the bundle.  ``cdi`` then ``ecdi`` run on one
``DetectionContext`` each, as ``experiments.run_trial`` runs them, and their
predicted sets and per-check traces must equal ``tests/data/heavy_trials.txt``,
which was written by the log-barrier node solve before it was replaced: any
change to the oracle must keep every status of these trials.  The oracle's
work counter bounds the solver iterations these trials take, so a slower
node solve fails here on any machine.
"""

from pathlib import Path

import pytest

from swarmsentry import detectors
from swarmsentry.experiments import ExperimentConfig, build_scenario, trial_seed

GOLDEN = Path(__file__).parent / "data" / "heavy_trials.txt"

CONFIGS = {
    "dist_var": ExperimentConfig(
        sweep_param="dist_var", sweep_values=(1e-6, 1e-5, 1e-4, 1e-3),
        attack="distributed", trials_per_point=20, base_seed=4,
    ),
    "comm_range": ExperimentConfig(
        sweep_param="comm_range", sweep_values=(0.25, 0.30, 0.35, 0.40, 0.45),
        attack="distributed", trials_per_point=20, base_seed=1, algorithms=("cdi", "ecdi"),
    ),
}
TRIALS = (("dist_var", 3, 5), ("dist_var", 3, 11), ("dist_var", 3, 17),
          ("comm_range", 4, 1), ("comm_range", 4, 10))
# Solver iterations over all node solves of the five trials: the
# primal-dual node solve, warm-started at each report, takes 53 steps over
# their 23 solves; started at the data's scale it took 108, and the
# log-barrier solve before it 788 Newton steps.
ITERATION_CAP = 80


def run_trial(name: str, point: int, trial: int):
    """The trial's scenario, run through ``cdi`` then ``ecdi`` on one context:
    the context and one golden line per detector."""
    config = CONFIGS[name]
    scenario = build_scenario(config.at_point(config.sweep_values[point]),
                              trial_seed(config.base_seed, point, trial))
    context = detectors.DetectionContext(scenario)
    lines = []
    for algo in ("cdi", "ecdi"):
        res = detectors.detect(algo, scenario, context.initial, context=context)
        lines.append(f"{name} {point} {trial} {algo} {sorted(res.predicted_malicious)} "
                     f"{res.per_iteration_trace!r}\n")
    return context, lines


@pytest.fixture(scope="module")
def heavy_runs():
    return [run_trial(*key) for key in TRIALS]


def test_statuses_match_golden(heavy_runs):
    text = "".join(line for _context, lines in heavy_runs for line in lines)
    assert text.encode() == GOLDEN.read_bytes()


def test_solver_iterations_bounded(heavy_runs):
    oracles = [context.oracle for context, _lines in heavy_runs]
    assert sum(o.node_solves for o in oracles) > 0
    assert sum(o.node_iterations for o in oracles) <= ITERATION_CAP
