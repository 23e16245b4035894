"""Detection on dense and large swarms, pinned byte for byte.

The acceptance bundle pins detection at n=30 only.  These cases pin it
where a check's trusted set is hundreds of UAVs: the default cube and range
at n=480 with 16 attackers of each kind, and n=1920 in a cube of half-width
2.0 (mean degree near 4, as at n=30) with 64 colluders, all from scenario
seed 5.  ``cdi`` then ``ecdi`` run on one ``DetectionContext`` each, as
``experiments.run_trial`` runs them, and their predicted sets, per-check
traces, flags and passes must equal ``tests/data/dense_traces.txt``.

Regenerate the golden file (only for a change meant to move statuses) with
``PYTHONPATH=src:tests python -c "import test_dense_traces as t; t.write_golden()"``.
"""

from pathlib import Path

import pytest

from swarmsentry import detectors
from swarmsentry.experiments import ExperimentConfig, build_scenario

GOLDEN = Path(__file__).parent / "data" / "dense_traces.txt"

SEED = 5
# (attack, n, attackers, cube half-width)
CASES = (
    ("distributed", 480, 16, 0.5),
    ("collusion", 480, 16, 0.5),
    ("mixed", 480, 16, 0.5),
    ("collusion", 1920, 64, 2.0),
)


def case_lines(attack: str, n: int, m: int, half_width: float) -> str:
    """One golden line per detector of the case, ``cdi`` then ``ecdi``."""
    config = ExperimentConfig(attack=attack, n_uavs=n, malicious_count=m, cube_half_width=half_width)
    scenario = build_scenario(config, SEED)
    context = detectors.DetectionContext(scenario)
    lines = []
    for algo in ("cdi", "ecdi"):
        res = detectors.detect(algo, scenario, context.initial, context=context)
        lines.append(f"{attack} {n} {algo} {sorted(res.predicted_malicious)} {res.per_iteration_trace!r} "
                     f"{res.flags!r} {res.passes}\n")
    return "".join(lines)


def write_golden() -> None:
    GOLDEN.write_text("".join(case_lines(*case) for case in CASES))


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-n{c[1]}")
def test_traces_match_golden(case):
    attack, n = case[:2]
    expected = [line for line in GOLDEN.read_text().splitlines(keepends=True)
                if line.startswith(f"{attack} {n} ")]
    assert len(expected) == 2
    assert case_lines(*case) == "".join(expected)
