"""n=240 scenarios, pinned from scenario building to the sampling baselines.

Each (attack kind, seed) scenario is built as ``experiments.build_scenario``
builds it (n=240, eight attackers) and pinned by the sha256 of its canonical
``serialize.dumps`` text, its initial suspects and the picks of both sampling
baselines, in ``tests/data/scenario_n240_digests.txt``.  Any change to how a
scenario's claims or positions are stored must keep every byte of these.

Regenerate the golden file (only for a change meant to move scenarios) with
``PYTHONPATH=src:tests python -c "import test_scenario_golden as t; t.write_golden()"``.
"""

import hashlib
from pathlib import Path

import pytest

from swarmsentry import detectors, serialize, suspects
from swarmsentry.experiments import ExperimentConfig, build_scenario

GOLDEN = Path(__file__).parent / "data" / "scenario_n240_digests.txt"

KINDS = ("distributed", "collusion", "mixed")
SEEDS = (1, 2, 3, 4)
M = 8


def scenario_digest(kind: str, seed: int) -> str:
    scenario = build_scenario(ExperimentConfig(attack=kind, n_uavs=240, malicious_count=M), seed)
    e_r = suspects.build_reported_matrix(scenario)
    initial = suspects.initial_suspects(e_r, scenario.measurements, scenario.swarm.comm_range)
    nlos = detectors.nlos_baseline(e_r, scenario.measurements, M, seed)
    rand = detectors.random_baseline(initial.suspected, M, seed)
    text = "\n".join([serialize.dumps(serialize.scenario_to_dict(scenario)), repr(initial),
                      repr(sorted(nlos)), repr(sorted(rand))])
    return hashlib.sha256(text.encode()).hexdigest()


def golden_lines() -> str:
    return "".join(f"{kind} {seed} {scenario_digest(kind, seed)}\n" for kind in KINDS for seed in SEEDS)


def write_golden() -> None:
    GOLDEN.write_text(golden_lines())


@pytest.mark.parametrize("kind", KINDS)
def test_scenarios_match_golden(kind):
    expected = [line for line in GOLDEN.read_text().splitlines() if line.startswith(kind + " ")]
    assert len(expected) == len(SEEDS)
    for line in expected:
        _kind, seed, digest = line.split()
        assert scenario_digest(kind, int(seed)) == digest, line
