"""Input validation helpers shared by detectors and the CLI."""

from __future__ import annotations

from .attacks import AttackedScenario
from .suspects import SuspectSets
from .swarm import InvalidParameterError


def check_scenario(scenario: AttackedScenario) -> AttackedScenario:
    if not isinstance(scenario, AttackedScenario):
        raise InvalidParameterError(f"expected AttackedScenario, got {type(scenario).__name__}")
    if scenario.measurements.n != scenario.swarm.n:
        raise InvalidParameterError("measurement set and swarm disagree on N")
    return scenario


def check_partition(initial: SuspectSets, n: int) -> SuspectSets:
    if initial.n != n or initial.all_ids() != frozenset(range(n)):
        raise InvalidParameterError("suspect partition must cover exactly the swarm ids")
    return initial

