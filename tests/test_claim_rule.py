"""The claim rule has one owner.

``conic.acceptance_window`` defines the window (d/2)^2 and
``conic.claim_bounds`` the bounds a claimed distance puts on its pair
functional.  The suspect screen, the detection context's conflicting
testimony, the scenario oracle's compiled family and the constraint dump all
read them there, so a patched window moves all four, and the dump's records
are the bounds the oracle decides on.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from swarmsentry import conic, sdp, serialize
from swarmsentry.detectors import DetectionContext, DetectorOptions
from swarmsentry.suspects import build_reported_matrix, violation_counts

from test_scenario_reference import reference_evidence

DATA = Path(__file__).parent / "data"
KINDS = ("distributed", "collusion", "mixed")


def scenario_of(kind):
    return serialize.scenario_from_dict(serialize.load_path(str(DATA / f"scenario_n30_{kind}.json")))


def claim_rule_outputs(scenario):
    """What each reader of the window makes of ``scenario``: violation
    counts, conflicting accusers (a mask per id), the oracle's pair bounds
    and the dump's records of the whole swarm."""
    d = scenario.swarm.comm_range
    counts = violation_counts(build_reported_matrix(scenario), scenario.measurements, d)
    conflicting = DetectionContext(scenario).conflicting_mask
    cons = sdp.ScenarioOracle(scenario, DetectorOptions()).cons
    p = cons.n_pairs
    records = serialize.problem_dump(sdp.assemble(range(scenario.n), scenario))["constraints"]
    return counts, conflicting, (cons.lo[:p], cons.hi[:p]), records


@pytest.mark.parametrize("kind", KINDS)
def test_window_has_one_owner(monkeypatch, kind):
    scenario = scenario_of(kind)
    d = scenario.swarm.comm_range
    before = claim_rule_outputs(scenario)
    window = (d / 2.0) ** 2 / 100.0
    monkeypatch.setattr(conic, "acceptance_window", lambda comm_range: window)
    counts, conflicting, (lo, hi), records = claim_rule_outputs(scenario)

    expected = reference_evidence(scenario, window)
    assert counts == expected["evidence"] and counts != before[0]
    assert conflicting == [sdp.id_mask(expected["conflicting_accusers"][k] - {k}) for k in range(scenario.n)]
    assert conflicting != before[1]

    ms = scenario.measurements
    r = ms.r[ms.order]
    delta = sdp.DEFAULT_DELTA
    assert np.array_equal(lo, r * r - window + delta) and not np.array_equal(lo, before[2][0])
    assert np.array_equal(hi, np.minimum(d**2 - delta, r * r + window - delta))
    assert not np.array_equal(hi, before[2][1])

    uppers = [b for kind_, _i, _j, b in records if kind_ == "window_upper"]
    lowers = [b for kind_, _i, _j, b in records if kind_ == "window_lower"]
    assert uppers == (r * r + window - delta).tolist() and lowers == (r * r - window + delta).tolist()
    assert records != before[3]


def problems():
    yield pytest.param(serialize.problem_from_dict(serialize.load_path(str(DATA / "problem_n30_distributed.json"))),
                       id="problem_n30_distributed")
    for kind in KINDS:
        scenario = scenario_of(kind)
        yield pytest.param(sdp.assemble(range(scenario.n), scenario), id=f"scenario_n30_{kind}")


@pytest.mark.parametrize("problem", list(problems()))
def test_dump_records_are_the_compiled_bounds(problem):
    # Through the file's text, as a cross-check reads them.
    records = json.loads(serialize.dumps(serialize.problem_dump(problem)))["constraints"]
    by_kind = {}
    for kind, i, j, bound in records:
        by_kind.setdefault(kind, []).append((i, j, bound))
    pairs = [(i, j) for i, j, _r in problem.constraint_pairs]
    for kind in ("range_upper", "window_upper", "window_lower"):
        assert [(i, j) for i, j, _b in by_kind[kind]] == pairs
    range_upper, window_upper, window_lower = (np.array([b for _i, _j, b in by_kind[kind]])
                                               for kind in ("range_upper", "window_upper", "window_lower"))
    cons = problem.compiled()
    p = cons.n_pairs
    assert p == len(pairs) > 0
    assert np.array_equal(cons.hi[:p], np.minimum(range_upper, window_upper))
    assert np.array_equal(cons.lo[:p], window_lower)
    assert [b for _i, _j, b in by_kind["self_upper"]] == cons.hi[p:].tolist() == [problem.epsilon] * problem.n_sub
    assert np.all(cons.lo[p:] == -np.inf)


@pytest.mark.parametrize("kind", KINDS)
def test_scenario_oracle_compiles_the_assembled_bounds(kind):
    # The oracle's family of the whole scenario is the assembled problem's,
    # row for row, so the dump states the oracle's bounds too.
    scenario = scenario_of(kind)
    cons = sdp.ScenarioOracle(scenario, DetectorOptions()).cons
    compiled = sdp.assemble(range(scenario.n), scenario).compiled()
    assert np.array_equal(cons.hi, compiled.hi) and np.array_equal(cons.lo, compiled.lo)
    assert np.array_equal(cons.owner, compiled.owner) and np.array_equal(cons.anchor, compiled.anchor)
