"""The JSON writer and the CLI's wire format.

``serialize.dumps`` indents the C encoder's compact text instead of calling
``json.dumps(indent=2)``; its output must stay byte-identical to that call.
The files in ``tests/data`` were written by the CLI before the writer
changed (``generate --n 30 --seed 3``; ``attack --kind <kind> --seed 3`` on
that swarm; default ``detect`` on the mixed scenario; ``oracle-check --dump``
on ``problem_to_dict(assemble(range(6), <distributed scenario>))``), and
the current code must reproduce each one byte for byte.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swarmsentry as ss
from swarmsentry import serialize
from swarmsentry.cli import main
from swarmsentry.sdp import assemble

DATA = Path(__file__).parent / "data"
KINDS = ("distributed", "collusion", "mixed")


def reference(data):
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


finite = st.floats(allow_nan=False, allow_infinity=False)
numbers = st.one_of(
    st.integers(-5, 5), st.integers(), finite, finite.map(np.float64), st.booleans(), st.none()
)
# JSON punctuation, escapes and non-ASCII text, and arbitrary characters.
text = st.text(st.sampled_from(',[]{}":\\/\n\t\x00\x1f é中😀ab') | st.characters())
rows = st.lists(numbers, max_size=4)
leaves = st.one_of(numbers, text, rows, st.lists(rows, max_size=4), st.just({}))
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(text, children, max_size=4),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
    ),
    max_leaves=20,
)


@given(trees)
@settings(max_examples=600, deadline=None)
def test_dumps_matches_json_dumps(tree):
    assert serialize.dumps(tree) == reference(tree)


@pytest.mark.parametrize("tree", [
    [], {}, [[]], [[], [1]], [[1], []], [[1], 2], [1, [2]], [[1, [2]], [3]], [[[1]]], [[1], [[2]]],
    [[1, 2], [3]], [[{}], [1]], [{}], {"a": [["x", 1], [2]]}, {"k": '],[{"x": 1}],['}, ["a,b", "]"],
    [["x,y", 1], [2]], [[1, "],["], [2]],
    {"a": [[1.5e-300, -0.0, True, None, 10**30]]}, {1: [2], 3: {"b": ()}},
])
def test_dumps_edge_shapes(tree):
    assert serialize.dumps(tree) == reference(tree)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
@pytest.mark.parametrize("place", [
    lambda x: {"v": x}, lambda x: {"v": [1.0, x]}, lambda x: {"v": [[1.0], [x, 2.0]]},
    lambda x: {"v": [["s", x]]}, lambda x: {"v": [{"w": x}]}, lambda x: {x: 1},
])
def test_dumps_rejects_non_finite(bad, place):
    with pytest.raises(ss.InvalidParameterError):
        serialize.dumps(place(bad))


def test_dumps_rejects_cycles():
    looped_dict, looped_list = {}, []
    looped_dict["v"] = looped_dict
    looped_list.append(looped_list)
    for data in (looped_dict, {"v": [looped_dict]}, {"v": looped_list}):
        with pytest.raises(ss.InvalidParameterError):
            serialize.dumps(data)


@pytest.mark.parametrize("data", [
    {"v": {1, 2}}, {"v": [1.0, object()]}, {"v": [[1, 2], [np.int64(3)]]}, {"v": [["s", b"x"]]},
    {"a": [{"b": np.arange(2)}], "z": {1}}, {1: 1, "a": 2}, {(1, 2): 0},
])
def test_dumps_type_errors_unchanged(data):
    with pytest.raises(TypeError) as expected:
        reference(data)
    with pytest.raises(TypeError) as got:
        serialize.dumps(data)
    assert str(got.value) == str(expected.value)


def golden(name):
    return (DATA / name).read_bytes()


def test_generate_golden(tmp_path):
    out = tmp_path / "swarm.json"
    assert main(["generate", "--n", "30", "--seed", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == golden("swarm_n30.json")


@pytest.mark.parametrize("kind", KINDS)
def test_attack_golden(kind, tmp_path):
    out = tmp_path / "scenario.json"
    assert main(["attack", str(DATA / "swarm_n30.json"), "--kind", kind, "--seed", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == golden(f"scenario_n30_{kind}.json")


def test_detect_golden(tmp_path):
    out = tmp_path / "detect.json"
    assert main(["detect", str(DATA / "scenario_n30_mixed.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == golden("detect_ecdi_mixed.json")


def test_oracle_check_golden(tmp_path):
    scenario = serialize.scenario_from_dict(serialize.load_path(str(DATA / "scenario_n30_distributed.json")))
    problem = tmp_path / "problem.json"
    serialize.dump_path(str(problem), serialize.problem_to_dict(assemble(range(6), scenario)))
    assert problem.read_bytes() == golden("problem_n30_distributed.json")
    out, dump = tmp_path / "oracle.json", tmp_path / "dump.json"
    assert main(["oracle-check", str(problem), "--out", str(out), "--dump", str(dump)]) == 0
    assert out.read_bytes() == golden("oracle_check.json")
    assert dump.read_bytes() == golden("oracle_check_dump.json")



@pytest.mark.parametrize("rows", [
    [[0, 1]], [[0, 1, 0.2], [1, 0]], [[0, 1, 0.2, 3]], [5], [[0, None, 0.2]], [[0, "x", 0.2]],
    [[0, 1, None]], [[0, 1.0e300, 0.2]], [[0, float("inf"), 0.2]], [[0, float("nan"), 0.2]],
    [["3", 2, 0.25]], [[3, 2.7, 0.25]], [[0.5, 1, 0.2]], [[1.0, 2, 0.2]], [[True, 2, 0.2]],
])
def test_malformed_measurements_rejected(rows):
    with pytest.raises(ss.InvalidParameterError):
        serialize.measurements_from_dict({"n": 4, "entries": rows})


@pytest.mark.parametrize("index, bad_id", [(1, "1"), (1, 1.0), (0, 0.0), (1, True)],
                         ids=["string", "float", "zero-float", "bool"])
def test_swarm_ids_must_be_json_integers(index, bad_id):
    data = serialize.swarm_to_dict(ss.generate_swarm(3, 0.5, 0.3, seed=1))
    data["uavs"][index]["id"] = bad_id
    with pytest.raises(ss.InvalidParameterError, match="UAV ids must be the integers"):
        serialize.swarm_from_dict(data)
