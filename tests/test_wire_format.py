"""The JSON writer and the CLI's wire format.

``serialize.dumps`` does not call ``json.dumps(indent=2)``: it writes a
table (rows or records of one shape) with one %-format and indents the C
encoder's compact text of a flat list.  Its output must stay byte-identical
to that call.
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


# Lists of flat records, which the writer formats in one go when they share
# one key set and every column holds numbers, bools or number lists of one
# length: keys from ``text`` (many need escaping or hold punctuation) or plain
# names, some with % or n; values numbers, literals, extreme floats, flat
# number lists, [] and {}; records with their own key sets or one shared set.
record_keys = text | st.sampled_from(["id", "true_pos", "reported_pos", "malicious", "a b", "x.y", "", "1",
                                      "%r", "50%", "nan"])
record_values = st.one_of(numbers, st.sampled_from([-0.0, 5e-324, 1e308, -1e308]), st.lists(numbers, max_size=4),
                          st.just([]), st.just({}))
record_lists = st.one_of(
    st.lists(st.dictionaries(record_keys, record_values, max_size=4), min_size=1, max_size=4),
    st.lists(record_keys, max_size=4).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: record_values for k in keys}), min_size=1, max_size=4)),
)


@given(record_lists, st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_dumps_flat_records_match_json_dumps(records, depth):
    tree = records
    for _ in range(depth):
        tree = {"k": tree}
    assert serialize.dumps(tree) == reference(tree)


@pytest.mark.parametrize("tree", [
    [{"a": 1}], [{}], [{}, {"a": []}], [{"a": {}}, {}], [{"a": [1, {}]}], [{"a": [{}]}], [{"a": [[1]]}],
    [{"a": [1, [2]]}], [{"a": "x"}], [{"a": ["x"]}], [{"a": [1, "x"]}], [{"a": {"b": 1}}], [{"a": 1}, 2],
    [{"a": 1}, [2]], [{"a:b": 1}], [{":a": 1}], [{"a,": 1}], [{"a{": [1]}], [{'a"': 1}], [{"é": 1}],
    [{"\x7f": 1}], [{1: 2}], [{"a": 1, "b": [True, None, -0.0, 5e-324]}, {"b": [], "c": 1e308}],
    ({"a": 1}, {"a": 2}), {"k": [{"a": [1, 2]}, {"b": {}}]},
    [{"a": [1, 2]}, {"a": [3]}, {"a": [4, 5, 6]}], [{"a": [1]}, {"a": [2, 3]}],
    [{"a": True, "b": [0.5]}, {"a": False, "b": [1]}],
    [{"a%s": 1, "%r": 2.5}, {"a%s": 3, "%r": -0.0}], [{"n": 1}, {"n": 2}],
])
def test_dumps_record_shapes(tree):
    assert serialize.dumps(tree) == reference(tree)


# Lists of equal-width rows, which the writer formats in one go when every
# column holds exact ints and floats, bools, or number lists of one length:
# ints beyond int64, extreme floats, and columns that mix them; strays
# (bools, None, numpy floats, nested lists) mixed into a column, and lists
# of tuples, ragged rows or empty rows, which go item by item.
row_ints = st.integers() | st.integers(2**63, 2**100) | st.integers(-2**100, -2**63 - 1)
row_floats = finite | st.sampled_from([-0.0, 5e-324, 1e308, -1e308])
row_strays = st.booleans() | st.none() | finite.map(np.float64) | st.lists(row_ints, max_size=2)
row_columns = st.sampled_from([row_ints, row_floats, row_ints | row_floats, row_ints | row_floats | row_strays,
                               st.booleans(), st.lists(row_ints | row_floats, min_size=2, max_size=2)])


@st.composite
def row_lists(draw):
    columns = draw(st.lists(row_columns, min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*columns).map(list), min_size=1, max_size=6))
    spoil = draw(st.sampled_from(["none", "none", "tuple", "ragged", "empty"]))
    k = draw(st.integers(0, len(rows) - 1))
    if spoil == "tuple":
        rows[k] = tuple(rows[k])
    elif spoil == "ragged":
        rows[k] = rows[k][:-1] if draw(st.booleans()) else rows[k] + [0]
    elif spoil == "empty":
        rows = [[]] * len(rows) if draw(st.booleans()) else rows[:k] + [[]] + rows[k:]
    return rows


@given(row_lists(), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_dumps_rows_match_json_dumps(rows, depth):
    tree = rows
    for _ in range(depth):
        tree = {"k": tree}
    assert serialize.dumps(tree) == reference(tree)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_number_rows_reject_non_finite(bad, column):
    rows = [[0, 1, 0.25], [1, 0, 0.5], [2, 1, 1e308]]
    rows[1][column] = bad
    with pytest.raises(ss.InvalidParameterError):
        serialize.dumps({"entries": rows})


@pytest.mark.parametrize("table", ["uavs", "entries"])
def test_scenario_tables_take_the_format_path(table, monkeypatch):
    swarm = ss.generate_swarm(30, 0.5, 0.3, seed=1)
    swarm = ss.Swarm(tuple(ss.Uav(u.id, u.true_pos, u.reported_pos, u.id % 7 == 0) for u in swarm.uavs),
                     swarm.comm_range, swarm.cube_half_width, swarm.rng_seed)
    rows = {"uavs": serialize.swarm_to_dict(swarm)["uavs"],
            "entries": serialize.measurements_to_dict(ss.measure_distances(swarm, ss.NoiseParams(), seed=1))["entries"]}
    expected = reference(rows[table])
    monkeypatch.setattr(serialize, "_compact", None)   # the C encoder is not called
    assert serialize.dumps(rows[table]) == expected


@pytest.mark.parametrize("tree", [
    [], {}, [[]], [[], [1]], [[1], []], [[1], 2], [1, [2]], [[1, [2]], [3]], [[[1]]], [[1], [[2]]],
    [[1, 2], [3]], [[{}], [1]], [{}], {"a": [["x", 1], [2]]}, {"k": '],[{"x": 1}],['}, ["a,b", "]"],
    [["x,y", 1], [2]], [[1, "],["], [2]],
    {"a": [[1.5e-300, -0.0, True, None, 10**30]]}, {1: [2], 3: {"b": ()}},
    [[[1, 2], 0], [[3], 1], [[4, 5, 6], 2]], [[True, 1], [False, 2.5]], [[1, None], [2, 3]],
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
