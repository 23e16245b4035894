"""Tests of the benchmark's own logic.

Run with ``python3 -m pytest bench/tests``.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from swarmsentry.sdp import FeasibilityProblem  # noqa: E402


def load(name):
    with open(name, encoding="utf-8") as fh:
        return json.load(fh)


SPEC = load(os.path.join(ROOT, "BENCHMARK.json"))
PREDICTIONS = load(os.path.join(BENCH, "predictions.json"))


# ---------------------------------------------------------------------------
# Metric names and units
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["ops_per_s", "sdp.verdict.unknown", "conic.decided.admm", "a-b_c.9"])
def test_metric_name_regex_accepts(name):
    assert tracing.METRIC_NAME.fullmatch(name)


@pytest.mark.parametrize("name", ["", "op p50", "1/s", "f1:cdi", "café"])
def test_metric_name_regex_rejects(name):
    assert not tracing.METRIC_NAME.fullmatch(name)


def test_every_emitted_name_is_valid_and_short():
    names = (list(run.END_TO_END_UNITS) + list(tracing.PER_LAYER_UNITS)
             + list(workloads.WORKLOADS))
    for name in names:
        assert tracing.METRIC_NAME.fullmatch(name) and name[0].isalnum() and len(name) <= 64, name
    assert len(set(names)) == len(names)


def test_spec_matches_what_the_harness_emits():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.BOUNDED)
    for m in SPEC["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
        assert 0 < m["bound"] <= 0.25
    assert max(SPEC["end_to_end"], key=lambda m: m["bound"])["bound"] == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert SPEC["command"][1:] == ["bench/run.py"] and SPEC["paths"] == ["bench"]


def test_predictions_use_known_names():
    layer, e2e = set(tracing.PER_LAYER_UNITS), set(run.END_TO_END_UNITS)
    assert set(PREDICTIONS["workloads"]) == set(workloads.WORKLOADS)
    for row in PREDICTIONS["predictions"]:
        assert set(row["layer_metrics"]) <= layer, row
        assert set(row["end_to_end"]) <= e2e, row
        assert set(row["workloads"]) <= set(workloads.WORKLOADS), row


# ---------------------------------------------------------------------------
# Tail percentile rule
# ---------------------------------------------------------------------------

def test_tail_needs_twenty_samples():
    assert tracing.tail_latency(list(range(19))) is None


@pytest.mark.parametrize("n, index, pct", [(20, 9, 50.0), (100, 89, 90.0), (1000, 989, 99.0)])
def test_tail_leaves_exactly_ten_samples_above(n, index, pct):
    values = [float(v) for v in range(n)][::-1]   # order must not matter
    value, percentile, count = tracing.tail_latency(values)
    assert value == float(index)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(pct)
    assert count == n


# ---------------------------------------------------------------------------
# Self time and nesting
# ---------------------------------------------------------------------------

# (id, parent, op, name, start, end): an op holding a detector run that makes
# two oracle calls, one of which nests a conic stage, plus a neighbor lookup.
SPANS = [
    (2, 1, 0, "sdp.check_feasibility", 2.0, 4.0),
    (3, 2, 0, "conic.refine_witness", 2.5, 3.5),
    (4, 1, 0, "sdp.assemble", 5.0, 5.5),
    (5, 1, 0, "swarm.neighbor_set", 6.0, 6.25),
    (1, 0, 0, "detectors.ecdi", 1.0, 8.0),
    (0, -1, 0, tracing.OP, 0.0, 10.0),
]


def test_self_time_subtracts_direct_children_only():
    selfs = tracing.self_times(SPANS)
    assert selfs[0] == pytest.approx(10.0 - 7.0)
    assert selfs[1] == pytest.approx(7.0 - 2.0 - 0.5 - 0.25)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_time_inside_counts_outermost_inner_spans():
    inner = ("sdp.assemble", "sdp.check_feasibility", "conic.refine_witness")
    assert tracing.time_inside(SPANS, tracing.DETECTOR_RUNS, inner) == pytest.approx(2.5)
    assert tracing.time_inside(SPANS, ("sdp.check_feasibility",), ("conic.refine_witness",)) == 1.0
    assert tracing.time_inside(SPANS, ("nothing",), inner) == 0.0


@pytest.mark.parametrize("status, stages, reason, stage", [
    ("feasible", set(), "", "witness"),
    ("infeasible", set(), "", "pairwise"),
    ("infeasible", {"conic.dual_slack_bound"}, "", "dual"),
    ("unknown", {"conic.dual_slack_bound"}, "slack bracketed inside tolerance gap", "bracketed"),
    ("feasible", {"conic.dual_slack_bound", tracing.ADMM_SPAN}, "", "admm"),
    ("unknown", {tracing.ADMM_SPAN}, "iteration budget exhausted", "budget"),
])
def test_decided_by(status, stages, reason, stage):
    assert tracing.decided_by(status, stages, reason) == stage


# ---------------------------------------------------------------------------
# Repeat-fraction keys
# ---------------------------------------------------------------------------

def problem(ids, pairs):
    return FeasibilityProblem(
        node_order=tuple(ids),
        reported_positions={i: [0.0, 0.0, float(i)] for i in ids},
        constraint_pairs=tuple((i, j, 0.1) for i, j in pairs),
        comm_range=0.3, epsilon=1e-5, strictness_margin=1e-9, window_sq=0.0225,
    )


def test_node_key_is_node_and_sorted_in_network_anchors():
    p = problem([1, 2, 5], [(5, 2), (5, 1), (1, 5)])
    assert tracing.node_keys(p) == [(1, (5,)), (2, ()), (5, (1, 2))]


def test_repeat_counter_within_and_across_scopes():
    rc = tracing.RepeatCounter()
    base = problem([1, 2], [(1, 2), (2, 1)])
    grown = problem([1, 2, 3], [(1, 2), (2, 1), (3, 1)])
    rc.add("run-a", base)      # 2 new nodes, new call
    rc.add("run-a", grown)     # nodes 1 and 2 keep their anchors: 2 repeats
    rc.add("run-a", base)      # whole call repeats
    assert (rc.nodes, rc.node_repeats, rc.calls, rc.call_repeats) == (7, 4, 3, 1)
    rc.add("run-b", base)      # a new scope starts empty
    assert rc.fractions() == pytest.approx((4 / 9, 1 / 4))


# ---------------------------------------------------------------------------
# The command's result line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("trace, names", [
    ("0", [m["name"] for m in SPEC["end_to_end"]]),
    ("1", [m["name"] for m in SPEC["per_layer"]]),
])
def test_result_line(trace, names):
    cmd = [sys.executable, "bench/run.py", "--workload", "scenario_n240", "--seed", "3",
           "--seconds", "0.1", "--trace", trace]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = set(names) - ({"op_tail_ms"} if result["attempted"] < 20 else set())
    assert set(result["metrics"]) == expected


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

def test_acceptance_corpus_is_the_bundle_without_its_consensus_trial():
    wl = workloads.WORKLOADS["acceptance_sweep"]
    corpus = wl.setup(7)
    keys = [(c.sweep_param, c.attack, pi, ti) for c, pi, ti in corpus]
    assert len(set(keys)) == len(keys) == 5 * 20 + 5 * 20 + 4 * 20 + 5 * 20 - 1
    assert ("dist_var", "distributed", 3, 3) not in keys
    assert [(c.sweep_param, pi, ti) for c, pi, ti in wl.setup(7)] == [k[:1] + k[2:] for k in keys]
    assert wl.setup(8)[0] != corpus[0] or wl.setup(9)[0] != corpus[0]


def test_oracle_direct_inputs_follow_the_seed():
    wl = workloads.WORKLOADS["oracle_direct"]
    a, b = wl.setup(4), wl.setup(4)
    for k in range(10):
        (sa, da), (sb, db) = wl.op_input(a, k), wl.op_input(b, k)
        assert da == db == wl.displacements[k % 5]
        assert all((ua.reported_pos == ub.reported_pos).all() for ua, ub in zip(sa.swarm.uavs, sb.swarm.uavs))
