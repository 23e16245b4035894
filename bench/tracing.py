"""Span tracing installed from outside the library, and the per-layer metrics.

Library modules bind names at import (``from .swarm import neighbor_set``),
so a wrapper must replace a function in every module namespace that holds
it, not only where it is defined.  ``patch_everywhere`` does that by object
identity across the loaded ``swarmsentry`` modules and returns an undo list.

Spans live in memory as ``(id, parent, op, name, start, end)`` tuples and
are written out once the run ends.  All derived numbers (self times, time a
layer spends inside another, per-layer metrics) are pure functions of the
span list plus a few counters gathered by result hooks.
"""

from __future__ import annotations

import contextlib
import functools
import json
import re
import sys
import time
from collections import Counter, defaultdict

OP = "bench.op"
DETECTOR_RUNS = ("detectors.cdi", "detectors.ecdi")
DECIDED = ("pairwise", "witness", "dual", "bracketed", "admm", "budget")
VERDICTS = ("feasible", "infeasible", "unknown")
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# (module, function) pairs timed in a traced run.  The span name is
# "<module>.<function>", so the module is the layer.
TRACED_FUNCTIONS = (
    ("swarm", "generate_swarm"),
    ("swarm", "apply_position_noise"),
    ("swarm", "measure_distances"),
    ("swarm", "neighbor_set"),
    ("attacks", "build_attack"),
    ("suspects", "build_reported_matrix"),
    ("suspects", "initial_suspects"),
    ("experiments", "run_trial"),
    ("experiments", "build_scenario"),
    ("detectors", "cdi"),
    ("detectors", "ecdi"),
    ("detectors", "nlos_baseline"),
    ("detectors", "random_baseline"),
    ("sdp", "assemble"),
    ("sdp", "check_feasibility"),
    ("conic", "pairwise_slack_bound"),
    ("conic", "refine_witness"),
    ("conic", "best_gram_surplus"),
    ("conic", "dual_slack_bound"),
    ("conic", "complete_lift"),
    ("serialize", "scenario_to_dict"),
    ("serialize", "scenario_from_dict"),
    ("serialize", "dumps"),
)
ADMM_SPAN = "conic.ConsensusSolver.iterate"

# Per-layer metrics reported by a traced run: name -> unit.  Times and
# counts are per op, so runs of different length compare directly.
PER_LAYER_UNITS = {
    "conic.witness_s": "s/op",
    "conic.pairwise_s": "s/op",
    "conic.surplus_s": "s/op",
    "conic.lift_s": "s/op",
    "conic.dual_s": "s/op",
    "conic.dual_calls": "count/op",
    "conic.admm_s": "s/op",
    "conic.admm_iterations": "count/op",
    **{f"conic.decided.{stage}": "count/op" for stage in DECIDED},
    "sdp.check_s": "s/op",
    "sdp.check_calls": "count/op",
    "sdp.check_self_s": "s/op",
    "sdp.n_sub_mean": "nodes",
    **{f"sdp.verdict.{v}": "count/op" for v in VERDICTS},
    "sdp.node_repeat_frac": "ratio",
    "sdp.call_repeat_frac": "ratio",
    "sdp.assemble_s": "s/op",
    "sdp.assemble_calls": "count/op",
    "detectors.run_s": "s/op",
    "detectors.self_s": "s/op",
    "detectors.oracle_calls": "count/op",
    "detectors.passes": "count/op",
    "detectors.feasible_frac": "ratio",
    "experiments.trial_s": "s/op",
    "experiments.self_s": "s/op",
    "swarm.neighbor_set_s": "s/op",
    "swarm.neighbor_set_calls": "count/op",
    "swarm.measure_s": "s/op",
    "attacks.build_s": "s/op",
    "suspects.init_s": "s/op",
    "serialize.roundtrip_s": "s/op",
    "serialize.bytes": "bytes/op",
    "process.cpu_per_wall": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "swarmsentry" or name.startswith("swarmsentry."))]


def patch_everywhere(module, attr: str, make_wrapper) -> list:
    """Replace ``module.attr`` in every package namespace that binds it.

    Returns ``(namespace, name, original)`` triples for ``undo``.
    """
    current = getattr(module, attr)
    wrapper = make_wrapper(current)
    undo = []
    for mod in package_modules():
        for key, value in list(vars(mod).items()):
            if value is current:
                undo.append((mod, key, value))
                setattr(mod, key, wrapper)
    return undo


def undo(patches: list) -> None:
    for target, key, value in reversed(patches):
        setattr(target, key, value)


def after_call(callback):
    """Wrapper factory that hands every result to ``callback`` and returns it."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            callback(result)
            return result
        return wrapper
    return make


# ---------------------------------------------------------------------------
# Pure derivations over spans
# ---------------------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap and
    their durations add up.
    """
    child = defaultdict(float)
    for sid, parent, _op, _name, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return {sid: (end - start) - child[sid] for sid, _p, _o, _n, start, end in spans}


def time_inside(spans, outer, inner) -> float:
    """Total duration of outermost ``inner`` spans that run under an ``outer`` span."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for _sid, parent, _op, name, start, end in spans:
        if name not in inner:
            continue
        while parent >= 0 and by_id[parent][3] not in inner and by_id[parent][3] not in outer:
            parent = by_id[parent][1]
        if parent >= 0 and by_id[parent][3] in outer:
            total += end - start
    return total


def tail_latency(values):
    """Highest nearest-rank percentile with at least ten samples above it.

    Returns ``(value, percentile, count)``, or ``None`` below 20 samples,
    where the percentile would be the median or lower.
    """
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def node_keys(problem):
    """Per-node subproblem keys: the node id and the sorted ids of the nodes
    it measures against inside the sub-network."""
    anchors = {uid: [] for uid in problem.node_order}
    for i, j, _r in problem.constraint_pairs:
        anchors[i].append(j)
    return [(uid, tuple(sorted(a))) for uid, a in anchors.items()]


class RepeatCounter:
    """How many oracle calls, and per-node subproblems, repeat an earlier one
    within the same scope (one detection run, or one op outside detectors)."""

    def __init__(self):
        self.scope = None
        self.nodes_seen: set = set()
        self.calls_seen: set = set()
        self.nodes = self.node_repeats = self.calls = self.call_repeats = 0

    def add(self, scope, problem) -> None:
        if scope != self.scope:
            self.scope = scope
            self.nodes_seen, self.calls_seen = set(), set()
        for key in node_keys(problem):
            self.nodes += 1
            if key in self.nodes_seen:
                self.node_repeats += 1
            else:
                self.nodes_seen.add(key)
        call = problem.node_order
        self.calls += 1
        if call in self.calls_seen:
            self.call_repeats += 1
        else:
            self.calls_seen.add(call)

    def fractions(self) -> tuple[float, float]:
        return (self.node_repeats / self.nodes if self.nodes else 0.0,
                self.call_repeats / self.calls if self.calls else 0.0)


def decided_by(status: str, stages, reason: str) -> str:
    """Which stage of the phase-I solve settled a call, from the stage spans
    seen under it and the reason note in its diagnostics."""
    if "budget exhausted" in reason or "stalled" in reason or "breakdown" in reason:
        return "budget"
    if "bracketed" in reason:
        return "bracketed"
    if ADMM_SPAN in stages:
        return "admm"
    if "conic.dual_slack_bound" in stages:
        return "dual"
    return "witness" if status == "feasible" else "pairwise"


# ---------------------------------------------------------------------------
# The tracer
# ---------------------------------------------------------------------------

class Tracer:
    """Records spans around library calls while installed (``with tracer:``)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.repeats = RepeatCounter()
        self._stack: list[list] = []      # open frames: [id, name, start, names below]
        self._next_id = 0
        self._op = -1
        self._patches: list = []

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, set()]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((frame[0], parent[0] if parent else -1, self._op, frame[1], frame[2], end))
        if parent is not None:
            parent[3].add(frame[1])
            parent[3] |= frame[3]

    @contextlib.contextmanager
    def op(self, index: int):
        """One benchmark op; library spans nest under it."""
        self._op = index
        frame = self._open(OP)
        try:
            yield
        finally:
            self._close(frame)

    def _timed(self, name: str, hook=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self._stack:  # outside an op: the harness's own checks
                    return fn(*args, **kwargs)
                frame = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(frame)
                if hook is not None:
                    hook(frame, args, kwargs, result)
                return result
            return wrapper
        return make

    # -- result hooks --------------------------------------------------------
    def _in_detector(self) -> bool:
        return any(f[1] in DETECTOR_RUNS for f in self._stack)

    def _scope(self):
        for frame in reversed(self._stack):
            if frame[1] in DETECTOR_RUNS:
                return frame[0]
        return ("op", self._op)

    def _on_assemble(self, frame, args, kwargs, problem) -> None:
        self.repeats.add(self._scope(), problem)

    def _on_check(self, frame, args, kwargs, result) -> None:
        c = self.counters
        problem = args[0] if args else kwargs["problem"]
        c["n_sub_sum"] += problem.n_sub
        c[f"verdict.{result.status}"] += 1
        c["decided." + decided_by(result.status, frame[3], str(result.diagnostics.get("reason", "")))] += 1
        if result.status == "feasible" and result.recovered_positions is None:
            c["feasible_without_positions"] += 1
        if self._in_detector():
            c["detector_checks"] += 1
            c["detector_feasible"] += result.status == "feasible"

    def _on_detect(self, frame, args, kwargs, result) -> None:
        self.counters["passes"] += result.passes

    def _on_dumps(self, frame, args, kwargs, text) -> None:
        self.counters["serialize_bytes"] += len(text.encode("utf-8"))

    def _on_iterate(self, frame, args, kwargs, result) -> None:
        self.counters["admm_iterations"] += args[1] if len(args) > 1 else kwargs["steps"]

    # -- installation ----------------------------------------------------------
    def __enter__(self):
        import swarmsentry.conic as conic
        hooks = {
            "sdp.assemble": self._on_assemble,
            "sdp.check_feasibility": self._on_check,
            "detectors.cdi": self._on_detect,
            "detectors.ecdi": self._on_detect,
            "serialize.dumps": self._on_dumps,
        }
        for mod_name, attr in TRACED_FUNCTIONS:
            module = sys.modules[f"swarmsentry.{mod_name}"]
            name = f"{mod_name}.{attr}"
            self._patches += patch_everywhere(module, attr, self._timed(name, hooks.get(name)))
        original = conic.ConsensusSolver.iterate
        conic.ConsensusSolver.iterate = self._timed(ADMM_SPAN, self._on_iterate)(original)
        self._patches.append((conic.ConsensusSolver, "iterate", original))
        return self

    def __exit__(self, *exc):
        undo(self._patches)
        self._patches = []
        return False

    # -- output ------------------------------------------------------------------
    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op layer metrics from the recorded spans and counters."""
        spans = self.spans
        selfs = self_times(spans)
        total, calls, self_total = defaultdict(float), Counter(), defaultdict(float)
        for sid, _parent, _op, name, start, end in spans:
            total[name] += end - start
            calls[name] += 1
            self_total[name] += selfs[sid]
        c = self.counters
        per = 1.0 / max(n_ops, 1)
        checks = calls["sdp.check_feasibility"]
        run_s = sum(total[n] for n in DETECTOR_RUNS)
        sdp_in_runs = time_inside(spans, DETECTOR_RUNS, ("sdp.assemble", "sdp.check_feasibility"))
        op_ids = {s[0] for s in spans if s[3] == OP}
        op_time = sum(s[5] - s[4] for s in spans if s[3] == OP)
        covered = sum(s[5] - s[4] for s in spans if s[1] in op_ids)
        node_frac, call_frac = self.repeats.fractions()
        m = {
            "conic.witness_s": total["conic.refine_witness"] * per,
            "conic.pairwise_s": total["conic.pairwise_slack_bound"] * per,
            "conic.surplus_s": total["conic.best_gram_surplus"] * per,
            "conic.lift_s": total["conic.complete_lift"] * per,
            "conic.dual_s": total["conic.dual_slack_bound"] * per,
            "conic.dual_calls": calls["conic.dual_slack_bound"] * per,
            "conic.admm_s": total[ADMM_SPAN] * per,
            "conic.admm_iterations": c["admm_iterations"] * per,
            **{f"conic.decided.{s}": c[f"decided.{s}"] * per for s in DECIDED},
            "sdp.check_s": total["sdp.check_feasibility"] * per,
            "sdp.check_calls": checks * per,
            "sdp.check_self_s": self_total["sdp.check_feasibility"] * per,
            "sdp.n_sub_mean": c["n_sub_sum"] / checks if checks else 0.0,
            **{f"sdp.verdict.{v}": c[f"verdict.{v}"] * per for v in VERDICTS},
            "sdp.node_repeat_frac": node_frac,
            "sdp.call_repeat_frac": call_frac,
            "sdp.assemble_s": total["sdp.assemble"] * per,
            "sdp.assemble_calls": calls["sdp.assemble"] * per,
            "detectors.run_s": run_s * per,
            "detectors.self_s": (run_s - sdp_in_runs) * per,
            "detectors.oracle_calls": c["detector_checks"] * per,
            "detectors.passes": c["passes"] * per,
            "detectors.feasible_frac": (c["detector_feasible"] / c["detector_checks"]
                                        if c["detector_checks"] else 0.0),
            "experiments.trial_s": total["experiments.run_trial"] * per,
            "experiments.self_s": self_total["experiments.run_trial"] * per,
            "swarm.neighbor_set_s": total["swarm.neighbor_set"] * per,
            "swarm.neighbor_set_calls": calls["swarm.neighbor_set"] * per,
            "swarm.measure_s": total["swarm.measure_distances"] * per,
            "attacks.build_s": total["attacks.build_attack"] * per,
            "suspects.init_s": (total["suspects.build_reported_matrix"]
                                + total["suspects.initial_suspects"]) * per,
            "serialize.roundtrip_s": (total["serialize.scenario_to_dict"] + total["serialize.dumps"]
                                      + total["serialize.scenario_from_dict"]) * per,
            "serialize.bytes": c["serialize_bytes"] * per,
            "trace.coverage_frac": covered / op_time if op_time > 0 else 0.0,
        }
        return m
