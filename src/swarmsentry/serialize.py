"""JSON encoding/decoding for every wire type.

Formats are documented in the README.  Floats round-trip exactly via repr;
entry lists are emitted in sorted order so serialization is byte-stable.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .attacks import AttackPlan, AttackedScenario
from .detectors import DetectionResult
from .sdp import FeasibilityProblem, OracleResult
from .suspects import SuspectSets
from .swarm import InvalidParameterError, MeasurementSet, Swarm, Uav


def _decoder(fn):
    """Report a missing or mistyped key in decoded data as InvalidParameterError."""

    @functools.wraps(fn)
    def wrapper(data):
        try:
            return fn(data)
        except InvalidParameterError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise InvalidParameterError(f"{fn.__name__}: malformed input ({exc!r})") from exc

    return wrapper


def swarm_to_dict(swarm: Swarm) -> dict:
    return {
        "n": swarm.n,
        "comm_range": swarm.comm_range,
        "cube_half_width": swarm.cube_half_width,
        "rng_seed": swarm.rng_seed,
        "uavs": [
            {
                "id": u.id,
                "true_pos": u.true_pos.tolist(),
                "reported_pos": u.reported_pos.tolist(),
                "malicious": u.ground_truth_malicious,
            }
            for u in swarm.uavs
        ],
    }


@_decoder
def swarm_from_dict(data: dict) -> Swarm:
    uavs = tuple(
        Uav(
            id=u["id"],   # as decoded: ``Swarm`` rejects any id that is not an integer
            true_pos=np.array(u["true_pos"], dtype=float),
            reported_pos=np.array(u["reported_pos"], dtype=float),
            ground_truth_malicious=bool(u.get("malicious", False)),
        )
        for u in data["uavs"]
    )
    return Swarm(
        uavs=uavs,
        comm_range=float(data["comm_range"]),
        cube_half_width=float(data.get("cube_half_width", 0.5)),
        rng_seed=int(data.get("rng_seed", 0)),
    )


def measurements_to_dict(ms: MeasurementSet) -> dict:
    return {
        "n": ms.n,
        "entries": [[i, j, r] for (i, j, r) in ms.directed_pairs()],
    }


@_decoder
def measurements_from_dict(data: dict) -> MeasurementSet:
    # Ids pass as decoded: ``MeasurementSet`` rejects any that is not an integer.
    entries = {(i, j): float(r) for i, j, r in data["entries"]}
    return MeasurementSet(int(data["n"]), entries)


def plan_to_dict(plan: AttackPlan | None) -> dict | None:
    if plan is None:
        return None
    return {
        "kind": plan.kind,
        "malicious_ids": sorted(plan.malicious_ids),
        "seed": plan.seed,
        "fake_offset_min": plan.fake_offset_min,
        "target": plan.target,
        "distributed_ids": sorted(plan.distributed_ids) if plan.distributed_ids is not None else None,
        "collusion_ids": sorted(plan.collusion_ids) if plan.collusion_ids is not None else None,
    }


@_decoder
def plan_from_dict(data: dict | None) -> AttackPlan | None:
    if data is None:
        return None
    return AttackPlan(
        kind=data["kind"],
        malicious_ids=frozenset(data["malicious_ids"]),
        seed=int(data["seed"]),
        fake_offset_min=data.get("fake_offset_min"),
        target=data.get("target"),
        distributed_ids=frozenset(data["distributed_ids"]) if data.get("distributed_ids") is not None else None,
        collusion_ids=frozenset(data["collusion_ids"]) if data.get("collusion_ids") is not None else None,
    )


def scenario_to_dict(scenario: AttackedScenario) -> dict:
    return {
        "swarm": swarm_to_dict(scenario.swarm),
        "measurements": measurements_to_dict(scenario.measurements),
        "plan": plan_to_dict(scenario.plan),
    }


@_decoder
def scenario_from_dict(data: dict) -> AttackedScenario:
    swarm, plan = swarm_from_dict(data["swarm"]), plan_from_dict(data.get("plan"))
    if plan is not None and plan.malicious_ids != swarm.malicious_ids():
        raise InvalidParameterError("the plan's malicious_ids differ from the swarm's malicious flags")
    return AttackedScenario(swarm=swarm, measurements=measurements_from_dict(data["measurements"]), plan=plan)


def suspects_to_dict(sets: SuspectSets) -> dict:
    return {"suspected": list(sets.suspected), "trusted": list(sets.trusted)}


def problem_to_dict(problem: FeasibilityProblem) -> dict:
    return {
        "node_order": list(problem.node_order),
        "reported_positions": {str(k): list(v) for k, v in sorted(problem.reported_positions.items())},
        "constraint_pairs": [[i, j, r] for (i, j, r) in problem.constraint_pairs],
        "comm_range": problem.comm_range,
        "epsilon": problem.epsilon,
        "strictness_margin": problem.strictness_margin,
        "window_sq": problem.window_sq,
    }


@_decoder
def problem_from_dict(data: dict) -> FeasibilityProblem:
    return FeasibilityProblem(
        # Ids pass as decoded: ``FeasibilityProblem`` rejects any that is not an integer.
        node_order=tuple(data["node_order"]),
        reported_positions={int(k): np.array(v, dtype=float) for k, v in data["reported_positions"].items()},
        constraint_pairs=tuple((i, j, float(r)) for i, j, r in data["constraint_pairs"]),
        comm_range=float(data["comm_range"]),
        epsilon=float(data["epsilon"]),
        strictness_margin=float(data["strictness_margin"]),
        window_sq=float(data["window_sq"]),
    )


def problem_dump(problem: FeasibilityProblem) -> dict:
    """Solver-independent dump: dense constraint matrices plus bound records.

    Each measured pair contributes one dense rank-one matrix (row-major) and
    three bound records; each node contributes its displacement record.  The
    identity corner block is one structural record.  Intended for
    cross-validation against external conic solvers.
    """
    from .sdp import pair_constraint_matrix

    local = {uid: k for k, uid in enumerate(problem.node_order)}
    n = problem.n_sub
    d, eps = problem.comm_range, problem.epsilon
    delta, w = problem.strictness_margin, problem.window_sq
    functionals = []
    constraints = []
    for (i, j, r) in problem.constraint_pairs:
        mat = pair_constraint_matrix(problem.reported_positions[j], local[i], n)
        functionals.append({"i": i, "j": j, "matrix_row_major": [float(x) for x in mat.ravel()]})
        constraints.append(("range_upper", i, j, d * d - delta))
        constraints.append(("window_upper", i, j, r * r + w - delta))
        constraints.append(("window_lower", i, j, r * r - w + delta))
    for uid in problem.node_order:
        mat = pair_constraint_matrix(problem.reported_positions[uid], local[uid], n)
        functionals.append({"i": uid, "j": uid, "matrix_row_major": [float(x) for x in mat.ravel()]})
        constraints.append(("self_upper", uid, uid, eps))
    constraints.append(("identity_block", -1, -1, 1.0))
    return {
        "dimension": 3 + n,
        "node_order": list(problem.node_order),
        "functionals": functionals,
        "constraints": [list(c) for c in constraints],
    }


def oracle_result_to_dict(result: OracleResult) -> dict:
    return {
        "status": result.status,
        "phase1_slack": result.phase1_slack,
        "max_residual": result.max_residual,
        "recovered_positions": (
            {str(k): list(v) for k, v in sorted(result.recovered_positions.items())}
            if result.recovered_positions is not None
            else None
        ),
        "rank_gap": result.rank_gap,
        "diagnostics": dict(result.diagnostics),
    }


def detection_to_dict(result: DetectionResult, initial: SuspectSets | None = None) -> dict:
    out = {
        "predicted_malicious": sorted(result.predicted_malicious),
        "iterations": result.iterations,
        "oracle_calls": result.oracle_calls,
        "passes": result.passes,
        "flags": list(result.flags),
        "per_iteration_trace": [list(t) for t in result.per_iteration_trace],
    }
    if initial is not None:
        out["initial"] = suspects_to_dict(initial)
    return out


def dumps(data: dict) -> str:
    """Canonical JSON text: sorted keys, stable float repr, trailing newline.

    Byte-identical to ``json.dumps(data, sort_keys=True, indent=2) + "\\n"``,
    which runs json's pure-Python encoder (any indent does); lists go to the
    C encoder here.  NaN and infinities raise InvalidParameterError.
    """
    try:
        return _encode(data, "\n") + "\n"
    except (ValueError, RecursionError) as exc:   # RecursionError: a dict that holds itself
        raise InvalidParameterError(f"cannot encode as JSON: {exc}") from exc


_compact = json.JSONEncoder(separators=(",", ":"), sort_keys=True, allow_nan=False).encode


def _encode(value, newline: str) -> str:
    """``value`` as indented JSON; ``newline`` is a newline plus the
    indentation of the line ``value`` starts on."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sorted(value.items())
        return "{" + ",".join(f"{inner}{_key(k)}: {_encode(v, inner)}" for k, v in items) + newline + "}"
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    text = _compact(value)
    if not isinstance(value, (list, tuple)) or text == "[]":
        return text
    if '"' not in text:
        # No strings (so no non-empty dicts): every token is a number, a
        # literal or {}, and a flat list or a list of non-empty flat rows is
        # indented by replacing its punctuation.
        if "[" not in text[1:]:
            return "[" + inner + text[1:-1].replace(",", "," + inner) + newline + "]"
        rows = text[2:-2]
        if text[1] == "[" and text[-2] == "]" and "[]" not in text and "[" not in rows.replace("],[", ""):
            row = inner + "  "
            rows = rows.replace(",", "," + row).replace("]," + row + "[", inner + "]," + inner + "[" + row)
            return "[" + inner + "[" + row + rows + inner + "]" + newline + "]"
    return "[" + ",".join(inner + _encode(v, inner) for v in value) + newline + "]"


def _key(key) -> str:
    """A dict key as json writes it: non-string keys become strings."""
    return json.encoder.encode_basestring_ascii(key) if isinstance(key, str) else _compact({key: 0})[1:-3]


def load_path(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"{path}: not valid JSON ({exc})") from exc


def dump_path(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(data))
