"""JSON encoding/decoding for every wire type.

Formats are documented in the README.  Floats round-trip exactly via repr;
entry lists are emitted in sorted order so serialization is byte-stable.
"""

from __future__ import annotations

import functools
import json
from itertools import chain

import numpy as np

from . import conic
from .attacks import AttackPlan, AttackedScenario
from .detectors import DetectionResult
from .sdp import FeasibilityProblem, OracleResult
from .suspects import SuspectSets
from .swarm import InvalidParameterError, MeasurementSet, Swarm, _uavs_from_rows


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
    true, reported = swarm.true_positions().tolist(), swarm.reported_positions().tolist()
    return {
        "n": swarm.n,
        "comm_range": swarm.comm_range,
        "cube_half_width": swarm.cube_half_width,
        "rng_seed": swarm.rng_seed,
        "uavs": [
            {"id": u.id, "true_pos": t, "reported_pos": r, "malicious": u.ground_truth_malicious}
            for u, t, r in zip(swarm.uavs, true, reported)
        ],
    }


_NUMBER, _INTEGER, _BOOLEAN = frozenset({int, float}), frozenset({int}), frozenset({bool})


def _typed(values: list, types: frozenset, rule: str) -> list:
    """``values`` as decoded, when each one's exact type is in ``types``.
    JSON values are never converted: ``float`` and ``int`` would read "0.3"
    and true as numbers and 6.7 as 6, and ``bool`` "false" as true."""
    if not {*map(type, values)} <= types:
        raise InvalidParameterError(f"{rule}, got {next(v for v in values if type(v) not in types)!r}")
    return values


@_decoder
def swarm_from_dict(data: dict) -> Swarm:
    uavs = data["uavs"]
    if "n" in data and _typed([data["n"]], _INTEGER, "n must be a JSON integer")[0] != len(uavs):
        raise InvalidParameterError(f"n must be the UAV count {len(uavs)}, got {data['n']!r}")
    true, reported = [u["true_pos"] for u in uavs], [u["reported_pos"] for u in uavs]
    _typed([*chain.from_iterable(true + reported)], _NUMBER, "UAV positions must hold JSON numbers")
    comm_range, half_width = _typed([data["comm_range"], data.get("cube_half_width", 0.5)], _NUMBER,
                                    "comm_range and cube_half_width must be JSON numbers")
    return Swarm(
        # Ids as decoded: ``Swarm`` rejects any id that is not an integer.
        uavs=_uavs_from_rows(
            [u["id"] for u in uavs], true, reported,
            _typed([u.get("malicious", False) for u in uavs], _BOOLEAN, "malicious must be a JSON boolean"),
        ),
        comm_range=float(comm_range),
        cube_half_width=float(half_width),
        rng_seed=_typed([data.get("rng_seed", 0)], _INTEGER, "rng_seed must be a JSON integer")[0],
    )


def measurements_to_dict(ms: MeasurementSet) -> dict:
    o = ms.order
    # One object array holds the Python ints and floats of every row.
    return {"n": ms.n, "entries": np.stack([ms.src[o], ms.dst[o], ms.r[o]], axis=1, dtype=object).tolist()}


@_decoder
def measurements_from_dict(data: dict) -> MeasurementSet:
    n, rows = _typed([data["n"]], _INTEGER, "n must be a JSON integer")[0], data["entries"]
    if rows and set(map(len, rows)) != {3}:
        raise ValueError("each entry must be an [i, j, r] row")
    items = [*chain.from_iterable(rows)]
    r = _typed(items[2::3], _NUMBER, "measured distances must be JSON numbers")
    # Ids pass as decoded: ``MeasurementSet`` rejects any that is not an integer.
    return MeasurementSet(n, items[0::3], items[1::3], np.array(r, dtype=float))


@_decoder
def generated_from_dict(data: dict) -> tuple[Swarm, MeasurementSet]:
    """The swarm and measurements of a ``generate`` output."""
    return swarm_from_dict(data["swarm"]), measurements_from_dict(data["measurements"])


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
        seed=_typed([data["seed"]], _INTEGER, "the plan's seed must be a JSON integer")[0],
        fake_offset_min=_typed([data.get("fake_offset_min")], _NUMBER | {type(None)},
                               "the plan's fake_offset_min must be a JSON number or null")[0],
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
        "reported_positions": {str(k): np.asarray(v).tolist() for k, v in sorted(problem.reported_positions.items())},
        "constraint_pairs": [[i, j, r] for (i, j, r) in problem.constraint_pairs],
        "comm_range": problem.comm_range,
        "epsilon": problem.epsilon,
        "strictness_margin": problem.strictness_margin,
        "window_sq": problem.window_sq,
    }


def _id_key(key: str) -> int:
    """The UAV id that a JSON object key names.  A key names an id only when
    it is exactly the text ``str`` writes for it: ``int`` alone would also
    read "0_1" as 1 and " 3" as 3."""
    uid = int(key)
    if str(uid) != key:
        raise InvalidParameterError(f"UAV id keys must be integers written as str writes them, got {key!r}")
    return uid


@_decoder
def problem_from_dict(data: dict) -> FeasibilityProblem:
    positions = data["reported_positions"]
    _typed([*chain.from_iterable(positions.values())], _NUMBER, "reported positions must hold JSON numbers")
    pairs = [(i, j, r) for i, j, r in data["constraint_pairs"]]
    _typed([r for _i, _j, r in pairs], _NUMBER, "claimed distances must be JSON numbers")
    settings = _typed([data["comm_range"], data["epsilon"], data["strictness_margin"], data["window_sq"]], _NUMBER,
                      "comm_range, epsilon, strictness_margin and window_sq must be JSON numbers")
    comm_range, epsilon, margin, window_sq = map(float, settings)
    return FeasibilityProblem(
        # Ids pass as decoded: ``FeasibilityProblem`` rejects any that is not an integer.
        node_order=tuple(data["node_order"]),
        reported_positions={_id_key(k): np.array(v, dtype=float) for k, v in positions.items()},
        constraint_pairs=tuple((i, j, float(r)) for i, j, r in pairs),
        comm_range=comm_range,
        epsilon=epsilon,
        strictness_margin=margin,
        window_sq=window_sq,
    )


def problem_dump(problem: FeasibilityProblem) -> dict:
    """Solver-independent dump: dense constraint matrices plus bound records.

    Each measured pair contributes one dense rank-one matrix (row-major) and
    three bound records, the oracle's own (``conic.claim_bounds``); each node
    contributes its displacement record.  The identity corner block is one
    structural record.  Intended for cross-validation against external
    conic solvers.
    """
    from .sdp import pair_constraint_matrix

    local = {uid: k for k, uid in enumerate(problem.node_order)}
    n = problem.n_sub
    functionals = []
    constraints = []
    for (i, j, r) in problem.constraint_pairs:
        mat = pair_constraint_matrix(problem.reported_positions[j], local[i], n)
        functionals.append({"i": i, "j": j, "matrix_row_major": [float(x) for x in mat.ravel()]})
        bounds = conic.claim_bounds(r, problem.comm_range, problem.strictness_margin, problem.window_sq)
        constraints += [(kind, i, j, b) for kind, b in zip(("range_upper", "window_upper", "window_lower"), bounds)]
    for uid in problem.node_order:
        mat = pair_constraint_matrix(problem.reported_positions[uid], local[uid], n)
        functionals.append({"i": uid, "j": uid, "matrix_row_major": [float(x) for x in mat.ravel()]})
        constraints.append(("self_upper", uid, uid, problem.epsilon))
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

    Byte-identical to ``json.dumps(data, sort_keys=True, indent=2) + "\\n"``
    (pure-Python json, as any indent is).  Tables take one %-format (_table)
    and other lists the C encoder; NaN and infinities raise InvalidParameterError.
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
    if type(value) is list and value and (rows := _table(value, inner)) is not None:
        return "[" + rows + newline + "]"
    text = _compact(value)
    if not isinstance(value, (list, tuple)) or text == "[]":
        return text
    if '"' not in text and "[" not in text[1:]:
        # A flat list of numbers, literals and {}: indented at its commas.
        return "[" + inner + text[1:-1].replace(",", "," + inner) + newline + "]"
    return "[" + ",".join(inner + _encode(v, inner) for v in value) + newline + "]"


def _table(value: list, inner: str) -> str | None:
    """The items of ``value`` as indented JSON lines when ``value`` is a
    table: rows (lists of one length) or records (dicts with one key set)
    whose every column holds exact ints and floats, bools, or lists of
    one length of ints and floats (the measurement entries and the UAV list).
    One %-format of a repeated row template writes them: %r writes a number
    as json does.  None for any other list, and when the text holds an n, as
    "inf" and "nan" do: the per-item path then refuses them."""
    first, kinds = value[0], {*map(type, value)}
    # ``flat`` holds the cells row by row.
    if kinds == {list} and first and len({*map(len, value)}) == 1:
        heads, brackets, flat = [""] * len(first), "[]", [*chain.from_iterable(value)]
    elif kinds == {dict} and first and all(r.keys() == first.keys() for r in value):
        keys = sorted(first)
        heads, brackets = [_key(k).replace("%", "%%") + ": " for k in keys], "{}"
        flat = [r[k] for r in value for k in keys]
    else:
        return None
    field, item = inner + "  ", inner + "    "
    parts, leaves = [], []
    for t in range(len(heads)):
        column = flat[t::len(heads)]
        types = {*map(type, column)}
        if types <= _NUMBER:
            parts.append("%r")
            leaves.append(column)
        elif types == {bool}:
            parts.append("%s")
            leaves.append(["true" if b else "false" for b in column])
        elif types == {list} and column[0] and len({*map(len, column)}) == 1:
            width, numbers = len(column[0]), [*chain.from_iterable(column)]
            if not {*map(type, numbers)} <= _NUMBER:
                return None
            parts.append("[" + item + ("," + item).join(["%r"] * width) + field + "]")
            leaves += [numbers[i::width] for i in range(width)]
        else:
            return None
    # One cell per leaf, row by row.
    cells = [None] * (len(value) * len(leaves))
    for t, leaf in enumerate(leaves):
        cells[t::len(leaves)] = leaf
    row = inner + brackets[0] + ",".join(field + h + p for h, p in zip(heads, parts)) + inner + brackets[1]
    text = ",".join([row] * len(value)) % tuple(cells)
    return None if "n" in text else text


def _key(key) -> str:
    """A dict key as json writes it: non-string keys become strings."""
    return json.encoder.encode_basestring_ascii(key) if isinstance(key, str) else _compact({key: 0})[1:-3]


def load_path(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise InvalidParameterError(f"{path}: not UTF-8 text ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise InvalidParameterError(f"{path}: JSON nested too deeply to read") from exc


def dump_path(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(data))
