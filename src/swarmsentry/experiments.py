"""Monte-Carlo sweeps: attack scenarios, detection runs, aggregated metrics.

A sweep varies exactly one dimension (attacker count, swarm size, distance
noise, or measurement range), runs a fixed number of independent trials per
point, and averages precision/recall/F1 per algorithm.  Everything is seeded;
the CSV output is byte-stable across runs.
"""

from __future__ import annotations

import concurrent.futures
import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import seeds
from .attacks import ATTACK_KINDS, build_attack
from .detectors import ALGORITHMS, CDI, ECDI, DetectionContext, DetectorOptions, detect
from .metrics import malicious_ratio, precision_recall_f1
from .suspects import build_reported_matrix, initial_suspects
from .swarm import InvalidParameterError, NoiseParams, _is_id, apply_position_noise, generate_swarm, measure_distances

SWEEP_PARAMS = ("malicious_count", "n_uavs", "dist_var", "comm_range")

CSV_HEADER = "sweep_param,value,algorithm,precision,recall,f1,r_m,trials,oracle_calls,runtime_ms"


@dataclass(frozen=True)
class ExperimentConfig:
    sweep_param: str = "malicious_count"
    sweep_values: tuple = (2, 3, 4, 5, 6)
    attack: str = "distributed"
    n_uavs: int = 30
    malicious_count: int = 4
    comm_range: float = 0.3
    cube_half_width: float = 0.5
    pos_var: float = 1e-6
    dist_var: float = 1e-6
    fake_offset_min: float | None = None
    trials_per_point: int = 20
    base_seed: int = 1
    algorithms: tuple[str, ...] = ALGORITHMS
    paper_replication: bool = False
    timing: bool = False   # wall-clock runtime breaks byte-determinism; opt-in

    def __post_init__(self):
        if self.sweep_param not in SWEEP_PARAMS:
            raise InvalidParameterError(f"sweep_param must be one of {SWEEP_PARAMS}")
        if not self.sweep_values:
            raise InvalidParameterError("sweep_values must be nonempty")
        if self.attack not in ATTACK_KINDS:
            raise InvalidParameterError(f"attack must be one of {ATTACK_KINDS}")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise InvalidParameterError(f"unknown algorithms: {sorted(unknown)}")
        scalars = [("comm_range", self.comm_range), ("cube_half_width", self.cube_half_width),
                   ("pos_var", self.pos_var), ("dist_var", self.dist_var)]
        if self.fake_offset_min is not None:
            scalars.append(("fake_offset_min", self.fake_offset_min))
        if self.sweep_param in ("comm_range", "dist_var"):
            scalars += [(self.sweep_param, v) for v in self.sweep_values]
        for name, value in scalars:
            if not (isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 <= value < math.inf):
                raise InvalidParameterError(f"{name} must be nonnegative and finite, got {value!r}")
        counts = [("n_uavs", self.n_uavs), ("malicious_count", self.malicious_count),
                  ("trials_per_point", self.trials_per_point), ("base_seed", self.base_seed)]
        if self.sweep_param in ("malicious_count", "n_uavs"):
            counts += [(self.sweep_param, v) for v in self.sweep_values]
        for name, value in counts:
            if not (_is_id(value) and value >= 0):
                raise InvalidParameterError(f"{name} must be a nonnegative integer, got {value!r}")
        for name, value in (("paper_replication", self.paper_replication), ("timing", self.timing)):
            if not isinstance(value, bool):
                raise InvalidParameterError(f"{name} must be a boolean, got {value!r}")
        if self.trials_per_point < 1:
            raise InvalidParameterError("trials_per_point must be >= 1")
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))

    def at_point(self, value) -> "ExperimentConfig":
        return replace(self, **{self.sweep_param: value})

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise InvalidParameterError("config must be a JSON object")
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(data) - known
        if unknown:
            raise InvalidParameterError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return {
            "sweep_param": self.sweep_param,
            "sweep_values": list(self.sweep_values),
            "attack": self.attack,
            "n_uavs": self.n_uavs,
            "malicious_count": self.malicious_count,
            "comm_range": self.comm_range,
            "cube_half_width": self.cube_half_width,
            "pos_var": self.pos_var,
            "dist_var": self.dist_var,
            "fake_offset_min": self.fake_offset_min,
            "trials_per_point": self.trials_per_point,
            "base_seed": self.base_seed,
            "algorithms": list(self.algorithms),
            "paper_replication": self.paper_replication,
            "timing": self.timing,
        }


@dataclass(frozen=True)
class AlgoOutcome:
    predicted: frozenset[int]
    precision: float
    recall: float
    f1: float
    oracle_calls: int
    runtime_ms: float


@dataclass(frozen=True)
class TrialResult:
    point_value: object
    trial_index: int
    truth: frozenset[int]
    r_m: float
    outcomes: dict[str, AlgoOutcome] = field(default_factory=dict)


@dataclass(frozen=True)
class MetricsRow:
    sweep_param: str
    value: object
    algorithm: str
    precision: float
    recall: float
    f1: float
    r_m: float
    trials: int
    oracle_calls: float
    runtime_ms: float


def trial_seed(base_seed: int, point_index: int, trial_index: int) -> int:
    seq = np.random.SeedSequence([int(base_seed), seeds.TRIAL, int(point_index), int(trial_index)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def build_scenario(config: ExperimentConfig, seed: int):
    noise = NoiseParams(config.pos_var, config.dist_var)
    swarm = generate_swarm(config.n_uavs, config.cube_half_width, config.comm_range, seed)
    swarm = apply_position_noise(swarm, noise, seed)
    measurements = measure_distances(swarm, noise, seed)
    return build_attack(
        swarm,
        measurements,
        config.attack,
        config.malicious_count,
        seed,
        dist_var=config.dist_var,
        fake_offset_min=config.fake_offset_min,
    )


def run_trial(config: ExperimentConfig, point_index: int, trial_index: int) -> TrialResult:
    """One seeded pipeline execution: generate, corrupt, attack, detect."""
    point = config.at_point(config.sweep_values[point_index])
    seed = trial_seed(config.base_seed, point_index, trial_index)
    scenario = build_scenario(point, seed)
    options = DetectorOptions(paper_replication=point.paper_replication)
    # Every feasibility detector of the trial asks about the same scenario:
    # one context shares its evidence and oracle verdicts, and ends with the
    # trial.  A trial of sampling baselines alone needs only the matrix.
    context = DetectionContext(scenario, options) if {CDI, ECDI} & set(point.algorithms) else None
    initial = (context.initial if context is not None else
               initial_suspects(build_reported_matrix(scenario), scenario.measurements, scenario.swarm.comm_range))
    truth = scenario.truth()
    r_m = malicious_ratio(initial)

    outcomes: dict[str, AlgoOutcome] = {}
    for algo in point.algorithms:
        start = time.perf_counter()
        res = detect(algo, scenario, initial, options, point.malicious_count, seed, context=context)
        elapsed_ms = (time.perf_counter() - start) * 1000.0 if point.timing else 0.0
        p, r, f1 = precision_recall_f1(res.predicted_malicious, truth)
        outcomes[algo] = AlgoOutcome(res.predicted_malicious, p, r, f1, res.oracle_calls, elapsed_ms)
    return TrialResult(config.sweep_values[point_index], trial_index, truth, r_m, outcomes)


def _trial_task(args) -> tuple[int, int, TrialResult]:
    config_dict, point_index, trial_index = args
    config = ExperimentConfig.from_dict(config_dict)
    return point_index, trial_index, run_trial(config, point_index, trial_index)


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> list[MetricsRow]:
    """All points and trials, averaged per (point, algorithm) in fixed order."""
    tasks = [
        (config.to_dict(), pi, ti)
        for pi in range(len(config.sweep_values))
        for ti in range(config.trials_per_point)
    ]
    results: dict[tuple[int, int], TrialResult] = {}
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            for pi, ti, trial in pool.map(_trial_task, tasks, chunksize=1):
                results[(pi, ti)] = trial
    else:
        for args in tasks:
            pi, ti, trial = _trial_task(args)
            results[(pi, ti)] = trial

    rows: list[MetricsRow] = []
    for pi, value in enumerate(config.sweep_values):
        trials = [results[(pi, ti)] for ti in range(config.trials_per_point)]
        r_m = float(np.mean([t.r_m for t in trials]))
        if not config.algorithms:
            # Diagnostics-only sweep: keep the suspect-ratio column alive.
            rows.append(MetricsRow(config.sweep_param, value, "none", 0.0, 0.0, 0.0,
                                   r_m, len(trials), 0.0, 0.0))
            continue
        for algo in config.algorithms:
            outs = [t.outcomes[algo] for t in trials]
            rows.append(
                MetricsRow(
                    sweep_param=config.sweep_param,
                    value=value,
                    algorithm=algo,
                    precision=float(np.mean([o.precision for o in outs])),
                    recall=float(np.mean([o.recall for o in outs])),
                    f1=float(np.mean([o.f1 for o in outs])),
                    r_m=r_m,
                    trials=len(trials),
                    oracle_calls=float(np.mean([o.oracle_calls for o in outs])),
                    runtime_ms=float(np.mean([o.runtime_ms for o in outs])),
                )
            )
    return rows


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def rows_to_csv(rows: list[MetricsRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.sweep_param,
                    _fmt(r.value),
                    r.algorithm,
                    _fmt(r.precision),
                    _fmt(r.recall),
                    _fmt(r.f1),
                    _fmt(r.r_m),
                    str(r.trials),
                    _fmt(r.oracle_calls),
                    _fmt(r.runtime_ms),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_plot_data(rows: list[MetricsRow]) -> str:
    """Gnuplot-friendly layout: one indexed block per algorithm."""
    blocks = []
    algorithms = sorted({r.algorithm for r in rows})
    for algo in algorithms:
        sub = [r for r in rows if r.algorithm == algo]
        lines = [f"# algorithm: {algo}", "# value precision recall f1 r_m"]
        for r in sub:
            lines.append(
                " ".join([_fmt(r.value), _fmt(r.precision), _fmt(r.recall), _fmt(r.f1), _fmt(r.r_m)])
            )
        blocks.append("\n".join(lines))
    return "\n\n\n".join(blocks) + "\n"


# Sweep presets mirroring the evaluation protocol: attacker count, network
# scale, distance noise, and measurement range.
def preset(name: str, attack: str = "distributed", **overrides) -> ExperimentConfig:
    base = {
        "attacker_count": dict(sweep_param="malicious_count", sweep_values=(2, 3, 4, 5, 6)),
        "network_scale": dict(sweep_param="n_uavs", sweep_values=(20, 25, 30, 35, 40)),
        "dist_noise": dict(sweep_param="dist_var", sweep_values=(1e-6, 1e-5, 1e-4, 1e-3)),
        "comm_range": dict(sweep_param="comm_range", sweep_values=(0.25, 0.30, 0.35, 0.40, 0.45)),
    }
    if name not in base:
        raise InvalidParameterError(f"unknown preset {name!r}; choose from {sorted(base)}")
    kwargs = dict(base[name])
    kwargs["attack"] = attack
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)
