"""Command-line interface.

Subcommands mirror the pipeline stages: ``generate`` a noisy swarm,
``attack`` it, ``detect`` attackers, ``sweep`` a Monte-Carlo experiment, and
``oracle-check`` a dumped feasibility problem.  All outputs are JSON or CSV
and byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import sys

from . import serialize
from .attacks import ATTACK_KINDS, build_attack
from .detectors import ALGORITHMS, ECDI, DetectionContext, DetectorOptions, detect
from .experiments import ExperimentConfig, preset, rows_to_csv, rows_to_plot_data, run_sweep
from .sdp import check_feasibility
from .swarm import InvalidParameterError, NoiseParams, apply_position_noise, generate_swarm, measure_distances


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_generate(args) -> int:
    noise = NoiseParams(args.pos_var, args.dist_var)
    swarm = generate_swarm(args.n, args.cube_half_width, args.comm_range, args.seed)
    swarm = apply_position_noise(swarm, noise, args.seed)
    measurements = measure_distances(swarm, noise, args.seed)
    payload = {
        "swarm": serialize.swarm_to_dict(swarm),
        "measurements": serialize.measurements_to_dict(measurements),
    }
    _write(args.out, serialize.dumps(payload))
    return 0


def cmd_attack(args) -> int:
    swarm, measurements = serialize.generated_from_dict(serialize.load_path(args.input))
    scenario = build_attack(
        swarm,
        measurements,
        args.kind,
        args.malicious_count,
        args.seed,
        dist_var=args.dist_var,
        fake_offset_min=args.fake_offset_min,
        target=args.target,
    )
    _write(args.out, serialize.dumps(serialize.scenario_to_dict(scenario)))
    return 0


def cmd_detect(args) -> int:
    scenario = serialize.scenario_from_dict(serialize.load_path(args.input))
    options = DetectorOptions(paper_replication=args.paper_replication)
    context = DetectionContext(scenario, options)
    result = detect(args.algo, scenario, context.initial, options, args.malicious_count, args.seed, context=context)
    payload = serialize.detection_to_dict(result, context.initial)
    payload["algorithm"] = args.algo
    if scenario.plan is not None:
        payload["ground_truth_malicious"] = sorted(scenario.truth())
    _write(args.out, serialize.dumps(payload))
    return 0


def cmd_sweep(args) -> int:
    if args.config:
        config = ExperimentConfig.from_dict(serialize.load_path(args.config))
    elif args.preset:
        config = preset(args.preset, attack=args.attack)
    else:
        raise InvalidParameterError("sweep needs --config or --preset")
    if args.seed is not None:
        config = ExperimentConfig.from_dict({**config.to_dict(), "base_seed": args.seed})
    if args.trials is not None:
        config = ExperimentConfig.from_dict({**config.to_dict(), "trials_per_point": args.trials})
    rows = run_sweep(config, jobs=args.jobs)
    _write(args.out, rows_to_csv(rows))
    if args.plot_data:
        _write(args.plot_data, rows_to_plot_data(rows))
    return 0


def cmd_oracle_check(args) -> int:
    data = serialize.load_path(args.input)
    problem = serialize.problem_from_dict(data)
    result = check_feasibility(problem)
    payload = serialize.oracle_result_to_dict(result)
    _write(args.out, serialize.dumps(payload))
    if args.dump:
        serialize.dump_path(args.dump, serialize.problem_dump(problem))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmsentry",
        description="Detect position-spoofing UAVs in cooperative swarms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a noisy swarm and its measurements")
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--cube-half-width", type=float, default=0.5)
    p.add_argument("--comm-range", type=float, default=0.3)
    p.add_argument("--pos-var", type=float, default=1e-6)
    p.add_argument("--dist-var", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("attack", help="inject a spoofing attack into a generated swarm")
    p.add_argument("input", help="swarm JSON from `generate`")
    p.add_argument("--kind", choices=ATTACK_KINDS, default="distributed")
    p.add_argument("--malicious-count", type=int, default=4)
    p.add_argument("--target", type=int, default=None, help="collusion target (default: highest-degree benign)")
    p.add_argument("--fake-offset-min", type=float, default=None)
    p.add_argument("--dist-var", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("detect", help="run a detector on an attacked scenario")
    p.add_argument("input", help="scenario JSON from `attack`")
    p.add_argument("--algo", choices=ALGORITHMS, default=ECDI)
    p.add_argument("--malicious-count", type=int, default=None, help="true attacker count (baselines only)")
    p.add_argument("--paper-replication", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("sweep", help="run a Monte-Carlo sweep and write CSV")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--preset", choices=("attacker_count", "network_scale", "dist_noise", "comm_range"))
    p.add_argument("--attack", choices=ATTACK_KINDS, default="distributed")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--plot-data", default=None, help="also write gnuplot-style data here")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle-check", help="decide feasibility of a dumped problem")
    p.add_argument("input", help="feasibility problem JSON")
    p.add_argument("--dump", default=None, help="write the dense constraint dump here")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
