"""The benchmark workloads: inputs made from a seed, one timed op, output checks.

Every workload is a closed loop with one caller: op ``k`` starts when op
``k - 1`` has ended.  ``op_input`` (untimed) builds op ``k``'s input,
``run_op`` (timed) calls the library, ``record`` (untimed) reduces the output
to a small record, and ``check`` tests invariants over all records.

Library functions are always reached through their module attribute
(``sdp.assemble``, never a name imported into this file), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np

from swarmsentry import attacks, detectors, experiments, metrics, sdp, serialize, suspects, swarm

ATTACK_KINDS = ("distributed", "collusion", "mixed")


def sub_seed(seed: int, *path: int) -> int:
    """Deterministic child seed of the workload seed."""
    return int(np.random.SeedSequence([int(seed), *path]).generate_state(1)[0])


def subset(a, b) -> bool:
    return frozenset(a) <= frozenset(b)


def initial_of(scenario):
    e_r = suspects.build_reported_matrix(scenario)
    return suspects.initial_suspects(e_r, scenario.measurements, scenario.swarm.comm_range)


def ratio(num: int, den: int):
    return num / den if den else None


class Workload:
    name = ""
    tag = 0              # separates the seed streams of different workloads
    digest_ops = 1       # the output digest covers this many leading ops

    def setup(self, seed: int):
        raise NotImplementedError

    def op_input(self, state, k: int):
        raise NotImplementedError

    def run_op(self, inp):
        raise NotImplementedError

    def record(self, inp, out) -> dict:
        raise NotImplementedError

    def check(self, records: list[dict]) -> tuple[dict[str, bool], dict]:
        """Invariant name -> passed, and the outcome metrics of the report."""
        raise NotImplementedError

    def captures(self) -> list:
        """``(module, function, callback)`` result captures installed during ops."""
        return []


class SweepN30(Workload):
    """One op is one ``experiments.run_trial`` of the reduced acceptance
    sweep: three attack kinds x malicious_count in {2, 4, 6} at n=30, all
    four algorithms, timing off.  Ops interleave the nine sweep points so any
    prefix of a run has the same mix."""

    name = "sweep_n30"
    tag = 1
    digest_ops = 9
    m_values = (2, 4, 6)

    def __init__(self):
        self._detections: list = []

    def setup(self, seed):
        return [
            experiments.ExperimentConfig(sweep_param="malicious_count", sweep_values=self.m_values,
                                         attack=kind, n_uavs=30, base_seed=seed, timing=False)
            for kind in ATTACK_KINDS
        ]

    def captures(self):
        return [(detectors, "cdi", self._detections.append),
                (detectors, "ecdi", self._detections.append)]

    def op_input(self, configs, k):
        point = k % 9
        return configs[point % 3], point // 3, k // 9

    def run_op(self, inp):
        self._detections.clear()
        config, pi, ti = inp
        return experiments.run_trial(config, pi, ti), list(self._detections)

    def record(self, inp, out):
        config, pi, ti = inp
        trial, runs = out
        point = config.at_point(config.sweep_values[pi])
        scenario = experiments.build_scenario(point, experiments.trial_seed(config.base_seed, pi, ti))
        initial = frozenset(initial_of(scenario).suspected)
        o = trial.outcomes
        feasibility = [o[a].predicted for a in ("cdi", "ecdi") if a in o]
        lines = [
            f"{config.sweep_param},{config.attack},{point.malicious_count},{trial.point_value!r},{ti},"
            f"{algo},{a.precision!r},{a.recall!r},{a.f1!r},{a.oracle_calls},"
            f"{' '.join(map(str, sorted(a.predicted)))}"
            for algo, a in o.items()
        ] + [repr(r.per_iteration_trace) for r in runs]
        rec = {
            "lines": lines,
            "unknown": any("oracle-unknown" in r.flags for r in runs),
            "in_initial": all(subset(p, initial) for p in feasibility),
            "ecdi_in_cdi": len(feasibility) < 2 or subset(o["ecdi"].predicted, o["cdi"].predicted),
        }
        rec.update({f"f1_{a}": o[a].f1 for a in ("cdi", "ecdi") if a in o})
        return rec

    def check(self, records):
        checks = {
            "predicted_within_initial": all(r["in_initial"] for r in records),
            "ecdi_within_cdi": all(r["ecdi_in_cdi"] for r in records),
        }
        f1 = {}
        for key in ("f1_cdi", "f1_ecdi"):
            values = [r[key] for r in records if key in r]
            if values:
                f1[key] = float(np.mean(values))
        return checks, f1


class AcceptanceSweep(SweepN30):
    """One op is one ``experiments.run_trial`` from the project's acceptance
    sweep bundle: the four configs of ``tests/test_acceptance.py`` (attacker
    count, collusion, distance noise and range sweeps at n=30, with their
    fixed base seeds).  Trials are ordered so that every 19 consecutive ones
    cover each sweep point once; the seed picks where in that cycle a run
    starts.

    One of the bundle's 380 trials is left out: its oracle calls run the
    consensus matrix iteration (42350 iterations, about 50 s, where a trial
    otherwise takes about 0.7 s), and one such op in a 60 s window swamps
    every run that holds it.  That path is measured, unbounded, by sweep_n30
    and oracle_direct."""

    name = "acceptance_sweep"
    tag = 5
    digest_ops = 19
    consensus_trials = {("dist_var", 3, 3)}   # (sweep_param, point index, trial index)

    def setup(self, seed):
        configs = [
            experiments.ExperimentConfig(sweep_param="malicious_count", sweep_values=(2, 3, 4, 5, 6),
                                         attack="distributed", trials_per_point=20, base_seed=3),
            experiments.ExperimentConfig(sweep_param="malicious_count", sweep_values=(2, 3, 4, 5, 6),
                                         attack="collusion", trials_per_point=20, base_seed=4,
                                         algorithms=("ecdi", "nlos", "random")),
            experiments.ExperimentConfig(sweep_param="dist_var", sweep_values=(1e-6, 1e-5, 1e-4, 1e-3),
                                         attack="distributed", trials_per_point=20, base_seed=4),
            experiments.ExperimentConfig(sweep_param="comm_range", sweep_values=(0.25, 0.30, 0.35, 0.40, 0.45),
                                         attack="distributed", trials_per_point=20, base_seed=1,
                                         algorithms=("cdi", "ecdi")),
        ]
        corpus = [(config, pi, ti)
                  for ti in range(20)
                  for config in configs
                  for pi in range(len(config.sweep_values))
                  if (config.sweep_param, pi, ti) not in self.consensus_trials]
        start = int(np.random.default_rng(sub_seed(seed, self.tag)).integers(len(corpus)))
        return corpus[start:] + corpus[:start]

    def op_input(self, corpus, k):
        return corpus[k % len(corpus)]


class DetectN120(Workload):
    """One op is one ``ecdi`` on a pre-built n=120 scenario (collusion and
    mixed attacks, m=8, alternating)."""

    name = "detect_n120"
    tag = 2
    digest_ops = 1
    pool = 6
    kinds = ("collusion", "mixed")

    def setup(self, seed):
        pool = []
        for i in range(self.pool):
            config = experiments.ExperimentConfig(attack=self.kinds[i % 2], n_uavs=120, malicious_count=8)
            scenario = experiments.build_scenario(config, sub_seed(seed, self.tag, i))
            pool.append((scenario, initial_of(scenario)))
        return pool

    def op_input(self, pool, k):
        return pool[k % len(pool)]

    def run_op(self, inp):
        scenario, initial = inp
        return detectors.ecdi(initial, scenario)

    def record(self, inp, out):
        scenario, initial = inp
        return {
            "lines": [" ".join(map(str, sorted(out.predicted_malicious))), repr(out.per_iteration_trace)],
            "f1_ecdi": metrics.precision_recall_f1(out.predicted_malicious, scenario.truth())[2],
            "unknown": "oracle-unknown" in out.flags,
            "in_initial": subset(out.predicted_malicious, initial.suspected),
        }

    def check(self, records):
        checks = {"predicted_within_initial": all(r["in_initial"] for r in records)}
        return checks, {"f1_ecdi": float(np.mean([r["f1_ecdi"] for r in records]))}


class OracleDirect(Workload):
    """One op is one ``sdp.assemble`` + ``check_feasibility`` on a whole honest
    swarm (n in {20, 40}) with one report displaced.  Op ``k`` uses base
    swarm ``k // 5`` (cycled) and displacement ``k % 5``; the displaced node
    (one with at least three neighbours) and direction are drawn per op, so
    no two calls are the same."""

    name = "oracle_direct"
    tag = 3
    digest_ops = 20
    displacements = (0.0, 0.02, 0.04, 0.06, 0.61)
    bases = 20
    # Acceptance floors: honest instances come back feasible, 0.61-displaced
    # ones come back not feasible.
    honest_floor = 0.99
    displaced_floor = 0.95

    def setup(self, seed):
        noise = swarm.NoiseParams(1e-6, 1e-6)
        out = []
        for b in range(self.bases):
            n = 20 if b % 2 == 0 else 40
            for attempt in range(100):
                s = sub_seed(seed, self.tag, b, attempt)
                sw = swarm.apply_position_noise(swarm.generate_swarm(n, 0.5, 0.3, s), noise, s)
                ms = swarm.measure_distances(sw, noise, s)
                candidates = [u.id for u in sw.uavs if len(swarm.neighbor_set(ms, u.id)) >= 3]
                if candidates:
                    out.append((attacks.AttackedScenario(sw, ms), candidates))
                    break
        return seed, out

    def op_input(self, state, k):
        seed, bases = state
        scenario, candidates = bases[(k // len(self.displacements)) % len(bases)]
        shift = self.displacements[k % len(self.displacements)]
        if shift == 0.0:
            return scenario, shift
        rng = np.random.default_rng(sub_seed(seed, self.tag, 1000, k))
        node = candidates[int(rng.integers(len(candidates)))]
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        uavs = list(scenario.swarm.uavs)
        uavs[node] = replace(uavs[node], reported_pos=uavs[node].reported_pos + shift * direction)
        return attacks.AttackedScenario(replace(scenario.swarm, uavs=tuple(uavs)), scenario.measurements), shift

    def run_op(self, inp):
        scenario, _ = inp
        return sdp.check_feasibility(sdp.assemble(range(scenario.n), scenario))

    def record(self, inp, out):
        scenario, shift = inp
        feasible = out.status == sdp.FEASIBLE
        return {
            "lines": [f"{scenario.n},{shift!r},{out.status}"],
            "unknown": out.status == sdp.UNKNOWN,
            "shift": shift,
            "feasible": feasible,
            "positions_ok": not feasible or (out.recovered_positions is not None
                                             and len(out.recovered_positions) == scenario.n),
        }

    def check(self, records):
        honest = [r["feasible"] for r in records if r["shift"] == 0.0]
        far = [not r["feasible"] for r in records if r["shift"] == self.displacements[-1]]
        honest_rate = ratio(sum(honest), len(honest))
        far_rate = ratio(sum(far), len(far))
        checks = {
            "feasible_has_positions": all(r["positions_ok"] for r in records),
            "honest_feasible_floor": honest_rate is None or honest_rate >= self.honest_floor,
            "displaced_rejected_floor": far_rate is None or far_rate >= self.displaced_floor,
        }
        return checks, {"verdict_accuracy": ratio(sum(honest) + sum(far), len(honest) + len(far))}


class ScenarioN240(Workload):
    """One op builds and inspects an n=240 scenario without any oracle call:
    generate, noise, measure, attack (cycling the three kinds, m=8), reported
    matrix, initial suspects, both sampling baselines, and a serialize round
    trip."""

    name = "scenario_n240"
    tag = 4
    digest_ops = 3
    m = 8

    def setup(self, seed):
        return seed

    def op_input(self, seed, k):
        config = experiments.ExperimentConfig(attack=ATTACK_KINDS[k % 3], n_uavs=240, malicious_count=self.m)
        return config, sub_seed(seed, self.tag, k)

    def run_op(self, inp):
        config, s = inp
        scenario = experiments.build_scenario(config, s)
        e_r = suspects.build_reported_matrix(scenario)
        initial = suspects.initial_suspects(e_r, scenario.measurements, scenario.swarm.comm_range)
        nlos = detectors.nlos_baseline(e_r, scenario.measurements, self.m, s)
        rand = detectors.random_baseline(initial.suspected, self.m, s)
        text = serialize.dumps(serialize.scenario_to_dict(scenario))
        back = serialize.scenario_from_dict(json.loads(text))
        return scenario, initial, nlos, rand, text, back

    def record(self, inp, out):
        scenario, initial, nlos, rand, text, back = out
        suspected = frozenset(initial.suspected)
        return {
            "lines": [text, " ".join(map(str, initial.suspected)),
                      " ".join(map(str, sorted(nlos))), " ".join(map(str, sorted(rand)))],
            "unknown": False,
            "roundtrip": serialize.dumps(serialize.scenario_to_dict(back)) == text,
            "baselines": (len(nlos) == self.m and subset(rand, suspected)
                          and len(rand) == min(self.m, len(suspected))),
            "truth": len(scenario.truth()) == self.m,
        }

    def check(self, records):
        return {
            "serialize_roundtrip_identical": all(r["roundtrip"] for r in records),
            "baseline_sizes_and_random_within_initial": all(r["baselines"] for r in records),
            "attacker_count": all(r["truth"] for r in records),
        }, {}


WORKLOADS = {w.name: w for w in (SweepN30(), AcceptanceSweep(), DetectN120(), OracleDirect(),
                                   ScenarioN240())}
