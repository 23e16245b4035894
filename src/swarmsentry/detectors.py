"""Iterative suspect-set reduction and the sampling baselines.

Both proposed detectors start from the initial suspect partition and try to
exonerate suspects through feasibility checks on sub-networks:

* the neighborhood detector tests each suspect together with its one-hop
  neighbors against the trusted set, clearing the whole neighborhood when it
  localizes consistently;
* the refined detector additionally tests the members of a failed
  neighborhood one by one, which is what makes framed targets recoverable and
  colluders individually attributable.

The two baselines mirror common practice: rank pairs by distance discrepancy
and sample endpoints, or sample uniformly from the initial suspects.  Both
receive the true attacker count; the proposed detectors never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import sdp, seeds
from .attacks import AttackedScenario
from .suspects import (
    ReportedDistanceMatrix,
    SuspectSets,
    build_reported_matrix,
    partition,
    violation_counts,
)
from .swarm import InvalidParameterError, MeasurementSet, neighbor_set
from .validation import check_partition, check_scenario

CDI = "cdi"
ECDI = "ecdi"
NLOS = "nlos"
RANDOM = "random"
ALGORITHMS = (CDI, ECDI, NLOS, RANDOM)


@dataclass(frozen=True)
class DetectorOptions:
    """The one setting of the feasibility-check detectors: ``paper_replication``
    pins each UAV's displacement budget to the bare ``sdp.EPSILON_BASE``
    (``sdp.default_epsilon``).  The margin, the acceptance window and the
    oracle tolerances are fixed, and an ``unknown`` verdict never exonerates."""

    paper_replication: bool = False


@dataclass(frozen=True)
class DetectionResult:
    predicted_malicious: frozenset[int]
    iterations: int
    oracle_calls: int
    per_iteration_trace: tuple[tuple[int, int, str], ...]
    passes: int = 0
    flags: tuple[str, ...] = ()


class DetectionContext:
    """What every detection run on one scenario shares.

    ``experiments.run_trial`` builds one per trial that runs ``cdi`` or
    ``ecdi`` and hands it to each detector of the trial; a standalone
    ``cdi``/``ecdi`` call builds its own, and nothing is kept on the
    scenario, so no context outlives its trial or call.  It holds the
    reported-distance matrix, the scenario's evidence (which the detectors
    order and gate their checks by) and its feasibility oracle.  Oracle
    verdicts depend only on the scenario and the sub-network, so a per-UAV
    verdict one run computed serves every later run of the trial.
    """

    def __init__(self, scenario: AttackedScenario, options: DetectorOptions | None = None):
        self.scenario = scenario = check_scenario(scenario)
        self.options = options or DetectorOptions()
        self.reported = build_reported_matrix(scenario)
        # Initial evidence against each id, used to order per-UAV refinement:
        # lightly-implicated members are assessed first so exonerations
        # accumulate benign context before heavily-implicated ones are tried.
        self.evidence = violation_counts(self.reported, scenario.measurements, scenario.swarm.comm_range)
        # The initial partition, read off the same counts.
        self.initial = partition(self.evidence)
        # Who claims a measurement about each id: a singleton check of id is
        # conclusive only once these counterparties have been assessed.
        entries = scenario.measurements.entries
        pairs = np.array(list(entries), dtype=np.intp).reshape(-1, 2)
        claimant, subject = pairs[:, 0], pairs[:, 1]
        self.accusers = _by_subject(claimant, subject, scenario.n)
        # Value-conflicting testimony: claims whose distance disagrees with
        # the reported geometry of the pair beyond the acceptance window.
        # Fabricated claims are value-consistent with their subject's report
        # by construction (that is what makes framing work), so a conflicting
        # claim about an id is evidence that must be heard before the id can
        # be cleared.  Borderline range pairs (honest noise tails) stay below
        # the window and do not count.
        d = scenario.swarm.comm_range
        window = (d / 2.0) ** 2
        pos = scenario.swarm.reported_positions()
        r = np.fromiter(entries.values(), dtype=float, count=len(entries))
        gap_sq = ((pos[claimant] - pos[subject]) ** 2).sum(axis=1)
        conflict = (gap_sq >= d * d + window) | (np.abs(r * r - gap_sq) >= window)
        self.conflicting_accusers = _by_subject(claimant[conflict], subject[conflict], scenario.n)
        # Ids whose reported position some claim contradicts: their own
        # testimony about others carries no exonerating weight.
        self.discredited = set(subject[conflict].tolist())
        accusing_anyone = set(claimant[conflict].tolist())
        # A self-consistent claimant that no credible witness reciprocates
        # can never be exonerated: honest measurement presence is symmetric
        # (both directions gate on true distance), so such a node is either
        # lying or confirmed only by liars.  Claimants holding a conflicting
        # claim are different: they are accusing someone, and clearing them
        # (once they reconcile with the trusted set) puts their testimony to
        # work against the accused.
        self.unvouched = {
            k for k in set(claimant.tolist())
            if not (self.accusers[k] - self.discredited - {k}) and k not in accusing_anyone
        }

    @cached_property
    def oracle(self) -> sdp.ScenarioOracle:
        """Neighborhoods overlap, so most pairs and per-UAV verdicts repeat
        across checks and runs: one oracle keeps them for the context.
        Built on first use, so the sampling baselines never pay for it."""
        return sdp.ScenarioOracle(self.scenario, self.options)

    def serves(self, scenario: AttackedScenario, options: DetectorOptions | None) -> "DetectionContext":
        """This context, after checking it was built for ``scenario`` and
        (unless None) ``options``."""
        if scenario is not self.scenario or (options is not None and options != self.options):
            raise InvalidParameterError("a detection context serves only the scenario and options it was built for")
        return self


def _by_subject(claimant: np.ndarray, subject: np.ndarray, n: int) -> dict[int, set[int]]:
    """Id -> the claimants of the given (claimant, subject) pairs about it."""
    grouped = claimant[np.argsort(subject, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(subject, minlength=n)).tolist()
    return {k: set(grouped[lo:hi]) for k, (lo, hi) in enumerate(zip([0] + ends[:-1], ends))}


class _Run:
    """Per-run state of one detection run over a shared context."""

    def __init__(self, initial: SuspectSets, context: DetectionContext):
        self.context = context
        self.oracle = context.oracle
        self.suspected = set(initial.suspected)
        self.trusted = set(initial.trusted)
        self.oracle_calls = 0
        self.iterations = 0
        self.passes = 0
        self.trace: list[tuple[int, int, str]] = []
        self.flags: set[str] = set()

    def check(self, sub_ids: set[int], assessed: int) -> str:
        status = self.oracle.check(sub_ids)
        self.oracle_calls += 1
        self.trace.append((assessed, len(sub_ids), status))
        if status == sdp.UNKNOWN:
            self.flags.add("oracle-unknown")
        return status

    def exonerate(self, ids) -> None:
        moved = set(ids) & self.suspected
        self.suspected -= moved
        self.trusted |= moved

    def result(self) -> DetectionResult:
        return DetectionResult(
            predicted_malicious=frozenset(self.suspected),
            iterations=self.iterations,
            oracle_calls=self.oracle_calls,
            per_iteration_trace=tuple(self.trace),
            passes=self.passes,
            flags=tuple(sorted(self.flags)),
        )


def _trusted_base_ok(run: _Run) -> bool:
    """Pre-check the trusted set itself; a failing base poisons every test."""
    if not run.trusted:
        run.flags.add("trusted-set-empty")
        return False
    ok = run.check(run.trusted, assessed=-1) == sdp.FEASIBLE
    if not ok:
        run.flags.add("trusted-set-infeasible")
    return ok


def _clear_singletons(run: _Run, ids, blockers: dict[int, set[int]]) -> bool:
    """Assess each of ``ids`` alone against the trusted set, and exonerate
    those that localize.

    Lightly-implicated ids go first: each exoneration enlarges the trusted
    base that the heavily-implicated ids (attackers, if anyone) must then
    reconcile with.  Unvouched ids are never cleared, and an id is deferred
    while one of its ``blockers`` is still suspected: its check would not
    see that accuser's claims and could clear it on incomplete evidence.
    """
    ctx = run.context
    changed = False
    for k in sorted(set(ids) - ctx.unvouched, key=lambda v: (ctx.evidence.get(v, 0), v)):
        if (blockers[k] & run.suspected) - {k}:
            continue
        run.iterations += 1
        if run.check(run.trusted | {k}, assessed=k) == sdp.FEASIBLE:
            run.exonerate({k})
            changed = True
    return changed


def _neighborhood(run: _Run, k: int) -> frozenset[int]:
    return neighbor_set(run.context.scenario.measurements, k)


def cdi(
    initial: SuspectSets,
    scenario: AttackedScenario,
    options: DetectorOptions | None = None,
    *,
    context: DetectionContext | None = None,
) -> DetectionResult:
    """Neighborhood-granularity exoneration.

    Suspects are assessed in ascending-id circular order; each one is tested
    together with its one-hop neighbors on top of the trusted set, and the
    whole neighborhood is cleared when the sub-network localizes.  Stops after
    the first full pass without a change.  ``context``, when given, is the
    ``DetectionContext`` of ``scenario`` and ``options`` that other runs
    share; otherwise the run builds its own.
    """
    return _iterate(initial, scenario, options, context, refine=False)


def ecdi(
    initial: SuspectSets,
    scenario: AttackedScenario,
    options: DetectorOptions | None = None,
    *,
    context: DetectionContext | None = None,
) -> DetectionResult:
    """Neighborhood exoneration with per-UAV refinement on failure.

    Like the neighborhood detector, but when a neighborhood fails its check,
    each suspected member is re-assessed alone against the trusted set.  The
    per-UAV step is what clears framed targets while keeping the colluders.
    ``context`` is as for ``cdi``.
    """
    return _iterate(initial, scenario, options, context, refine=True)


def _iterate(
    initial: SuspectSets,
    scenario: AttackedScenario,
    options: DetectorOptions | None,
    context: DetectionContext | None,
    refine: bool,
) -> DetectionResult:
    scenario = check_scenario(scenario)
    initial = check_partition(initial, scenario.n)
    ctx = DetectionContext(scenario, options) if context is None else context.serves(scenario, options)
    run = _Run(initial, ctx)
    if not run.suspected:
        return run.result()

    if not _trusted_base_ok(run):
        # Heavy-attack fallback: with no usable trusted base the neighborhood
        # test is meaningless.  Assess singletons if a base exists at all,
        # else keep the whole suspect set.
        if run.trusted:
            run.passes = 1
            _clear_singletons(run, run.suspected, ctx.conflicting_accusers)
        return run.result()

    max_passes = 2 * len(run.suspected) + 3
    while run.passes < max_passes:
        run.passes += 1
        changed = False
        for k in sorted(run.suspected):
            if k not in run.suspected:
                continue
            run.iterations += 1
            hood = _neighborhood(run, k)
            tested = run.trusted | {k} | hood
            status = run.check(tested, assessed=k)
            if status == sdp.FEASIBLE:
                # A feasible sub-network certifies its members consistent with
                # each other; a neighbor is cleared wholesale only when all of
                # its own evidence was inside the tested set, otherwise it
                # must earn exoneration through its own assessment.
                movable = ({k} | {v for v in hood if _neighborhood(run, v) <= tested}) - ctx.unvouched
                if movable & run.suspected:
                    run.exonerate(movable)
                    changed = True
            elif refine:
                # Per-UAV refinement of the failed neighborhood.  An id still
                # accused by another suspect is deferred.
                changed |= _clear_singletons(run, ({k} | hood) & run.suspected, ctx.accusers)
        if changed:
            continue
        if refine and run.suspected:
            # Deadlocked: mutually-accusing suspects remain (framed victims
            # and their framers accuse each other).  One global singleton
            # sweep, least-implicated first, resolves them against the
            # now-maximal trusted base.
            run.passes += 1
            if _clear_singletons(run, run.suspected, ctx.conflicting_accusers):
                continue
        break
    return run.result()


def detect(
    algo: str,
    scenario: AttackedScenario,
    initial: SuspectSets,
    options: DetectorOptions | None = None,
    malicious_count: int | None = None,
    seed: int = 0,
    *,
    context: DetectionContext | None = None,
) -> DetectionResult:
    """Run one named algorithm on a scenario from its initial partition.

    The feasibility detectors take ``options``; the sampling baselines need
    the true attacker count and draw from ``seed``.  A ``context`` built for
    this scenario and these options is shared with the other runs given it
    (its reported-distance matrix serves the discrepancy baseline too).
    """
    if algo == CDI:
        return cdi(initial, scenario, options, context=context)
    if algo == ECDI:
        return ecdi(initial, scenario, options, context=context)
    if algo not in ALGORITHMS:
        raise InvalidParameterError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
    if malicious_count is None:
        raise InvalidParameterError(f"the {algo} baseline needs the true attacker count")
    if algo == NLOS:
        e_r = build_reported_matrix(scenario) if context is None else context.serves(scenario, options).reported
        picked = nlos_baseline(e_r, scenario.measurements, malicious_count, seed)
    else:
        picked = random_baseline(initial.suspected, malicious_count, seed)
    return DetectionResult(picked, iterations=0, oracle_calls=0, per_iteration_trace=())


def nlos_baseline(
    e_r: ReportedDistanceMatrix,
    e_n: MeasurementSet,
    m: int,
    seed: int,
) -> frozenset[int]:
    """Rank pairs by squared-distance discrepancy and sample endpoints.

    Endpoint ids enter a candidate pool in rank order; m distinct ids are
    drawn with probability proportional to the reciprocal of the rank at
    which each id first appeared, keeping the largest-error spirit while
    matching the requested sample size.
    """
    if m <= 0:
        return frozenset()
    scored = []
    for (i, j), r in e_n.entries.items():
        gap = abs(r * r - e_r.entries[(i, j)] ** 2) if (i, j) in e_r.entries else np.inf
        scored.append((-gap, i, j))
    scored.sort()
    pool: list[int] = []
    first_rank: dict[int, int] = {}
    for rank, (_, i, j) in enumerate(scored, start=1):
        for v in (i, j):
            if v not in first_rank:
                first_rank[v] = rank
                pool.append(v)
    if m >= len(pool):
        return frozenset(pool)
    weights = np.array([1.0 / first_rank[v] for v in pool])
    rng = seeds.stream(seed, seeds.NLOS_BASELINE)
    picked = rng.choice(len(pool), size=m, replace=False, p=weights / weights.sum())
    return frozenset(pool[int(k)] for k in picked)


def random_baseline(initial_suspected, m: int, seed: int) -> frozenset[int]:
    """Uniform sample of min(m, |suspects|) ids from the initial suspects."""
    ordered = sorted(initial_suspected)
    if m <= 0 or not ordered:
        return frozenset()
    if m >= len(ordered):
        return frozenset(ordered)
    rng = seeds.stream(seed, seeds.RANDOM_BASELINE)
    picked = rng.choice(len(ordered), size=m, replace=False)
    return frozenset(ordered[int(k)] for k in picked)
