"""The scenario layer's array passes against the per-pair loops they replaced.

``reference_measure``, ``reference_attack`` and ``reference_evidence`` keep
the loop-per-pair code that measured distances, rewrote attackers' claims
(one attacker at a time, filtering and re-appending the whole entry map) and
collected a detection context's evidence (its masks compared as
``sdp.id_mask`` of the sets); ``reference_reported`` keeps the per-pair
``np.linalg.norm`` of the reported-distance matrix, and ``reference_nlos``,
``reference_collusion_target`` and ``reference_adjacency`` the loops of the
discrepancy baseline, the default collusion target and the neighbor index,
each over a set's entries read as a ``{(i, j): r}`` dict (``claim_dict``).
``one_shot_measure`` and ``one_shot_spoof`` keep the
whole-array passes that the library now makes a block of rows at a time.
The library's results must equal them exactly: the same floats, the same
entry insertion order, the same reports and flags.
Row-wise norms, row sums and ``einsum`` differ from the per-pair norm in the
last bit on about one pair in eight, so swarms up to n=240 in cubes of
half-width 1e-3 to 5 catch any of them.
"""

from dataclasses import replace

import numpy as np
import pytest

import swarmsentry as ss
from swarmsentry import attacks, experiments, seeds
from swarmsentry.detectors import DetectionContext, nlos_baseline
from swarmsentry.experiments import ExperimentConfig, build_scenario
from swarmsentry.sdp import id_mask
from swarmsentry.suspects import ReportedDistanceMatrix, build_reported_matrix, initial_suspects, violating_pairs
from swarmsentry.swarm import (BLOCK_ELEMENTS, DISTANCE_FLOOR, InvalidParameterError, neighbor_set, row_blocks,
                               row_norms)

from conftest import pair_set

KINDS = ("distributed", "collusion", "mixed")
DIST_VARS = (0.0, 1e-6, 1e-3)
SIZES = ((10, 3), (30, 6))   # (n, attacker count)
LARGE = (240, 24)
WIDTHS = (1e-3, 0.5, 5.0)   # cube half-widths; comm range and noise scale with them


def claim_dict(pairs):
    """A set's entries as the ``{(i, j): r}`` dict the reference loops read,
    in entry order."""
    return dict(zip(zip(pairs.src.tolist(), pairs.dst.tolist()), pairs.r.tolist()))


def reference_measure(swarm, params, seed):
    rng = seeds.stream(seed, seeds.DIST_NOISE)
    pos = swarm.true_positions()
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    noise = (rng.normal(0.0, np.sqrt(params.dist_var), size=(swarm.n, swarm.n))
             if params.dist_var > 0 else np.zeros((swarm.n, swarm.n)))
    entries = {}
    for i in range(swarm.n):
        for j in range(swarm.n):
            if i != j and dist[i, j] <= swarm.comm_range:
                entries[(i, j)] = max(dist[i, j] + noise[i, j], DISTANCE_FLOOR)
    return entries


def one_shot_measure(swarm, params, seed):
    """``measure_distances`` as one (n, n) pass: every difference, distance,
    range mask and noise draw built whole."""
    dx, dy, dz = (c[:, None] - c for c in swarm.true_positions().T)
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    in_range = dist <= swarm.comm_range
    np.fill_diagonal(in_range, False)
    if params.dist_var > 0:
        rng = seeds.stream(seed, seeds.DIST_NOISE)
        dist = dist + rng.normal(0.0, np.sqrt(params.dist_var), size=(swarm.n, swarm.n))
    i, j = np.nonzero(in_range)
    return ss.MeasurementSet(swarm.n, i, j, np.maximum(dist[i, j], DISTANCE_FLOOR))


def one_shot_spoof(swarm, measurements, fakes, dist_var, rng, target=None):
    """``attacks._spoof`` with its (attackers, n, 3) differences built whole."""
    uavs = list(swarm.uavs)
    for m_id, fake in fakes.items():
        uavs[m_id] = replace(uavs[m_id], reported_pos=fake, ground_truth_malicious=True)
    attacked = replace(swarm, uavs=tuple(uavs))
    reported = attacked.reported_positions()
    attackers = np.array(sorted(fakes), dtype=np.intp)
    ids = np.arange(swarm.n)
    dist = row_norms((reported[attackers, None, :] - reported[None, :, :]).reshape(-1, 3)).reshape(-1, swarm.n)
    in_reach = ((dist <= swarm.comm_range) | (ids == target)) & (ids != attackers[:, None])
    row, js = np.nonzero(in_reach)
    noise = rng.normal(0.0, np.sqrt(dist_var), size=js.size) if dist_var > 0 else 0.0
    claims = np.maximum(dist[row, js] + noise, DISTANCE_FLOOR)
    is_attacker = np.zeros(swarm.n, dtype=bool)
    is_attacker[attackers] = True
    keep = ~is_attacker[measurements.src]
    return attacked, ss.MeasurementSet(
        swarm.n,
        np.concatenate([measurements.src[keep], attackers[row]]),
        np.concatenate([measurements.dst[keep], js]),
        np.concatenate([measurements.r[keep], claims]),
    )


def assert_same_claims(got, expected):
    """The same entries in the same order, each distance to the bit."""
    assert got.n == expected.n
    for name in ("src", "dst", "r"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def reference_claims(uavs, entries, attacker_ids, d, dist_var, rng, target=None):
    """Rewrite each attacker's outgoing claims, one attacker at a time."""
    reported = np.array([u.reported_pos for u in uavs])
    for m_id in attacker_ids:
        claims = {}
        for j in range(len(uavs)):
            if j == m_id:
                continue
            dist = float(np.linalg.norm(reported[m_id] - reported[j]))
            if dist <= d or j == target:
                noise = rng.normal(0.0, np.sqrt(dist_var)) if dist_var > 0 else 0.0
                claims[j] = max(dist + noise, DISTANCE_FLOOR)
        entries = {k: v for k, v in entries.items() if k[0] != m_id}
        for j, r in claims.items():
            entries[(m_id, j)] = max(r, DISTANCE_FLOOR)
    return entries


def reference_attack(swarm, ms, kind, m, seed, dist_var):
    """``build_attack`` with default offset and target, UAV by UAV."""
    malicious = attacks.select_malicious(swarm, m, seed)
    ordered = sorted(malicious)
    uavs, entries = list(swarm.uavs), claim_dict(ms)
    if not ordered:
        return uavs, entries
    d, w = swarm.comm_range, swarm.cube_half_width
    target = None if kind == "distributed" else attacks.default_collusion_target(swarm, ms, malicious)
    half = (len(ordered) + 1) // 2
    phases = {"distributed": [("distributed", ordered)], "collusion": [("collusion", ordered)],
              "mixed": [("distributed", ordered[:half]), ("collusion", ordered[half:])]}[kind]
    for phase, ids in phases:
        if not ids:
            continue
        if phase == "distributed":
            place = seeds.stream(seed, seeds.PLACE_DISTRIBUTED)
            fab = seeds.stream(seed, seeds.FABRICATE)
            for m_id in ids:
                fake = attacks._sample_distributed_fake(uavs[m_id].true_pos, w, d, place)
                uavs[m_id] = replace(uavs[m_id], reported_pos=fake, ground_truth_malicious=True)
            entries = reference_claims(uavs, entries, ids, d, dist_var, fab)
        else:
            place = seeds.stream(seed, seeds.PLACE_COLLUSION)
            fab = seeds.stream(seed, seeds.FABRICATE, 1)
            center = uavs[target].reported_pos
            radius = d * (1.0 - attacks.COLLUSION_MARGIN)
            for m_id in ids:
                fake = attacks._sample_collusion_fake(uavs[m_id].true_pos, center, radius, w, d, place)
                uavs[m_id] = replace(uavs[m_id], reported_pos=fake, ground_truth_malicious=True)
            entries = reference_claims(uavs, entries, ids, d, dist_var, fab, target)
    return uavs, entries


def reference_violating_pairs(e_r, e_n, d, window=None):
    threshold = (d / 2.0) ** 2 if window is None else window
    reported, claimed = claim_dict(e_r), claim_dict(e_n)
    out = []
    for (i, j) in sorted(set(reported) | set(claimed)):
        in_r, in_n = (i, j) in reported, (i, j) in claimed
        if in_r != in_n or (j, i) not in claimed:
            out.append((i, j))
        elif abs(claimed[(i, j)] ** 2 - reported[(i, j)] ** 2) >= threshold:
            out.append((i, j))
    return out


def reference_reported(scenario):
    pos = scenario.swarm.reported_positions()
    return {(i, j): float(np.linalg.norm(pos[i] - pos[j])) for (i, j) in claim_dict(scenario.measurements)}


def reference_evidence(scenario, window=None):
    ms, n, d = scenario.measurements, scenario.n, scenario.swarm.comm_range
    pos = scenario.swarm.reported_positions()
    e_r = pair_set(n, reference_reported(scenario), ReportedDistanceMatrix)
    evidence = {k: 0 for k in range(n)}
    for (i, j) in reference_violating_pairs(e_r, ms, d, window):
        evidence[i] += 1
        evidence[j] += 1
    accusers = {k: set() for k in range(n)}
    claimants = set()
    claims = claim_dict(ms)
    for (i, j) in claims:
        accusers[j].add(i)
        claimants.add(i)
    window = (d / 2.0) ** 2 if window is None else window
    conflicting = {k: set() for k in range(n)}
    for (i, j), r in claims.items():
        gap_sq = float(((pos[i] - pos[j]) ** 2).sum())
        if gap_sq >= d * d + window or abs(r * r - gap_sq) >= window:
            conflicting[j].add(i)
    discredited = {k for k, who in conflicting.items() if who}
    accusing_anyone = set().union(*conflicting.values())
    unvouched = {k for k in claimants
                 if not (accusers[k] - discredited - {k}) and k not in accusing_anyone}
    return dict(evidence=evidence, accusers=accusers, conflicting_accusers=conflicting,
                discredited=discredited, unvouched=unvouched)


def assert_evidence_masks(ctx, expected, adjacency):
    """The context's evidence masks are ``id_mask`` of the reference sets:
    accusers and conflicting accusers (each id's own bit excluded), the
    unvouched ids and each id's one-hop neighbors."""
    n = len(ctx.hood_mask)
    assert ctx.accuser_mask == [id_mask(expected["accusers"][k] - {k}) for k in range(n)]
    assert ctx.conflicting_mask == [id_mask(expected["conflicting_accusers"][k] - {k}) for k in range(n)]
    assert ctx.unvouched_mask == id_mask(expected["unvouched"])
    assert ctx.hood_mask == [id_mask(adjacency.get(k, ())) for k in range(n)]


def reference_nlos(e_r, e_n, m, seed):
    if m <= 0:
        return frozenset()
    reported = claim_dict(e_r)
    scored = []
    for (i, j), r in claim_dict(e_n).items():
        gap = abs(r * r - reported[(i, j)] ** 2) if (i, j) in reported else np.inf
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


def reference_adjacency(ms):
    adj: dict[int, set[int]] = {}
    for (i, j) in claim_dict(ms):
        adj.setdefault(i, set()).add(j)
        adj.setdefault(j, set()).add(i)
    return {k: frozenset(v) for k, v in adj.items()}


def reference_collusion_target(swarm, measurements, malicious_ids):
    adjacency = reference_adjacency(measurements)
    best_id, best_deg = -1, -1
    for u in swarm.uavs:
        if u.id in malicious_ids:
            continue
        deg = len(adjacency.get(u.id, frozenset()))
        if deg > best_deg:
            best_id, best_deg = u.id, deg
    if best_id < 0:
        raise InvalidParameterError("no benign UAV available as collusion target")
    return best_id


def honest(n, seed, dist_var, w=0.5):
    noise = ss.NoiseParams(1e-6 * (w / 0.5) ** 2, dist_var)
    swarm = ss.apply_position_noise(ss.generate_swarm(n, w, 0.6 * w, seed=seed), noise, seed=seed)
    return swarm, noise


def attacked(kind, n, m, seed, dist_var, w=0.5):
    swarm, noise = honest(n, seed, dist_var, w)
    return ss.build_attack(swarm, ss.measure_distances(swarm, noise, seed=seed), kind, m,
                           seed=seed, dist_var=dist_var)


@pytest.mark.parametrize("dist_var", DIST_VARS)
@pytest.mark.parametrize("n", (2, 10, 30, 60))
def test_measure_matches_reference(n, dist_var):
    swarm, noise = honest(n, 3, dist_var)
    got = ss.measure_distances(swarm, noise, seed=3)
    assert list(claim_dict(got).items()) == list(reference_measure(swarm, noise, 3).items())


@pytest.mark.parametrize("dist_var", DIST_VARS)
@pytest.mark.parametrize("n", (2, 100, 241, 300))
def test_blocked_measure_matches_one_shot(n, dist_var):
    # n=2 and n=100 are one block of rows; 241 and 300 are several, the
    # last one short.
    blocks = row_blocks(n, n)
    assert (len(blocks) == 1) == (n * n <= BLOCK_ELEMENTS)
    assert blocks[-1][1] == n
    swarm, noise = honest(n, 3, dist_var, w=0.5 * (n / 30) ** (1 / 3))
    assert_same_claims(ss.measure_distances(swarm, noise, seed=3), one_shot_measure(swarm, noise, 3))


@pytest.mark.parametrize("dist_var", DIST_VARS)
@pytest.mark.parametrize("kind", KINDS)
def test_blocked_build_scenario_matches_one_shot(kind, dist_var, monkeypatch):
    # 40 attackers at n=300 are three blocks of the spoof step, the last
    # one short; the mixed attack's two phases split them 20 and 20.
    n, m = 300, 40
    assert len(row_blocks(m, 3 * n)) == 3
    config = ExperimentConfig(attack=kind, n_uavs=n, malicious_count=m, dist_var=dist_var,
                              cube_half_width=0.5 * (n / 30) ** (1 / 3))
    got = build_scenario(config, 4)
    monkeypatch.setattr(experiments, "measure_distances", one_shot_measure)
    monkeypatch.setattr(attacks, "_spoof", one_shot_spoof)
    expected = build_scenario(config, 4)
    assert_same_claims(got.measurements, expected.measurements)
    assert got.swarm.reported_positions().tobytes() == expected.swarm.reported_positions().tobytes()
    assert got.truth() == expected.truth() and got.plan == expected.plan


@pytest.mark.parametrize("n, m", SIZES)
@pytest.mark.parametrize("dist_var", DIST_VARS)
@pytest.mark.parametrize("kind", KINDS)
def test_attack_matches_reference(kind, dist_var, n, m, w=0.5):
    for seed in (1, 2):
        swarm, noise = honest(n, seed, dist_var, w)
        ms = ss.measure_distances(swarm, noise, seed=seed)
        scen = ss.build_attack(swarm, ms, kind, m, seed=seed, dist_var=dist_var)
        uavs, entries = reference_attack(swarm, ms, kind, m, seed, dist_var)
        assert list(claim_dict(scen.measurements).items()) == list(entries.items())
        assert np.array_equal(scen.swarm.reported_positions(), np.array([u.reported_pos for u in uavs]))
        assert [u.ground_truth_malicious for u in scen.swarm.uavs] == [u.ground_truth_malicious for u in uavs]
        assert scen.truth() == attacks.select_malicious(swarm, m, seed)


@pytest.mark.parametrize("dist_var", DIST_VARS)
@pytest.mark.parametrize("n", (10, 30))
def test_spoof_matches_reference(n, dist_var, w=0.5):
    # Fakes anywhere in the cube: the forced target is often out of range of
    # them, so its claim is made only because it is forced.
    swarm, noise = honest(n, 5, dist_var, w)
    ms = ss.measure_distances(swarm, noise, seed=5)
    rng = np.random.default_rng(5)
    ids = sorted(int(k) for k in rng.choice(range(1, n), size=4, replace=False))
    fakes = {k: rng.uniform(-w, w, size=3) for k in ids}
    for target in (None, 0):
        attacked, got = attacks._spoof(swarm, ms, fakes, dist_var, np.random.default_rng(9), target)
        uavs = [replace(u, reported_pos=fakes[u.id], ground_truth_malicious=True) if u.id in fakes else u
                for u in swarm.uavs]
        entries = reference_claims(uavs, claim_dict(ms), ids, swarm.comm_range, dist_var,
                                   np.random.default_rng(9), target)
        assert list(claim_dict(got).items()) == list(entries.items())
        assert np.array_equal(attacked.reported_positions(), np.array([u.reported_pos for u in uavs]))
        assert attacked.malicious_ids() == frozenset(ids)
        if target is not None:
            assert all((k, target) in claim_dict(got) for k in ids)


@pytest.mark.parametrize("w", WIDTHS)
@pytest.mark.parametrize("dist_var", DIST_VARS)
@pytest.mark.parametrize("kind", KINDS)
def test_attack_matches_reference_at_scale(kind, dist_var, w):
    test_attack_matches_reference(kind, dist_var, *LARGE, w)


@pytest.mark.parametrize("w", WIDTHS)
@pytest.mark.parametrize("dist_var", DIST_VARS)
def test_spoof_matches_reference_at_scale(dist_var, w):
    test_spoof_matches_reference(LARGE[0], dist_var, w)


@pytest.mark.parametrize("w", WIDTHS)
@pytest.mark.parametrize("n, m", SIZES + (LARGE,))
@pytest.mark.parametrize("kind", KINDS)
def test_reported_matrix_matches_reference(kind, n, m, w):
    for seed in (1, 2):
        scen = attacked(kind, n, m, seed, 1e-6, w)
        assert list(claim_dict(build_reported_matrix(scen)).items()) == list(reference_reported(scen).items())


@pytest.mark.parametrize("w", WIDTHS)
@pytest.mark.parametrize("dist_var", DIST_VARS)
@pytest.mark.parametrize("kind", KINDS)
def test_evidence_matches_reference_at_scale(kind, dist_var, w):
    test_evidence_matches_reference(kind, dist_var, *LARGE, w)


@pytest.mark.parametrize("n, m", SIZES)
@pytest.mark.parametrize("dist_var", DIST_VARS)
@pytest.mark.parametrize("kind", KINDS)
def test_evidence_matches_reference(kind, dist_var, n, m, w=0.5):
    for seed in (1, 2):
        scen = attacked(kind, n, m, seed, dist_var, w)
        ctx = DetectionContext(scen)
        expected = reference_evidence(scen)
        assert ctx.evidence == expected["evidence"]
        assert_evidence_masks(ctx, expected, reference_adjacency(scen.measurements))
        assert ctx.initial == initial_suspects(ctx.reported, scen.measurements, scen.swarm.comm_range)


def test_evidence_without_measurements():
    swarm, _ = honest(5, 1, 0.0)
    ctx = DetectionContext(ss.AttackedScenario(swarm, pair_set(5, {})))
    assert ctx.evidence == {k: 0 for k in range(5)}
    assert ctx.accuser_mask == ctx.conflicting_mask == ctx.hood_mask == [0] * 5
    assert ctx.unvouched_mask == 0


@pytest.mark.parametrize("kind", KINDS)
def test_violating_pairs_with_keys_the_measurements_lack(kind):
    scen = attacked(kind, 20, 4, 4, 1e-6)
    ms, d = scen.measurements, scen.swarm.comm_range
    reported = claim_dict(DetectionContext(scen).reported)
    missing = next(iter(reported))
    extra = next((i, j) for i in range(20) for j in range(20) if i != j and (i, j) not in claim_dict(ms))
    e_r = pair_set(20, {**{k: v for k, v in reported.items() if k != missing}, extra: 0.1}, ReportedDistanceMatrix)
    got = violating_pairs(e_r, ms, d)
    assert got == reference_violating_pairs(e_r, ms, d)
    assert extra in got and missing in got


@pytest.mark.parametrize("n, m", ((30, 6), LARGE))
@pytest.mark.parametrize("kind", KINDS)
def test_baselines_and_views_match_reference(kind, n, m):
    for seed in (1, 2, 3):
        swarm, noise = honest(n, seed, 1e-6)
        honest_ms = ss.measure_distances(swarm, noise, seed=seed)
        malicious = attacks.select_malicious(swarm, m, seed)
        for ids in (malicious, frozenset(), frozenset(range(1, n))):
            assert (attacks.default_collusion_target(swarm, honest_ms, ids)
                    == reference_collusion_target(swarm, honest_ms, ids))
        scen = ss.build_attack(swarm, honest_ms, kind, m, seed=seed, dist_var=1e-6)
        ms, e_r = scen.measurements, build_reported_matrix(scen)
        for count in (0, 1, m, n):
            assert nlos_baseline(e_r, ms, count, seed) == reference_nlos(e_r, ms, count, seed)
        hoods = {k: neighbor_set(ms, k) for k in range(n)}
        assert {k: hood for k, hood in hoods.items() if hood} == reference_adjacency(ms)


def test_nlos_ties_and_missing_pairs():
    # Four claims tie on one gap, two on a zero gap, and (1, 2) has no
    # reported distance, so its gap is infinite and it ranks first.
    claims = {(3, 2): 0.5, (4, 5): 0.3, (0, 1): 0.5, (1, 2): 0.2, (5, 4): 0.3, (2, 3): 0.5, (1, 0): 0.5}
    reported = {(0, 1): 0.4, (1, 0): 0.4, (2, 3): 0.4, (3, 2): 0.4, (4, 5): 0.3, (5, 4): 0.3}
    e_n, e_r = pair_set(6, claims), pair_set(6, reported, ReportedDistanceMatrix)
    for seed in range(6):
        for count in range(8):   # up to and past the pool's six ids
            got = nlos_baseline(e_r, e_n, count, seed)
            assert got == reference_nlos(e_r, e_n, count, seed)
            assert len(got) == min(count, 6)
    assert nlos_baseline(e_r, e_n, 2, 0) <= {0, 1, 2}   # (1, 2) first, then (0, 1)
    assert nlos_baseline(e_r, pair_set(6, {}), 3, 0) == frozenset()


def test_collusion_target_ties():
    swarm, _ = honest(6, 1, 0.0)
    ring = pair_set(6, {(k, (k + 1) % 6): 0.1 for k in range(6)})   # every degree is 2
    star = pair_set(6, {(0, 4): 0.1, (4, 0): 0.1, (3, 5): 0.1, (2, 5): 0.1, (4, 1): 0.1})
    for ms in (ring, star, pair_set(6, {})):
        for ids in (frozenset(), frozenset({0}), frozenset({0, 1, 4}), frozenset({0, 1, 2, 3, 4})):
            assert attacks.default_collusion_target(swarm, ms, ids) == reference_collusion_target(swarm, ms, ids)
        with pytest.raises(InvalidParameterError, match="no benign UAV"):
            attacks.default_collusion_target(swarm, ms, frozenset(range(6)))
    assert attacks.default_collusion_target(swarm, star, frozenset({0})) == 4


def test_nlos_gaps_squared_as_python_squares():
    # Python's ``x ** 2`` and numpy's ``x * x`` differ in the last bit for
    # this x: with ``**`` the two gaps tie and (0, 1) ranks first, with
    # ``x * x`` (2, 3) would.
    x, r_a, y, r_b = 0.14518749997824568, 0.21778124996736853, 0.17439656210487275, 0.23825075773523807
    assert abs(r_a * r_a - x ** 2) == abs(r_b * r_b - y ** 2) != abs(r_a * r_a - x * x)
    e_n = pair_set(4, {(2, 3): r_a, (0, 1): r_b})
    e_r = pair_set(4, {(2, 3): x, (0, 1): y}, ReportedDistanceMatrix)
    picks = [nlos_baseline(e_r, e_n, 1, seed) for seed in range(8)]
    assert picks == [reference_nlos(e_r, e_n, 1, seed) for seed in range(8)]
