"""The closed-form pairwise bound against the bisection it replaced.

``reference_bound`` is the 80-step vectorized bisection over the same
floating-point predicate: every pair's threshold is bracketed between a
rejected and an accepted relaxation, and the largest rejected one is the
bound.  Both are determined only up to the rounding of that predicate, so
agreement is measured relative to the data's scale.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from swarmsentry import conic, sdp

REL = 1e-12


def satisfied(t, D, hi, lo, eps):
    radius = np.sqrt(eps + t)
    amin = np.maximum(0.0, D - radius) ** 2
    amax = (D + radius) ** 2 + eps + t
    return (amin <= hi + t) & (amax >= lo - t) & (lo - t <= hi + t)


def reference_bound(D, hi, lo, eps, steps=80):
    t_lo = np.zeros_like(D)
    if bool(np.all(satisfied(t_lo, D, hi, lo, eps))):
        return 0.0
    t_hi = np.full_like(D, 10.0 * (1.0 + float(np.max(np.abs(lo))) + float(np.max(D)) ** 2))
    for _ in range(steps):
        mid = 0.5 * (t_lo + t_hi)
        ok = satisfied(mid, D, hi, lo, eps)
        t_lo = np.where(ok, t_lo, mid)
        t_hi = np.where(ok, mid, t_hi)
    return float(np.max(t_lo))


def stepped_down(tau, D, hi, lo, eps):
    """One pair's threshold stepped down, by one ulp and then by doubling
    steps, until the float predicate rejects that pair alone; zero when no
    positive relaxation is rejected."""
    bound, step = tau, 0.0
    for _ in range(64):
        if bound <= 0.0:
            return 0.0
        if not satisfied(bound, D, hi, lo, eps)[0]:
            return bound
        step = 2.0 * step if step else bound - float(np.nextafter(bound, -np.inf))
        bound -= step
    return 0.0


def one_node_family(D, hi, lo, eps):
    """Node 0 at the origin, one pair functional per entry at separation D
    along x, then both nodes' displacement functionals."""
    k = len(D)
    anchor = np.zeros((k + 2, 3))
    anchor[:k, 0] = D
    return conic.CompiledConstraints(
        n=2,
        positions=np.zeros((2, 3)),
        owner=np.array([0] * k + [0, 1]),
        anchor=anchor,
        hi=np.concatenate([hi, [eps, eps]]),
        lo=np.concatenate([lo, [-np.inf, -np.inf]]),
        epsilon=eps,
        n_pairs=k,
    )


def check_against_reference(D, hi, lo, eps):
    D, hi, lo = (np.asarray(a, dtype=float) for a in (D, hi, lo))
    got = conic.pairwise_slack_bound(one_node_family(D, hi, lo, eps))
    ref = reference_bound(D, hi, lo, eps)
    scale = max(abs(ref), eps, float(np.max(D)) ** 2, float(np.max(np.abs(hi))), float(np.max(np.abs(lo))))
    assert got >= 0.0
    assert abs(got - ref) <= REL * scale, (got, ref)
    if got > 0.0:
        # Certified: the float predicate still rejects some pair at the bound...
        assert not np.all(satisfied(got, D, hi, lo, eps))
    # ...and the bound is tight: just above it every pair is satisfied.
    assert np.all(satisfied(got + REL * scale, D, hi, lo, eps))
    return got


separations = st.floats(0.0, 1.0) | st.just(0.0)
pairs = st.lists(
    st.tuples(separations, st.floats(-0.1, 1.0), st.floats(-0.2, 1.0)), min_size=1, max_size=5
)
epsilons = st.floats(-8.0, -2.0).map(lambda e: 10.0**e)


@given(pairs, epsilons)
@settings(max_examples=300, deadline=None)
# At this pair's threshold numpy's scalar and array squares round apart.
@example(data=[(0.0, 0.13322961856046525, 0.10832195502033382)], eps=0.01)
def test_closed_form_matches_bisection(data, eps):
    D = [d for d, _, _ in data]
    hi = [h for _, h, _ in data]
    lo = [h - gap for _, h, gap in data]
    check_against_reference(D, hi, lo, eps)


@given(pairs, epsilons)
@settings(max_examples=300, deadline=None)
@example(data=[(0.0, 0.13322961856046525, 0.10832195502033382)], eps=0.01)
def test_certified_in_one_pass_matches_each_pair_alone(data, eps):
    # ``PairThresholds.certified`` steps every unmet pair down at once.
    D, hi, lo = (np.array(a, dtype=float) for a in zip(*((d, h, h - gap) for d, h, gap in data)))
    thresholds = conic.PairThresholds(D, hi, lo, eps)
    expected = [stepped_down(float(thresholds.tau[k]), D[k:k + 1], hi[k:k + 1], lo[k:k + 1], eps)
                for k in thresholds.ranked.tolist()]
    assert thresholds.certified.tolist() == expected


def family_at(kind, D, eps, t):
    """One pair at separation ``D`` whose ``kind`` condition of
    ``conic.PairThresholds`` has its root at relaxation ``t``, the other two
    holding there: (hi, lo)."""
    r = np.sqrt(t + eps)
    if kind == "upper":
        hi = (D - r) ** 2 - t
        return hi, hi
    if kind == "lower":
        lo = 3.0 * r * r + 2.0 * D * r + D * D - eps
        return lo, lo
    return D * D, D * D + 2.0 * t   # nonempty


@given(
    kind=st.sampled_from(("upper", "lower", "nonempty")),
    D=st.floats(0.05, 1.0),
    eps=epsilons,
    ulps=st.integers(-40, 40),
)
@settings(max_examples=300, deadline=None)
def test_certified_at_tol_infeas_refutes(kind, D, eps, ulps):
    # The scenario oracle refutes a sub-network by a pair that the float
    # predicate rejects at tol_infeas, where the pairwise bound takes a
    # pair's stepped-down threshold.  Each condition of the predicate is
    # monotone in t in floating point too, so a certified threshold at or
    # past tol_infeas means the pair is rejected at tol_infeas itself.  One
    # pair whose threshold lies within 40 ulps of tol_infeas on each side.
    tol = sdp.OracleOptions().tol_infeas
    t = tol + ulps * float(np.spacing(tol))
    assume(t + eps > 0.0 and (kind != "upper" or np.sqrt(t + eps) <= D))
    hi, lo = family_at(kind, D, eps, t)
    thresholds = conic.PairThresholds(np.array([D]), np.array([hi]), np.array([lo]), eps)
    assume(abs(float(thresholds.tau[0]) - tol) <= 40 * float(np.spacing(tol)))
    certified = thresholds.certified
    if certified.size and certified[0] >= tol:
        assert not thresholds.satisfied(tol)[0]


@given(st.floats(-0.1, 1.0), st.floats(-0.2, 1.0), epsilons)
@settings(max_examples=100, deadline=None)
def test_zero_separation(hi, gap, eps):
    check_against_reference([0.0], [hi], [hi - gap], eps)


@given(st.floats(0.05, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), epsilons)
@settings(max_examples=100, deadline=None)
def test_negative_discriminant(D, hi, frac, eps):
    # 3 (lo + eps) < 2 D^2: the lower condition holds for every relaxation.
    lo = frac * (2.0 * D * D / 3.0 - eps) - eps
    assume(3.0 * (lo + eps) - 2.0 * D * D < 0)
    check_against_reference([D], [hi], [lo], eps)


def test_each_condition_gives_its_root():
    eps = 1e-5
    # Upper, root within reach: (D - r)^2 = hi + t at r = (D^2 - hi + eps) / (2 D).
    r = (0.25 - 0.09 + eps) / 1.0
    assert check_against_reference([0.5], [0.09], [0.0], eps) == pytest.approx(r * r - eps, rel=REL)
    # Upper, root beyond D: only t >= -hi helps.
    assert check_against_reference([0.1], [-0.05], [-0.1], eps) == pytest.approx(0.05, rel=REL)
    # Lower: the positive root of 3 r^2 + 2 D r + D^2 - lo - eps.
    r = (-0.01 + np.sqrt(0.01**2 - 3 * (0.01**2 - 0.2 - eps))) / 3
    assert check_against_reference([0.01], [1.0], [0.2], eps) == pytest.approx(r * r - eps, rel=REL)
    # Empty slab: t >= (lo - hi) / 2 dominates the other two.
    assert check_against_reference([0.3], [0.05], [0.15], eps) == pytest.approx(0.05, rel=REL)
