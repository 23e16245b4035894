"""The pairwise bound against a reference bisection.

``conic.pairwise_slack_bound`` is the last float at which the predicate
rejects a pair.  ``reference_bound`` is an 80-step vectorized bisection over
values of the same floating-point predicate: every pair's switch is
bracketed between a rejected and an accepted relaxation, and the largest
rejected one is its bound.  It stops within the rounding of that predicate,
so agreement is measured relative to the data's scale.
"""

import itertools

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


def family_at(kind, D, eps, t):
    """One pair at separation ``D`` whose ``kind`` condition of the
    predicate has its root at relaxation ``t``, the other two holding
    there: (hi, lo)."""
    r = np.sqrt(t + eps)
    if kind == "upper":
        hi = (D - r) ** 2 - t
        return hi, hi
    if kind == "lower":
        lo = 3.0 * r * r + 2.0 * D * r + D * D - eps
        return lo, lo
    return D * D, D * D + 2.0 * t   # nonempty


def test_bound_reaches_tol_infeas_iff_refuted():
    # The scenario oracle refutes a sub-network by a pair that the float
    # predicate rejects at tol_infeas, and check_feasibility by a pairwise
    # bound at or past tol_infeas, so the two must part on no pair.  One
    # pair per family, one condition's root within 400 ulps of tol_infeas
    # (every eighth ulp), where rounding decides the predicate.
    tol = sdp.OracleOptions().tol_infeas
    for kind, D, eps in itertools.product(("upper", "lower", "nonempty"), np.linspace(0.05, 1.0, 10), (1e-5, 1e-6)):
        for ulps in range(-400, 401, 8):
            t = tol + ulps * float(np.spacing(tol))
            if kind == "upper" and np.sqrt(t + eps) > D:
                continue
            D_, hi, lo = (np.array([v]) for v in (D, *family_at(kind, D, eps, t)))
            bound = conic.pairwise_slack_bound(one_node_family(D_, hi, lo, eps))
            assert (bound >= tol) == (not satisfied(tol, D_, hi, lo, eps)[0]), (kind, D, eps, ulps)


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
