"""One-cone surfaces against the closed-form immersion (oracles.one_cone_immersion_ref).

The classification's pieces are checked against exact values: the routed
immersion and its error estimate, the apex and its spread, the stadium
image relative to its first point, and the direction-vote values.
"""

import math

import numpy as np
import pytest

import oracles
from maxcone import singular as S
from maxcone.integrate import immersion
from maxcone.params import SurfaceParams

ONE_CONE = [
    SurfaceParams(m=1, n=0, a=a, alpha=(s,)) for a in ((1, 2), (0.5, 4)) for s in (1, -1)
]
IDS = ["a=(1,2)+", "a=(1,2)-", "a=(0.5,4)+", "a=(0.5,4)-"]
# scale ratio 1e4: the true error of a route reaches its estimate's order here
WIDE = [SurfaceParams(m=1, n=0, a=(1e-2, 1e2), alpha=(s,)) for s in (1, -1)]
WIDE_IDS = ["a=(1e-2,1e2)+", "a=(1e-2,1e2)-"]


def _ref(z, p):
    return oracles.one_cone_immersion_ref(z, p)


def _gap(f, ref):
    return float(np.max(np.abs(np.asarray(f) - ref)))


def _seeded_points(p, count, seed):
    """r log-uniform in [0.05 a_1, 20 a_2], both half-planes."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r = math.exp(rng.uniform(math.log(0.05 * p.a[0]), math.log(20.0 * p.a[1])))
        theta = rng.uniform(-math.pi, math.pi)
        yield r * complex(math.cos(theta), math.sin(theta))


@pytest.mark.parametrize("p", ONE_CONE, ids=IDS)
def test_the_closed_form_is_zero_at_the_origin_and_flat_on_the_interval(p):
    assert np.array_equal(_ref(p.default_basepoint(), p), np.zeros(3))
    lo, hi = p.a
    apex = _ref(0.5 * (lo + hi), p)
    for x in np.linspace(lo, hi, 7)[1:-1]:
        assert _gap(_ref(x, p), apex) <= 1e-14


@pytest.mark.parametrize("p", ONE_CONE, ids=IDS)
def test_immersion_and_its_estimate_against_the_closed_form(p):
    # seeded points: within 1e-12 of the exact value, and the reported
    # quad_error at least the true error
    for z in _seeded_points(p, 60, 15):
        sample = immersion(z, p)
        true = _gap(sample.f, _ref(z, p))
        assert true <= 1e-12, z
        assert true <= sample.quad_error, z


@pytest.mark.parametrize("p", WIDE, ids=WIDE_IDS)
def test_immersion_estimate_bounds_the_true_error_at_scale_ratio_1e4(p):
    # the reported quad_error is at least the true error at 300 seeded
    # points; a radial leg that ended a rounding short of its radius left a
    # gap before the next arc, which no estimate saw
    for z in _seeded_points(p, 300, 16):
        sample = immersion(z, p)
        assert _gap(sample.f, _ref(z, p)) <= sample.quad_error, z


@pytest.mark.parametrize("p", ONE_CONE + WIDE, ids=IDS + WIDE_IDS)
def test_classified_apex_against_the_closed_form(p):
    # the apex is within 1e-12 of the exact apex, f(lo) and f(hi) within
    # 1e-9, and the reported apex_spread is at least the apex's true error
    (c,) = S.components(p)
    rep = S.classify_cone(c, p)
    apex = _ref(c.midpoint, p)
    assert rep.matches_theorem
    assert _gap(rep.apex, apex) <= min(1e-12, rep.apex_spread)
    for x in (c.lo, c.hi):
        assert _gap(immersion(complex(x), p).f, apex) <= 1e-9


@pytest.mark.parametrize("p", ONE_CONE, ids=IDS)
def test_relative_stadium_image_against_closed_form_differences(p):
    # the chain starts at 0 on the loop's first point: every row is the
    # exact f there minus the exact f at that point
    (c,) = S.components(p)
    loop, img = S._stadium_image(c, p)
    ref = np.array([_ref(z, p) for z in loop])
    assert img.shape == ref.shape == (62, 3)
    assert np.array_equal(img[0], np.zeros(3))
    assert _gap(img, ref - ref[0]) <= 1e-12


@pytest.mark.parametrize("p", ONE_CONE, ids=IDS)
def test_direction_vote_values_against_the_closed_form(p):
    (c,) = S.components(p)
    ends = [np.asarray(immersion(complex(x), p).f) for x in (c.lo, c.hi)]
    votes = S._outside_values(c, p, ends, S._clamp_outer(1e-2 * c.length, c, p))
    assert len(votes) == 2
    for eps, f_lo, f_hi in votes:
        assert _gap(f_lo, _ref(c.lo - eps, p)) <= 1e-9
        assert _gap(f_hi, _ref(c.hi + eps, p)) <= 1e-9
