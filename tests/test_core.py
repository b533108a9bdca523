import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from maxcone import core
from maxcone.errors import BranchPointEvaluation, DegenerateGauss, Infeasible
from maxcone.params import SurfaceParams



def test_w_squared_direct_arithmetic(p10):
    assert core.w_squared(1.5, p10) == pytest.approx(-1.0)


def test_w_squared_at_infinity(p10, p22):
    assert core.w_squared(complex(math.inf, 0), p10) == 1.0
    assert core.w_squared(complex(math.inf, 0), p22) == 1.0


def test_w_squared_pole_marker(p10):
    assert core.is_infinite(core.w_squared(1.0, p10))


def test_branch_tie_break_positive_imag():
    # w^2 = -4 must give +2i, not -2i
    p = SurfaceParams(m=1, n=0, a=(1, 2), alpha=(1,))
    # find the interval point where w^2 = -4: (x-2)/(x-1) = -4 -> x = 1.2
    bv = core.branch_w(1.2, p)
    assert bv.w == pytest.approx(2j, abs=1e-12)


def test_branch_re_nonnegative_square():
    p = SurfaceParams(m=1, n=0, a=(1, 2), alpha=(1,))
    bv = core.branch_w(3.0, p)  # w^2 = 0.5 -> w = +sqrt(0.5)
    assert bv.w.real > 0 and bv.w.imag == 0
    # w^2(7/8) = 9 exactly -> w = 3, the Re >= 0 root
    assert core.w_squared(0.875, p) == pytest.approx(9.0)
    assert core.branch_w(0.875, p).w == pytest.approx(3.0)


def test_branch_at_i_frozen_oracle(p10):
    # frozen from the independent double-root comparison oracle
    bv = core.branch_w(1j, p10)
    assert bv.w == pytest.approx(1.2411967672541269 + 0.20141850719855617j, abs=1e-14)
    assert abs(bv.w**2 - core.w_squared(1j, p10)) <= 1e-12 * abs(bv.w**2)
    assert bv.w.real > 0


def test_gauss_at_branch_points(p10):
    g0 = core.gauss(2.0, p10)  # w = 0
    assert g0.G == pytest.approx(1.0)
    assert g0.nu == pytest.approx((-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)))
    gp = core.gauss(1.0, p10)  # w^2 = inf, G = -1 by continuity
    assert gp.G == pytest.approx(-1.0)
    assert gp.nu == pytest.approx((1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)))


def test_gauss_unit_modulus_on_interval(p10):
    g = core.gauss(1.2, p10)  # w = 2i there
    assert g.G == pytest.approx((1 + 2j) / (1 - 2j))
    assert abs(abs(g.G) - 1.0) < 1e-12
    # w(1.5) = i, so G = (1+i)/(1-i) = i
    assert core.gauss(1.5, p10).G == pytest.approx(1j)


def test_phi2_exact(p10):
    t = core.phi(3.0 + 0j, p10)
    assert t.phi2 == 1j / (3.0 + 0j)


def test_phi_at_w_equals_one():
    # w(z) = 1 at the real point where the product equals 1
    p = SurfaceParams(m=1, n=0, a=(1, 2), alpha=(1,))
    # (x-2)/(x-1) = 1 has no finite solution; use w -> 1 at large |z| instead
    z = 1e8 + 0j
    t = core.phi(z, p)
    assert t.phi1 == pytest.approx(-1.0 / z, rel=1e-6)
    assert abs(t.phi3) < 1e-14


def test_phi_refuses_branch_points(p10):
    with pytest.raises(BranchPointEvaluation):
        core.phi(1.0, p10)
    with pytest.raises(BranchPointEvaluation):
        core.phi(2.0, p10)


def test_conformality_random_points(p22):
    pts = core.regular_sample_points(p22, 1000, np.random.default_rng(3))
    c = core.phi_from_w(pts, core.w_values(pts, p22))
    num = np.abs(c[0] ** 2 + c[1] ** 2 - c[2] ** 2)
    den = np.abs(c[0]) ** 2 + np.abs(c[1]) ** 2 + np.abs(c[2]) ** 2
    assert float(np.max(num / den)) <= 1e-12


def test_metric_zero_on_singular_set(p10):
    assert core.metric_factor(1.5, p10) == pytest.approx(0.0, abs=1e-14)
    assert core.metric_factor(1.0, p10) == 0.0
    assert core.metric_factor(2.0, p10) == 0.0


def test_metric_at_i_matches_phi_form(p10):
    # frozen from the direct phi-expression oracle
    val = core.metric_factor(1j, p10)
    assert val == pytest.approx(0.97434164902525688, abs=1e-10)
    assert val == pytest.approx(float(oracles.metric_phi_form_ref(1j, p10)), abs=1e-10)


def test_metric_finite_at_gauss_pole():
    # near w = 1 the (1/|G| - |G|) form degenerates; the phi form stays finite
    p = SurfaceParams(m=1, n=0, a=(1, 2), alpha=(1,))
    z = 1e9 + 0j  # w -> 1, G -> inf
    val = core.metric_factor(z, p)
    assert val == pytest.approx(1.0 / abs(z) ** 2, rel=1e-6)


def test_metric_matches_phi_form_at_random_points(p21):
    pts = core.regular_sample_points(p21, 50, np.random.default_rng(4))
    for z in pts:
        a = core.metric_factor(complex(z), p21)
        b = float(oracles.metric_phi_form_ref(complex(z), p21))
        assert a == pytest.approx(b, rel=1e-10, abs=1e-300)


def test_hopf_frozen_value(p10):
    # closed form at z = i is (-3 + i)/20
    q = core.hopf(1j, p10)
    assert q == pytest.approx(-0.15 + 0.05j, abs=1e-12)


def test_hopf_matches_finite_differences(p22):
    # the margin keeps the h = 1e-5 stencil away from branch points, and
    # points near the w = 1 locus are dropped: G has a pole there and
    # central differences of it lose accuracy for any step
    rng = np.random.default_rng(5)
    pts = [
        complex(z)
        for z in core.regular_sample_points(p22, 300, rng, margin=0.05)
        if abs(core.branch_w(complex(z), p22).w - 1.0) > 0.1
    ][:100]
    assert len(pts) == 100
    for z in pts:
        z = complex(z)
        w = core.branch_w(z, p22).w
        dg_fd = oracles.gauss_derivative_fd(z, p22)
        dh = -0.5 * (1 / w - w) / z
        g = (1 + w) / (1 - w)
        assert core.hopf(z, p22) == pytest.approx(dg_fd * dh / g, rel=1e-6)


def test_hopf_conjugation_symmetry(p21):
    for z in (0.5 + 0.5j, -1.5 + 2j, 3 + 0.25j):
        assert core.hopf(np.conj(z), p21) == pytest.approx(np.conj(core.hopf(z, p21)), rel=1e-12)


def test_hopf_degenerate_gauss():
    p = SurfaceParams(m=1, n=0, a=(1, 2), alpha=(1,))
    with pytest.raises(BranchPointEvaluation):
        core.hopf(2.0, p)
    # w^2(0.5) = (-1.5)(1.5)/((-0.5)(4.5)) = 1 exactly, so G = inf there
    p2 = SurfaceParams(m=1, n=1, a=(1, 2), b=(-1, -4), alpha=(1,), beta=(1,))
    assert core.branch_w(0.5, p2).w == 1.0
    with pytest.raises(DegenerateGauss):
        core.hopf(0.5, p2)


def test_end_value_examples(p10, p11):
    assert core.end_value_w0(p10) == pytest.approx(math.sqrt(2.0))
    assert core.end_value_w0(p11) == pytest.approx(1.0)


def test_end_value_all_up_exceeds_one():
    for m in (1, 2, 3):
        a = tuple(float(i + 1) for i in range(2 * m))
        p = SurfaceParams(m=m, n=0, a=a, alpha=(1,) * m)
        assert core.end_value_w0(p) > 1.0


def test_normalize_horizontal_end_closed_form():
    p = SurfaceParams(m=1, n=1, a=(1, 2), b=(-1, -3), alpha=(1,), beta=(1,))
    q = core.normalize_horizontal_end(p, ("b", 2))
    assert q.b[1] == pytest.approx(-2.0)
    assert core.end_value_w0(q) == pytest.approx(1.0, abs=1e-12)


def test_normalize_infeasible_same_direction(p10):
    with pytest.raises(Infeasible):
        core.normalize_horizontal_end(p10, ("a", 2))


def test_normalize_mixed_21_generic():
    p = SurfaceParams(
        m=2, n=1, a=(1.0, 1.7, 2.9, 4.0), b=(-1.3, -2.2), alpha=(1, -1), beta=(1,)
    )
    q = core.normalize_horizontal_end(p, ("b", 2))
    assert core.end_value_w0(q) == pytest.approx(1.0, abs=1e-12)
    # ordering still strict
    assert q.b[1] < q.b[0] < 0


def test_normalize_solving_a_coordinate():
    p = SurfaceParams(m=2, n=0, a=(1.0, 2.0, 3.0, 7.0), alpha=(1, -1))
    q = core.normalize_horizontal_end(p, ("a", 4))
    assert core.end_value_w0(q) == pytest.approx(1.0, abs=1e-12)
    assert q.a[3] > q.a[2]


def test_normalize_ordering_violation_reported():
    # solving a_2 gives a_1 a_4 / a_3 = 5, past a_3 = 2: ordering breaks
    p = SurfaceParams(m=2, n=0, a=(1.0, 1.5, 2.0, 10.0), alpha=(1, -1))
    with pytest.raises(Infeasible):
        core.normalize_horizontal_end(p, ("a", 2))


@given(
    x=st.floats(min_value=-30, max_value=30),
    y=st.floats(min_value=-30, max_value=30),
)
@settings(max_examples=200, deadline=None)
def test_branch_properties_everywhere(x, y):
    p = SurfaceParams(m=1, n=1, a=(1, 2), b=(-1, -2), alpha=(1,), beta=(1,))
    z = complex(x, y)
    if z == 0 or min(abs(z - c) for c in p.branch_points()) < 1e-9:
        return
    w = core.branch_w(z, p).w
    w2 = core.w_squared(z, p)
    assert w.real >= 0.0
    assert abs(w * w - w2) <= 1e-12 * max(abs(w2), 1e-290)
    # |G| >= 1 wherever defined
    if w != 1.0:
        assert abs((1 + w) / (1 - w)) >= 1.0 - 1e-12


@given(
    x=st.floats(min_value=-20, max_value=20),
    y=st.floats(min_value=1e-6, max_value=20),
)
@settings(max_examples=200, deadline=None)
def test_conjugation_symmetry_of_w(x, y):
    p = SurfaceParams(m=1, n=1, a=(1, 2), b=(-1, -2), alpha=(1,), beta=(1,))
    z = complex(x, y)
    wu = core.branch_w(z, p).w
    wl = core.branch_w(z.conjugate(), p).w
    assert wl == pytest.approx(wu.conjugate(), rel=1e-12)


def test_branch_continuity_along_path(p22):
    # dense walk on a circle crossing the real axis only in gaps
    th = np.linspace(0, 2 * np.pi, 4001)
    z = 2.5 * np.exp(1j * th)  # crosses at +-2.5: gaps for p22
    w = core.w_values(z, p22)
    steps = np.abs(np.diff(w))
    assert float(np.max(steps)) < 0.02  # no branch jumps


def test_nu_third_component_positive_off_singular(p22):
    pts = core.regular_sample_points(p22, 200, np.random.default_rng(6))
    for z in pts[:50]:
        g = core.gauss(complex(z), p22)
        assert abs(np.linalg.norm(g.nu) - 1.0) <= 1e-14
        if abs(g.G) > 1:
            assert g.nu[2] > 0
