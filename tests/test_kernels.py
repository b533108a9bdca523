"""The pointwise kernels reproduce their masked, stacked formulations byte for byte.

core.w2_values and core.w_values mask only when a value is non-finite;
core.phi_from_w and minimal.omega_from_w fill a preallocated output. The
references in oracles.py keep the per-factor pole mask and np.stack. Every
floating-point operation happens in the same order in both, so the bytes
must agree, NaN payloads and signed zeros included. Every kernel also
gives each point the same bytes in one large call as in 15-point calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from maxcone import core
from maxcone import minimal as M
from maxcone.params import SurfaceParams


def hard_points(p):
    """Roots, interval interiors with +0j and -0j, gaps, 0, infinities and NaNs."""
    z = []
    for c in p.branch_points():
        z += [complex(c, 0.0), complex(c, -0.0)]
    for lo, hi in p.intervals():
        for x in np.linspace(lo, hi, 7)[1:-1]:
            z += [complex(x, 0.0), complex(x, -0.0)]
    walls = sorted([-30.0, 30.0, *p.branch_points()])
    z += [complex(0.5 * (u + v), s) for u, v in zip(walls, walls[1:]) for s in (0.0, -0.0)]
    inf, nan = float("inf"), float("nan")
    z += [0j, complex(inf, 0.0), complex(-inf, 0.0), complex(0.0, inf), complex(inf, inf)]
    z += [complex(nan, 0.0), complex(0.0, nan), 1 + 1j, -2.5 - 0.5j]
    return np.array(z)


def assert_kernels_match(z, p):
    with np.errstate(all="ignore"):  # 1/w at branch points, inf - inf at z = inf
        w2, w2_ref = core.w2_values(z, p), oracles.w2_masked_ref(z, p)
        w, w_ref = core.w_values(z, p), oracles.w_masked_ref(z, p)
        phi, phi_ref = core.phi_from_w(z, w), oracles.phi_stacked_ref(z, w_ref)
        omegas = [
            (M.omega_from_w(z, w, o), oracles.omega_stacked_ref(z, w_ref, o))
            for o in M.ORIENTATIONS
        ]
    assert w2.tobytes() == w2_ref.tobytes()
    assert w.tobytes() == w_ref.tobytes()
    assert phi.shape == phi_ref.shape and phi.tobytes() == phi_ref.tobytes()
    for new, ref in omegas:
        assert new.shape == ref.shape and new.tobytes() == ref.tobytes()


@pytest.mark.parametrize("fixture", ["p10", "p11", "p21", "p22"])
def test_kernels_match_references_at_hard_points(fixture, request):
    p = request.getfixturevalue(fixture)
    z = hard_points(p)
    assert_kernels_match(z, p)
    for point in z:  # one at a time too, the way the scalar helpers pass points
        assert_kernels_match(np.asarray([point]), p)
        assert_kernels_match(np.asarray(point), p)
    # the hard points do reach every masked path of the references
    with np.errstate(all="ignore"):
        w2 = oracles.w2_masked_ref(z, p)
        w = core.w_values(z, p)
    assert np.isinf(w2).any() and np.isnan(z).any()
    assert ((w.real == 0.0) & (np.signbit(z.imag))).any()


def all_kernels(z, p):
    """Every pointwise kernel at the points z, each with the point axis last."""
    with np.errstate(all="ignore"):  # as in assert_kernels_match
        w = core.w_values(z, p)
        out = [core.w2_values(z, p), w, core.dlog_w2(z, p), core.dg_over_gdh(z, p)]
        out += [*core.weierstrass_data(z, p), core.phi_from_w(z, w)]
        out += [np.moveaxis(core.nu_from_w(w), -1, 0)]
        out += [M.omega_from_w(z, w, o) for o in M.ORIENTATIONS]
    return out


def many_points(p):
    """60,000 points, the hard points 40 times among uniform ones, shuffled."""
    rng = np.random.default_rng(11)
    hard = np.tile(hard_points(p), 40)
    n = 60_000 - hard.size
    z = np.concatenate([hard, rng.uniform(-10, 10, n) + 1j * rng.uniform(-10, 10, n)])
    rng.shuffle(z)
    return z


@pytest.mark.parametrize("fixture", ["p10", "p11", "p21", "p22"])
def test_kernels_match_references_on_60000_points(fixture, request):
    # numpy evaluates some expressions on large arrays in place: the
    # references hold at that size too, not only on the hard points alone
    p = request.getfixturevalue(fixture)
    assert_kernels_match(many_points(p), p)


@pytest.mark.parametrize("fixture", ["p21", "p22"])
def test_kernels_give_the_same_bytes_at_any_call_size(fixture, request):
    # one call on 60,000 points against 4,000 calls on 15 of them, the
    # nodes of one panel: numpy evaluates some expressions on large arrays
    # in place, and that must not reach the bits
    p = request.getfixturevalue(fixture)
    z = many_points(p)
    big = all_kernels(z, p)
    small = [all_kernels(z[i : i + 15], p) for i in range(0, z.size, 15)]
    for k, out in enumerate(big):
        ref = np.concatenate([s[k] for s in small], axis=-1)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


@st.composite
def surfaces(draw):
    """Valid surfaces with up to four cones and gaps over two decades."""
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=4 - m))
    gap = st.floats(min_value=0.05, max_value=5.0)
    sign = st.sampled_from((1, -1))
    a = np.cumsum([draw(gap) for _ in range(2 * m)])
    b = -np.cumsum([draw(gap) for _ in range(2 * n)])
    return SurfaceParams(
        m=m,
        n=n,
        a=tuple(a),
        b=tuple(b),
        alpha=tuple(draw(sign) for _ in range(m)),
        beta=tuple(draw(sign) for _ in range(n)),
    )


@given(p=surfaces(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_kernels_match_references_on_random_surfaces(p, data):
    coord = st.floats(min_value=-40.0, max_value=40.0)
    special = st.sampled_from(list(hard_points(p)))
    points = st.one_of(st.builds(complex, coord, coord), special)
    z = np.array(data.draw(st.lists(points, min_size=1, max_size=40)), dtype=complex)
    assert_kernels_match(z, p)
