import functools
import math
import warnings

import numpy as np
import pytest

import oracles
from maxcone import core
from maxcone import integrate as I
from maxcone import minimal as M
from maxcone.errors import (
    NotClosedOnCurve,
    OrderingInfeasible,
    PathThroughSingularity,
    SignDomain,
)
from maxcone.params import SurfaceParams


def _vertical(p):
    return M.MinimalData(params=p, orientation="vertical-ends")


def _horizontal(p):
    return M.MinimalData(params=p, orientation="horizontal-ends")


def test_b2n_normalize_telescopes():
    p = SurfaceParams(m=1, n=1, a=(1, 2), b=(-1, -1.5), alpha=(1,), beta=(1,))
    q = M.b2n_normalize(p)
    assert q.b == (-1.0, -2.0)
    assert core.w_squared(0.0, q) == pytest.approx(1.0, abs=1e-12)
    assert core.end_value_w0(q) == pytest.approx(1.0, abs=1e-12)


def test_b2n_normalize_wide():
    p = SurfaceParams(m=1, n=1, a=(1, 100), b=(-1, -1.5), alpha=(1,), beta=(1,))
    q = M.b2n_normalize(p)
    assert q.b == (-1.0, -100.0)


def test_b2n_normalize_two_handles():
    p = SurfaceParams(
        m=2, n=2, a=(1, 2, 3, 4), b=(-1, -2, -3, -4), alpha=(1, 1), beta=(1, 1)
    )
    q = M.b2n_normalize(p)
    assert core.w_squared(0.0, q) == pytest.approx(1.0, abs=1e-12)
    assert q.b[3] < q.b[2]


def test_b2n_normalize_requires_all_plus():
    p = SurfaceParams(m=1, n=1, a=(1, 2), b=(-1, -2), alpha=(-1,), beta=(1,))
    with pytest.raises(SignDomain):
        M.b2n_normalize(p)


def test_b2n_normalize_requires_handles():
    p = SurfaceParams(m=1, n=0, a=(1, 2), alpha=(1,))
    with pytest.raises(SignDomain):
        M.b2n_normalize(p)


def test_b2n_normalize_infeasible():
    # factor < 1 forces b_2n above b_2n-1
    p = SurfaceParams(
        m=1, n=2, a=(1, 1.01), b=(-1, -10, -10.5, -11), alpha=(1,), beta=(1, 1)
    )
    with pytest.raises(OrderingInfeasible):
        M.b2n_normalize(p)


def test_contractible_loop_vanishes(p11):
    d = _vertical(p11)
    loop = [3 + 1j, 4 + 1j, 4 + 2j, 3 + 2j]
    v, err = M.measure_period(loop, d)
    assert np.asarray(v) == pytest.approx([0.0, 0.0, 0.0], abs=1e-8)


def test_end_loop_matches_residue_closed_form(p11, p21):
    for p in (p11, p21):
        for d in (_vertical(p), _horizontal(p)):
            v, _ = M.measure_period(M.end_loop_waypoints(p), d)
            assert np.asarray(v) == pytest.approx(np.asarray(M.end_loop_residue(d)), abs=1e-8)


def test_end_loop_normalized_gives_2pi():
    p = M.b2n_normalize(
        SurfaceParams(m=1, n=1, a=(1, 2), b=(-1, -1.5), alpha=(1,), beta=(1,))
    )
    v, _ = M.measure_period(M.end_loop_waypoints(p), _vertical(p))
    assert np.asarray(v) == pytest.approx([0.0, -2 * math.pi, 0.0], abs=1e-8)


def test_handle_loop_against_dense_oracle(p21):
    d = _vertical(p21)
    lo, hi = p21.positive_intervals()[0]
    wps = M.handle_loop_waypoints(p21, lo, hi)
    v, err = M.measure_period(wps, d)
    ref = oracles.composite_gauss_segments(
        wps + [wps[0]], p21, n_panels=32, coeff=lambda z, p: oracles.omega_ref(z, p, "vertical-ends")
    )
    assert np.asarray(v) == pytest.approx(ref, abs=1e-8)


def test_odd_cut_crossing_rejected(p10):
    d = _vertical(p10)
    loop = [1.5 + 0.5j, 1.5 - 0.5j, 2.5 - 0.5j, 2.5 + 0.5j]
    with pytest.raises(NotClosedOnCurve):
        M.measure_period(loop, d)


def test_even_cut_crossings_accepted(p22, monkeypatch):
    # crosses the cuts [1,2] and [3,4] once each: closed on the curve
    d = _vertical(p22)
    loop = [1.5 + 0.5j, 1.5 - 0.5j, 3.5 - 0.5j, 3.5 + 0.5j]
    v, err = M.measure_period(loop, d)
    assert err < 1e-8
    # stable under a tighter quadrature rerun
    monkeypatch.setattr(I, "DEFAULT_SEGMENT_TOL", 1e-12)
    v2, _ = M.measure_period(loop, d)
    assert np.asarray(v) == pytest.approx(np.asarray(v2), abs=1e-9)


# loops that cross two cuts, so that half of their pieces lie on sheet -1
CROSSING_LOOPS = {
    "p11": [1.5 + 0.5j, 1.5 - 0.5j, -1.5 - 0.5j, -1.5 + 0.5j],
    "p22": [1.5 + 0.5j, 1.5 - 0.5j, 3.5 - 0.5j, 3.5 + 0.5j],
}


@pytest.mark.parametrize("fixture", ["p10", "p11", "p21", "p22"])
def test_measure_period_matches_per_piece_oracle(fixture, request):
    # batched first panels give the bytes of each piece integrated alone: the
    # end loop, every handle loop and a cut-crossing loop, both orientations
    # (p21 is the README surface)
    p = request.getfixturevalue(fixture)
    loops = [M.end_loop_waypoints(p)]
    loops += [M.handle_loop_waypoints(p, lo, hi) for lo, hi in sorted(p.intervals())]
    loops += [CROSSING_LOOPS[fixture]] if fixture in CROSSING_LOOPS else []
    for orientation in M.ORIENTATIONS:
        d = M.MinimalData(params=p, orientation=orientation)
        for wps in loops:
            v, e = M.measure_period(wps, d)
            v_ref, e_ref = oracles.measure_period_ref(wps, d)
            assert np.asarray(v).tobytes() == np.asarray(v_ref).tobytes()
            assert np.float64(e).tobytes() == np.float64(e_ref).tobytes()


def test_omega_pieces_one_leg_each_and_batched_first_panels(p10, monkeypatch):
    d = _vertical(p10)
    legs = []
    adaptive_leg = I.adaptive_leg

    def counted_leg(leg, coeff_fn, tol):
        calls = []

        def spy(panel):
            calls.append(panel)
            return coeff_fn(panel)

        # the first-panel sums the chunk's server holds for this piece
        server = coeff_fn.__self__
        first = server.firsts[server.served]
        out = adaptive_leg(leg, spy, tol)
        # the replay took every sum queued for the piece: none was refined in vain
        assert not server.queue
        legs.append((leg, first, calls))
        return out

    sizes = []
    w_values = I.w_values

    def counted_w(z, p):
        sizes.append(np.size(z))
        return w_values(z, p)

    monkeypatch.setattr(I, "adaptive_leg", counted_leg)
    monkeypatch.setattr(I, "w_values", counted_w)
    wps = M.end_loop_waypoints(p10)
    M.measure_period(wps, d)
    # one adaptive_leg call per piece, one kernel call for all first panels,
    # then one per round, in which the two halves of every split of the
    # pieces still open share the call
    assert len(legs) == 64
    splits = [(len(calls) - 1) // 2 for _, _, calls in legs]
    assert sizes[0] == 64 * 15 and len(sizes) == 1 + max(splits)
    assert sum(sizes[1:]) == 30 * sum(splits)
    pieces, sheets, _ = I._polyline_legs([complex(z) for z in wps + wps[:1]], p10, cuts="flip")
    assert [leg for leg, _, _ in legs] == pieces
    form = functools.partial(M.omega_from_w, orientation=d.orientation)
    for (leg, (k, e), calls), sheet in zip(legs, sheets):
        assert calls[0] == (0.0, 1.0)
        k_ref, e_ref = oracles.lone_coeff_fn(leg, p10, form, sheet)((0.0, 1.0))
        assert k.tobytes() == k_ref.tobytes() and np.float64(e).tobytes() == np.float64(e_ref).tobytes()


def test_piece_with_a_node_on_a_branch_point_fails_alone(p10):
    # the second piece runs along the axis from 0.5 to 3.5, over the cut
    # [1, 2] (its middle node is the branch point 2): rejected before any
    # quadrature; test_non_finite_panel_raises covers a non-finite panel
    d = _vertical(p10)
    loop = [0.5 + 1j, 0.5 + 0j, 3.5 + 0j, 3.5 + 1j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PathThroughSingularity, match=r"\[1\.0, 2\.0\]"):
            M.measure_period(loop, d)


def test_waypoint_on_cut_rejected(p10):
    d = _vertical(p10)
    with pytest.raises(PathThroughSingularity):
        M.measure_period([1.5 + 0j, 3 + 1j, 3 - 1j], d)


def test_identity_with_maximal_forms(p21):
    # (phi1, phi2, phi3) = (i w1, i w2, w3) for the horizontal orientation
    d = _horizontal(p21)
    rng = np.random.default_rng(9)
    pts = core.regular_sample_points(p21, 50, rng)
    for z in pts:
        z = complex(z)
        om = M.omega(z, d)
        t = core.phi(z, p21)
        assert abs(1j * om[0] - t.phi1) <= 1e-14 * abs(t.phi1)
        assert abs(1j * om[1] - t.phi2) <= 1e-14 * abs(t.phi2)
        assert abs(om[2] - t.phi3) <= 1e-14 * max(abs(t.phi3), 1e-290)


def test_standard_loops_lattice(p11):
    p = M.b2n_normalize(
        SurfaceParams(m=1, n=1, a=(1, 2), b=(-1, -1.5), alpha=(1,), beta=(1,))
    )
    lat = M.standard_loops(_vertical(p))
    assert lat.genus == 1
    names = [name for name, _ in lat.measured_loops]
    assert names[0] == "end_0" and len(names) == 3
    # vertical orientation: dh = dz/z has no residue off 0, so every handle
    # vector is horizontal
    assert all(lat.horizontal[1:])
    d = lat.to_dict()
    assert d["genus"] == 1 and len(d["loops"]) == 3


def test_orientation_validation(p10):
    with pytest.raises(SignDomain):
        M.MinimalData(params=p10, orientation="diagonal-ends")
