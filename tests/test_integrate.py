import cmath
import functools
import math
import sys
import time
import warnings

import numpy as np
import pytest

import oracles
from maxcone import integrate as I
from maxcone.errors import NonConvergent, PathThroughSingularity, QuadratureFailure
from maxcone.params import SurfaceParams

TWO_PI = 2.0 * math.pi


def test_basepoint_maps_to_origin(p10):
    s = I.immersion(p10.default_basepoint(), p10)
    assert s.f == (0.0, 0.0, 0.0)


def test_real_axis_displacement_frozen(p10):
    # frozen from the composite Gauss-Legendre oracle (128 panels, order 20)
    disp, err = I.integrate_path(I.PathSpec(waypoints=(3.0 + 0j, 4.0 + 0j)), p10)
    expect = (-0.29809400516116313, 0.0, 0.077196830120309465)
    assert disp == pytest.approx(expect, abs=1e-9)
    assert err < 1e-9


def _segment_clearance(u, v, p):
    """Distance from segment (u, v) to the nearest branch point or 0."""
    d = v - u
    out = math.inf
    for c in list(p.branch_points()) + [0.0]:
        t = ((c - u) * d.conjugate()).real / abs(d) ** 2
        t = min(max(t, 0.0), 1.0)
        out = min(out, abs(u + t * d - c))
    return out


def test_path_oracle_agreement_random_paths(p21):
    # fixed-order composite Gauss is only trustworthy away from branch
    # points, so the sampled segments keep a clearance from them
    rng = np.random.default_rng(11)
    from maxcone import core

    pts = core.regular_sample_points(p21, 60, rng, margin=0.05)
    count = 0
    for k in range(0, len(pts) - 1, 2):
        wps = (complex(pts[k]), complex(pts[k + 1]))
        if _segment_clearance(wps[0], wps[1], p21) < 0.1:
            continue
        try:
            disp, err = I.integrate_path(I.PathSpec(waypoints=wps), p21)
        except PathThroughSingularity:
            continue
        ref = oracles.composite_gauss_segments(list(wps), p21)
        assert np.max(np.abs(np.asarray(disp) - ref)) <= 1e-8
        count += 1
    assert count >= 10


def test_error_estimates_bound_oracle_difference(p22):
    rng = np.random.default_rng(13)
    from maxcone import core

    pts = core.regular_sample_points(p22, 300, rng, margin=0.02)
    checked = 0
    for k in range(0, len(pts) - 1, 2):
        if checked >= 50:
            break
        wps = (complex(pts[k]), complex(pts[k + 1]))
        if _segment_clearance(wps[0], wps[1], p22) < 0.1:
            continue
        try:
            disp, err = I.integrate_path(I.PathSpec(waypoints=wps), p22)
        except PathThroughSingularity:
            continue
        ref = oracles.composite_gauss_segments(list(wps), p22, n_panels=96)
        true_err = float(np.max(np.abs(np.asarray(disp) - ref)))
        assert true_err <= max(err, 1e-12)
        checked += 1
    assert checked >= 50


def test_path_independence_homotopic(p10):
    z0, z1 = 3.0 + 0.5j, 0.2 + 2.5j
    direct = I.integrate_path(I.PathSpec(waypoints=(z0, z1)), p10)[0]
    detour = I.integrate_path(I.PathSpec(waypoints=(z0, 2.8 + 2.8j, 1.5 + 3j, z1)), p10)[0]
    assert np.asarray(direct) == pytest.approx(np.asarray(detour), abs=1e-8)


def test_path_independence_20_random_pairs(p21):
    # homotopic pairs: both routes stay in the upper half-plane, so no
    # singular interval or winding difference can separate them
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 20:
        r0, r1 = rng.uniform(0.3, 6.0, size=2)
        t0, t1 = rng.uniform(0.15, math.pi - 0.15, size=2)
        z0 = r0 * cmath.exp(1j * t0)
        z1 = r1 * cmath.exp(1j * t1)
        mid1 = 0.5 * (z0 + z1) + rng.uniform(0.1, 1.0) * 1j
        mid2 = 0.5 * (z0 + z1) + rng.uniform(1.2, 2.5) * 1j
        try:
            a = I.integrate_path(I.PathSpec(waypoints=(z0, mid1, z1)), p21)[0]
            b = I.integrate_path(I.PathSpec(waypoints=(z0, mid2, z1)), p21)[0]
        except PathThroughSingularity:
            continue
        assert np.asarray(a) == pytest.approx(np.asarray(b), abs=1e-8)
        checked += 1


def test_f2_is_minus_arg(p10):
    for z in (0.7j, -0.5 + 0.3j, 3.0 + 0j, -4.0 + 0j, 0.25 - 0.6j):
        s = I.immersion(z, p10)
        assert s.f[1] == pytest.approx(-cmath.phase(z), abs=1e-10)


def test_winding_shifts_f2_by_2pi(p10):
    # closed polyline around 0 once: f2 shifts by -2pi, f1 and f3 return
    th = np.linspace(0.0, 2 * np.pi, 65)
    circle = [0.5 * cmath.exp(1j * t) for t in th]
    path = I.PathSpec(waypoints=tuple(circle))
    disp, _ = I.integrate_path(path, p10)
    assert disp[1] == pytest.approx(-TWO_PI, abs=1e-8)
    assert abs(disp[0]) <= 1e-8 and abs(disp[2]) <= 1e-8


def test_mirror_symmetry_of_immersion(p21):
    for z in (0.8 + 0.6j, -1.5 + 0.9j, 4.0 + 2.0j):
        fu = np.asarray(I.immersion(z, p21).f)
        fl = np.asarray(I.immersion(z.conjugate(), p21).f)
        assert fu == pytest.approx(fl * np.array([1.0, -1.0, 1.0]), abs=1e-8)


def test_x2_extent_is_pi(p10):
    # positive and negative real axis rows sit pi apart in x2
    s_pos = I.immersion(3.0 + 0j, p10)
    s_neg = I.immersion(-3.0 + 0j, p10)
    assert s_pos.f[1] - s_neg.f[1] == pytest.approx(math.pi, abs=1e-10)


def test_loop_period_around_zero(p10, p22):
    for p in (p10, p22):
        pv = I.loop_period(0, p)
        assert np.asarray(pv.v) == pytest.approx([0.0, -TWO_PI, 0.0], abs=1e-8)


def test_loop_period_around_infinity(p10, p22):
    for p in (p10, p22):
        pv = I.loop_period(math.inf, p)
        assert np.asarray(pv.v) == pytest.approx([0.0, TWO_PI, 0.0], abs=1e-8)


@pytest.mark.parametrize("center", [1.0, -1, -math.inf, math.nan, None, "0", "inf", True, False, 0j])
def test_loop_period_rejects_a_center_that_is_not_an_end(center, p10):
    # only 0 and +inf are ends; anything else used to give the loop at inf,
    # labelled loop_center=inf
    with pytest.raises(ValueError, match="center must be one of"):
        I.loop_period(center, p10)


def test_loop_period_accepts_the_ends_in_any_real_type(p10):
    # the same bytes for every spelling of the two ends
    for ends, center in (((0, 0.0, -0.0, np.float64(0), np.int64(0)), 0.0), ((math.inf, np.inf), math.inf)):
        vals = [repr(I.loop_period(c, p10)) for c in ends]
        assert vals == vals[:1] * len(ends) and f"loop_center={center}" in vals[0]


def test_residue_closure(p21):
    v0 = np.asarray(I.loop_period(0, p21).v)
    vi = np.asarray(I.loop_period(math.inf, p21).v)
    assert v0 + vi == pytest.approx([0.0, 0.0, 0.0], abs=1e-8)


def test_loop_period_matches_oracle(p21):
    pv = I.loop_period(0, p21)
    ref = oracles.composite_gauss_circle(0.5 * p21.inner_radius(), p21)
    assert np.asarray(pv.v) == pytest.approx(ref, abs=1e-10)


def _four_limits(lo, hi, p):
    """Limits from above and below plus the endpoint values (the along-axis limits)."""
    vals = []
    for side in ("above", "below"):
        v, resid = I.apex((lo, hi), side, p)
        assert resid < 1e-6
        vals.append(np.asarray(v))
    return vals + [np.asarray(I.immersion(complex(x), p).f) for x in (lo, hi)]


def test_apex_four_sides_agree(p10):
    vals = _four_limits(1.0, 2.0, p10)
    for a in vals:
        for b in vals:
            assert np.max(np.abs(a - b)) <= 1e-6


def test_apex_frozen_value(p10):
    # frozen from a 6-level extrapolation at eps0 = 1e-4
    v, _ = I.apex((1.0, 2.0), "above", p10)
    assert np.asarray(v) == pytest.approx(
        [0.59749287522094152, 0.0, -0.38841809960603774], abs=1e-8
    )


def test_apex_constant_along_interval(p10):
    # two interior points approached from above give the same limit
    mid_l, _ = I.apex((1.0, 1.4), "above", p10)
    mid_r, _ = I.apex((1.6, 2.0), "above", p10)
    assert np.asarray(mid_l) == pytest.approx(np.asarray(mid_r), abs=1e-6)


def test_apex_x2_is_minus_arg(p10, p11):
    v, _ = I.apex((1.0, 2.0), "above", p10)
    assert v[1] == pytest.approx(0.0, abs=1e-8)
    v, _ = I.apex((-2.0, -1.0), "above", p11)
    assert v[1] == pytest.approx(-math.pi, abs=1e-8)


def test_direct_branch_point_integration_hits_apex(p10):
    # endpoint integration through the sqrt substitution is an independent
    # route to the apex value
    apex_v, _ = I.apex((1.0, 2.0), "above", p10)
    for endpoint in (1.0, 2.0):
        s = I.immersion(complex(endpoint), p10)
        assert np.asarray(s.f) == pytest.approx(np.asarray(apex_v), abs=1e-6)


def test_apex_all_components(p22):
    for lo, hi in p22.intervals():
        vals = _four_limits(lo, hi, p22)
        for a in vals:
            for b in vals:
                assert np.max(np.abs(a - b)) <= 1e-6


@pytest.mark.parametrize(
    "interval",
    [(2.0, 1.0), (1.0, 1.0), (math.nan, 2.0), (1.0, math.inf), (0.5, 1.5), (1.5, 2.5), (-2.0, -1.0)],
)
def test_apex_rejects_an_interval_outside_the_singular_set(p10, interval):
    # reversed, empty and non-finite intervals used to return a value or run
    # to a max-depth QuadratureFailure
    with pytest.raises(ValueError, match=r"inside one singular interval"):
        I.apex(interval, "above", p10)


def test_apex_rejects_an_interval_spanning_two_cones(p22):
    with pytest.raises(ValueError, match=r"\[1.5, 3.5\]"):
        I.apex((1.5, 3.5), "below", p22)


def test_apex_nonconvergent_raises(p10):
    with pytest.raises(NonConvergent):
        I.apex((1.0, 2.0), "above", p10, tol=1e-18)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, -0.0, math.inf, "1e-6", None, True, 1j])
def test_apex_rejects_a_tolerance_that_is_not_a_positive_real(p10, tol, monkeypatch):
    # a NaN tolerance accepted any estimate (err > nan is False), and -1
    # raised NonConvergent, a numeric failure for a usage error; apex and
    # classify_cone now reject both before any quadrature
    from maxcone import singular as S

    kernel = _counted_kernel(monkeypatch)
    with pytest.raises(ValueError, match="tol must be a finite real > 0"):
        I.apex((1.0, 2.0), "above", p10, tol=tol)
    with pytest.raises(ValueError, match="apex_tol must be a finite real > 0"):
        S.classify_cone(S.components(p10)[0], p10, apex_tol=tol)
    assert kernel == []


def test_non_finite_panel_raises():
    # the sqrt approach into 2.0 refines until c + d s^2 rounds to c, where
    # 1/w is infinite; the NaN it produced used to pass as a value
    p = SurfaceParams(m=2, n=0, a=(1, 2, 2.001, 3), alpha=(1, -1))
    for x in (2.0, 2.001):
        with pytest.raises(QuadratureFailure, match="non-finite integrand on SqrtApproachLeg"):
            I.immersion(complex(x), p)


@pytest.mark.parametrize(
    "z", [complex(math.inf, 0.0), 1e308 + 1e308j, complex(math.nan, 0.0), 1.5e308 + 0j]
)
def test_immersion_rejects_a_target_that_is_not_a_point(p10, z):
    # these used to warn on overflow or raise the numeric QuadratureFailure
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PathThroughSingularity, match=r"target .* is not a point"):
            I.immersion(z, p10)


@pytest.mark.parametrize("b", [complex(math.nan, 0.0), complex(math.inf, 0.0), 0j, 1.0, 2.0])
def test_immersion_rejects_a_basepoint_that_is_not_regular(p10, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PathThroughSingularity, match=r"basepoint"):
            I.immersion(3.0 + 1.0j, p10, b)


def test_immersion_just_inside_the_point_bound_fails_typed(p10):
    # |z| just below max/(2 pi): every route leg stays finite, so the far
    # radial leg fails as a typed numeric failure with no overflow warning
    r = 0.999999 * sys.float_info.max / (2.0 * math.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure):
            I.immersion(r * cmath.exp(0.25j * math.pi), p10)


def test_immersion_rejects_singular_targets(p10):
    with pytest.raises(PathThroughSingularity):
        I.immersion(1.5 + 0j, p10)
    with pytest.raises(PathThroughSingularity):
        I.immersion(0j, p10)


def test_pathspec_validation(p10):
    with pytest.raises(PathThroughSingularity):
        I.PathSpec(waypoints=(1 + 1j,))
    with pytest.raises(PathThroughSingularity):
        I.PathSpec(waypoints=(1 + 1j, 1 + 1j))
    # interior waypoint on a branch point
    with pytest.raises(PathThroughSingularity):
        I.integrate_path(I.PathSpec(waypoints=(3 + 0j, 2 + 0j, 3 + 1j)), p10)
    # segment crossing the singular interval
    with pytest.raises(PathThroughSingularity):
        I.integrate_path(I.PathSpec(waypoints=(1.5 + 1j, 1.5 - 1j)), p10)
    # segment lying on the interval
    with pytest.raises(PathThroughSingularity):
        I.integrate_path(I.PathSpec(waypoints=(0.5 + 0j, 1.7 + 0j)), p10)


def test_winding_consistency_multiple_turns(p10):
    th = np.linspace(0.0, 2 * np.pi, 129)
    loop = [0.4 * cmath.exp(1j * t) for t in th[:-1]]
    wps = tuple([0.4 + 0j] + loop[1:] + [0.4 + 0j] + loop[1:] + [0.4 + 0j])
    disp, _ = I.integrate_path(I.PathSpec(waypoints=wps), p10)
    assert disp[1] == pytest.approx(-2 * TWO_PI, abs=1e-8)
    assert abs(disp[0]) <= 1e-8 and abs(disp[2]) <= 1e-8


def _mixed_chains(p):
    """Leg chains as the mesh grid and the router build them: rings of arcs
    (one just outside a branch point), a radial run, and routes to a gap
    point and onto a branch point (square-root leg)."""
    thetas = np.linspace(0.0, math.pi, 33)
    chains = []
    for r in (0.37, 1.001 * abs(p.branch_points()[0]), 1.5 * p.scale()):
        chains.append([I.ArcLeg(r=r, theta_a=float(a), theta_b=float(b)) for a, b in zip(thetas, thetas[1:])])
    radii = np.geomspace(0.3, 2.0 * p.scale(), 12)
    chains.append([I.RadialLeg(theta=0.7, r_a=float(a), r_b=float(b)) for a, b in zip(radii, radii[1:])])
    base = p.default_basepoint()
    chains.append(I._route_legs(complex(-0.5 * p.inner_radius(), 0.0), p, base))
    chains.append(I._route_to_branch_point(p.branch_points()[0], p, base))
    return chains


def _counted_kernel(monkeypatch):
    """The sizes of the w_values calls the quadrature makes from now on."""
    sizes, w_values = [], I.w_values

    def counted(z, p):
        sizes.append(np.size(z))
        return w_values(z, p)

    monkeypatch.setattr(I, "w_values", counted)
    return sizes


def _counted_leg(leg, fn, kernel):
    """adaptive_leg(leg, fn), its panels and the sizes of its kernel calls."""
    panels, before = [], len(kernel)

    def counted(panel):
        panels.append(panel)
        return fn(panel)

    v, e = I.adaptive_leg(leg, counted, I.DEFAULT_SEGMENT_TOL)
    return v, e, panels, kernel[before:]


class _Served(Exception):
    """Carries a chunk's sum server out of the chunk loop."""


def _chunk_server(legs, p, monkeypatch, form=I.phi_from_w, sheets=None):
    """The _SumServer of one chunk of legs as _integrate_legs builds it, its
    first-panel batch and lockstep rounds done and no leg replayed yet: the
    coeff_fn the chunk loop hands its first adaptive_leg call."""

    def caught(leg, coeff_fn, tol):
        raise _Served(coeff_fn.__self__)

    with monkeypatch.context() as m:
        m.setattr(I, "adaptive_leg", caught)
        with pytest.raises(_Served) as served:
            I._integrate_legs(legs, p, form, sheets)
    return served.value.args[0]


def _assert_served(panels, sizes):
    """adaptive_leg took every panel's sums from the chunk's server: the
    first panel is (0, 1), the halves of each split follow left then right,
    and adaptive_leg made no kernel call of its own."""
    assert panels[0] == (0.0, 1.0) and len(panels) % 2 == 1
    for (a, mid), (mid2, b) in zip(panels[1::2], panels[2::2]):
        assert a < mid == mid2 < b
    assert sizes == []


@pytest.mark.parametrize("fixture", ["p10", "p21", "p22"])
def test_batched_first_panels_match_per_leg_quadrature(fixture, request, monkeypatch):
    # every leg's first panel comes from the batch and every later panel
    # from a round, and each leg's integral and error estimate are the bytes
    # of a leg integrated on its own
    p = request.getfixturevalue(fixture)
    kernel = _counted_kernel(monkeypatch)
    for legs in _mixed_chains(p):
        before = len(kernel)
        server = _chunk_server(legs, p, monkeypatch)
        rounds, splits = kernel[before:], []
        for i, leg in enumerate(legs):
            # the server's batched first-panel sums for the leg are the
            # bytes of the leg's own panel, evaluated alone
            k, e = server.firsts[i]
            k_ref, e_ref = oracles.lone_coeff_fn(leg, p)((0.0, 1.0))
            assert k.tobytes() == k_ref.tobytes() and np.float64(e).tobytes() == np.float64(e_ref).tobytes()
            v, e, panels, sizes = _counted_leg(leg, server.sums, kernel)
            _assert_served(panels, sizes)
            # the replay took every sum queued for the leg: none was refined in vain
            assert not server.queue
            splits.append(len(panels) // 2)
            v_ref, e_ref = oracles.integrate_leg_ref(leg, p)
            assert v.tobytes() == v_ref.tobytes() and e == e_ref
        server.close()
        # one call for the first panels, then one per round: each round
        # splits every open leg once, so there are as many as the most splits
        assert rounds[0] == 15 * len(legs) and len(rounds) == 1 + max(splits)
        assert sum(rounds[1:]) == 30 * sum(splits)


def _first_points_checked(legs, monkeypatch):
    """_first_points(legs), checked byte for byte against leg.points at the
    first panel's nodes per leg; returns the SegmentLegs whose points method
    it called."""
    z, dz = zip(*(leg.points(oracles.panel_nodes_ref((0.0, 1.0))) for leg in legs))
    calls = []
    points = I.SegmentLeg.points

    def spy(leg, t):
        calls.append(leg)
        return points(leg, t)

    monkeypatch.setattr(I.SegmentLeg, "points", spy)
    got = I._first_points(legs)
    monkeypatch.undo()
    for a, b in zip(got, (np.stack(z), np.stack(dz))):
        assert a.shape == b.shape == (len(legs), 15)
        assert np.ascontiguousarray(a).tobytes() == b.tobytes()
    return calls


def test_first_points_of_segment_legs_match_per_leg_points(p21, p22, monkeypatch):
    # the stadium chain of every cone and the pieces of a loop crossing two
    # cuts, each as one array expression with no per-leg call
    from maxcone import singular as S

    lists = []
    for comp in S.singular_set(p21):
        loop = S._stadium_points(comp, S._clamp_outer(0.2 * comp.length, comp, p21))
        lists.append([I.SegmentLeg(z_a=complex(u), z_b=complex(v)) for u, v in zip(loop, loop[1:])])
    loop = [1.5 + 0.5j, 1.5 - 0.5j, 3.5 - 0.5j, 3.5 + 0.5j, 1.5 + 0.5j]
    pieces, _ = oracles.sheet_split_segments_ref(loop, p22)
    lists.append([I.SegmentLeg(z_a=a, z_b=b) for a, b, _ in pieces])
    for legs in lists:
        assert _first_points_checked(legs, monkeypatch) == []


def test_first_points_of_mixed_lists_take_the_per_leg_path(p21, monkeypatch):
    # a list that mixes leg types calls each leg's own points
    chains = _mixed_chains(p21)
    chains.append([I.SegmentLeg(z_a=3.0 + 1.0j, z_b=3.0 + 0.5j),
                   I.ArcLeg(r=2.0, theta_a=0.1, theta_b=0.2)])
    chains.append(I._split_branch_segment(3.0 + 1.0j, 2.5 + 0j, p21, into=True))
    mixed = [legs for legs in chains if len({type(leg) for leg in legs}) > 1]
    assert len(mixed) >= 3
    for legs in mixed:
        segments = [leg for leg in legs if type(leg) is I.SegmentLeg]
        assert _first_points_checked(legs, monkeypatch) == segments


def test_first_points_of_arc_lists_are_the_bytes_of_one_array_expression(p10, p21):
    # all-arc lists (the rings of _mixed_chains, loop_period's loops) take the
    # per-leg path and give the bytes of the all-arc branch it replaced
    lists = [legs for legs in _mixed_chains(p21) if {type(leg) for leg in legs} == {I.ArcLeg}]
    lists += [[I.ArcLeg(r=0.5, theta_a=0.0, theta_b=2.0 * math.pi)],
              [I.ArcLeg(r=4.0, theta_a=0.0, theta_b=-2.0 * math.pi), I.ArcLeg(r=2.5, theta_a=0.3, theta_b=-0.1)]]
    assert len(lists) == 5
    for legs in lists:
        for got, ref in zip(I._first_points(legs), oracles.arc_first_points_ref(legs)):
            assert got.shape == ref.shape == (len(legs), 15) and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("thetas, message", [((-0.1, 0.1), "non-finite"), ((-0.1, 0.5), "max depth")])
@pytest.mark.parametrize("back", [False, True])
def test_a_failing_ring_arc_raises_the_message_of_its_leg(p10, thetas, message, back, monkeypatch):
    # ring arcs enter the quadrature as index rows; the one at r = 1 meets
    # the branch point 1, on a first-panel node or between two, and raises
    # what its ArcLeg raises alone. The arc before it was replayed with no
    # leg of its own, and the arc after it was not
    thetas = np.array(thetas)
    ja, jb = (1, 0) if back else (0, 1)
    legs = [I.ArcLeg(r=r, theta_a=float(thetas[ja]), theta_b=float(thetas[jb])) for r in (0.5, 1.0, 0.5)]
    with pytest.raises(QuadratureFailure, match=message) as lone:
        I._integrate_legs(legs[1:2], p10)
    log = _panels_per_leg(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure) as rows:
            I._ring_arc_sums(np.array([0.5, 1.0]), thetas, np.array([0, 1, 0]), np.full(3, ja), np.full(3, jb), p10)
    assert str(rows.value) == str(lone.value)
    assert [leg for leg, _ in log] == [None, legs[1]] and log[0][1] == 1


def test_ring_arc_rows_give_the_bytes_of_their_legs(p21, monkeypatch):
    # arcs of every depth just outside a branch point and far from it, both
    # ways, across chunk boundaries: each row is the leg's _leg_sums row
    thetas = np.linspace(0.0, math.pi, 40)
    radii = np.array([0.37, 1.001 * abs(p21.branch_points()[0]), 1.5 * p21.scale()])
    n = 3 * 2 * 39
    ring = np.repeat([0, 1, 2, 1, 0, 2], 39)
    j_to = np.concatenate([np.arange(1, 40), np.arange(38, -1, -1)] * 3)
    j_from = j_to + np.where(np.arange(n) % 78 < 39, -1, 1)
    legs = [I.ArcLeg(r=float(radii[i]), theta_a=float(thetas[a]), theta_b=float(thetas[b]))
            for i, a, b in zip(ring, j_from, j_to)]
    ref = I._integrate_legs(legs, p21)
    monkeypatch.setattr(I, "_CHUNK", 50)
    log = _panels_per_leg(monkeypatch)
    got = I._ring_arc_sums(radii, thetas, ring, j_from, j_to, p21)
    for a, b in zip(got, ref):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    # the refined arcs, and only they, were handed an ArcLeg
    refined = [leg for leg, panels in log if panels > 1]
    assert 0 < len(refined) < n and [leg for leg, _ in log if leg is not None] == refined


def test_ring_arc_rows_at_chunk_edges_give_the_bytes_of_lone_legs(p10, monkeypatch):
    # a chunk's rows are slices of the whole: the arcs that refine sit at
    # rows 0, _CHUNK - 1 and _CHUNK, the first and last of the first chunk
    # and the first of the second, where an offset into the chunk would
    # give an arc another row's leg or values
    thetas = np.linspace(0.0, math.pi, 41)
    radii = np.array([1.001, 5.0])  # just outside the branch point 1, and far out
    n = I._CHUNK + 8
    hard = [0, I._CHUNK - 1, I._CHUNK]
    ring = np.ones(n, dtype=int)
    j_from = np.arange(n) % 40
    j_to = j_from + 1
    # the hard arcs leave the axis at the branch point 1, one of them back to it
    ring[hard], j_from[hard], j_to[hard] = 0, [0, 1, 0], [1, 0, 1]
    legs = [I.ArcLeg(r=float(radii[i]), theta_a=float(thetas[a]), theta_b=float(thetas[b]))
            for i, a, b in zip(ring, j_from, j_to)]
    log = _panels_per_leg(monkeypatch)
    got = I._ring_arc_sums(radii, thetas, ring, j_from, j_to, p10)
    refined = [(i, leg) for i, (leg, panels) in enumerate(log) if leg is not None]
    assert refined == [(i, legs[i]) for i in hard] and all(log[i][1] > 1 for i in hard)
    log.clear()
    ref = I._integrate_legs(legs, p10)
    assert [leg for leg, _ in log] == legs
    for a, b in zip(got, ref):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    for i in hard + [1, I._CHUNK - 2, I._CHUNK + 1, n - 1]:
        v, e = oracles.integrate_leg_ref(legs[i], p10)
        assert got[0][i].tobytes() == v.real.tobytes() and got[1][i] == e


def test_an_empty_leg_list_gives_empty_rows(p10, monkeypatch):
    kernel = _counted_kernel(monkeypatch)
    empty = np.zeros(0, dtype=int)
    arcs = I._ring_arc_sums(np.ones(1), np.arange(2.0), empty, empty, empty, p10)
    for re, err in (I._integrate_legs([], p10), arcs):
        assert re.shape == (0, 3) and err.shape == (0,)
        assert re.dtype == err.dtype == np.float64
    assert kernel == []


@pytest.mark.parametrize("bad", ["3", "3+1j", True, False, np.True_, None, b"3", [3.0]])
def test_immersion_takes_only_numbers_as_points(p10, bad):
    # complex() used to read the string '3' as the point 3 and True as the
    # branch point 1, and None raised an untyped TypeError
    with pytest.raises(ValueError, match="target must be a real or complex number"):
        I.immersion(bad, p10)
    if bad is not None:  # a basepoint of None is the default one
        with pytest.raises(ValueError, match="basepoint must be a real or complex number"):
            I.immersion(3.0 + 1.0j, p10, bad)


def test_immersion_takes_points_of_any_numeric_type(p10):
    from fractions import Fraction

    targets = (3, 3.0, 3 + 0j, np.float64(3), np.int64(3), np.float32(3), np.complex128(3), Fraction(3))
    vals = [repr(I.immersion(z, p10)) for z in targets]
    assert vals == vals[:1] * len(targets)
    bases = (2.5, np.float64(2.5), Fraction(5, 2), 2.5 + 0j)
    vals = [repr(I.immersion(3.0 + 1.0j, p10, b)) for b in bases]
    assert vals == vals[:1] * len(bases)


def test_adaptive_leg_calls_coeff_fn_once_per_panel(p10, monkeypatch):
    # counted as the benchmark counts panels, by a wrapper around coeff_fn, on
    # an arc that starts just outside the branch point 1 and so splits
    leg = I.ArcLeg(r=1.001, theta_a=0.0, theta_b=0.1)
    kernel = _counted_kernel(monkeypatch)
    server = _chunk_server([leg], p10, monkeypatch)
    rounds = kernel[:]
    v, e, calls, sizes = _counted_leg(leg, server.sums, kernel)
    server.close()
    # the first panel was the batch's and every other a round's: the two
    # halves of each split made one 30-node call, and adaptive_leg none
    _assert_served(calls, sizes)
    assert rounds == [15] + [30] * (len(calls) // 2)
    # each call is one panel of the bisection tree of [0, 1], given as a
    # tuple of its ends; no panel is evaluated twice, and a split panel has
    # both halves evaluated
    pending, panels = {(0.0, 1.0)}, []
    for panel in calls:
        assert type(panel) is tuple and panel in pending
        a, b = panel
        pending.remove((a, b))
        panels.append((a, b))
        pending |= {(a, 0.5 * (a + b)), (0.5 * (a + b), b)}
    assert len(calls) > 1 and len(set(panels)) == len(panels)
    halves = set(panels[1:])
    for a, b in panels[1:]:
        width = b - a
        assert (a + width, b + width) in halves or (a - width, b - width) in halves
    ref_v, ref_e = oracles.integrate_leg_ref(leg, p10)
    assert v.tobytes() == ref_v.tobytes() and e == ref_e


@pytest.mark.parametrize(
    "t0, t1",
    [(0.0, 0.5), (0.5, 1.0), (0.375, 0.40625), (2.0**-40, 2.0**-39), (0.1, 0.7), (1 / 3, 2 / 3)],
)
def test_panel_nodes_are_the_read_only_bytes_of_nodes(t0, t1):
    # a coeff_fn is given the panel as a tuple of its ends, which it cannot
    # write to, and builds the nodes itself: a lone evaluation's nodes are
    # the bytes _nodes gives, alone and as _lockstep's columns, on dyadic
    # panels and others
    panel = (t0, t1)
    t = oracles.panel_nodes_ref(panel)
    assert t.dtype == np.float64 and t.shape == (15,)
    assert t.tobytes() == I._nodes(t0, t1).tobytes()
    assert t.tobytes() == I._nodes(np.array([[t0]]), np.array([[t1]]))[0].tobytes()
    with pytest.raises(TypeError):
        panel[0] = 0.5


def test_batched_first_panels_keep_the_failing_leg(p10, monkeypatch):
    # a node on the branch point 2 fails that leg alone, with no warning
    good = I.ArcLeg(r=3.0, theta_a=0.0, theta_b=1.0)
    bad = I.SegmentLeg(z_a=2.0 - 1.0j, z_b=2.0 + 1.0j)
    server = _chunk_server([good, bad], p10, monkeypatch)
    v, _ = I.adaptive_leg(good, server.sums, I.DEFAULT_SEGMENT_TOL)
    assert v.tobytes() == oracles.integrate_leg_ref(good, p10)[0].tobytes()
    with pytest.raises(QuadratureFailure):
        I.adaptive_leg(bad, server.sums, I.DEFAULT_SEGMENT_TOL)
    with pytest.raises(QuadratureFailure):
        I._running_sum([good, bad], p10, np.zeros(3), 0.0)


def test_batched_panel_sums_match_per_row_sums():
    # 4,096 panels (61,440 values, eight chunks' worth) with magnitudes over
    # many decades: the batched reduction gives each row's bytes at any batch
    # size, and scaling by a power-of-two half-width gives the K15 sum and
    # |K15 - G7| estimate of the scaled values
    rng = np.random.default_rng(5)
    rows = 4096
    shape = (rows, 3, 15)
    scale = 10.0 ** rng.uniform(-12, 12, size=shape)
    vals = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    k, d = I._panel_sums(vals)
    assert k.shape == (rows, 3) and d.shape == (rows,)
    for j, (row, k_row, d_row) in enumerate(zip(vals, k, d)):
        k1, d1 = I._panel_sums(row)
        assert k1.tobytes() == k_row.tobytes() and d1.tobytes() == d_row.tobytes()
        half = 2.0 ** -(1 + j % 30)
        k15, g7 = half * (row @ I._WK), half * (row[:, I._GAUSS_IDX] @ I._WG)
        assert (half * k1).tobytes() == k15.tobytes()
        assert half * float(d1) == float(np.abs(k15 - g7).sum())


def _hard_legs():
    """One leg of each type, each passing within 0.01 of a branch point of
    p22, so that it splits many times."""
    return [
        I.ArcLeg(r=1.001, theta_a=0.0, theta_b=0.1),
        I.RadialLeg(theta=1e-3, r_a=1.5, r_b=3.0),
        I.SegmentLeg(z_a=2.5 + 1e-3j, z_b=1.5 + 1e-3j),
        I.SqrtApproachLeg(c=2 + 0j, z_outer=3.0 + 2e-3j),
        I._ReversedLeg(I.SqrtApproachLeg(c=4 + 0j, z_outer=2.5 + 1e-2j)),
    ]


def _paired_and_alone(leg, p, kernel, monkeypatch, form=I.phi_from_w, sheet=None):
    """adaptive_leg twice: on the sums a chunk's server refined in rounds,
    where the two halves of each split share one kernel call, and with every
    panel alone (oracles.lone_coeff_fn, on the counted kernel). Returns both
    results and the number of splits, after checking that the rounds made
    one 30-node kernel call per split and the lone panels one 15-node call
    each."""
    before = len(kernel)
    paired = _chunk_server([leg], p, monkeypatch, form, None if sheet is None else [sheet])
    alone = oracles.lone_coeff_fn(leg, p, form, sheet, w_values=I.w_values)
    v, e, panels, sizes = _counted_leg(leg, paired.sums, kernel)
    splits = len(panels) // 2
    assert sizes == [] and kernel[before:] == [15] + [30] * splits
    # the replay took every panel the rounds queued, and no more
    paired.close()
    before = len(kernel)
    ref = I.adaptive_leg(leg, alone, I.DEFAULT_SEGMENT_TOL)
    assert kernel[before:] == [15] * len(panels)
    return (v, e), ref, splits


def _assert_same(got, ref):
    (v, e), (v_ref, e_ref) = got, ref
    assert v.tobytes() == v_ref.tobytes() and np.float64(e).tobytes() == np.float64(e_ref).tobytes()


def test_paired_halves_give_the_bytes_of_lone_panels(p22, monkeypatch):
    kernel = _counted_kernel(monkeypatch)
    for leg in _hard_legs():
        got, ref, splits = _paired_and_alone(leg, p22, kernel, monkeypatch)
        assert splits >= 5, leg
        _assert_same(got, ref)
        _assert_same(got, oracles.integrate_leg_ref(leg, p22))


@pytest.mark.parametrize("fixture", ["p11", "p22"])
def test_paired_halves_on_the_other_sheet_give_the_bytes_of_lone_panels(fixture, request, monkeypatch):
    # the sheet -1 pieces of minimal's loops: omega-triple as the form, -w as
    # the branch, on a loop that passes within 0.01 of the branch points
    from maxcone import minimal as M

    p = request.getfixturevalue(fixture)
    kernel = _counted_kernel(monkeypatch)
    far = 3.5 if fixture == "p22" else -1.5
    loop = [1.5 + 0.01j, 1.5 - 0.01j, far - 0.01j, far + 0.01j, 1.5 + 0.01j]
    legs, sheets, _ = I._polyline_legs(loop, p, cuts="flip")
    for orientation in M.ORIENTATIONS:
        form = functools.partial(M.omega_from_w, orientation=orientation)
        hard = 0
        for leg, sheet in zip(legs, sheets):
            got, ref, splits = _paired_and_alone(leg, p, kernel, monkeypatch, form, sheet)
            _assert_same(got, ref)
            hard += sheet == -1 and splits >= 5
        assert hard >= 1


def _chunk_of_every_depth():
    """Legs of p22 of every type, from a first panel that meets the budget
    to more than five splits, interleaved."""
    easy = [
        I.ArcLeg(r=6.0, theta_a=0.0, theta_b=0.3),
        I.RadialLeg(theta=1.0, r_a=5.0, r_b=6.0),
        I.SegmentLeg(z_a=5.0 + 1.0j, z_b=6.0 + 2.0j),
        I.SqrtApproachLeg(c=4 + 0j, z_outer=4.04 + 0j),
        I._ReversedLeg(I.SqrtApproachLeg(c=1 + 0j, z_outer=0.99 + 0j)),
        I.ArcLeg(r=2.5, theta_a=0.5, theta_b=1.5),
    ]
    return [leg for pair in zip(easy, _hard_legs() + [I.ArcLeg(r=1.05, theta_a=0.0, theta_b=0.5)]) for leg in pair]


def _panels_per_leg(monkeypatch):
    """[leg, panels] of every adaptive_leg call from now on."""
    adaptive_leg, log = I.adaptive_leg, []

    def counted_leg(leg, coeff_fn, tol):
        log.append([leg, 0])

        def counted_panel(panel):
            log[-1][1] += 1
            return coeff_fn(panel)

        return adaptive_leg(leg, counted_panel, tol)

    monkeypatch.setattr(I, "adaptive_leg", counted_leg)
    return log


@pytest.mark.parametrize("orientation", [None, "vertical-ends", "horizontal-ends"])
def test_a_mixed_chunk_gives_each_leg_its_lone_bytes(p22, orientation, monkeypatch):
    # legs of every type and depth refine side by side in one chunk, on the
    # maximal surface and, through minimal's omega-triple, on both sheets;
    # each leg gets the bytes of the leg integrated alone
    from maxcone import minimal as M

    legs = _chunk_of_every_depth()
    form, sheets = I.phi_from_w, None
    if orientation is not None:
        form = functools.partial(M.omega_from_w, orientation=orientation)
        sheets = [(-1) ** i for i in range(len(legs))]
    refs = [oracles.integrate_leg_ref(leg, p22, None if sheets is None else form, None if sheets is None else s)
            for leg, s in zip(legs, sheets or [None] * len(legs))]
    kernel = _counted_kernel(monkeypatch)
    log = _panels_per_leg(monkeypatch)
    re, err = I._integrate_legs(legs, p22, form, sheets)
    assert [leg for leg, _ in log] == legs
    for row, e, (v_ref, e_ref) in zip(re, err, refs):
        assert row.tobytes() == v_ref.real.tobytes()
        assert e.tobytes() == np.float64(e_ref).tobytes()
    splits = [n // 2 for _, n in log]
    assert min(splits) == 0 and max(splits) > 5
    assert {type(leg) for leg, n in log if n > 11} == {type(leg) for leg in legs}
    # one call for the first panels and one per round, 30 nodes per split
    assert len(kernel) == 1 + max(splits)
    assert kernel[0] == 15 * len(legs) and sum(kernel[1:]) == 30 * sum(splits)


def _chunk_with_a_failing_leg(kind, p10, p22, monkeypatch):
    """(surface, legs, index of the leg that fails) for each way a leg fails:
    past the panel budget, at the width cap, or on a non-finite panel."""
    if kind == "panels":
        # the hard legs need 11 panels or more, the easy ones 1
        monkeypatch.setattr(I, "MAX_PANELS", 9)
        legs = _chunk_of_every_depth()
        return p22, legs, 1
    if kind == "depth":
        # along the cut [1, 2]: a panel at the branch point 1 reaches the cap
        legs = [I.ArcLeg(r=3.0, theta_a=0.0, theta_b=1.0), I.ArcLeg(r=1.001, theta_a=0.0, theta_b=0.1),
                I.SegmentLeg(0.5 + 0j, 3.4 + 0j), I.ArcLeg(r=1.002, theta_a=0.1, theta_b=0.2),
                I.RadialLeg(theta=1e-3, r_a=1.5, r_b=3.0)]
        return p10, legs, 2
    # the square-root leg into 2.0 refines until c + d s^2 rounds to c
    bad = SurfaceParams(m=2, n=0, a=(1, 2, 2.001, 3), alpha=(1, -1))
    legs = [I.ArcLeg(r=5.0, theta_a=0.0, theta_b=1.0), I.ArcLeg(r=1.001, theta_a=0.0, theta_b=0.1),
            I.RadialLeg(theta=0.2, r_a=4.0, r_b=5.0), I.SqrtApproachLeg(c=2 + 0j, z_outer=2.00001 + 0j),
            I.ArcLeg(r=3.001, theta_a=0.0, theta_b=0.1)]
    return bad, legs, 3


@pytest.mark.parametrize("kind", ["panels", "depth", "non-finite"])
def test_a_failing_leg_in_a_chunk_raises_its_lone_message(kind, p10, p22, monkeypatch):
    # the failing leg leaves the rounds and raises when adaptive_leg replays
    # it, with the message it raises alone; the legs before it were
    # integrated, with their lone bytes, and the legs after it were not
    p, legs, bad = _chunk_with_a_failing_leg(kind, p10, p22, monkeypatch)
    refs = [oracles.integrate_leg_ref(leg, p) for leg in legs[:bad]]
    with pytest.raises(QuadratureFailure) as lone:
        oracles.integrate_leg_ref(legs[bad], p)
    adaptive_leg, log = I.adaptive_leg, []

    def logged_leg(leg, coeff_fn, tol):
        log.append(leg)
        return adaptive_leg(leg, coeff_fn, tol)

    monkeypatch.setattr(I, "adaptive_leg", logged_leg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure) as chunk:
            I._integrate_legs(legs, p)
    assert str(chunk.value) == str(lone.value)
    assert log == legs[: bad + 1]
    monkeypatch.setattr(I, "adaptive_leg", adaptive_leg)
    server = _chunk_server(legs, p, monkeypatch)
    for leg, (v_ref, e_ref) in zip(legs, refs):
        v, e = I.adaptive_leg(leg, server.sums, I.DEFAULT_SEGMENT_TOL)
        assert v.tobytes() == v_ref.tobytes() and e == e_ref


def test_leg_points_of_a_pair_are_the_bytes_of_each_row():
    # the rows of a split as adaptive_leg builds them, at two depths
    for t0, t1 in ((0.0, 1.0), (0.375, 0.5)):
        mid = 0.5 * (t0 + t1)
        rows = np.array([0.5 * (a + b) + 0.5 * (b - a) * I._XK for a, b in ((t0, mid), (mid, t1))])
        for leg in _hard_legs():
            pair = leg.points(rows)
            for i, row in enumerate(rows):
                for both, alone in zip(pair, leg.points(row.copy())):
                    assert both.shape == (2, 15) and both.dtype == alone.dtype
                    assert np.ascontiguousarray(both[i]).tobytes() == alone.tobytes()


def test_the_failing_surface_keeps_its_messages_with_warnings_as_errors():
    # a = (1, 2, 2.001, 3): the square-root leg into each branch point of
    # the narrow gap meets a non-finite panel; the messages are frozen from
    # the version that evaluated every split panel alone
    from maxcone import singular as S

    bad = SurfaceParams(m=2, n=0, a=(1, 2, 2.001, 3), alpha=(1, -1))
    expected = [
        "non-finite integrand on SqrtApproachLeg(c=(2+0j), z_outer=(2.00001+0j)) over t in "
        "[0.999023, 1] (z from 2.0000000000095368+0j to 2+0j)",
        "non-finite integrand on SqrtApproachLeg(c=(2.001+0j), z_outer=(2.00099+0j)) over t in "
        "[0.999023, 1] (z from 2.0009999999904631+0j to 2.0009999999999999+0j)",
    ]
    components = S.components(bad)
    assert len(components) == len(expected)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c, message in zip(components, expected):
            with pytest.raises(QuadratureFailure) as failure:
                S.classify_cone(c, bad)
            assert str(failure.value) == message


def test_a_failing_limit_leg_raises_before_the_apex_tolerance_check(p21):
    # a classification integrates its four limits' routes before apex checks
    # its tolerance: on the 2.001 surface even an apex tolerance that no
    # estimate meets gives the square-root leg's failure, the message the
    # default tolerance gives; where every leg converges, the tolerance
    # check still raises
    from maxcone import singular as S

    bad = SurfaceParams(m=2, n=0, a=(1, 2, 2.001, 3), alpha=(1, -1))
    for c in S.components(bad):
        with pytest.raises(QuadratureFailure) as default:
            S.classify_cone(c, bad)
        with pytest.raises(QuadratureFailure) as strict:
            S.classify_cone(c, bad, apex_tol=1e-30)
        assert str(strict.value) == str(default.value)
        assert str(strict.value).startswith("non-finite integrand on SqrtApproachLeg")
    with pytest.raises(NonConvergent, match=r"apex quadrature error estimate .* above tolerance 1e-30"):
        S.classify_cone(S.components(p21)[0], p21, apex_tol=1e-30)


def test_adaptive_leg_raises_past_the_panel_budget():
    # the same sums on every panel: splitting never shrinks the summed
    # estimate, so only the panel budget stops the leg (the width cap alone
    # would let the heap grow toward 2^MAX_DEPTH panels)
    leg = I.SegmentLeg(z_a=1.0 + 1.0j, z_b=2.0 + 1.0j)
    calls = []

    def same(panel):
        calls.append(panel)
        assert len(calls) <= 10_000, "no panel budget"
        return np.ones(3, dtype=complex), 1.0

    start = time.perf_counter()
    with pytest.raises(QuadratureFailure, match=r"within \d+ panels .* on SegmentLeg.*z from"):
        I.adaptive_leg(leg, same, I.DEFAULT_SEGMENT_TOL)
    assert time.perf_counter() - start < 1.0
    assert len(calls) <= I.MAX_PANELS


def test_max_depth_failure_names_the_leg(p10):
    # a leg along the cut [1, 2]: the rule cannot resolve the kink of the
    # integrand at the branch point 1, so a panel reaches the width cap
    leg = I.SegmentLeg(0.5 + 0j, 3.4 + 0j)
    with pytest.raises(QuadratureFailure, match=r"max depth .* on SegmentLeg.*z from"):
        I.adaptive_leg(leg, oracles.lone_coeff_fn(leg, p10), I.DEFAULT_SEGMENT_TOL)


def test_kernel_calls_enter_one_errstate_each(p21, monkeypatch):
    # w_values' own errstate is the only one a kernel call enters; the
    # first-panel batch and the rounds of a chunk share one more
    kernel = _counted_kernel(monkeypatch)
    entered = []

    class counted_errstate(np.errstate):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", counted_errstate)
    thetas = np.linspace(0.1, 3.0, I._CHUNK + 40)
    legs = [I.ArcLeg(r=1.001, theta_a=float(a), theta_b=float(b)) for a, b in zip(thetas, thetas[1:])]
    legs += I._route_to_branch_point(p21.branch_points()[0], p21, p21.default_basepoint())
    I._leg_sums(legs, p21)
    # two chunks, and legs that split, so later panels made kernel calls too
    assert len(legs) > I._CHUNK and len(kernel) > 2
    assert len(entered) == len(kernel) + 2


def test_the_sum_server_raises_on_a_broken_call_order(p22, monkeypatch):
    # the sums of a chunk are served in call order; any other order raises
    # RuntimeError (never StopIteration, and no sum for another leg): past
    # the end, a half asked of a leg that holds none or out of order, a
    # first panel while the last leg still holds halves, and a close with
    # sums left
    legs = _chunk_of_every_depth()
    whole = (0.0, 1.0)

    def served(upto):
        """A fresh server with the legs before upto replayed in order."""
        server = _chunk_server(legs, p22, monkeypatch)
        for leg in legs[:upto]:
            I.adaptive_leg(leg, server.sums, I.DEFAULT_SEGMENT_TOL)
        return server

    easy, hard = 0, 1  # ends at its first panel; refines
    queues = _chunk_server(legs, p22, monkeypatch).queues
    assert easy not in queues and hard in queues
    server = served(len(legs))
    server.close()
    with pytest.raises(RuntimeError, match="asked for a first panel after 12 legs"):
        server.sums(whole)
    server = served(easy)
    server.sums(whole)
    with pytest.raises(RuntimeError, match=r"no sums for panel \(0.0, 0.5\) of leg 0"):
        server.sums((0.0, 0.5))
    server = served(hard)
    server.sums(whole)
    with pytest.raises(RuntimeError, match=r"no sums for panel \(0.5, 1.0\) of leg 1"):
        server.sums((0.5, 1.0))
    server = served(hard)
    server.sums(whole)
    with pytest.raises(RuntimeError, match="halves of the last one left"):
        server.sums(whole)
    with pytest.raises(RuntimeError, match="closed after 2 legs"):
        served(hard + 1).close()
    server = served(hard)
    server.sums(whole)
    with pytest.raises(RuntimeError, match=f"with the halves of {len(queues)} refined legs left"):
        server.close()
    # through the chunk loop: a leg replayed twice or skipped raises, and no
    # value is returned
    adaptive_leg = I.adaptive_leg

    def twice(leg, coeff_fn, tol):
        if leg is legs[hard]:
            adaptive_leg(leg, coeff_fn, tol)
        return adaptive_leg(leg, coeff_fn, tol)

    def skipped(leg, coeff_fn, tol):
        if leg is legs[easy]:
            return np.zeros(3, dtype=complex), 0.0
        return adaptive_leg(leg, coeff_fn, tol)

    for broken in (twice, skipped):
        monkeypatch.setattr(I, "adaptive_leg", broken)
        with pytest.raises(RuntimeError, match="sum server"):
            I._integrate_legs(legs, p22)


def _omega_chunk(p10):
    """Legs of p10 for the omega-triple chunk: (leg, sheet) pairs that end at
    the first panel or refine, and the ones that fail, by kind. Half the
    pieces lie on sheet -1, refining ones among them."""
    good = [
        (I.ArcLeg(6.0, 0.0, 0.3), 1), (I.ArcLeg(1.001, 0.0, 0.1), -1),
        (I.SegmentLeg(5.0 + 1.0j, 6.0 + 2.0j), -1), (I.RadialLeg(1e-3, 1.5, 3.0), 1),
        (I.SegmentLeg(2.5 + 1e-3j, 1.5 + 1e-3j), -1), (I.SqrtApproachLeg(2 + 0j, 3.0 + 2e-3j), 1),
        (I.ArcLeg(1.05, 0.0, 0.5), -1),
    ]
    failing = {
        # the middle node is the branch point 2
        "non-finite": (I.SegmentLeg(2.0 - 1.0j, 2.0 + 1.0j), -1),
        # along the cut from inside it: a panel at the branch point 2 reaches the cap
        "depth": (I.SegmentLeg(1.5 + 0j, 2.6 + 0j), 1),
        # 1e-6 above the cut [1, 2]: 167 panels alone, over a budget of 100
        "panels": (I.SegmentLeg(0.5 + 1e-6j, 3.4 + 1e-6j), -1),
    }
    return good, failing


@pytest.mark.parametrize("first", [None, "non-finite", "depth", "panels"])
def test_an_omega_chunk_of_every_kind_gives_lone_bytes_and_the_first_lone_failure(first, p10, monkeypatch):
    # minimal's omega-triple on both sheets: legs that end at their first
    # panel, refine, have a non-finite first panel, reach the width cap or
    # the panel budget share one chunk, first panels and rounds. Each leg
    # replayed gets the bytes of the leg evaluated panel by panel alone, and
    # the chunk raises the first failing leg's lone message
    from maxcone import minimal as M

    monkeypatch.setattr(I, "MAX_PANELS", 100)
    form = functools.partial(M.omega_from_w, orientation="vertical-ends")
    good, failing = _omega_chunk(p10)
    lone = {}
    for kind, (leg, sheet) in failing.items():
        with pytest.raises(QuadratureFailure) as failure:
            oracles.integrate_leg_ref(leg, p10, form, sheet)
        lone[kind] = str(failure.value)
    assert lone["non-finite"].startswith("non-finite integrand on")
    assert "at max depth" in lone["depth"] and "within 100 panels" in lone["panels"]
    refs = [oracles.integrate_leg_ref(leg, p10, form, sheet) for leg, sheet in good]
    chunk = good + ([] if first is None else [failing[first]] + [v for k, v in failing.items() if k != first])
    legs, sheets = [leg for leg, _ in chunk], [s for _, s in chunk]
    log, adaptive_leg = [], I.adaptive_leg

    def logged_leg(leg, coeff_fn, tol):
        panels = []

        def counted(panel):
            panels.append(panel)
            return coeff_fn(panel)

        log.append((leg, panels))
        out = adaptive_leg(leg, counted, tol)
        log[-1] += (out,)
        return out

    monkeypatch.setattr(I, "adaptive_leg", logged_leg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if first is None:
            re, err = I._integrate_legs(legs, p10, form, sheets)
        else:
            with pytest.raises(QuadratureFailure) as chunk_failure:
                I._integrate_legs(legs, p10, form, sheets)
            assert str(chunk_failure.value) == lone[first]
    # the legs before the first failure, and it, were replayed in order
    assert [entry[0] for entry in log] == legs[: len(good) + (first is not None)]
    for (v_ref, e_ref), (_, _, (v, e)) in zip(refs, log):
        assert v.tobytes() == v_ref.tobytes() and np.float64(e).tobytes() == np.float64(e_ref).tobytes()
    if first is None:
        assert re.tobytes() == np.array([v for _, _, (v, _) in log]).real.tobytes()
        assert err.tobytes() == np.array([e for _, _, (_, e) in log]).tobytes()
    refined = {sheet for (_, sheet), (_, panels, _) in zip(good, log) if len(panels) > 1}
    assert refined == {1, -1} and min(len(panels) for _, panels, _ in log[: len(good)]) == 1
