import cmath
import math
import time

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


def test_apex_nonconvergent_raises(p10):
    with pytest.raises(NonConvergent):
        I.apex((1.0, 2.0), "above", p10, tol=1e-18)


def test_non_finite_panel_raises():
    # the sqrt approach into 2.0 refines until c + d s^2 rounds to c, where
    # 1/w is infinite; the NaN it produced used to pass as a value
    p = SurfaceParams(m=2, n=0, a=(1, 2, 2.001, 3), alpha=(1, -1))
    for x in (2.0, 2.001):
        with pytest.raises(QuadratureFailure, match="non-finite integrand on SqrtApproachLeg"):
            I.immersion(complex(x), p)


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


@pytest.mark.parametrize("fixture", ["p10", "p21", "p22"])
def test_batched_first_panels_match_per_leg_quadrature(fixture, request):
    # every leg's first panel comes from the batch, and each leg's integral
    # and error estimate are the bytes of a leg integrated on its own
    p = request.getfixturevalue(fixture)
    tol = I.DEFAULT_SEGMENT_TOL
    for legs in _mixed_chains(p):
        coeffs = I._leg_coeffs(legs, p)
        for leg, fn in zip(legs, coeffs):
            # the batched first-panel sums are the bytes of the leg's own panel
            k, d = fn.first
            k_ref, d_ref = I._LegCoeffs(leg, p)(I._T_FIRST.copy())
            assert k.tobytes() == k_ref.tobytes() and np.float64(d).tobytes() == d_ref.tobytes()
            v, e = I.adaptive_leg(leg, fn, tol)
            v_ref, e_ref = I._integrate_leg(leg, p)
            assert v.tobytes() == v_ref.tobytes() and e == e_ref
            assert fn.used  # the stored first panel was used


def _first_points_checked(legs, monkeypatch):
    """_first_points(legs), checked byte for byte against leg.points(_T_FIRST)
    per leg; returns the SegmentLegs whose points method it called."""
    z, dz = zip(*(leg.points(I._T_FIRST) for leg in legs))
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


def test_adaptive_leg_calls_coeff_fn_once_per_panel(p10):
    # counted as the benchmark counts panels, by a wrapper around coeff_fn, on
    # an arc that starts just outside the branch point 1 and so splits
    leg = I.ArcLeg(r=1.001, theta_a=0.0, theta_b=0.1)
    fn = I._leg_coeffs([leg], p10)[0]
    calls = []

    def counted(t):
        calls.append(t)
        return fn(t)

    v, e = I.adaptive_leg(leg, counted, I.DEFAULT_SEGMENT_TOL)
    assert calls[0] is I._T_FIRST and fn.used
    # each call is the 15 nodes of one panel of the bisection tree of [0, 1],
    # no panel is evaluated twice, and a split panel has both halves evaluated
    pending, panels = {(0.0, 1.0)}, []
    for t in calls:
        nodes = {(a, b): 0.5 * (a + b) + 0.5 * (b - a) * I._XK for a, b in pending}
        match = [ab for ab, x in nodes.items() if np.array_equal(t, x)]
        assert len(match) == 1
        a, b = match[0]
        pending.remove((a, b))
        panels.append((a, b))
        pending |= {(a, 0.5 * (a + b)), (0.5 * (a + b), b)}
    assert len(calls) > 1 and len(set(panels)) == len(panels)
    halves = set(panels[1:])
    for a, b in panels[1:]:
        width = b - a
        assert (a + width, b + width) in halves or (a - width, b - width) in halves
    ref_v, ref_e = I._integrate_leg(leg, p10)
    assert v.tobytes() == ref_v.tobytes() and e == ref_e


def test_batched_first_panels_keep_the_failing_leg(p10):
    # a node on the branch point 2 fails that leg alone, with no warning
    good = I.ArcLeg(r=3.0, theta_a=0.0, theta_b=1.0)
    bad = I.SegmentLeg(z_a=2.0 - 1.0j, z_b=2.0 + 1.0j)
    coeffs = I._leg_coeffs([good, bad], p10)
    v, _ = I.adaptive_leg(good, coeffs[0], I.DEFAULT_SEGMENT_TOL)
    assert v.tobytes() == I._integrate_leg(good, p10)[0].tobytes()
    with pytest.raises(QuadratureFailure):
        I.adaptive_leg(bad, coeffs[1], I.DEFAULT_SEGMENT_TOL)
    with pytest.raises(QuadratureFailure):
        I._running_sum([good, bad], p10, np.zeros(3), 0.0)


def test_batched_panel_sums_match_per_row_sums():
    # a chunk's worth of panels with magnitudes over many decades: the batched
    # reduction gives each row's bytes, and scaling by a power-of-two
    # half-width gives the K15 sum and |K15 - G7| estimate of the scaled values
    rng = np.random.default_rng(5)
    shape = (I._CHUNK, 3, 15)
    scale = 10.0 ** rng.uniform(-12, 12, size=shape)
    vals = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    k, d = I._panel_sums(vals)
    assert k.shape == (I._CHUNK, 3) and d.shape == (I._CHUNK,)
    for j, (row, k_row, d_row) in enumerate(zip(vals, k, d)):
        k1, d1 = I._panel_sums(row)
        assert k1.tobytes() == k_row.tobytes() and d1.tobytes() == d_row.tobytes()
        half = 2.0 ** -(1 + j % 30)
        k15, g7 = half * (row @ I._WK), half * (row[:, I._GAUSS_IDX] @ I._WG)
        assert (half * k1).tobytes() == k15.tobytes()
        assert half * float(d1) == float(np.abs(k15 - g7).sum())


def test_adaptive_leg_raises_past_the_panel_budget():
    # the same sums on every panel: splitting never shrinks the summed
    # estimate, so only the panel budget stops the leg (the width cap alone
    # would let the heap grow toward 2^MAX_DEPTH panels)
    leg = I.SegmentLeg(z_a=1.0 + 1.0j, z_b=2.0 + 1.0j)
    calls = []

    def same(t):
        calls.append(t)
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
        I.adaptive_leg(leg, I._LegCoeffs(leg, p10), I.DEFAULT_SEGMENT_TOL)
