import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from maxcone import core
from maxcone import integrate as I
from maxcone import singular as S
from maxcone.catalog import classes_for_type, enumerate_types, instantiate
from maxcone.errors import DegenerateSingularity, NotOnHyperboloid, QuadratureFailure
from maxcone.integrate import PathSpec, immersion, integrate_path
from maxcone.params import SurfaceParams


def test_singular_set_closed_form(p10, p11):
    comps = S.singular_set(p10)
    assert [(c.lo, c.hi) for c in comps] == [(1.0, 2.0)]
    comps = S.singular_set(p11)
    assert sorted((c.lo, c.hi) for c in comps) == [(-2.0, -1.0), (1.0, 2.0)]


def test_component_count_is_m_plus_n(p21, p22):
    for p in (p21, p22):
        assert len(S.singular_set(p)) == p.m + p.n


def test_midpoint_w2_negative(p10):
    assert core.w_squared(1.5, p10).real < 0


def test_interval_samples_unit_modulus(p22):
    for c in S.components(p22):
        for x in np.linspace(c.lo, c.hi, 21)[1:-1]:
            g = core.gauss(complex(x), p22).G
            assert abs(abs(g) - 1.0) <= 1e-10


def test_off_interval_samples_clear_of_unit_modulus(p22):
    xs = S.off_axis_probe_points(p22, 1000)
    assert len(xs) == 1000
    for x in xs:
        assert not p22.contains_real(float(x))
        g = core.gauss(complex(x), p22).G
        assert abs(abs(g) - 1.0) > 1e-10


def test_w2_one_to_one_on_intervals(p21):
    # monotone w^2 along each interval (the one-to-one onto (-inf, 0) claim)
    for c in S.components(p21):
        xs = np.linspace(c.lo, c.hi, 101)[1:-1]
        vals = np.array([core.w_squared(complex(x), p21).real for x in xs])
        d = np.diff(vals)
        assert np.all(d > 0) or np.all(d < 0)


def test_nondegeneracy_closed_form_10(p10):
    # for the (1, 0) configuration dG/(G dh) = -2x exactly on the interval
    samples = S.nondegeneracy(S.components(p10)[0], p10)
    xs = np.linspace(1.0, 2.0, 11)[1:-1]
    assert np.asarray(samples) == pytest.approx(-2.0 * xs, rel=1e-12)


def test_nondegeneracy_real_on_close_pair():
    # a finite difference of G left an imaginary part of 8.8e-9 at x = 2.1009
    # on [2.001, 3] and called the interval degenerate; the closed form is
    # real there (0.8438...)
    p = SurfaceParams(m=2, n=0, a=(1.0, 2.0, 2.001, 3.0), alpha=(1, -1))
    for c in S.components(p):
        samples = S.nondegeneracy(c, p)
        assert len(samples) == 9
        assert all(isinstance(v, float) and math.isfinite(v) for v in samples)
        xs = np.linspace(c.lo, c.hi, 11)[1:-1]
        assert np.all(core.dg_over_gdh(xs, p).imag == 0.0)


def test_nondegeneracy_matches_rational_oracle(p21):
    for c in S.components(p21):
        samples = S.nondegeneracy(c, p21)
        xs = np.linspace(c.lo, c.hi, 11)[1:-1]
        ref = [oracles.dg_over_gdh_interval_ref(x, p21).real for x in xs]
        assert np.asarray(samples) == pytest.approx(np.asarray(ref), rel=1e-5)


def test_nondegeneracy_floor_raises(p10, monkeypatch):
    monkeypatch.setattr(S, "_NONDEGENERACY_FLOOR", 10.0)
    with pytest.raises(DegenerateSingularity):
        S.nondegeneracy(S.components(p10)[0], p10)


def test_singular_set_matches_scalar_gauss(p22):
    # the two array tests of singular_set see what scalar gauss calls see
    on = np.concatenate([np.linspace(c.lo, c.hi, 40)[1:-1] for c in S.components(p22)])
    off = S.off_axis_probe_points(p22, 1000)
    for xs, on_set in ((on, True), (off, False)):
        scalar = np.array([core.gauss(complex(x), p22).G for x in xs])
        assert np.array_equal(core.weierstrass_data(xs, p22)[1], scalar)
        assert np.all((np.abs(np.abs(scalar) - 1.0) <= 1e-10) == on_set)
    assert S.singular_set(p22) == S.components(p22)


def test_gauss_injective_on_component(p22):
    for c in S.components(p22):
        _, vals, _ = core.weierstrass_data(np.linspace(c.lo, c.hi, 18)[1:-1], p22)
        assert np.all(np.abs(np.abs(vals) - 1.0) < 1e-10)
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert abs(vals[i] - vals[j]) > 1e-8


def test_dh_over_g_nonvanishing(p22):
    for c in S.components(p22):
        _, g, dh = core.weierstrass_data(np.linspace(c.lo, c.hi, 18)[1:-1], p22)
        assert np.min(np.abs(dh / g)) > 1e-8


def test_endpoint_gauss_sign_table(p21, p22):
    for p in (p21, p22):
        for c in S.components(p):
            assert S.endpoint_gauss_check(c, p)
            g_lo = core.gauss(complex(c.lo), p).G
            g_hi = core.gauss(complex(c.hi), p).G
            assert g_lo == pytest.approx(-c.sign, abs=1e-8)
            assert g_hi == pytest.approx(c.sign, abs=1e-8)


def test_classify_10_down(p10):
    r = S.classify_cone(S.components(p10)[0], p10)
    assert r.direction == "down"
    assert r.theorem_direction == "down"
    assert r.matches_theorem
    assert not r.matches_lemma_statement
    assert r.nondegenerate and r.endpoint_gauss_ok
    assert r.apex_spread <= 1e-6


def test_classify_10_up():
    p = SurfaceParams(m=1, n=0, a=(1, 2), alpha=(-1,))
    r = S.classify_cone(S.components(p)[0], p)
    assert r.direction == "up" and r.matches_theorem


def test_classify_11_directions(p11):
    # alpha = +1: positive cone down; beta = +1: negative cone up
    by_axis = {c.axis: S.classify_cone(c, p11) for c in S.components(p11)}
    assert by_axis["pos"].direction == "down"
    assert by_axis["neg"].direction == "up"
    assert by_axis["pos"].matches_theorem and by_axis["neg"].matches_theorem


def test_classification_stable_in_eps(p21):
    # classify_cone votes at eps and eps/10 internally and raises on any
    # disagreement, so a clean pass is the stability statement
    for c in S.components(p21):
        r = S.classify_cone(c, p21)
        assert r.direction in ("up", "down")


def test_embedded_neighborhood_proxy(p10):
    assert S.embedded_neighborhood_proxy(S.components(p10)[0], p10)


def test_stadium_image_is_one_continuous_loop(p21):
    # the stadium crosses the negative axis; routing each point from the
    # basepoint used to split a 2pi jump in x2 into the loop
    comp = next(c for c in S.components(p21) if c.axis == "neg")
    loop, img = S._stadium_image(comp, p21)
    assert img.shape == (62, 3)
    steps = np.linalg.norm(np.diff(img, axis=0), axis=1)
    assert steps.max() <= 0.5
    closing, _ = integrate_path(PathSpec(waypoints=(loop[-1], loop[0])), p21)
    assert np.max(np.abs(img[-1] + closing - img[0])) <= 1e-12


def test_classify_cone_wide_scale_ratio():
    # the along-axis Richardson sides used to raise NonConvergent here
    p = SurfaceParams(m=2, n=0, a=(1e-3, 1, 10, 1e3), alpha=(1, -1))
    for c in S.components(p):
        r = S.classify_cone(c, p)
        assert r.matches_theorem
        assert r.apex_spread <= 1e-6


@pytest.mark.parametrize(
    "p",
    [
        SurfaceParams(m=2, n=1, a=(1.0, 1.8, 2.5, 3.6), b=(-1.2, -2.4), alpha=(1, -1), beta=(1,)),
        SurfaceParams(m=2, n=0, a=(1e-3, 1, 10, 1e3), alpha=(1, -1)),
    ],
    ids=["readme", "wide-ratio"],
)
def test_direction_votes_match_routed_immersion(p):
    # classify_cone carries f(lo) and f(hi) along the real axis to its vote
    # points, the legs of all four paths in one batch: each value is the
    # bytes of its endpoint value plus its path's integrate_path sum, inside
    # a leg memo too, and routing the vote point from the basepoint gives
    # the same f
    for c in S.components(p):
        ends = [np.asarray(immersion(complex(x), p).f) for x in (c.lo, c.hi)]
        eps0 = S._clamp_outer(1e-2 * c.length, c, p)
        votes = S._outside_values(c, p, ends, eps0)
        with I._leg_memo(p):
            in_memo = S._outside_values(c, p, ends, eps0)
        assert [eps for eps, _, _ in votes] == [eps0, eps0 / 10.0]
        for (eps, *chained), (_, *memoed) in zip(votes, in_memo):
            for x, step, f_x, f, g in zip((c.lo, c.hi), (-eps, eps), ends, chained, memoed):
                df, _ = integrate_path(PathSpec((x, x + step)), p)
                assert (f_x + np.asarray(df)).tobytes() == f.tobytes() == g.tobytes()
                routed = np.asarray(immersion(complex(x + step), p).f)
                assert np.max(np.abs(f - routed)) <= 1e-9, (c.axis, c.index, x + step)


def test_apex_spread_of_every_cone_within_1e10(p21):
    # the four limits of each cone agree within 1e-10 on the README surface,
    # the wide-ratio surface and the 28 classes; the five-route Richardson
    # limits of each side left 6.2e-10 on the wide-ratio surface
    wide = SurfaceParams(m=2, n=0, a=(1e-3, 1, 10, 1e3), alpha=(1, -1))
    classes = [
        instantiate(cfg) for total in range(1, 5) for m, n in enumerate_types(total)
        for cfg, _ in classes_for_type(m, n)
    ]
    assert len(classes) == 28
    for p in [p21, wide] + classes:
        for c in S.components(p):
            assert S.classify_cone(c, p).apex_spread <= 1e-10, (p, c)


@pytest.mark.parametrize(
    "p, expected",
    [
        (
            SurfaceParams(
                m=2, n=1, a=(1e-6, 1.8, 2.5, 3.6), b=(-1.2, -2.4), alpha=(1, -1), beta=(1,)
            ),
            [
                "segment tolerance 1e-10 not reached within 2000 panels (err 2.38349e-10) on "
                "SegmentLeg(z_a=(0.12000093333333334-4e-07j), z_b=(1e-06-4e-07j)) over t in "
                "[0, 1] (z from 0.12000093333333334-3.9999999999999998e-07j to "
                "1.0000000000010001e-06-3.9999999999999998e-07j)",
                None,
                None,
            ],
        ),
        (
            SurfaceParams(m=1, n=0, a=(1e-3, 1e3), alpha=(1,)),
            [
                "non-finite integrand on SqrtApproachLeg(c=(0.001+0j), z_outer=(0.00099+0j)) "
                "over t in [0.999985, 1] (z from 0.00099999999999767181+0j to 0.001+0j)",
            ],
        ),
    ],
    ids=["readme-a1-1e-6", "one-cone-1e6"],
)
def test_classification_failure_messages_are_frozen(p, expected):
    # with the radial leg exact at its end, the a_1 = 1e-6 surface stops at
    # the panel budget on the stadium chain's segment into a_1 (ROADMAP items
    # 6 and 17), and the 1e6-ratio surface on a non-finite square-root leg
    # into 0.001 (item 3). None: the cone classifies
    comps = S.components(p)
    assert len(comps) == len(expected)
    for c, message in zip(comps, expected):
        if message is None:
            assert S.classify_cone(c, p).matches_theorem
            continue
        with pytest.raises(QuadratureFailure) as failure:
            S.classify_cone(c, p)
        assert str(failure.value) == message


def test_touching_pairs_closed_segments():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    ring = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    assert S.touching_pairs(square, ring) == 0
    bowtie = square[[0, 1, 3, 2]]
    assert S.touching_pairs(bowtie, ring) == 1
    # a vertex resting on a non-adjacent edge counts as a meeting
    pinched = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    five = np.array([[k, (k + 1) % 5] for k in range(5)])
    assert S.touching_pairs(pinched, five) == 2
    assert S.touching_pairs(np.where(square == 1.0, np.nan, square), ring) > 0


@st.composite
def segment_sets(draw):
    """Points on a small grid (shared, repeated and collinear positions) and
    edges between them (duplicates, reversals, zero length), with at most one
    coordinate of one point made NaN or infinite."""
    n = draw(st.integers(1, 10))
    coord = st.one_of(st.integers(-3, 3).map(float), st.floats(-3.0, 3.0))
    points = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    vertex = st.integers(0, n - 1)
    edges = np.array(draw(st.lists(st.tuples(vertex, vertex), max_size=24)), dtype=np.int64)
    value = st.sampled_from([math.nan, math.inf, -math.inf])
    bad = draw(st.none() | st.tuples(vertex, st.integers(0, 1), value))
    if bad is not None:
        points[bad[:2]] = bad[2]
    return points, edges.reshape(-1, 2)


@given(segment_sets())
@example((np.zeros((0, 2)), np.zeros((0, 2), dtype=np.int64)))
@settings(max_examples=400, deadline=None)
def test_touching_pairs_sweep_matches_all_pairs(segments):
    points, edges = segments
    # an infinite coordinate makes inf - inf in the side tests of both
    with np.errstate(invalid="ignore", over="ignore"):
        assert S.touching_pairs(points, edges) == oracles.touching_pairs_ref(points, edges)


def test_touching_pairs_sweep_matches_all_pairs_on_a_stadium_loop(p21):
    c = S.components(p21)[0]
    pts = S._stadium_image(c, p21)[1][:, :2]
    ring = np.arange(len(pts))
    for loop in (pts, pts[[*range(20), *range(30, 40), *range(20, 30), *range(40, len(pts))]]):
        edges = np.stack([ring, np.roll(ring, -1)], axis=1)
        assert S.touching_pairs(loop, edges) == oracles.touching_pairs_ref(loop, edges)
    assert S.touching_pairs(loop, edges) > 0


def test_stereographic_pole():
    assert core.is_infinite(S.stereographic(np.array([0.0, 0.0, 1.0])))


def test_stereographic_rejects_off_hyperboloid():
    with pytest.raises(NotOnHyperboloid):
        S.stereographic(np.array([1.0, 0.0, 0.0]))


def test_stereographic_round_trip_near_one():
    # frozen from composing the closed-form maps at G = 1.01
    x = oracles.hyperboloid_point(1.01 + 0j)
    assert S.stereographic(x) == pytest.approx(1.01 + 0j, abs=1e-12)


def test_sigma_nu_equals_gauss(p22):
    # the round trip computes 1 - x3 = -2/|G|^2 by subtraction, so its
    # conditioning degrades like |G|^2; 1e-12 holds on the well-scaled bulk
    rng = np.random.default_rng(8)
    pts = core.regular_sample_points(p22, 100, rng)
    plain = 0
    for z in pts:
        g = core.gauss(complex(z), p22).G
        back = S.stereographic(oracles.hyperboloid_point(g))
        if abs(g) <= 50.0:
            assert back == pytest.approx(g, rel=1e-12)
            plain += 1
        else:
            assert back == pytest.approx(g, rel=max(1e-12, abs(g) ** 2 * 1e-15))
    assert plain >= 60


def test_cone_report_serializes(p11):
    r = S.classify_cone(S.components(p11)[0], p11)
    d = r.to_dict()
    assert d["direction"] in ("up", "down")
    assert d["matches_theorem"] in (True, False)
    assert len(d["interval"]) == 2
