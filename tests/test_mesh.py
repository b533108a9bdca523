import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from maxcone import mesh as MM
from maxcone.errors import WeldFailure
from maxcone.params import SurfaceParams
from maxcone.singular import classify_cone, touching_pairs

COARSE = MM.GridSpec(radial_samples=28, angular_samples=16, seam_refinement=2)


@pytest.fixture(scope="module")
def fund10():
    p = SurfaceParams(m=1, n=0, a=(1, 2), alpha=(1,))
    return p, MM.sample_fundamental(p, COARSE)


@pytest.fixture(scope="module")
def mesh10(fund10):
    p, fund = fund10
    return p, MM.assemble(fund, p, copies=0)


def test_grid_spec_validation(p10):
    with pytest.raises(ValueError):
        MM.GridSpec(angular_samples=4)
    with pytest.raises(ValueError):
        MM.GridSpec(r_min=5.0).resolve(p10)
    with pytest.raises(ValueError):
        MM.GridSpec(r_max=1.5).resolve(p10)
    r_min, r_max = MM.GridSpec().resolve(p10)
    assert r_min == pytest.approx(0.05)
    assert r_max == pytest.approx(40.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("radial_samples", 40.5),
        ("radial_samples", "40"),
        ("angular_samples", True),
        ("angular_samples", 4),
        ("seam_refinement", 1.5),
        ("seam_refinement", -1),
        ("r_min", "0.01"),
        ("r_max", float("nan")),
        ("r_max", 10**400),
        ("r_max", [40.0]),
    ],
)
def test_grid_spec_rejects_wrong_types_naming_the_field(field, value):
    # 40.5 radial samples used to construct and fail later inside numpy
    with pytest.raises(ValueError, match=field):
        MM.GridSpec(**{field: value})


def test_grid_spec_stores_python_numbers():
    g = MM.GridSpec(radial_samples=np.int64(28), r_min=np.float64(0.05), r_max=40)
    assert g == MM.GridSpec(radial_samples=28, r_min=0.05, r_max=40.0)
    assert [type(v) for v in (g.radial_samples, g.r_min, g.r_max)] == [int, float, float]


@pytest.mark.parametrize("copies", [1.5, -1, True, "1", None])
def test_assemble_rejects_bad_copies(fund10, copies):
    p, fund = fund10
    with pytest.raises(ValueError, match="copies"):
        MM.assemble(fund, p, copies=copies)


@pytest.mark.parametrize("copies", [1.5, -1, True, "1", None])
def test_build_mesh_rejects_bad_copies_before_sampling(p10, monkeypatch, copies):
    def fail(*args, **kwargs):
        raise AssertionError("sampled before checking copies")

    monkeypatch.setattr(MM, "sample_fundamental", fail)
    with pytest.raises(ValueError, match="copies"):
        MM.build_mesh(p10, copies=copies)


def test_sample_count_formula(fund10):
    p, fund = fund10
    R, A = len(fund.radii), len(fund.thetas)
    assert fund.f.shape == (R, A, 3) and fund.quad_error.shape == (R, A)
    assert len(fund.apex_samples) == p.m + p.n


def test_f2_range_on_fundamental(fund10):
    p, fund = fund10
    f2 = np.concatenate([fund.f[..., 1].ravel(), [s.f[1] for s in fund.apex_samples]])
    assert np.all((-math.pi - 1e-9 <= f2) & (f2 <= 1e-9))


def test_sample_fundamental_work_counts(p21, monkeypatch):
    # legs and panels counted as the benchmark counts them: adaptive_leg calls
    # and the coeff_fn calls inside them; then the quadrature's kernel calls
    # and points, 310 calls on the same points when each split panel made its
    # own call, 160 when the two halves of a split shared one, before the
    # splits of a chunk were refined in rounds
    from maxcone import integrate

    adaptive_leg, w_values = integrate.adaptive_leg, integrate.w_values
    counts = [0, 0, 0, 0]

    def counted_leg(leg, coeff_fn, tol):
        counts[0] += 1

        def counted_panel(panel):
            counts[1] += 1
            return coeff_fn(panel)

        return adaptive_leg(leg, counted_panel, tol)

    def counted_kernel(z, p):
        counts[2] += 1
        counts[3] += np.size(z)
        return w_values(z, p)

    monkeypatch.setattr(integrate, "adaptive_leg", counted_leg)
    monkeypatch.setattr(integrate, "w_values", counted_kernel)
    MM.sample_fundamental(p21, COARSE)
    assert counts == [2548, 2848, 33, 42720]


@pytest.mark.parametrize("fixture", ["p10", "p21", "p22"])
def test_chunk_size_does_not_change_samples(fixture, request, monkeypatch):
    # the ring arcs stream through the quadrature in chunks, which bound
    # memory only: chunks of up to 4,096 legs (kernel calls of up to 61,440
    # points) give the bytes of each leg integrated alone
    from maxcone import core, integrate

    p = request.getfixturevalue(fixture)
    grid = MM.GridSpec(60, 30)
    w_values, sizes = core.w_values, []

    def sized(z, p):
        sizes.append(np.size(z))
        return w_values(z, p)

    monkeypatch.setattr(core, "w_values", sized)
    monkeypatch.setattr(integrate, "w_values", sized)
    monkeypatch.setattr(integrate, "_CHUNK", 4096)
    chunked = MM.sample_fundamental(p, grid)
    assert 50_000 < max(sizes) <= 4096 * 15
    monkeypatch.setattr(integrate, "_CHUNK", 1)
    alone = MM.sample_fundamental(p, grid)
    assert chunked.f.tobytes() == alone.f.tobytes()
    assert chunked.quad_error.tobytes() == alone.quad_error.tobytes()


@pytest.mark.parametrize("fixture, grid", [("p21", MM.GridSpec()), ("p22", MM.GridSpec(60, 30))])
def test_running_sum_table_matches_per_chain_sums(fixture, grid, request):
    # every ring chain summed from its anchor in one padded table gives the
    # bytes of each chain summed on its own (the README surface's default
    # grid and p22's), where the chains stop at the apex positions and where
    # they stop at skipped positions spread over the rings
    p = request.getfixturevalue(fixture)
    fund = MM.sample_fundamental(p, grid)
    R, A = fund.apex_ref.shape
    full = [A - 1 - A // 2, A // 2] * R
    rng = np.random.default_rng(11)
    for skip in (fund.apex_ref >= 0, (fund.apex_ref >= 0) | (rng.random((R, A)) < 0.02)):
        f, err = MM._incremental_grid(p, fund.radii, fund.thetas, skip)
        f_ref, err_ref, lens = oracles.incremental_grid_by_chain_ref(p, fund.radii, fund.thetas, skip)
        assert f.tobytes() == f_ref.tobytes() and err.tobytes() == err_ref.tobytes()
        # chains that stop short, at a skipped position, and chains of no arc
        assert 0 < sum(n < m for n, m in zip(lens, full)) < len(lens)
    assert min(lens) == 0


@pytest.mark.parametrize("fixture, grid", [("p21", MM.GridSpec()), ("p22", MM.GridSpec(60, 30))])
def test_ring_arc_first_points_are_the_bytes_of_their_legs(fixture, grid, request, monkeypatch):
    # the ring arcs' first-panel points, taken from one angular table for
    # all rings, are ArcLeg.points's bytes on every ring arc of the grid
    # (the README surface's default grid and p22's), in both directions and
    # next to both boundary rows
    from maxcone import integrate as I

    p = request.getfixturevalue(fixture)
    calls, ring_arc_sums = [], MM._ring_arc_sums

    def spy(*args):
        calls.append(args)
        return ring_arc_sums(*args)

    monkeypatch.setattr(MM, "_ring_arc_sums", spy)
    MM.sample_fundamental(p, grid)
    ((radii, thetas, ring, j_from, j_to, _),) = calls
    got = I._arc_points(I._arc_table(thetas), radii[ring], j_from, j_to)
    t = oracles.panel_nodes_ref((0.0, 1.0))
    legs = [
        I.ArcLeg(r=float(radii[i]), theta_a=float(thetas[a]), theta_b=float(thetas[b]))
        for i, a, b in zip(ring.tolist(), j_from.tolist(), j_to.tolist())
    ]
    for a, b in zip(got, map(np.stack, zip(*(leg.points(t) for leg in legs)))):
        assert a.shape == b.shape == (len(legs), 15) and a.tobytes() == b.tobytes()
    A = len(thetas)
    assert {(1, 0), (A - 2, A - 1)} <= set(zip(j_from.tolist(), j_to.tolist()))


def test_a_readme_sample_builds_an_arc_leg_only_where_an_arc_refines(p21, monkeypatch):
    # the 31,524 ring arcs enter the quadrature as rows; only the few whose
    # first panel is rejected, and the routes' arcs, become ArcLegs
    from maxcone import integrate as I

    count, init = [0], I.ArcLeg.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(I.ArcLeg, "__init__", counted)
    MM.sample_fundamental(p21)
    assert 0 < count[0] <= 100


def test_f2_identity_max_dev(fund10):
    _, fund = fund10
    assert fund.f2_max_dev <= 1e-10


def test_boundary_rows_pi_apart(fund10):
    p, fund = fund10
    A = len(fund.thetas)
    row0 = fund.f[:, 0]
    rowp = fund.f[:, A - 1]
    assert all(abs(f[1]) < 1e-9 for f in row0)
    assert all(abs(f[1] + math.pi) < 1e-9 for f in rowp)


def test_mirror_weld_and_rows(mesh10):
    p, mesh = mesh10
    half = mesh.half_vertex_count
    orig = mesh.vertices[:half]
    # the theta=0 row is the fixed locus: no mirror duplicates within 1e-6
    mirrored = mesh.vertices[half : mesh.period_vertex_count]
    if len(mirrored):
        assert np.min(np.abs(mirrored[:, 1])) > 0.0
    # mirror of the theta=pi row coincides with the original row translated
    # by the period (0, 2pi, 0)
    row_pi = np.array([mesh.vertices[v] for v in mesh.boundary_neg])
    translated = row_pi + np.array([0.0, 2.0 * math.pi, 0.0])
    all_pts = mesh.vertices[: mesh.period_vertex_count]
    for q in translated:
        assert np.min(np.max(np.abs(all_pts - q), axis=1)) <= 1e-6


def test_mirror_symmetry_of_vertex_set(mesh10):
    _, mesh = mesh10
    pts = mesh.vertices[: mesh.period_vertex_count]
    flipped = pts * np.array([1.0, -1.0, 1.0])
    # reflected set equals the set itself (to 1e-6), morally tau_1
    sample = flipped[:: max(1, len(flipped) // 200)]
    for q in sample:
        assert np.min(np.max(np.abs(pts - q), axis=1)) <= 1e-6


def test_cone_vertices_tagged_once(mesh10):
    p, mesh = mesh10
    assert len(mesh.cone_vertices) == p.m + p.n
    assert mesh.cone_directions == ["down"]


def test_cone_fan_closed(mesh10):
    _, mesh = mesh10
    apex_vid = mesh.cone_vertices[0]
    tris = mesh.triangles[: mesh.period_triangle_count]
    incident = tris[np.any(tris == apex_vid, axis=1)]
    # each edge at the apex is shared by exactly two incident triangles
    edge_count = {}
    for t in incident:
        others = [v for v in t if v != apex_vid]
        assert len(others) == 2
        for v in others:
            edge_count[v] = edge_count.get(v, 0) + 1
    assert all(c == 2 for c in edge_count.values())


def test_weld_residuals_small(mesh10):
    _, mesh = mesh10
    assert max(mesh.weld_residuals) <= 1e-6


def test_copies_translate_exactly(fund10):
    p, fund = fund10
    m0 = MM.assemble(fund, p, copies=0)
    m2 = MM.assemble(fund, p, copies=2)
    n = m0.period_vertex_count
    offset = np.array([0.0, 4.0 * math.pi, 0.0])
    assert np.array_equal(m2.vertices[2 * n : 3 * n], m2.vertices[:n] + offset)
    ext0 = m0.vertices[:, 1].max() - m0.vertices[:, 1].min()
    ext2 = m2.vertices[:, 1].max() - m2.vertices[:, 1].min()
    assert ext2 - ext0 == pytest.approx(4.0 * math.pi, abs=1e-12)


@pytest.mark.parametrize("fixture", ["p10", "p21", "p22"])
@pytest.mark.parametrize("copies", [0, 2])
def test_assemble_matches_loop_oracle(fixture, copies, request):
    p = request.getfixturevalue(fixture)
    fund = MM.sample_fundamental(p, COARSE)
    mesh = MM.assemble(fund, p, copies=copies)
    vertices, triangles, nu3, boundary_pos, boundary_neg = oracles.assemble_loop_ref(fund, copies)
    assert mesh.vertices.dtype == vertices.dtype and mesh.vertices.shape == vertices.shape
    assert mesh.vertices.tobytes() == vertices.tobytes()
    assert mesh.triangles.dtype == triangles.dtype and mesh.triangles.shape == triangles.shape
    assert mesh.triangles.tobytes() == triangles.tobytes()
    assert mesh.nu3.tobytes() == nu3.tobytes()
    assert mesh.boundary_pos == boundary_pos and mesh.boundary_neg == boundary_neg
    assert mesh.cone_vertices == list(range(p.m + p.n))
    # the quadrature estimate is the grid's; the apex residual is reported apart
    assert mesh.quad_error_max == float(fund.quad_error.max())
    assert mesh.apex_residual_max == max(s.quad_error for s in fund.apex_samples)


@pytest.mark.parametrize(
    "p",
    [
        SurfaceParams(m=2, n=1, a=(1.0, 1.8, 2.5, 3.6), b=(-1.2, -2.4), alpha=(1, -1), beta=(1,)),
        SurfaceParams(m=2, n=0, a=(1e-3, 1, 10, 1e3), alpha=(1, -1)),
    ],
    ids=["readme", "wide-ratio"],
)
def test_apex_vertices_agree_with_the_classified_apex(p):
    # the mesh's apex vertices still come from the Richardson ladder; they
    # agree with classify_cone's transverse limit within 1e-9
    fund = MM.sample_fundamental(p, COARSE)
    for c, s in zip(fund.comps, fund.apex_samples):
        gap = np.max(np.abs(np.asarray(s.f) - np.asarray(classify_cone(c, p).apex)))
        assert gap <= 1e-9, (c, gap)


def test_quad_error_max_leaves_out_the_apex_residual(fund10):
    # the apex residual is an extrapolation residual, reported apart
    p, fund = fund10
    s = fund.apex_samples[0]
    rough = dataclasses.replace(fund, apex_samples=[dataclasses.replace(s, quad_error=1e-3)])
    mesh = MM.assemble(rough, p)
    assert mesh.quad_error_max == float(fund.quad_error.max()) < 1e-8
    assert mesh.apex_residual_max == 1e-3


def test_graph_check_passes_10(mesh10):
    _, mesh = mesh10
    rep = MM.graph_check(mesh)
    assert rep.passed, rep.to_dict()
    assert rep.min_nu3 > 0


@pytest.fixture(scope="module")
def oracle_mesh():
    p = SurfaceParams(m=1, n=0, a=(1, 2), alpha=(1,))
    g = MM.GridSpec(radial_samples=12, angular_samples=10, seam_refinement=1)
    return MM.build_mesh(p, g)


def _oracle_eps(mesh):
    tris = mesh.triangles[: mesh.period_triangle_count]
    used = mesh.vertices[np.unique(tris)][:, :2]
    return 1e-6 * float(np.max(used.max(axis=0) - used.min(axis=0)))


def test_graph_check_matches_brute_force_oracle(oracle_mesh):
    tris = oracle_mesh.triangles[: oracle_mesh.period_triangle_count]
    brute = oracles.overlap_count(oracle_mesh.vertices, tris, eps=_oracle_eps(oracle_mesh))
    rep = MM.graph_check(oracle_mesh)
    assert brute == 0
    assert rep.overlap_free and rep.disk_topology, rep.to_dict()
    assert rep.negative_triangles == 0 and rep.boundary_self_intersections == 0


def test_array_oracle_matches_loop_oracle(oracle_mesh):
    tris = oracle_mesh.triangles[:300]
    eps = _oracle_eps(oracle_mesh)
    loop = oracles.brute_force_overlaps(oracle_mesh.vertices, tris, eps)
    assert oracles.overlap_count(oracle_mesh.vertices, tris, eps) == loop


def _moved_vertex(mesh, v, xy):
    vertices = mesh.vertices.copy()
    vertices[v, :2] = xy
    changed = np.nonzero(np.any(mesh.triangles == v, axis=1))[0]
    return dataclasses.replace(mesh, vertices=vertices), changed


def _folded_interior_vertex(mesh):
    # an interior vertex carried past a neighbor folds its fan over the ring
    tris = mesh.triangles[: mesh.period_triangle_count]
    boundary = set(mesh.boundary_pos) | set(mesh.boundary_neg)
    v = next(int(x) for x in tris[len(tris) // 3] if int(x) not in boundary)
    w = next(int(x) for x in tris[np.any(tris == v, axis=1)][0] if x != v)
    xy = mesh.vertices[:, :2]
    return _moved_vertex(mesh, v, xy[w] + 2.0 * (xy[w] - xy[v]))


def _flipped_triangle(mesh):
    # the corner vertex in a single triangle, mirrored through the opposite
    # edge and carried three heights deep: only that triangle turns over
    tris = mesh.triangles[: mesh.period_triangle_count]
    ear = int(np.nonzero(np.bincount(tris.ravel()) == 1)[0][0])
    a, b = (int(x) for x in tris[np.any(tris == ear, axis=1)][0] if x != ear)
    xy = mesh.vertices[:, :2]
    mid = 0.5 * (xy[a] + xy[b])
    return _moved_vertex(mesh, ear, mid - 3.0 * (xy[ear] - mid))


def _boundary_vertex_across(mesh):
    # a theta = pi row vertex pushed through the piece and past the mirror row
    v = mesh.boundary_neg[len(mesh.boundary_neg) // 2]
    x1, x2 = mesh.vertices[v, :2]
    return _moved_vertex(mesh, v, (x1, x2 + 2.5 * math.pi))


def _not_a_disk(mesh):
    # a second copy of one triangle on fresh vertices: two components
    n = len(mesh.vertices)
    t = mesh.triangles[mesh.period_triangle_count // 2]
    broken = dataclasses.replace(
        mesh,
        vertices=np.vstack([mesh.vertices, mesh.vertices[t]]),
        nu3=np.concatenate([mesh.nu3, mesh.nu3[t]]),
        triangles=np.vstack([mesh.triangles, [[n, n + 1, n + 2]]]),
        period_triangle_count=mesh.period_triangle_count + 1,
        period_vertex_count=mesh.period_vertex_count + 3,
    )
    return broken, np.array([mesh.period_triangle_count])


@pytest.mark.parametrize(
    "breaker, failing_test",
    [
        (_folded_interior_vertex, "negative_triangles"),
        (_flipped_triangle, "negative_triangles"),
        (_boundary_vertex_across, "boundary_self_intersections"),
        (_not_a_disk, "disk_topology"),
    ],
)
def test_graph_check_fails_with_oracle_on_broken_mesh(oracle_mesh, breaker, failing_test):
    broken, changed = breaker(oracle_mesh)
    tris = broken.triangles[: broken.period_triangle_count]
    eps = _oracle_eps(broken)
    # the intact mesh has no overlapping pair, so every overlap of the broken
    # copy involves a changed triangle: the oracle runs on those pairs only
    pairs = {(min(i, j), max(i, j)) for i in changed for j in range(len(tris)) if j != i}
    brute = sum(oracles.brute_force_overlaps(broken.vertices, tris[[i, j]], eps) for i, j in pairs)
    rep = MM.graph_check(broken)
    assert brute > 0
    assert oracles.overlap_count(broken.vertices, tris, eps, pairs=sorted(pairs)) == brute
    assert not rep.overlap_free and not rep.passed, rep.to_dict()
    if failing_test == "disk_topology":
        assert not rep.disk_topology
    else:
        assert getattr(rep, failing_test) > 0


def test_graph_check_fails_on_nan_vertex(mesh10):
    _, mesh = mesh10
    tris = mesh.triangles[: mesh.period_triangle_count]
    vertices = mesh.vertices.copy()
    vertices[tris[len(tris) // 3, 0], :2] = math.nan
    rep = MM.graph_check(dataclasses.replace(mesh, vertices=vertices))
    assert rep.negative_triangles > 0 and not rep.overlap_free and not rep.passed


def test_graph_check_fails_on_a_nan_normal_off_the_apexes(readme_mesh):
    # the apexes' nan is by design; any other fails normals_up, however few
    rep = MM.graph_check(readme_mesh)
    assert rep.passed and readme_mesh.apex_vertices == np.flatnonzero(
        np.isnan(readme_mesh.nu3[: readme_mesh.period_vertex_count])
    ).tolist()
    regular = np.setdiff1d(np.arange(readme_mesh.period_vertex_count), readme_mesh.apex_vertices)
    for nan_at in (regular[len(regular) // 2 : len(regular) // 2 + 1], regular[1:]):
        nu3 = readme_mesh.nu3.copy()
        nu3[nan_at] = math.nan
        broken = MM.graph_check(dataclasses.replace(readme_mesh, nu3=nu3))
        assert not broken.normals_up and not broken.passed
        finding = json.loads(json.dumps(broken.to_dict(), allow_nan=False))["min_nu3"]
        assert finding == np.min(readme_mesh.nu3[np.setdiff1d(regular, nan_at)])


def test_apex_vertices_are_the_cones_and_their_mirrors(mesh10, mesh22):
    for mesh in (mesh10[1], mesh22):
        n_cones = len(mesh.cone_vertices)
        assert mesh.apex_vertices[:n_cones] == mesh.cone_vertices == list(range(n_cones))
        off_plane = [v for v in mesh.cone_vertices if v not in set(mesh.boundary_pos)]
        mirrored = mesh.apex_vertices[n_cones:]
        assert len(mirrored) == len(off_plane)
        assert all(v >= mesh.half_vertex_count for v in mirrored)
        expected = mesh.vertices[off_plane].copy()
        expected[:, 1] = 2.0 * mesh.mirror_constant - expected[:, 1]
        assert np.array_equal(mesh.vertices[mirrored], expected)


def test_graph_check_needs_the_boundary_test():
    # a strip of positive triangles wound through 450 degrees: a disk whose
    # only fault is the boundary crossing itself
    n = 30
    ang = np.linspace(0.0, 2.5 * math.pi, n + 1)
    inner = np.stack([np.cos(ang), np.sin(ang), np.zeros_like(ang)], axis=1)
    vertices = np.vstack([inner, 2.0 * inner])
    tris = []
    for k in range(n):
        a, b, c, d = k, k + 1, n + 1 + k, n + 2 + k
        tris += [(a, c, d), (a, d, b)]
    tris = np.array(tris)
    mesh = MM.GraphMesh(
        vertices=vertices,
        triangles=tris,
        cone_vertices=[],
        apex_vertices=[],
        copies=0,
        cone_directions=[],
        nu3=np.ones(len(vertices)),
        boundary_pos=[],
        boundary_neg=[],
        period_triangle_count=len(tris),
        period_vertex_count=len(vertices),
        half_vertex_count=len(vertices),
        weld_residuals=[],
        f2_max_dev=0.0,
        mirror_constant=0.0,
        quad_error_max=0.0,
        apex_residual_max=0.0,
    )
    rep = MM.graph_check(mesh)
    brute = oracles.brute_force_overlaps(vertices, tris, eps=1e-9)
    assert brute > 0 and oracles.overlap_count(vertices, tris, eps=1e-9) == brute
    assert rep.negative_triangles == 0 and rep.disk_topology
    assert rep.boundary_self_intersections > 0 and not rep.overlap_free


@pytest.fixture(scope="module")
def readme_mesh():
    # the README surface, with more period triangles than one orientation chunk
    p = SurfaceParams(m=2, n=1, a=(1.0, 1.8, 2.5, 3.6), b=(-1.2, -2.4), alpha=(1, -1), beta=(1,))
    return MM.build_mesh(p, MM.GridSpec(radial_samples=60, angular_samples=30))


@pytest.fixture(scope="module")
def mesh22():
    p = SurfaceParams(m=2, n=2, a=(1, 2, 3, 4), b=(-1, -2, -3, -4), alpha=(1, -1), beta=(1, -1))
    return MM.build_mesh(p, COARSE)


# graph_check's traced allocations per period triangle: 164 B when it held
# full-size edge vectors and key arrays, 58 B with chunked orientation and
# in-place keys (68 B on meshes of one chunk), 54 B with one directed-key sort
GRAPH_CHECK_BYTES_PER_TRIANGLE = 100


def test_graph_check_transient_memory_is_bounded(readme_mesh):
    assert readme_mesh.period_triangle_count > MM._TRI_CHUNK
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = MM.graph_check(readme_mesh)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.passed, rep.to_dict()
    assert peak / readme_mesh.period_triangle_count < GRAPH_CHECK_BYTES_PER_TRIANGLE


def test_orientation_count_matches_oracle_at_chunk_edges(oracle_mesh, monkeypatch):
    # flipped, zero-area and NaN-cornered triangles on both sides of every
    # edge between chunks of 7, and at both ends
    monkeypatch.setattr(MM, "_TRI_CHUNK", 7)
    n_tri = oracle_mesh.period_triangle_count
    nan_vertex = len(oracle_mesh.vertices)
    vertices = np.vstack([oracle_mesh.vertices, [[math.nan, math.nan, 0.0]]])
    tris = oracle_mesh.triangles.copy()
    faulty = sorted({0, n_tri - 1, *range(6, n_tri, 7), *range(7, n_tri, 7)})
    for k, i in enumerate(faulty):
        a, b, c = tris[i]
        tris[i] = [(a, c, b), (a, a, b), (nan_vertex, b, c)][k % 3]
    broken = dataclasses.replace(
        oracle_mesh, vertices=vertices, triangles=tris, nu3=np.append(oracle_mesh.nu3, math.nan)
    )
    rep = MM.graph_check(broken)
    assert rep.negative_triangles == oracles.not_positive_ref(vertices, tris[:n_tri]) == len(faulty)
    assert not rep.passed


def _with_triangles(mesh, tris, extra_vertices=0):
    """mesh (copies=0) with its triangles replaced and extra_vertices appended."""
    return dataclasses.replace(
        mesh,
        vertices=np.vstack([mesh.vertices, mesh.vertices[:extra_vertices]]),
        nu3=np.concatenate([mesh.nu3, mesh.nu3[:extra_vertices]]),
        triangles=tris,
        period_triangle_count=len(tris),
        period_vertex_count=mesh.period_vertex_count + extra_vertices,
    )


def _duplicated_triangle(mesh):
    # one triangle twice, the same way round: all three directed edges repeat
    tris = mesh.triangles[: mesh.period_triangle_count]
    return _with_triangles(mesh, np.vstack([tris, tris[len(tris) // 2 : len(tris) // 2 + 1]])), None


def _third_triangle_on_an_edge(mesh):
    # a fresh vertex closes a third triangle on an interior edge
    tris = mesh.triangles[: mesh.period_triangle_count]
    a, b = (int(x) for x in tris[len(tris) // 2, :2])
    assert np.count_nonzero(np.any(tris == a, axis=1) & np.any(tris == b, axis=1)) == 2
    n = len(mesh.vertices)
    return _with_triangles(mesh, np.vstack([tris, [[b, a, n]]]), extra_vertices=1), None


def _one_triangle_reversed(mesh):
    # an interior triangle turned round: its edges run the way its neighbours' do
    tris = mesh.triangles[: mesh.period_triangle_count].copy()
    tris[len(tris) // 2] = tris[len(tris) // 2, [0, 2, 1]]
    return _with_triangles(mesh, tris), None


def _gap_in_vertex_ids(mesh):
    # five unused ids in the middle of the numbering; still a disk (the
    # boundary rows keep the old ids: for the disk test only)
    cut, gap = len(mesh.vertices) // 2, 5
    broken = dataclasses.replace(
        mesh,
        vertices=np.insert(mesh.vertices, [cut] * gap, 0.0, axis=0),
        nu3=np.insert(mesh.nu3, [cut] * gap, 1.0),
        triangles=np.where(mesh.triangles >= cut, mesh.triangles + gap, mesh.triangles),
        period_vertex_count=mesh.period_vertex_count + gap,
    )
    return broken, None


NOT_A_DISK = (_not_a_disk, _duplicated_triangle, _third_triangle_on_an_edge, _one_triangle_reversed)


@pytest.mark.parametrize(
    "fixture, breaker",
    [("readme_mesh", None), ("mesh22", None), ("oracle_mesh", None)]
    + [
        ("oracle_mesh", b)
        for b in (
            _folded_interior_vertex,
            _flipped_triangle,
            _boundary_vertex_across,
            _not_a_disk,
            _duplicated_triangle,
            _third_triangle_on_an_edge,
            _one_triangle_reversed,
            _gap_in_vertex_ids,
        )
    ],
)
def test_disk_boundary_matches_former_version(fixture, breaker, request):
    mesh = request.getfixturevalue(fixture)
    if breaker is not None:
        mesh, _ = breaker(mesh)
    tris = mesh.triangles[: mesh.period_triangle_count]
    disk, edges = MM._disk_boundary(tris)
    disk_ref, edges_ref = oracles.disk_boundary_ref(tris)
    assert disk == disk_ref == (breaker not in NOT_A_DISK)
    assert edges.dtype == edges_ref.dtype and edges.shape == edges_ref.shape
    assert edges.tobytes() == edges_ref.tobytes()


@pytest.fixture(scope="module")
def wide_mesh():
    p = SurfaceParams(m=2, n=0, a=(1e-3, 1, 10, 1e3), alpha=(1, -1))
    return MM.build_mesh(p, COARSE)


@pytest.mark.parametrize(
    "fixture, breaker",
    [("readme_mesh", None), ("wide_mesh", None), ("mesh22", None)]
    + [("oracle_mesh", b) for b in (None, _boundary_vertex_across, _not_a_disk)],
)
def test_boundary_crossings_match_former_version(fixture, breaker, request):
    mesh = request.getfixturevalue(fixture)
    if breaker is not None:
        mesh, _ = breaker(mesh)
    xy = mesh.vertices[:, :2]
    edges = MM._disk_boundary(mesh.triangles[: mesh.period_triangle_count])[1]
    crossings = touching_pairs(xy, edges)
    assert crossings == oracles.touching_pairs_ref(xy, edges)
    assert (crossings > 0) == (breaker is not None)


def _renumbered(mesh, offset, dtype):
    """mesh with every vertex id moved up by offset and triangles of dtype."""
    return dataclasses.replace(
        mesh,
        vertices=np.vstack([np.zeros((offset, 3)), mesh.vertices]),
        nu3=np.concatenate([np.ones(offset), mesh.nu3]),
        triangles=(mesh.triangles + offset).astype(dtype),
        apex_vertices=[v + offset for v in mesh.apex_vertices],
        boundary_pos=[v + offset for v in mesh.boundary_pos],
        boundary_neg=[v + offset for v in mesh.boundary_neg],
        period_vertex_count=mesh.period_vertex_count + offset,
    )


@pytest.mark.parametrize("breaker", [None, _not_a_disk])
@pytest.mark.parametrize("offset", [0, 70_000])
def test_int32_triangles_give_the_same_report(oracle_mesh, breaker, offset):
    # past 65,536 vertices an edge key u * n + v no longer fits 32 bits
    mesh = oracle_mesh if breaker is None else breaker(oracle_mesh)[0]
    wide, narrow = (_renumbered(mesh, offset, dtype) for dtype in (np.int64, np.int32))
    assert MM.graph_check(narrow) == MM.graph_check(wide) == MM.graph_check(mesh)
    n_tri = mesh.period_triangle_count
    edges_wide = MM._disk_boundary(wide.triangles[:n_tri])[1]
    edges_narrow = MM._disk_boundary(narrow.triangles[:n_tri])[1]
    assert edges_narrow.dtype == np.int32 and np.array_equal(edges_narrow, edges_wide)


def test_boundary_monotonicity(mesh10):
    _, mesh = mesh10
    for chain in (mesh.boundary_pos, mesh.boundary_neg):
        seen = []
        for v in chain:
            if not seen or seen[-1] != v:
                seen.append(v)
        f1 = [mesh.vertices[v][0] for v in seen]
        assert all(b < a for a, b in zip(f1, f1[1:]))


def test_monotone_boundary_direction_signs(fund10):
    # f1 decreases along the positive axis and increases along the negative
    # axis (both decrease in the radius parametrization)
    p, fund = fund10
    from maxcone.integrate import immersion

    xs = [2.5, 3.0, 3.5]
    f1 = [immersion(complex(x), p).f[0] for x in xs]
    assert f1[0] > f1[1] > f1[2]
    f1n = [immersion(complex(-x), p).f[0] for x in xs]
    assert f1n[0] > f1n[1] > f1n[2]


def test_export_obj_contract(mesh10, tmp_path):
    _, mesh = mesh10
    path = tmp_path / "m.obj"
    MM.export_obj(mesh, path)
    data = path.read_bytes()
    MM.export_obj(mesh, tmp_path / "m2.obj")
    assert data == (tmp_path / "m2.obj").read_bytes()
    lines = data.decode().splitlines()
    cone_lines = [l for l in lines if l.startswith("# cone ")]
    assert len(cone_lines) == 1
    tag, idx, direction = cone_lines[0][2:].split()
    assert tag == "cone" and direction in ("up", "down")
    v_lines = [l for l in lines if l.startswith("v ")]
    assert len(v_lines) == len(mesh.vertices)
    parts = v_lines[0].split()
    assert len(parts) == 4 and all("." in x for x in parts[1:])
    assert all(len(x.split(".")[1]) == 9 for x in parts[1:])
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(f_lines) == len(mesh.triangles)
    assert min(int(i) for l in f_lines for i in l.split()[1:]) >= 1


def _empty_mesh():
    return MM.GraphMesh(
        vertices=np.zeros((0, 3)),
        triangles=np.zeros((0, 3), dtype=int),
        cone_vertices=[],
        apex_vertices=[],
        copies=0,
        cone_directions=[],
        nu3=np.zeros(0),
        boundary_pos=[],
        boundary_neg=[],
        period_triangle_count=0,
        period_vertex_count=0,
        half_vertex_count=0,
        weld_residuals=[],
        f2_max_dev=0.0,
        mirror_constant=0.0,
        quad_error_max=0.0,
        apex_residual_max=0.0,
    )


def test_export_empty_mesh(tmp_path):
    path = tmp_path / "empty.obj"
    MM.export_obj(_empty_mesh(), path)
    lines = path.read_text().splitlines()
    assert all(l.startswith("#") for l in lines)


def test_graph_check_fails_on_empty_mesh():
    # no regular vertex: a failing report, not an exception
    rep = MM.graph_check(_empty_mesh())
    assert not rep.normals_up and not rep.passed
    assert json.loads(json.dumps(rep.to_dict(), allow_nan=False))["min_nu3"] is None


def test_export_ply(mesh10, tmp_path):
    _, mesh = mesh10
    path = tmp_path / "m.ply"
    MM.export_ply(mesh, path)
    data = path.read_bytes()
    assert data.startswith(b"ply\nformat binary_little_endian 1.0\n")
    header_end = data.index(b"end_header\n") + len(b"end_header\n")
    expect = len(mesh.vertices) * 24 + len(mesh.triangles) * 13
    assert len(data) - header_end == expect


@pytest.mark.parametrize("copies", [0, 2])
def test_export_ply_matches_struct_oracle(fund10, copies, tmp_path):
    p, fund = fund10
    for mesh in (MM.assemble(fund, p, copies=copies), _empty_mesh()):
        MM.export_ply(mesh, tmp_path / "m.ply")
        data = (tmp_path / "m.ply").read_bytes()
        body = data[data.index(b"end_header\n") + len(b"end_header\n") :]
        assert body == oracles.ply_body_ref(mesh.vertices, mesh.triangles)


@pytest.mark.parametrize("copies", [0, 2])
def test_export_obj_matches_row_oracle(fund10, copies, tmp_path):
    p, fund = fund10
    for mesh in (MM.assemble(fund, p, copies=copies), _empty_mesh()):
        MM.export_obj(mesh, tmp_path / "m.obj")
        assert (tmp_path / "m.obj").read_bytes() == oracles.obj_text_ref(mesh).encode("ascii")


def test_weld_failure_raised(fund10):
    p, fund = fund10
    import dataclasses

    from maxcone.integrate import ImmersionSample

    bad_apex = ImmersionSample(z=fund.apex_samples[0].z, f=(10.0, 10.0, 10.0), quad_error=0.0)
    broken = dataclasses.replace(fund) if dataclasses.is_dataclass(fund) else fund
    broken.apex_samples = [bad_apex]
    with pytest.raises(WeldFailure):
        MM.assemble(broken, p, copies=0)


def test_weld_failure_on_nan_apex(fund10):
    p, fund = fund10
    from maxcone.integrate import ImmersionSample

    nan_apex = ImmersionSample(z=fund.apex_samples[0].z, f=(math.nan,) * 3, quad_error=0.0)
    broken = dataclasses.replace(fund, apex_samples=[nan_apex])
    with pytest.raises(WeldFailure):
        MM.assemble(broken, p, copies=0)


def test_multi_cone_mesh(p22):
    mesh = MM.build_mesh(p22, COARSE)
    assert len(mesh.cone_vertices) == 4
    assert mesh.cone_directions == ["down", "up", "up", "down"]
    rep = MM.graph_check(mesh)
    assert rep.passed, rep.to_dict()
