import dataclasses
import json
import math

import numpy as np
import pytest

import oracles
from maxcone import mesh as MM
from maxcone.errors import WeldFailure
from maxcone.params import SurfaceParams

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
    # and the coeff_fn calls inside them
    from maxcone import integrate

    adaptive_leg = integrate.adaptive_leg
    counts = [0, 0]

    def counted_leg(leg, coeff_fn, tol):
        counts[0] += 1

        def counted_panel(t):
            counts[1] += 1
            return coeff_fn(t)

        return adaptive_leg(leg, counted_panel, tol)

    monkeypatch.setattr(integrate, "adaptive_leg", counted_leg)
    MM.sample_fundamental(p21, COARSE)
    assert counts == [2548, 2848]


@pytest.mark.parametrize("fixture", ["p10", "p21", "p22"])
def test_chunk_size_does_not_change_samples(fixture, request, monkeypatch):
    # the ring arcs stream through the quadrature in chunks; each leg
    # integrated alone gives the same bytes, and no kernel call reaches the
    # 16,384 points at which w_values can differ in the last bit
    from maxcone import core, integrate

    p = request.getfixturevalue(fixture)
    w_values, sizes = core.w_values, []

    def sized(z, p):
        sizes.append(np.size(z))
        return w_values(z, p)

    monkeypatch.setattr(core, "w_values", sized)
    monkeypatch.setattr(integrate, "w_values", sized)
    chunked = MM.sample_fundamental(p, COARSE)
    assert 0 < max(sizes) < 16384
    monkeypatch.setattr(integrate, "_CHUNK", 1)
    alone = MM.sample_fundamental(p, COARSE)
    assert chunked.f.tobytes() == alone.f.tobytes()
    assert chunked.quad_error.tobytes() == alone.quad_error.tobytes()


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
