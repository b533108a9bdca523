"""Mesh generation for the graph: sampling, assembly, checks, export.

The fundamental piece (closed upper half-plane annulus in log-polar
coordinates) is sampled on a grid that is uniform in (log r, theta), with
sqrt-graded seam radii inserted around every singular interval and
sqrt-graded angular sub-rows near both boundary rows. Boundary-row samples
over a closed singular interval all collapse onto that component's apex
vertex, so the quads there degenerate into the cone's triangle fan with the
finest sub-row as its epsilon-offset ring. Assembly appends the mirror
image through the x2 = c plane (c is the basepoint image height, 0 by
default) welded along the fixed row, plus any number of period translates
by (0, 2pi, 0).

f-values are accumulated incrementally: one radial chain up the grid
anchor ray and one angular chain around each ring, so a full default grid
costs a few thousand short quadratures instead of three per vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import IOFailure, WeldFailure
from .integrate import (
    DEFAULT_SEGMENT_TOL,
    ArcLeg,
    ImmersionSample,
    RadialLeg,
    _integrate_leg,
    apex,
    immersion,
)
from .params import SurfaceParams
from .singular import SingularComponent, components, theorem_direction, touching_pairs


@dataclass(frozen=True)
class GridSpec:
    """Log-polar sampling grid over the fundamental half-annulus.

    seam_refinement controls the extra resolution near the singular
    intervals: that many interior radii are inserted across each interval,
    with sqrt-graded radii around its endpoints and sqrt-graded angular
    sub-rows near theta = 0 and theta = pi, so the cone tips are resolved
    without sliver triangles.
    """

    radial_samples: int = 200
    angular_samples: int = 100
    r_min: float | None = None
    r_max: float | None = None
    seam_refinement: int = 3

    def resolve(self, p: SurfaceParams) -> tuple[float, float]:
        """Concrete truncation radii; defaults 0.05 a_1 and 20 max|branch|."""
        r_min = self.r_min if self.r_min is not None else 0.05 * p.a[0]
        r_max = self.r_max if self.r_max is not None else 20.0 * p.scale()
        if not 0.0 < r_min < p.inner_radius():
            raise ValueError(f"r_min {r_min} must lie inside the innermost branch point")
        if not r_max > p.scale():
            raise ValueError(f"r_max {r_max} must lie outside the outermost branch point")
        return r_min, r_max

    def __post_init__(self):
        if self.radial_samples < 4:
            raise ValueError("need at least 4 radial samples")
        if self.angular_samples < 8:
            raise ValueError("need at least 8 angular samples")
        if self.seam_refinement < 0:
            raise ValueError("seam_refinement must be nonnegative")


@dataclass
class FundamentalSamples:
    """Grid samples of the fundamental piece plus apex samples.

    samples holds the grid in row-major (radius, theta) order followed by
    one apex sample per singular component; apex_ref marks boundary-row
    positions over a closed singular interval, all of which collapse onto
    that component's apex vertex (the first graded angular row above the
    interval then forms the cone's fan ring).
    """

    samples: list[ImmersionSample]
    radii: np.ndarray
    thetas: np.ndarray
    apex_ref: np.ndarray  # (R, A) int, -1 or component index
    nu3: np.ndarray  # (R, A) float, nan at apex positions
    comps: list[SingularComponent]
    apex_samples: list[ImmersionSample]
    basepoint: complex
    mirror_constant: float
    f2_max_dev: float
    inserted_radii: int

    def grid_index(self, i: int, j: int) -> int:
        return i * len(self.thetas) + j


def sample_fundamental(
    p: SurfaceParams,
    g: GridSpec | None = None,
    basepoint: complex | None = None,
    tol: float = DEFAULT_SEGMENT_TOL,
) -> FundamentalSamples:
    """Sample f over the closed upper half-plane annulus.

    Returns radial_samples x angular_samples grid samples (plus inserted
    seam radii rows) and the m + n apex samples appended at the end.
    """
    if g is None:
        g = GridSpec()
    if basepoint is None:
        basepoint = p.default_basepoint()
    c_mirror = -math.atan2(basepoint.imag, basepoint.real)
    r_min, r_max = g.resolve(p)
    comps = components(p)
    radii, inserted = _build_radii(p, g, r_min, r_max)
    thetas = _build_thetas(g)
    R, A = len(radii), len(thetas)

    apex_ref = -np.ones((R, A), dtype=int)
    z_grid = np.empty((R, A), dtype=complex)
    for j, th in enumerate(thetas):
        z_grid[:, j] = radii * complex(math.cos(th), math.sin(th))
    z_grid[:, 0] = radii  # exact real axis
    z_grid[:, A - 1] = -radii

    edge_tol = 1e-12 * p.scale()
    for ci, comp in enumerate(comps):
        row = 0 if comp.axis == "pos" else A - 1
        span_lo, span_hi = (comp.lo, comp.hi) if comp.axis == "pos" else (-comp.hi, -comp.lo)
        for i, r in enumerate(radii):
            if span_lo - edge_tol <= r <= span_hi + edge_tol:
                apex_ref[i, row] = ci

    # boundary-row positions over an interval all collapse to the apex, so
    # their chain steps (which would end on the cut) are skipped
    f_grid, err_grid = _incremental_grid(p, radii, thetas, basepoint, tol, apex_ref >= 0)

    apex_samples = []
    for comp in comps:
        v, resid = apex((comp.lo, comp.hi), "above", p, basepoint=basepoint, quad_tol=tol)
        apex_samples.append(
            ImmersionSample(z=complex(comp.midpoint), f=tuple(v), quad_error=resid)
        )
    for ci, comp in enumerate(comps):
        row = 0 if comp.axis == "pos" else A - 1
        for i in range(R):
            if apex_ref[i, row] == ci:
                f_grid[i, row] = apex_samples[ci].f

    nu3 = _grid_nu3(z_grid, apex_ref, p)

    f2_dev = 0.0
    samples = []
    for i in range(R):
        for j in range(A):
            z = z_grid[i, j]
            samples.append(
                ImmersionSample(z=z, f=tuple(f_grid[i, j]), quad_error=float(err_grid[i, j]))
            )
            if apex_ref[i, j] < 0:
                dev = abs(f_grid[i, j][1] + math.atan2(z.imag, z.real) - c_mirror)
                f2_dev = max(f2_dev, dev)
    samples.extend(apex_samples)

    return FundamentalSamples(
        samples=samples,
        radii=radii,
        thetas=thetas,
        apex_ref=apex_ref,
        nu3=nu3,
        comps=comps,
        apex_samples=apex_samples,
        basepoint=basepoint,
        mirror_constant=c_mirror,
        f2_max_dev=f2_dev,
        inserted_radii=inserted,
    )


def _build_thetas(g: GridSpec) -> np.ndarray:
    """Uniform angular grid plus graded sub-rows near both boundary rows.

    The immersion behaves like sqrt(theta) approaching the axis at the
    branch points, so the sub-rows are uniform in sqrt(theta): chords of
    boundary-adjacent image curves then track them to second order. The
    finest sub-row is the epsilon-offset fan ring above each interval.
    """
    base = np.linspace(0.0, math.pi, g.angular_samples)
    theta1 = base[1]
    k_sub = g.seam_refinement + 4
    sub = np.array([theta1 * (k / k_sub) ** 2 for k in range(1, k_sub)])
    return np.sort(np.concatenate([base, sub, math.pi - sub]))


def _build_radii(p: SurfaceParams, g: GridSpec, r_min: float, r_max: float):
    """Log-spaced radii plus seam insertions around every interval.

    Each interval contributes its endpoints, evenly spaced interior radii,
    and sqrt-graded radii fanning out from both endpoints (inward and into
    the adjacent gaps): the immersion scales like sqrt(distance) at branch
    points, so graded columns keep the projected triangles from knifing
    through neighboring strips at the cone tips.
    """
    base = np.geomspace(r_min, r_max, g.radial_samples)
    k_grad = g.seam_refinement + 4
    walls = sorted([0.0] + [abs(c) for c in p.branch_points()] + [2.0 * r_max])
    extra = []
    for comp in components(p):
        lo, hi = (comp.lo, comp.hi) if comp.axis == "pos" else (-comp.hi, -comp.lo)
        length = hi - lo
        extra.extend(np.linspace(lo, hi, g.seam_refinement + 2))
        gap_lo = lo - max(w for w in walls if w < lo - 1e-12 * p.scale())
        gap_hi = min(w for w in walls if w > hi + 1e-12 * p.scale()) - hi
        for e, sign, gap in ((lo, -1.0, gap_lo), (hi, 1.0, gap_hi)):
            d_out = min(0.45 * gap, 0.5 * length)
            d_in = 0.5 * length
            for k in range(1, k_grad):
                u = (k / k_grad) ** 2
                extra.append(e + sign * d_out * u)
                extra.append(e - sign * d_in * u)
    radii = np.sort(np.concatenate([base, np.array(extra)]))
    radii = radii[(radii >= r_min) & (radii <= r_max)]
    keep = np.ones(len(radii), dtype=bool)
    tol = 1e-12 * p.scale()
    keep[1:] = np.diff(radii) > tol
    radii = radii[keep]
    return radii, len(radii) - g.radial_samples


def _incremental_grid(p, radii, thetas, basepoint, tol, skip):
    """f on the (R, A) grid via chained radial and angular legs.

    skip marks boundary-row positions whose values are overridden later
    (apex collapses and pushed seam points); their terminal chain steps
    would otherwise end on a branch cut.
    """
    R, A = len(radii), len(thetas)
    j_anchor = A // 2
    th_anchor = float(thetas[j_anchor])
    r0, th0 = abs(basepoint), math.atan2(basepoint.imag, basepoint.real)

    f = np.zeros((R, A, 3))
    err = np.zeros((R, A))

    base_v, base_e = _integrate_leg(ArcLeg(r=r0, theta_a=th0, theta_b=th_anchor), p, tol)
    # radial chain along the anchor ray through r0
    chain_v = np.zeros((R, 3))
    chain_e = np.zeros(R)
    i_near = int(np.argmin(np.abs(radii - r0)))
    v, e = _integrate_leg(RadialLeg(theta=th_anchor, r_a=r0, r_b=float(radii[i_near])), p, tol)
    chain_v[i_near] = (base_v + v).real
    chain_e[i_near] = base_e + e
    for i in range(i_near + 1, R):
        v, e = _integrate_leg(
            RadialLeg(theta=th_anchor, r_a=float(radii[i - 1]), r_b=float(radii[i])), p, tol
        )
        chain_v[i] = chain_v[i - 1] + v.real
        chain_e[i] = chain_e[i - 1] + e
    for i in range(i_near - 1, -1, -1):
        v, e = _integrate_leg(
            RadialLeg(theta=th_anchor, r_a=float(radii[i + 1]), r_b=float(radii[i])), p, tol
        )
        chain_v[i] = chain_v[i + 1] + v.real
        chain_e[i] = chain_e[i + 1] + e

    for i in range(R):
        f[i, j_anchor] = chain_v[i]
        err[i, j_anchor] = chain_e[i]
        r = float(radii[i])
        for j in range(j_anchor + 1, A):
            if skip[i, j]:
                break
            v, e = _integrate_leg(
                ArcLeg(r=r, theta_a=float(thetas[j - 1]), theta_b=float(thetas[j])), p, tol
            )
            f[i, j] = f[i, j - 1] + v.real
            err[i, j] = err[i, j - 1] + e
        for j in range(j_anchor - 1, -1, -1):
            if skip[i, j]:
                break
            v, e = _integrate_leg(
                ArcLeg(r=r, theta_a=float(thetas[j + 1]), theta_b=float(thetas[j])), p, tol
            )
            f[i, j] = f[i, j + 1] + v.real
            err[i, j] = err[i, j + 1] + e
    return f, err


def _grid_nu3(z_grid, apex_ref, p):
    nu3 = core.nu_from_w(core.w_values(z_grid, p))[..., 2]
    return np.where(apex_ref >= 0, np.nan, nu3)


@dataclass
class GraphMesh:
    """Triangulated mesh of the graph with period copies.

    vertices are (x1, x2, x3) rows; triangles index into them. cone_vertices
    lists the apex vertex of each singular component of the fundamental
    piece (mirror and translate duplicates are not tagged).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    cone_vertices: list[int]
    copies: int
    cone_directions: list[str]
    nu3: np.ndarray  # per vertex, nan at apexes
    boundary_pos: list[int]  # theta=0 row vertex ids, ordered by radius
    boundary_neg: list[int]  # theta=pi row vertex ids, ordered by radius
    period_triangle_count: int  # triangles in the copies=0 portion
    period_vertex_count: int
    half_vertex_count: int  # vertices of the un-mirrored fundamental piece
    weld_residuals: list[float]
    f2_max_dev: float
    mirror_constant: float
    quad_error_max: float


def assemble(
    fund: FundamentalSamples,
    p: SurfaceParams,
    copies: int = 0,
    weld_tol: float = 1e-6,
) -> GraphMesh:
    """Triangulate the sampled fundamental piece, mirror, and translate.

    Welds seam rows to apex vertices (closing each cone with a triangle
    fan), reflects through x2 = mirror_constant matching the surface's
    symmetry, and appends `copies` translates by (0, 2pi, 0). Raises
    WeldFailure when a direct branch-point-endpoint integral disagrees with
    the extrapolated apex by more than weld_tol, or by a non-finite amount.
    """
    if copies < 0:
        raise ValueError("copies must be nonnegative")
    R, A = len(fund.radii), len(fund.thetas)
    n_comp = len(fund.comps)

    # vertex ids: grid positions collapse onto apex vertices where marked
    vid = -np.ones((R, A), dtype=int)
    verts: list[tuple[float, float, float]] = []
    nu3: list[float] = []
    apex_vid = [-1] * n_comp
    for ci, s in enumerate(fund.apex_samples):
        apex_vid[ci] = len(verts)
        verts.append(tuple(s.f))
        nu3.append(math.nan)
    for i in range(R):
        for j in range(A):
            ci = fund.apex_ref[i, j]
            if ci >= 0:
                vid[i, j] = apex_vid[ci]
            else:
                vid[i, j] = len(verts)
                verts.append(fund.samples[fund.grid_index(i, j)].f)
                nu3.append(float(fund.nu3[i, j]))

    weld_residuals = _weld_check(fund, p, weld_tol)

    # quads; over the intervals the boundary corners repeat the apex vertex,
    # so each such quad degenerates to one fan triangle (apex, w_k, w_k+1)
    tris: list[tuple[int, int, int]] = []
    for i in range(R - 1):
        for j in range(A - 1):
            v00, v01 = vid[i, j], vid[i, j + 1]
            v10, v11 = vid[i + 1, j], vid[i + 1, j + 1]
            _push_tri(tris, v00, v10, v11)
            _push_tri(tris, v00, v11, v01)

    vertices = np.array(verts, dtype=float)
    triangles = np.array(tris, dtype=int)
    nu3_arr = np.array(nu3, dtype=float)
    half_nv = len(vertices)
    half_nt = len(triangles)

    # mirror copy through x2 = c, welded along the fixed row; fixed-plane
    # membership is structural (gap vertices of the theta=0 row and apexes
    # of positive-axis intervals), not a coordinate comparison, so apex
    # extrapolation residuals cannot crack the weld
    c = fund.mirror_constant
    on_plane = np.zeros(half_nv, dtype=bool)
    for i in range(R):
        on_plane[vid[i, 0]] = True
    for ci, comp in enumerate(fund.comps):
        if comp.axis == "neg":
            on_plane[apex_vid[ci]] = False
    mirror_map = -np.ones(half_nv, dtype=int)
    new_rows = []
    new_nu3 = []
    for k in range(half_nv):
        if on_plane[k]:
            mirror_map[k] = k
        else:
            mirror_map[k] = half_nv + len(new_rows)
            x1, x2, x3 = vertices[k]
            new_rows.append((x1, 2.0 * c - x2, x3))
            new_nu3.append(nu3_arr[k])
    vertices = np.vstack([vertices, np.array(new_rows, dtype=float).reshape(-1, 3)])
    nu3_arr = np.concatenate([nu3_arr, np.array(new_nu3, dtype=float)])
    mirror_tris = mirror_map[triangles][:, [0, 2, 1]]  # reversed orientation
    triangles = np.vstack([triangles, mirror_tris])

    period_nv, period_nt = len(vertices), len(triangles)

    # period translates
    for t in range(1, copies + 1):
        offset = np.array([0.0, 2.0 * math.pi * t, 0.0])
        base = len(vertices)
        vertices = np.vstack([vertices, vertices[:period_nv] + offset])
        nu3_arr = np.concatenate([nu3_arr, nu3_arr[:period_nv]])
        triangles = np.vstack([triangles, triangles[:period_nt] + base])

    boundary_pos = [int(vid[i, 0]) for i in range(R)]
    boundary_neg = [int(vid[i, A - 1]) for i in range(R)]
    quad_err = max(
        (s.quad_error for s in fund.samples), default=0.0
    )

    return GraphMesh(
        vertices=vertices,
        triangles=triangles,
        cone_vertices=[apex_vid[ci] for ci in range(n_comp)],
        copies=copies,
        cone_directions=[theorem_direction(cmp_) for cmp_ in fund.comps],
        nu3=nu3_arr,
        boundary_pos=boundary_pos,
        boundary_neg=boundary_neg,
        period_triangle_count=period_nt,
        period_vertex_count=period_nv,
        half_vertex_count=half_nv,
        weld_residuals=weld_residuals,
        f2_max_dev=fund.f2_max_dev,
        mirror_constant=c,
        quad_error_max=float(quad_err),
    )


def _push_tri(tris, u, v, w):
    if u != v and v != w and u != w:
        tris.append((u, v, w))


def _weld_check(fund: FundamentalSamples, p: SurfaceParams, weld_tol: float) -> list[float]:
    """Apex versus direct branch-point-endpoint integration, per component."""
    out = []
    for comp, s in zip(fund.comps, fund.apex_samples):
        worst = 0.0
        for endpoint in (comp.lo, comp.hi):
            direct = immersion(complex(endpoint), p, fund.basepoint)
            gap = float(np.max(np.abs(np.asarray(direct.f) - np.asarray(s.f))))
            # written so that a NaN gap fails; max() would drop it
            if not gap <= weld_tol:
                raise WeldFailure(
                    f"apex of [{comp.lo}, {comp.hi}] disagrees with the integral "
                    f"to endpoint {endpoint} by {gap:g}"
                )
            worst = max(worst, gap)
        out.append(worst)
    return out


# ---------------------------------------------------------------------------
# graph checks


@dataclass
class GraphCheckReport:
    normals_up: bool
    min_nu3: float | None  # None when the mesh has no regular vertex
    boundary_monotone: bool
    monotonicity_violations: int
    overlap_free: bool
    negative_triangles: int
    boundary_self_intersections: int
    disk_topology: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "normals_up": self.normals_up,
            "min_nu3": self.min_nu3,
            "boundary_monotone": self.boundary_monotone,
            "monotonicity_violations": self.monotonicity_violations,
            "overlap_free": self.overlap_free,
            "negative_triangles": self.negative_triangles,
            "boundary_self_intersections": self.boundary_self_intersections,
            "disk_topology": self.disk_topology,
            "passed": self.passed,
        }


def graph_check(mesh: GraphMesh) -> GraphCheckReport:
    """Graph-property findings for the copies=0 portion of a mesh.

    Checks that every regular vertex normal points up, that x1 is strictly
    monotone along both boundary rows off the singular intervals, and that
    the x1x2-projection of the period mesh is one-to-one. The last is
    certified without any pair search (Floater, Math. Comp. 72, 2003): a
    piecewise-linear map of an oriented triangulated disk is one-to-one when
    every image triangle is positively oriented and the boundary maps onto
    a simple closed polygon. Returns findings; never raises: a mesh without
    a regular vertex fails with normals_up False.
    """
    nu3 = mesh.nu3[: mesh.period_vertex_count]
    nu3 = nu3[~np.isnan(nu3)]
    min_nu3 = float(np.min(nu3)) if len(nu3) else None
    normals_up = min_nu3 is not None and min_nu3 > 0.0

    violations = 0
    for chain in (mesh.boundary_pos, mesh.boundary_neg):
        f1 = [mesh.vertices[v][0] for v in _dedup(chain)]
        for a, b in zip(f1, f1[1:]):
            if not b < a:
                violations += 1
    boundary_monotone = violations == 0

    tris = mesh.triangles[: mesh.period_triangle_count]
    xy = mesh.vertices[:, :2]
    e1 = xy[tris[:, 1]] - xy[tris[:, 0]]
    e2 = xy[tris[:, 2]] - xy[tris[:, 0]]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    # written so that zero and NaN areas fail too
    negative = int(np.count_nonzero(~(area2 > 0)))
    disk, boundary = _disk_boundary(tris)
    crossings = touching_pairs(xy, boundary)
    overlap_free = negative == 0 and disk and crossings == 0

    return GraphCheckReport(
        normals_up=normals_up,
        min_nu3=min_nu3,
        boundary_monotone=boundary_monotone,
        monotonicity_violations=violations,
        overlap_free=overlap_free,
        negative_triangles=negative,
        boundary_self_intersections=crossings,
        disk_topology=disk,
        passed=normals_up and boundary_monotone and overlap_free,
    )


def _dedup(chain):
    out = []
    for v in chain:
        if not out or out[-1] != v:
            out.append(v)
    return out


def _disk_boundary(tris: np.ndarray) -> tuple[bool, np.ndarray]:
    """Whether tris form an oriented triangulated disk, and its boundary edges.

    Oriented: no directed edge repeats, so every edge lies in at most two
    triangles and an interior edge is used once in each direction. The
    boundary is the edges used once, directed as in their triangle; a disk
    has exactly one boundary cycle with no repeated vertex and Euler
    characteristic V - E + F = 1 over the vertices the triangles use.
    """
    u = tris.ravel()
    v = tris[:, [1, 2, 0]].ravel()
    n = np.int64(u.max(initial=0)) + 1
    # grouped by plain sorts: on numpy 2.4, np.unique and np.isin over these
    # int64 keys measured about 40x slower than np.sort
    directed = np.sort(u * n + v)
    oriented = not np.any(directed[1:] == directed[:-1])
    undirected = np.minimum(u, v) * n + np.maximum(u, v)
    order = np.argsort(undirected)
    undirected = undirected[order]
    paired = np.zeros(len(u) + 1, dtype=bool)
    paired[1:-1] = undirected[1:] == undirected[:-1]
    once = order[~(paired[:-1] | paired[1:])]
    edges = np.stack([u[once], v[once]], axis=1)
    n_edges = (len(u) + len(once)) // 2
    euler = np.count_nonzero(np.bincount(u)) - n_edges + len(tris)
    return bool(oriented and euler == 1 and _one_cycle(edges)), edges


def _one_cycle(edges: np.ndarray) -> bool:
    """True when the directed edges form a single cycle through distinct vertices."""
    tails, heads = np.sort(edges[:, 0]), np.sort(edges[:, 1])
    if not len(edges) or np.any(tails[1:] == tails[:-1]) or not np.array_equal(tails, heads):
        return False
    # the successor map is now a permutation of the boundary vertices
    succ = dict(zip(edges[:, 0].tolist(), edges[:, 1].tolist()))
    start = int(edges[0, 0])
    vertex, steps = succ[start], 1
    while vertex != start:
        vertex, steps = succ[vertex], steps + 1
    return steps == len(edges)


# ---------------------------------------------------------------------------
# export


def export_obj(mesh: GraphMesh, destination) -> None:
    """Wavefront OBJ with cone-vertex comment tags; byte-deterministic."""
    lines = [
        "# maxcone mesh",
        f"# vertices {len(mesh.vertices)} triangles {len(mesh.triangles)} copies {mesh.copies}",
    ]
    for vidx, direction in zip(mesh.cone_vertices, mesh.cone_directions):
        lines.append(f"# cone {vidx + 1} {direction}")
    for x1, x2, x3 in mesh.vertices:
        lines.append("v %.9f %.9f %.9f" % (x1, x2, x3))
    for a, b, c in mesh.triangles:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    _atomic_write(destination, ("\n".join(lines) + "\n").encode("ascii"))


def export_ply(mesh: GraphMesh, destination) -> None:
    """Binary little-endian PLY with the same vertex order as the OBJ."""
    import struct

    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {len(mesh.vertices)}\n"
        "property double x\nproperty double y\nproperty double z\n"
        f"element face {len(mesh.triangles)}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    ).encode("ascii")
    body = bytearray()
    for row in mesh.vertices:
        body += struct.pack("<3d", *row)
    for tri in mesh.triangles:
        body += struct.pack("<B3i", 3, *tri)
    _atomic_write(destination, header + bytes(body))


def _atomic_write(destination, payload: bytes) -> None:
    import os

    destination = os.fspath(destination)
    tmp = destination + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, destination)
    except OSError as exc:
        raise IOFailure(f"could not write {destination}: {exc}") from exc


def build_mesh(
    p: SurfaceParams,
    g: GridSpec | None = None,
    copies: int = 0,
    basepoint: complex | None = None,
    tol: float = DEFAULT_SEGMENT_TOL,
) -> GraphMesh:
    """Sample and assemble in one call."""
    fund = sample_fundamental(p, g, basepoint=basepoint, tol=tol)
    return assemble(fund, p, copies=copies)
