"""Mesh generation for the graph: sampling, assembly, checks, export.

The fundamental piece (closed upper half-plane annulus in log-polar
coordinates) is sampled on a grid that is uniform in (log r, theta), with
sqrt-graded seam radii inserted around every singular interval and
sqrt-graded angular sub-rows near both boundary rows. Boundary-row samples
over a closed singular interval all collapse onto that component's apex
vertex, so the quads there degenerate into the cone's triangle fan with the
finest sub-row as its epsilon-offset ring. Assembly appends the mirror
image through the x2 = 0 plane (f is integrated from the fixed origin
a_{2m} + 1, so f2 = -Arg z) welded along the fixed row, plus any number of
period translates by (0, 2pi, 0).

f-values are accumulated incrementally: one radial chain up the grid
anchor ray and one angular chain each way around every ring, so each grid
vertex costs one short quadrature leg from its neighbor instead of a routed
path from the origin (31,730 legs on the default grid of the README
surface, nearly all of them one G7/K15 panel). The ring arcs of all rings
(31,524 of those legs) go to the quadrature's one chunk loop as rows of
ring and angle indices in chain order, not as leg objects
(integrate._ring_arc_sums); only each arc's real part and error estimate
are kept. All the rings' chains are then summed from their anchor values
at once, in one running-sum table.

graph_check runs in near-linear time and bounded memory: one sort of the
edge keys, a sweep over the boundary edges, and no full-size temporary
that outlives its use, so its peak is about 54 bytes per period triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import IOFailure, WeldFailure
from .integrate import (
    ArcLeg,
    ImmersionSample,
    RadialLeg,
    _apex_ladder,
    _immersion_routes,
    _leg_memo,
    _leg_sums,
    _ring_arc_sums,
    _running_sum,
    apex,  # noqa: F401  the benchmark's span tracer wraps this binding
    immersion,
)
from .params import SurfaceParams, is_int, is_real
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
        """Concrete truncation radii; defaults 0.05 min|branch| and 20 max|branch|."""
        r_min = self.r_min if self.r_min is not None else 0.05 * p.inner_radius()
        r_max = self.r_max if self.r_max is not None else 20.0 * p.scale()
        if not 0.0 < r_min < p.inner_radius():
            raise ValueError(f"r_min {r_min} must lie inside the innermost branch point")
        if not r_max > p.scale():
            raise ValueError(f"r_max {r_max} must lie outside the outermost branch point")
        return r_min, r_max

    def __post_init__(self):
        for name, least in (("radial_samples", 4), ("angular_samples", 8), ("seam_refinement", 0)):
            v = getattr(self, name)
            if not is_int(v) or v < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
            object.__setattr__(self, name, int(v))
        for name in ("r_min", "r_max"):
            v = getattr(self, name)
            if v is not None and not is_real(v):
                raise ValueError(f"{name} must be a finite real or None, got {v!r}")
            object.__setattr__(self, name, None if v is None else float(v))


@dataclass
class FundamentalSamples:
    """Grid samples of the fundamental piece plus apex samples.

    f[i, j] is the image of the grid point radii[i] * exp(1j * thetas[j])
    and quad_error[i, j] the quadrature error estimate accumulated along its
    chain of legs. apex_ref marks boundary-row positions over a closed
    singular interval: all of them collapse onto that component's apex
    vertex (the first graded angular row above the interval then forms the
    cone's fan ring), so f there holds the apex value and quad_error 0.
    apex_samples holds one apex per singular component; its quad_error is
    the Richardson residual of integrate._apex_ladder, not a quadrature error.
    """

    f: np.ndarray  # (R, A, 3) float
    quad_error: np.ndarray  # (R, A) float
    radii: np.ndarray
    thetas: np.ndarray
    apex_ref: np.ndarray  # (R, A) int, -1 or component index
    nu3: np.ndarray  # (R, A) float, nan at apex positions
    comps: list[SingularComponent]
    apex_samples: list[ImmersionSample]
    mirror_constant: float  # x2 of the mirror plane, always -0.0
    f2_max_dev: float


def sample_fundamental(p: SurfaceParams, g: GridSpec | None = None) -> FundamentalSamples:
    """Sample f over the closed upper half-plane annulus.

    Returns the values on the radial_samples x angular_samples grid (plus
    inserted seam radii and graded angular sub-rows) and the m + n apex
    samples, all integrated from the fixed origin a_{2m} + 1.
    """
    if g is None:
        g = GridSpec()
    r_min, r_max = g.resolve(p)
    comps = components(p)
    radii = _build_radii(p, g, r_min, r_max)
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
        apex_ref[(span_lo - edge_tol <= radii) & (radii <= span_hi + edge_tol), row] = ci

    # boundary-row positions over an interval all collapse to the apex, so
    # their chain steps (which would end on the cut) are skipped
    regular = apex_ref < 0
    f_grid, err_grid = _incremental_grid(p, radii, thetas, ~regular)

    apex_samples = []
    for ci, comp in enumerate(comps):
        v, resid = _apex_ladder((comp.lo, comp.hi), p)
        apex_samples.append(
            ImmersionSample(z=complex(comp.midpoint), f=tuple(v), quad_error=resid)
        )
        f_grid[apex_ref == ci] = v

    # math.atan2 per point: numpy's vectorized arctan2 can differ in the last bit
    arg = np.array([math.atan2(z.imag, z.real) for z in z_grid.ravel().tolist()]).reshape(R, A)
    dev = np.abs(f_grid[..., 1] + arg)
    return FundamentalSamples(
        f=f_grid,
        quad_error=err_grid,
        radii=radii,
        thetas=thetas,
        apex_ref=apex_ref,
        nu3=_grid_nu3(z_grid, apex_ref, p),
        comps=comps,
        apex_samples=apex_samples,
        mirror_constant=-0.0,
        f2_max_dev=float(np.max(dev[regular], initial=0.0)),
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
    return radii[keep]


def _incremental_grid(p, radii, thetas, skip):
    """f on the (R, A) grid via chained radial and angular legs.

    skip marks boundary-row positions whose values are overridden later,
    the apex positions over the singular intervals: a ring's chain stops
    before its first skipped position, as its step there would end on a
    branch cut.
    """
    R, A = len(radii), len(thetas)
    j_anchor = A // 2
    th_anchor = float(thetas[j_anchor])
    r0 = p.default_basepoint().real

    f = np.zeros((R, A, 3))
    err = np.zeros((R, A))

    # radial chain along the anchor ray: the basepoint arc, then outward from
    # r0 through radii[i_near], then inward from radii[i_near]
    i_near = int(np.argmin(np.abs(radii - r0)))
    legs = [
        ArcLeg(r=r0, theta_a=0.0, theta_b=th_anchor),
        RadialLeg(theta=th_anchor, r_a=r0, r_b=float(radii[i_near])),
    ] + [
        RadialLeg(theta=th_anchor, r_a=float(radii[i - 1]), r_b=float(radii[i]))
        for i in range(i_near + 1, R)
    ]
    chain_f, chain_e = _running_sum(legs, p, np.zeros(3), 0.0)
    f[i_near:, j_anchor], err[i_near:, j_anchor] = chain_f[1:], chain_e[1:]
    legs = [
        RadialLeg(theta=th_anchor, r_a=float(radii[i + 1]), r_b=float(radii[i]))
        for i in range(i_near - 1, -1, -1)
    ]
    chain_f, chain_e = _running_sum(legs, p, f[i_near, j_anchor], err[i_near, j_anchor])
    f[:i_near, j_anchor], err[:i_near, j_anchor] = chain_f[::-1], chain_e[::-1]

    # one angular chain each way around every ring, stopping at the first
    # skipped position: chain c runs around ring rows[c], steps[c] at a time
    # from the anchor, for lens[c] arcs. The arcs of all rings, chain by
    # chain, go to the quadrature as index rows (ring, angle index before
    # and after the step)
    rows, steps = np.repeat(np.arange(R), 2), np.tile([1, -1], R)
    lens = np.stack(
        [_until_first(skip[:, j_anchor + 1 :]), _until_first(skip[:, :j_anchor][:, ::-1])], axis=1
    ).ravel()
    on_chain = np.arange(1, 1 + lens.max(initial=0)) <= lens[:, None]
    js = (j_anchor + steps[:, None] * np.arange(1, 1 + on_chain.shape[1]))[on_chain]
    ring_rows = np.repeat(rows, lens)
    ring_f, ring_e = _ring_arc_sums(radii, thetas, ring_rows, js - np.repeat(steps, lens), js, p)
    # every chain summed from its anchor value in one running-sum table: row
    # c holds the anchor's (f, err) and then its chain's legs, padded with
    # zeros; a cumsum along the rows, in place, adds in the order
    # _accumulate does
    table = np.zeros((len(lens), 1 + on_chain.shape[1], 4))
    table[:, 0, :3], table[:, 0, 3] = f[rows, j_anchor], err[rows, j_anchor]
    table[:, 1:][on_chain] = np.column_stack([ring_f, ring_e])
    sums = np.cumsum(table, axis=1, out=table)[:, 1:][on_chain]
    f[ring_rows, js], err[ring_rows, js] = sums[:, :3], sums[:, 3]
    return f, err


def _until_first(block: np.ndarray) -> np.ndarray:
    """Per row of a boolean block, the number of entries before its first True."""
    return np.where(block.any(axis=1), block.argmax(axis=1), block.shape[1])


def _grid_nu3(z_grid, apex_ref, p):
    nu3 = core.nu_from_w(core.w_values(z_grid, p))[..., 2]
    return np.where(apex_ref >= 0, np.nan, nu3)


@dataclass
class GraphMesh:
    """Triangulated mesh of the graph with period copies.

    vertices are (x1, x2, x3) rows; triangles index into them. cone_vertices
    lists the apex vertex of each singular component of the fundamental
    piece (mirror and translate duplicates are not tagged); apex_vertices
    lists every apex vertex of the period mesh, the cone vertices and the
    mirror copies of those off the symmetry plane.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    cone_vertices: list[int]
    apex_vertices: list[int]  # nu3 is nan here by design
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
    quad_error_max: float  # largest quadrature error estimate over the grid samples
    apex_residual_max: float  # largest Richardson residual of the apex samples


def _check_copies(copies) -> int:
    if not is_int(copies) or copies < 0:
        raise ValueError(f"copies must be an integer >= 0, got {copies!r}")
    return int(copies)


def assemble(fund: FundamentalSamples, p: SurfaceParams, copies: int = 0) -> GraphMesh:
    """Triangulate the sampled fundamental piece, mirror, and translate.

    Welds seam rows to apex vertices (closing each cone with a triangle
    fan), reflects through the x2 = 0 plane (mirror_constant) matching the
    surface's symmetry, and appends `copies` translates by (0, 2pi, 0).
    Raises WeldFailure when a direct branch-point-endpoint integral
    disagrees with the extrapolated apex by more than the mesh rung of the
    tolerance ladder, 1e-6, or by a non-finite amount.
    """
    copies = _check_copies(copies)
    R, A = fund.apex_ref.shape
    n_comp = len(fund.comps)

    # vertex ids: the apex vertices first, one per component, then the grid
    # positions in row-major order; positions marked in apex_ref collapse
    # onto their component's apex vertex
    regular = fund.apex_ref < 0
    vid = np.where(regular, n_comp - 1 + np.cumsum(regular).reshape(R, A), fund.apex_ref)
    apex_f = np.array([s.f for s in fund.apex_samples], dtype=float).reshape(-1, 3)
    vertices = np.concatenate([apex_f, fund.f[regular]])
    nu3_arr = np.concatenate([np.full(n_comp, math.nan), fund.nu3[regular]])

    weld_residuals = _weld_check(fund, p)

    # two triangles per quad, in quad order; over the intervals the boundary
    # corners repeat the apex vertex, so each such quad degenerates to one
    # fan triangle (apex, w_k, w_k+1) and the other is dropped
    v00, v01, v10, v11 = vid[:-1, :-1], vid[:-1, 1:], vid[1:, :-1], vid[1:, 1:]
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    u, v, w = tris.T
    triangles = tris[(u != v) & (v != w) & (u != w)]
    half_nv = len(vertices)

    # mirror copy through x2 = c (-0.0), welded along the fixed row;
    # fixed-plane membership is structural (gap vertices of the theta=0 row
    # and apexes of positive-axis intervals), not a coordinate comparison,
    # so apex extrapolation residuals cannot crack the weld
    c = fund.mirror_constant
    on_plane = np.zeros(half_nv, dtype=bool)
    on_plane[vid[:, 0]] = True
    off = ~on_plane
    mirror_map = np.arange(half_nv)
    mirror_map[off] = half_nv + np.arange(np.count_nonzero(off))
    mirrored = vertices[off]
    mirrored[:, 1] = 2.0 * c - mirrored[:, 1]
    vertices = np.concatenate([vertices, mirrored])
    nu3_arr = np.concatenate([nu3_arr, nu3_arr[off]])
    mirror_tris = mirror_map[triangles][:, [0, 2, 1]]  # reversed orientation
    triangles = np.concatenate([triangles, mirror_tris])

    period_nv, period_nt = len(vertices), len(triangles)

    # period translates
    for t in range(1, copies + 1):
        offset = np.array([0.0, 2.0 * math.pi * t, 0.0])
        base = len(vertices)
        vertices = np.vstack([vertices, vertices[:period_nv] + offset])
        nu3_arr = np.concatenate([nu3_arr, nu3_arr[:period_nv]])
        triangles = np.vstack([triangles, triangles[:period_nt] + base])

    return GraphMesh(
        vertices=vertices,
        triangles=triangles,
        cone_vertices=list(range(n_comp)),
        apex_vertices=sorted({*range(n_comp), *mirror_map[:n_comp].tolist()}),
        copies=copies,
        cone_directions=[theorem_direction(cmp_) for cmp_ in fund.comps],
        nu3=nu3_arr,
        boundary_pos=vid[:, 0].tolist(),
        boundary_neg=vid[:, A - 1].tolist(),
        period_triangle_count=period_nt,
        period_vertex_count=period_nv,
        half_vertex_count=half_nv,
        weld_residuals=weld_residuals,
        f2_max_dev=fund.f2_max_dev,
        mirror_constant=c,
        quad_error_max=float(fund.quad_error.max()),
        apex_residual_max=max((s.quad_error for s in fund.apex_samples), default=0.0),
    )


def _weld_check(fund: FundamentalSamples, p: SurfaceParams) -> list[float]:
    """Apex versus direct branch-point-endpoint integration, per component.

    The endpoint routes share their opening legs, so they run inside one
    _leg_memo: each distinct leg is integrated once, with the same bytes.
    All the routes are integrated there first, in one _leg_sums call and
    so in one lockstep; the immersions then read the memo.
    """
    out = []
    with _leg_memo(p):
        _leg_sums(_immersion_routes([x for c in fund.comps for x in (c.lo, c.hi)], p), p)
        for comp, s in zip(fund.comps, fund.apex_samples):
            worst = 0.0
            for endpoint in (comp.lo, comp.hi):
                direct = immersion(complex(endpoint), p)
                gap = float(np.max(np.abs(np.asarray(direct.f) - np.asarray(s.f))))
                # the mesh rung of the tolerance ladder, written so that a NaN
                # gap fails; max() would drop it
                if not gap <= 1e-6:
                    raise WeldFailure(
                        f"apex of [{comp.lo}, {comp.hi}] disagrees with the integral "
                        f"to endpoint {endpoint} by {gap:g}"
                    )
                worst = max(worst, gap)
            out.append(worst)
    return out


# ---------------------------------------------------------------------------
# graph checks

# triangles per chunk of graph_check's orientation count; it bounds the
# count's temporaries (about 1 MB a chunk), not its result
_TRI_CHUNK = 16384


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
    a simple closed polygon. Orientations are counted in chunks of
    _TRI_CHUNK triangles; the disk test sorts one directed edge-key array
    and holds at most two edge-length key arrays at once (the keys and
    their undirected halves); the boundary crossings are found by sorting
    the boundary edges and sweeping them, so only pairs whose x-ranges
    overlap are tested. Returns findings; never raises: a mesh without a
    regular vertex fails with normals_up False, and so does a NaN normal at
    any vertex that is not an apex (min_nu3 is then the least of the others).
    """
    min_nu3, normals_up = _normals(mesh)

    violations = 0
    for chain in (mesh.boundary_pos, mesh.boundary_neg):
        f1 = [mesh.vertices[v][0] for v in _dedup(chain)]
        for a, b in zip(f1, f1[1:]):
            if not b < a:
                violations += 1
    boundary_monotone = violations == 0

    tris = mesh.triangles[: mesh.period_triangle_count]
    xy = mesh.vertices[:, :2]
    negative = _not_positive(xy, tris)
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


def _normals(mesh: GraphMesh) -> tuple[float | None, bool]:
    """The least nu3 over the period's non-apex vertices, and whether all are > 0.

    The apexes' nan is by design; a nan at any other vertex fails, and the
    least value is then taken over the rest.
    """
    nu3 = np.delete(mesh.nu3[: mesh.period_vertex_count], mesh.apex_vertices)
    finite = nu3[~np.isnan(nu3)]
    least = float(np.min(finite)) if len(finite) else None
    return least, least is not None and least > 0.0 and len(finite) == len(nu3)


def _dedup(chain):
    out = []
    for v in chain:
        if not out or out[-1] != v:
            out.append(v)
    return out


def _not_positive(xy: np.ndarray, tris: np.ndarray) -> int:
    """Triangles whose projection to xy is not positively oriented, _TRI_CHUNK at a time."""
    # contiguous coordinate columns, so each corner is a flat 1-D gather
    x, y = np.ascontiguousarray(xy[:, 0]), np.ascontiguousarray(xy[:, 1])
    count = 0
    for s in range(0, len(tris), _TRI_CHUNK):
        a, b, c = tris[s : s + _TRI_CHUNK].T
        xa, ya = x[a], y[a]
        area2 = (x[b] - xa) * (y[c] - ya) - (y[b] - ya) * (x[c] - xa)
        # written so that zero and NaN areas count too
        count += int(np.count_nonzero(~(area2 > 0)))
    return count


def _disk_boundary(tris: np.ndarray) -> tuple[bool, np.ndarray]:
    """Whether tris form an oriented triangulated disk, and its boundary edges.

    Oriented: no directed edge repeats, so every edge lies in at most two
    triangles and an interior edge is used once in each direction. The
    boundary is the edges used once, directed as in their triangle; a disk
    has exactly one boundary cycle with no repeated vertex and Euler
    characteristic V - E + F = 1 over the vertices the triangles use.
    Edge k runs from u[k] to v[k], the next corner of triangle k // 3. One
    sort serves both tests: the int64 key ((min * n + max) << 1) | (u > v)
    names the directed edge, a repeat of it breaks orientation, key >> 1
    names the undirected edge, and a boundary edge decodes from its own key
    in the order of its undirected key.
    """
    u = tris.ravel()
    v = tris[:, [1, 2, 0]].ravel()
    n = np.int64(u.max(initial=0)) + 1
    # grouped by a plain sort: on numpy 2.4, np.unique and np.isin over these
    # int64 keys measured about 40x slower than np.sort
    keys = np.minimum(u, v, dtype=np.int64)
    keys *= n
    backward = u > v
    keys += np.maximum(u, v, out=v)  # v, no longer needed, takes the max
    del v
    keys <<= 1
    keys |= backward
    del backward
    keys.sort()
    oriented = not np.any(keys[1:] == keys[:-1])
    undirected = keys >> 1
    paired = np.zeros(len(u) + 1, dtype=bool)
    paired[1:-1] = undirected[1:] == undirected[:-1]
    del undirected
    once = keys[~(paired[:-1] | paired[1:])]
    del keys
    lo, hi = np.divmod(once >> 1, n)
    flip = (once & 1).astype(bool)
    edges = np.stack([np.where(flip, hi, lo), np.where(flip, lo, hi)], axis=1)
    edges = edges.astype(tris.dtype, copy=False)
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
    nv, nt = len(mesh.vertices), len(mesh.triangles)
    head = [f"# maxcone mesh\n# vertices {nv} triangles {nt} copies {mesh.copies}\n"]
    for vidx, direction in zip(mesh.cone_vertices, mesh.cone_directions):
        head.append(f"# cone {vidx + 1} {direction}\n")
    # one %-format over all rows: the same text as one format per row
    body = "v %.9f %.9f %.9f\n" * nv % tuple(mesh.vertices.ravel().tolist())
    body += "f %d %d %d\n" * nt % tuple((mesh.triangles + 1).ravel().tolist())
    _atomic_write(destination, ("".join(head) + body).encode("ascii"))


def export_ply(mesh: GraphMesh, destination) -> None:
    """Binary little-endian PLY with the same vertex order as the OBJ."""
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {len(mesh.vertices)}\n"
        "property double x\nproperty double y\nproperty double z\n"
        f"element face {len(mesh.triangles)}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    ).encode("ascii")
    # packed rows: <3d per vertex, <B3i (count 3, then the indices) per face
    faces = np.empty(len(mesh.triangles), dtype=[("n", "u1"), ("v", "<i4", 3)])
    faces["n"] = 3
    faces["v"] = mesh.triangles
    vertices = np.ascontiguousarray(mesh.vertices, dtype="<f8")
    _atomic_write(destination, header + vertices.tobytes() + faces.tobytes())


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


def build_mesh(p: SurfaceParams, g: GridSpec | None = None, copies: int = 0) -> GraphMesh:
    """Sample and assemble in one call; copies is checked before sampling."""
    _check_copies(copies)
    return assemble(sample_fundamental(p, g), p, copies=copies)
