"""Independent reference implementations used as test oracles.

Everything here is deliberately separate from the package internals: its
own branch selection, its own form coefficients, fixed-order composite
Gauss-Legendre quadrature instead of the adaptive scheme, plain finite
differences, a quadratic-cost triangle overlap test (a Python loop,
kept as the reference, and an array version of the same predicate), the
hyperboloid preimage of a Gauss map value (the inverse that stereographic
projection must undo), and the loop mesh assembly, struct-packed PLY body
and per-row OBJ text that the array versions in the package must
reproduce byte for byte. Values frozen into the tests were computed with
these routines. Two oracles are not independent of the package: the
single-leg integrator and the loop period integrator that evaluated each
loop piece on its own, both with the package's kernels and adaptive rule
and every panel in its own kernel call, which the batched first panels and
the paired halves of split panels must reproduce byte for byte. The sheet splitter it uses is the package's
former one, kept verbatim as the reference for the shared polyline rules.
The sign rules the package derived from alpha and beta one by one, before
SurfaceParams.signed_intervals() owned them, are kept verbatim as well, and
so is the disk-and-boundary test of the mesh check as it was before it
built its edge keys in place (full-size key arrays and gathered copies).
One-cone surfaces have an exact reference: their immersion in closed form.
"""

from __future__ import annotations

import cmath
import math
import struct

import numpy as np


def w2_ref(z, p):
    """Rational product for w^2, written directly from the sign data."""
    z = np.asarray(z, dtype=complex)
    out = np.ones_like(z)
    for k in range(p.m):
        out = out * ((z - p.a[2 * k + 1]) / (z - p.a[2 * k])) ** p.alpha[k]
    for k in range(p.n):
        out = out * ((z - p.b[2 * k]) / (z - p.b[2 * k + 1])) ** p.beta[k]
    return out


def w_ref(z, p):
    """Branch with Re w >= 0 chosen by comparing both square roots."""
    z = np.asarray(z, dtype=complex)
    r = np.sqrt(w2_ref(z, p))
    flip = (r.real < 0) | ((r.real == 0) & (r.imag < 0))
    return np.where(flip, -r, r)


def gauss_ref(z, p):
    return (1.0 + w_ref(z, p)) / (1.0 - w_ref(z, p))


def phi_ref(z, p):
    """Form coefficients (3, N), independent expression."""
    z = np.asarray(z, dtype=complex)
    w = w_ref(z, p)
    return np.stack(
        [
            -(w + 1.0 / w) / (2.0 * z),
            1j / z,
            (1.0 / w - w) / (2.0 * z),
        ]
    )


def metric_phi_form_ref(z, p):
    """Metric factor from the (|phi1|^2 + |phi2|^2 - |phi3|^2)/2 expression."""
    c = phi_ref(np.asarray([z]), p)[:, 0]
    return 0.5 * (abs(c[0]) ** 2 + abs(c[1]) ** 2 - abs(c[2]) ** 2)


def composite_gauss_segments(points, p, n_panels=64, order=20, coeff=None):
    """Fixed-order composite Gauss-Legendre along a polyline, Re part.

    Roughly 10x the node density of the adaptive scheme on smooth legs;
    no error estimation, no adaptivity.
    """
    if coeff is None:
        coeff = phi_ref
    x, wts = np.polynomial.legendre.leggauss(order)
    total = np.zeros(3, dtype=complex)
    for z_a, z_b in zip(points, points[1:]):
        for k in range(n_panels):
            t0 = k / n_panels
            t1 = (k + 1) / n_panels
            mid = 0.5 * (t0 + t1)
            half = 0.5 * (t1 - t0)
            t = mid + half * x
            z = z_a + (z_b - z_a) * t
            vals = coeff(z, p) * (z_b - z_a)
            total += half * (vals @ wts)
    return total.real


def composite_gauss_circle(radius, p, clockwise=False, n_panels=128, order=20, coeff=None):
    """Composite Gauss-Legendre over a full circle centered at 0, Re part."""
    if coeff is None:
        coeff = phi_ref
    x, wts = np.polynomial.legendre.leggauss(order)
    total = np.zeros(3, dtype=complex)
    sweep = -2.0 * np.pi if clockwise else 2.0 * np.pi
    for k in range(n_panels):
        th0 = sweep * k / n_panels
        th1 = sweep * (k + 1) / n_panels
        mid = 0.5 * (th0 + th1)
        half = 0.5 * (th1 - th0)
        th = mid + half * x
        z = radius * np.exp(1j * th)
        vals = coeff(z, p) * (1j * z)
        total += half * (vals @ wts)
    return total.real


def hyperboloid_point(G: complex) -> np.ndarray:
    """Gauss vector on the hyperboloid <x, x> = -1 from a Gauss map value.

    Defined for |G| != 1; this is the sigma-preimage of G.
    """
    a2 = abs(G) ** 2
    if a2 == 1.0:
        raise ValueError(f"|G| = 1 has no hyperboloid preimage (G={G})")
    return np.array([-2.0 * G.real, -2.0 * G.imag, a2 + 1.0]) / (a2 - 1.0)


def one_cone_immersion_ref(z, p) -> np.ndarray:
    """Closed-form f(z) of a one-cone surface (m = 1, n = 0), from the origin a_2 + 1.

    w^2 = (z - A)/(z - B) is a Mobius map, with A the zero and B the pole
    (A = a_2 when alpha = +1, else a_1), so z and both forms are rational in
    w. With k = sqrt(A/B) > 0, up to the constants that make f(a_2 + 1) = 0:
    x1 = -log|(1 + w)/(1 - w)| + (A + B)/(2 B k) log|(k + w)/(k - w)|,
    x2 = -Arg z, x3 = (A - B)/(2 B k) log|(k + w)/(k - w)|. The logs are
    real parts of complex logs, so they are single-valued, and they are
    formed without cancellation from 1 - w^2 = (A - B)/(z - B) and
    k^2 - w^2 = z (A - B)/(B (z - B)). On the closed interval w is
    imaginary and both logs vanish, so any interior point gives the apex.
    z may not be 0 or B.
    """
    if (p.m, p.n) != (1, 0):
        raise ValueError("the closed form holds for one-cone surfaces only")
    lo, hi = p.a
    A, B = (hi, lo) if p.alpha[0] == 1 else (lo, hi)
    k = math.sqrt(A / B)

    def logs(z):
        w = cmath.sqrt((z - A) / (z - B))  # principal root: Re w >= 0
        l1 = 2.0 * math.log(abs(1.0 + w)) + math.log(abs(z - B)) - math.log(abs(A - B))
        lk = 2.0 * math.log(abs(k + w)) + math.log(abs(B * (z - B))) - math.log(abs(z * (A - B)))
        return l1, lk

    z = complex(z)
    (l1, lk), (l1_0, lk_0) = logs(z), logs(complex(hi + 1.0))
    d1, dk = l1 - l1_0, lk - lk_0
    c1, c3 = (A + B) / (2.0 * B * k), (A - B) / (2.0 * B * k)
    return np.array([-d1 + c1 * dk, -cmath.phase(z), c3 * dk])


def gauss_derivative_fd(z, p, h=1e-5):
    """Central finite differences of the Gauss map."""
    return (gauss_ref(z + h, p) - gauss_ref(z - h, p)) / (2.0 * h)


def dg_over_gdh_interval_ref(x, p):
    """Closed-form dG/(G dh) on a singular interval: -2 z P'/(1 - P)^2.

    Derived by eliminating w from the defining expressions; P is the w^2
    rational product. Real for real x with P(x) < 0.
    """
    x = complex(x)
    h = 1e-7
    P = complex(w2_ref(x, p))
    dP = complex((w2_ref(x + h, p) - w2_ref(x - h, p)) / (2 * h))
    return -2.0 * x * dP / (1.0 - P) ** 2


def brute_force_overlaps(vertices, triangles, eps=0.0):
    """O(T^2) projected-triangle proper-overlap count (coarse meshes only)."""
    P = np.asarray(vertices)[:, :2]
    T = np.asarray(triangles)
    count = 0
    for i in range(len(T)):
        for j in range(i + 1, len(T)):
            if set(T[i]) & set(T[j]):
                continue
            if _tri_overlap(P[T[i]], P[T[j]], eps):
                count += 1
    return count


def not_positive_ref(vertices, triangles) -> int:
    """Triangles whose x1x2-projection has a signed area that is not > 0
    (zero and NaN included), one triangle at a time in Python floats."""
    count = 0
    for a, b, c in np.asarray(triangles).tolist():
        (x0, y0), (x1, y1), (x2, y2) = (vertices[k][:2].tolist() for k in (a, b, c))
        e1x, e1y, e2x, e2y = x1 - x0, y1 - y0, x2 - x0, y2 - y0
        if not e1x * e2y - e1y * e2x > 0:
            count += 1
    return count


def disk_boundary_ref(tris):
    """The mesh check's former _disk_boundary, verbatim: (disk, boundary edges)."""
    from maxcone.mesh import _one_cycle

    u = tris.ravel()
    v = tris[:, [1, 2, 0]].ravel()
    n = np.int64(u.max(initial=0)) + 1
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


def _tri_overlap(A, B, eps):
    for src, oth in ((A, B), (B, A)):
        for e in range(3):
            p0, p1 = src[e], src[(e + 1) % 3]
            n = np.array([-(p1[1] - p0[1]), p1[0] - p0[0]])
            norm = np.hypot(*n)
            if norm == 0:
                continue
            n = n / norm
            pa = src @ n
            pb = oth @ n
            if pb.min() >= pa.max() - eps or pa.min() >= pb.max() - eps:
                return False
    return True


def overlap_count(vertices, triangles, eps=0.0, pairs=None):
    """Array version of brute_force_overlaps: same predicate, same pairs.

    Counts the pairs i < j of triangles that share no vertex and that no
    edge normal of either triangle separates, with the same eps and the same
    skip of zero-length edges. pairs (K, 2) restricts the count to those
    index pairs; the default is every pair i < j. Pairs go in chunks so
    memory stays bounded.
    """
    P = np.asarray(vertices)[:, :2]
    T = np.asarray(triangles)
    corners = P[T]  # (F, 3, 2)
    d = np.roll(corners, -1, axis=1) - corners
    normals = np.stack([-d[..., 1], d[..., 0]], axis=-1)
    norm = np.hypot(normals[..., 0], normals[..., 1])
    usable = norm != 0
    normals = normals / np.where(usable, norm, 1.0)[..., None]
    own = _project(corners[:, None], normals)  # (F, 3 axes, 3 corners)
    own_lo, own_hi = own.min(axis=2), own.max(axis=2)
    if pairs is None:
        pairs = np.stack(np.triu_indices(len(T), 1), axis=1)
    pairs = np.asarray(pairs).reshape(-1, 2)
    count = 0
    for s in range(0, len(pairs), 1 << 16):
        i, j = pairs[s : s + (1 << 16)].T
        shared = np.any(T[i][:, :, None] == T[j][:, None, :], axis=(1, 2))
        separated = np.zeros(len(i), dtype=bool)
        for src, oth in ((i, j), (j, i)):
            pb = _project(corners[oth][:, None], normals[src])
            lo, hi = pb.min(axis=2), pb.max(axis=2)
            apart = (lo >= own_hi[src] - eps) | (own_lo[src] >= hi - eps)
            separated |= np.any(usable[src] & apart, axis=1)
        count += int(np.count_nonzero(~shared & ~separated))
    return count


def _project(points, axes):
    """Dot products of points (..., 1, 3, 2) with axes (..., 3, 2) -> (..., 3, 3)."""
    return points[..., 0] * axes[..., None, 0] + points[..., 1] * axes[..., None, 1]


def omega_ref(z, p, orientation):
    """Omega-triple coefficients for the minimal counterpart."""
    z = np.asarray(z, dtype=complex)
    w = w_ref(z, p)
    if orientation == "vertical-ends":
        return np.stack(
            [(1 / w - w) / (2 * z), 1j * (1 / w + w) / (2 * z), np.ones_like(z) / z]
        )
    return np.stack(
        [1j * (1 / w + w) / (2 * z), np.ones_like(z) / z, (1 / w - w) / (2 * z)]
    )


# Masked and stacked formulations of w^2, w, phi and omega: the loop bodies
# the pointwise kernels had before they were rewritten to work in place.
# The kernels must reproduce them byte for byte.


def signed_roots_ref(p):
    """(num_roots, den_roots) arrays of the w^2 product, sign-resolved."""
    num, den = [], []
    for k in range(p.m):
        lo, hi = p.a[2 * k], p.a[2 * k + 1]
        num.append(hi if p.alpha[k] == 1 else lo)
        den.append(lo if p.alpha[k] == 1 else hi)
    for k in range(p.n):
        hi, lo = p.b[2 * k], p.b[2 * k + 1]
        num.append(hi if p.beta[k] == 1 else lo)
        den.append(lo if p.beta[k] == 1 else hi)
    return np.array(num, dtype=float), np.array(den, dtype=float)


def w2_masked_ref(z, p):
    """w^2 with a per-factor pole mask; denominator roots give complex inf."""
    z = np.asarray(z, dtype=complex)
    num, den = signed_roots_ref(p)
    pole = np.zeros(z.shape, dtype=bool)
    out = np.ones_like(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        for nr, dr in zip(num, den):
            hit = z == dr
            pole |= hit
            # named, as in core.w2_values: numpy would reuse a bare z - nr
            # temporary as the product's output on large arrays, with the
            # operands swapped, and its complex product is not commutative
            zn = z - nr
            out = out * zn / np.where(hit, 1.0, z - dr)
    return np.where(pole, complex(np.inf, 0.0), out)


def w_masked_ref(z, p):
    """Branch with Re w >= 0 (ties Im w >= 0), every step masked."""
    w2 = w2_masked_ref(z, p)
    inf_mask = ~np.isfinite(w2)
    w = np.sqrt(np.where(inf_mask, 1.0, w2))
    flip = (w.real == 0.0) & (w.imag < 0.0)
    w = np.where(flip, -w, w)
    return np.where(inf_mask, complex(np.inf, 0.0), w)


def phi_stacked_ref(z, w):
    """Form coefficients (3, N) from branch values, built with np.stack."""
    inv = 1.0 / w
    return np.stack([-0.5 * (inv + w) / z, 1j / z, 0.5 * (inv - w) / z])


def omega_stacked_ref(z, w, orientation):
    """Omega-triple coefficients (3, N) from branch values, built with np.stack."""
    inv = 1.0 / w
    if orientation == "vertical-ends":
        return np.stack([0.5 * (inv - w) / z, 0.5j * (inv + w) / z, np.ones_like(z) / z])
    return np.stack([0.5j * (inv + w) / z, np.ones_like(z) / z, 0.5 * (inv - w) / z])


def assemble_loop_ref(fund, copies=0):
    """Mesh arrays of a sampled fundamental piece, built by per-vertex and per-quad loops.

    The loop assembly the array version replaced: apex vertices first, grid
    vertices in row-major order, two triangles per quad with degenerate
    ones dropped, then the mirror copy and the period translates. Returns
    (vertices, triangles, nu3, boundary_pos, boundary_neg).
    """
    R, A = fund.apex_ref.shape
    vid = -np.ones((R, A), dtype=int)
    verts, nu3 = [], []
    apex_vid = []
    for s in fund.apex_samples:
        apex_vid.append(len(verts))
        verts.append(tuple(s.f))
        nu3.append(math.nan)
    for i in range(R):
        for j in range(A):
            ci = fund.apex_ref[i, j]
            if ci >= 0:
                vid[i, j] = apex_vid[ci]
            else:
                vid[i, j] = len(verts)
                verts.append(tuple(fund.f[i, j]))
                nu3.append(float(fund.nu3[i, j]))
    tris = []
    for i in range(R - 1):
        for j in range(A - 1):
            v00, v01 = vid[i, j], vid[i, j + 1]
            v10, v11 = vid[i + 1, j], vid[i + 1, j + 1]
            for u, v, w in ((v00, v10, v11), (v00, v11, v01)):
                if u != v and v != w and u != w:
                    tris.append((u, v, w))
    vertices = np.array(verts, dtype=float)
    triangles = np.array(tris, dtype=int)
    nu3_arr = np.array(nu3, dtype=float)
    half_nv = len(vertices)

    c = fund.mirror_constant
    on_plane = np.zeros(half_nv, dtype=bool)
    for i in range(R):
        on_plane[vid[i, 0]] = True
    for ci, comp in enumerate(fund.comps):
        if comp.axis == "neg":
            on_plane[apex_vid[ci]] = False
    mirror_map = -np.ones(half_nv, dtype=int)
    new_rows, new_nu3 = [], []
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
    triangles = np.vstack([triangles, mirror_map[triangles][:, [0, 2, 1]]])

    period_nv, period_nt = len(vertices), len(triangles)
    for t in range(1, copies + 1):
        offset = np.array([0.0, 2.0 * math.pi * t, 0.0])
        base = len(vertices)
        vertices = np.vstack([vertices, vertices[:period_nv] + offset])
        nu3_arr = np.concatenate([nu3_arr, nu3_arr[:period_nv]])
        triangles = np.vstack([triangles, triangles[:period_nt] + base])
    boundary_pos = [int(vid[i, 0]) for i in range(R)]
    boundary_neg = [int(vid[i, A - 1]) for i in range(R)]
    return vertices, triangles, nu3_arr, boundary_pos, boundary_neg


def ply_body_ref(vertices, triangles):
    """Binary little-endian PLY body, one struct.pack per vertex and per face."""
    body = bytearray()
    for row in vertices:
        body += struct.pack("<3d", *row)
    for tri in triangles:
        body += struct.pack("<B3i", 3, *tri)
    return bytes(body)


def obj_text_ref(mesh):
    """Wavefront OBJ text, one %-format per vertex row and one f-string per face."""
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
    return "\n".join(lines) + "\n"


def integrate_leg_ref(leg, p, form=None, sheet=None):
    """(complex 3-vector, error estimate) of one leg integrated on its own.

    The package's adaptive rule over the form triple form(z, w), the
    maximal-surface one unless given, with w times sheet (+1 or -1) when
    given, and with every panel, the first and both halves of each split among
    them, evaluated in its own 15-node kernel call instead of taken from a
    batch or a round.
    """
    from maxcone import core
    from maxcone import integrate as I

    form = core.phi_from_w if form is None else form

    def coeff(t):
        z, dz = leg.points(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = core.w_values(z, p)
            return I._panel_sums(form(z, w if sheet is None else sheet * w) * dz)

    return I.adaptive_leg(leg, coeff, I.DEFAULT_SEGMENT_TOL)


def measure_period_ref(waypoints, d):
    """Loop period (Re vector, error estimate), one piece at a time.

    The integrator minimal.measure_period used before the first panels of a
    loop's pieces were batched: the loop is split into sheet-tagged pieces
    at the cut crossings, and each non-empty piece is integrated alone, its
    first panel in its own 15-node kernel call.
    """
    from maxcone import core
    from maxcone import integrate as I
    from maxcone import minimal as M

    pts = [complex(z) for z in waypoints]
    if pts[0] != pts[-1]:
        pts.append(pts[0])
    pieces, _ = sheet_split_segments_ref(pts, d.params)
    total = np.zeros(3, dtype=complex)
    err = 0.0
    for z_a, z_b, sheet in pieces:
        if z_a == z_b:
            continue
        leg = I.SegmentLeg(z_a=z_a, z_b=z_b)

        def coeff(t, leg=leg, sheet=sheet):
            z, dz = leg.points(t)
            with np.errstate(divide="ignore", invalid="ignore"):
                w = sheet * core.w_values(z, d.params)
                return I._panel_sums(M.omega_from_w(z, w, d.orientation) * dz)

        v, e = I.adaptive_leg(leg, coeff, I.DEFAULT_SEGMENT_TOL)
        total += v
        err += e
    return tuple(total.real), err


def _cut_crossing_ref(u: complex, v: complex, p):
    """Real-axis crossing of segment (u, v) inside a branch cut, if any.

    Returns the crossing parameter t in (0, 1), or None. Crossing at a
    branch point or interval endpoint is rejected.
    """
    from maxcone.errors import PathThroughSingularity

    if (u.imag > 0) == (v.imag > 0):
        return None
    if u.imag == v.imag:
        return None
    t = u.imag / (u.imag - v.imag)
    if not 0.0 < t < 1.0:
        return None
    x = u.real + t * (v.real - u.real)
    for lo, hi in p.intervals():
        if lo < x < hi:
            return t
        if x == lo or x == hi:
            raise PathThroughSingularity(f"loop passes through branch point at x={x}")
    return None


def sheet_split_segments_ref(waypoints, p):
    """Split a polyline at cut crossings, tagging each piece with its sheet.

    The splitter minimal.measure_period used before the polyline rules were
    shared with integrate_path (minimal._sheet_split_segments and
    _cut_crossing, copied verbatim). Sheet +1 is the Re w >= 0 branch;
    crossing a cut moves to the analytic continuation -w. Returns (pieces,
    final_sheet) with pieces as (z_from, z_to, sheet). It checks only
    crossings with 0 < t < 1 in floating point, and no piece that lies on
    the real axis.
    """
    pieces = []
    sheet = 1
    for u, v in zip(waypoints, waypoints[1:]):
        u, v = complex(u), complex(v)
        t = _cut_crossing_ref(u, v, p)
        if t is None:
            pieces.append((u, v, sheet))
            continue
        x = u + t * (v - u)
        pieces.append((u, x, sheet))
        sheet = -sheet
        pieces.append((x, v, sheet))
    return pieces, sheet


# The sign rules as the package wrote them before SurfaceParams.signed_intervals()
# became their one source, copied verbatim (core._signed_roots without its cache,
# core.end_value_w0, core._coordinate_exponent, core.directions_from_signs,
# singular.theorem_direction, and the factor of minimal.b2n_normalize). The
# table-driven versions must reproduce them exactly.


def signed_roots_loop_ref(p):
    """Numerator and denominator roots of the w^2 product, sign-resolved.

    For alpha_k = +1 the k-th positive factor is (z - a_{2k})/(z - a_{2k-1});
    alpha_k = -1 swaps the pair. Likewise (z - b_{2k-1})/(z - b_{2k}) with
    beta_k. Returns (num_roots, den_roots), each m + n Python floats.
    """
    num, den = [], []
    for k in range(p.m):
        lo, hi = p.a[2 * k], p.a[2 * k + 1]
        if p.alpha[k] == 1:
            num.append(hi)
            den.append(lo)
        else:
            num.append(lo)
            den.append(hi)
    for k in range(p.n):
        hi, lo = p.b[2 * k], p.b[2 * k + 1]  # b_{2k-1} > b_{2k}
        if p.beta[k] == 1:
            num.append(hi)
            den.append(lo)
        else:
            num.append(lo)
            den.append(hi)
    return tuple(num), tuple(den)


def end_value_w0_ref(p):
    """w(0): positive square root of the signed product of endpoint ratios.

    The end at z = 0 is horizontal exactly when this equals 1.
    """
    prod = 1.0
    for k in range(p.m):
        prod *= (p.a[2 * k + 1] / p.a[2 * k]) ** p.alpha[k]
    for k in range(p.n):
        prod *= (p.b[2 * k] / p.b[2 * k + 1]) ** p.beta[k]
    return math.sqrt(prod)


def coordinate_exponent_ref(p, axis: str, index: int) -> int:
    """Exponent of the chosen coordinate inside the w(0)^2 product."""
    if axis == "a":
        if not 1 <= index <= 2 * p.m:
            raise IndexError(f"a index out of range: {index}")
        k = (index + 1) // 2 - 1
        return p.alpha[k] if index % 2 == 0 else -p.alpha[k]
    if axis == "b":
        if not 1 <= index <= 2 * p.n:
            raise IndexError(f"b index out of range: {index}")
        k = (index + 1) // 2 - 1
        return p.beta[k] if index % 2 == 1 else -p.beta[k]
    raise ValueError(f"axis must be 'a' or 'b', got {axis!r}")


def directions_from_signs_ref(p) -> list[int]:
    """Predicted cone directions (+1 up, -1 down), positive axis first.

    Positive-axis cone j points up iff alpha_j = -1; negative-axis cone k
    points up iff beta_k = +1.
    """
    return [-s for s in p.alpha] + [s for s in p.beta]


def theorem_direction_ref(component) -> str:
    """Main-theorem sign convention: pos axis up iff alpha = -1, neg axis up iff beta = +1."""
    if component.axis == "pos":
        return "up" if component.sign == -1 else "down"
    return "up" if component.sign == 1 else "down"


def b2n_value_ref(p) -> float:
    """The b_{2n} that b2n_normalize solves for, before its ordering check."""
    factor = 1.0
    for k in range(p.m):
        factor *= p.a[2 * k + 1] / p.a[2 * k]
    for k in range(p.n - 1):
        factor *= p.b[2 * k] / p.b[2 * k + 1]
    return factor * p.b[2 * p.n - 2]  # b_{2n-1} times the product
