"""Singular set, cone-like verification, and direction classification.

The singular set of a surface is the closed-form union of the intervals
[a_{2j-1}, a_{2j}] and [b_{2k}, b_{2k-1}]; this module cross-checks that
locus against the numeric |G| = 1 condition, verifies the non-degeneracy
criterion dG/(G dh) in R \\ {0} on every component (in closed form, see
core.dg_over_gdh), classifies each cone as pointing up or down by comparing
apex height with nearby graph heights, and carries the stereographic
projection used to tie G to the Gauss vector.

The components and the predicted directions come from one sign table,
SurfaceParams.signed_intervals(). The classification here is numeric; each
report also records the two printed sign conventions (they disagree), and
the numeric result is the arbiter.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import (
    AmbiguousDirection,
    DegenerateSingularity,
    NotOnHyperboloid,
    VerificationFailure,
)
from .integrate import (
    PathSpec,
    _apex_legs,
    _immersion_routes,
    _integrate_legs,
    _leg_memo,
    _leg_sums,
    _path_values,
    _polyline_legs,
    apex,
    immersion,
)
from .params import SurfaceParams, is_real

# smallest |dG/(G dh)| that nondegeneracy accepts
_NONDEGENERACY_FLOOR = 1e-6


@dataclass(frozen=True)
class SingularComponent:
    """One closed singular interval on the real axis."""

    lo: float
    hi: float
    axis: str  # "pos" or "neg"
    index: int  # 1-based j (positive axis) or k (negative axis)
    sign: int  # the row's sign in SurfaceParams.signed_intervals()

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class ConeReport:
    """Verification record for one cone-like singular component."""

    component: SingularComponent
    apex: tuple[float, float, float]
    direction: str  # "up" or "down", numeric classification
    dg_over_gdh_samples: tuple[float, ...]
    nondegenerate: bool
    embedded_neighborhood_check: bool
    theorem_direction: str  # sign convention of the main theorem
    lemma_statement_direction: str  # the conflicting lemma wording
    matches_theorem: bool
    matches_lemma_statement: bool
    apex_spread: float
    endpoint_gauss_ok: bool

    def to_dict(self) -> dict:
        return {
            "axis": self.component.axis,
            "index": self.component.index,
            "interval": [self.component.lo, self.component.hi],
            "sign": self.component.sign,
            "apex": list(self.apex),
            "direction": self.direction,
            "theorem_direction": self.theorem_direction,
            "lemma_statement_direction": self.lemma_statement_direction,
            "matches_theorem": self.matches_theorem,
            "matches_lemma_statement": self.matches_lemma_statement,
            "nondegenerate": self.nondegenerate,
            "embedded_neighborhood_proxy": self.embedded_neighborhood_check,
            "apex_spread": self.apex_spread,
            "dg_over_gdh_range": [min(self.dg_over_gdh_samples), max(self.dg_over_gdh_samples)],
            "endpoint_gauss_ok": self.endpoint_gauss_ok,
        }


def components(p: SurfaceParams) -> list[SingularComponent]:
    """Closed-form singular components, one per sign-table row, no numeric verification."""
    rows = p.signed_intervals()
    return [
        SingularComponent(lo=lo, hi=hi, axis=axis, index=k + 1, sign=s)
        for axis, part in (("pos", rows[: p.m]), ("neg", rows[p.m :]))
        for k, (lo, hi, s) in enumerate(part)
    ]


def singular_set(p: SurfaceParams, verify: bool = True) -> list[SingularComponent]:
    """The m + n closed singular intervals, numerically cross-checked.

    Verification evaluates G once on 38 interior points of every interval
    (||G| - 1| <= 1e-10 required) and once on 1000 off-interval real-axis
    points (|G| must stay clear of 1); a non-finite |G| fails
    either test. Raises VerificationFailure when the numeric locus
    contradicts the closed form.
    """
    comps = components(p)
    if not verify:
        return comps
    xs = np.concatenate([np.linspace(c.lo, c.hi, 40)[1:-1] for c in comps])
    absg = np.abs(core.weierstrass_data(xs, p)[1])
    bad = np.nonzero(~(np.abs(absg - 1.0) <= 1e-10))[0]
    if len(bad):
        x = xs[bad[0]]
        c = next(c for c in comps if c.lo <= x <= c.hi)
        raise VerificationFailure(f"|G| = {absg[bad[0]]} off 1 at x={x} inside [{c.lo}, {c.hi}]")
    xs = off_axis_probe_points(p, 1000)
    absg = np.abs(core.weierstrass_data(xs, p)[1])
    bad = np.nonzero(~(np.abs(absg - 1.0) > 1e-10))[0]
    if len(bad):
        raise VerificationFailure(f"numeric singular hit at off-interval x={xs[bad[0]]}")
    return comps


def off_axis_probe_points(p: SurfaceParams, count: int) -> np.ndarray:
    """Real-axis sample points outside the closed singular set.

    Spread over the gaps between intervals, the stretch toward 0, and the
    outer tails on both axes, with a relative clearance from the interval
    endpoints so square-root behavior cannot alias as a hit.
    """
    rng = np.random.default_rng(7)
    ivs = p.intervals()
    scale = p.scale()
    segments = []  # (lo, hi) open gaps, clipped away from endpoints
    guard = 1e-3
    points_all = [-20.0 * scale] + [v for iv in ivs for v in iv] + [20.0 * scale]
    walls = sorted(points_all)
    for lo, hi in zip(walls[:-1], walls[1:]):
        if any(abs(lo - ilo) < 1e-15 and abs(hi - ihi) < 1e-15 for ilo, ihi in ivs):
            continue
        pad = guard * max(abs(lo), abs(hi), scale)
        glo, ghi = lo + pad, hi - pad
        if ghi > glo:
            segments.append((glo, ghi))
    # the gap spanning zero stays whole; only samples within 1e-6 * scale
    # of the puncture at 0 are dropped
    out = []
    per = max(1, count // max(1, len(segments)))
    for glo, ghi in segments:
        xs = rng.uniform(glo, ghi, size=per)
        xs = xs[np.abs(xs) > 1e-6 * scale]
        out.append(xs)
    xs = np.concatenate(out) if out else np.array([])
    while len(xs) < count:
        glo, ghi = segments[rng.integers(len(segments))]
        extra = rng.uniform(glo, ghi, size=count - len(xs))
        extra = extra[np.abs(extra) > 1e-6 * scale]
        xs = np.concatenate([xs, extra])
    return xs[:count]


def nondegeneracy(component: SingularComponent, p: SurfaceParams) -> list[float]:
    """Samples of dG/(G dh) on the component, asserted real and nonzero.

    The ratio is evaluated in closed form (core.dg_over_gdh) at 9 evenly
    spaced interior points of the interval itself. Raises
    DegenerateSingularity when any sample has a relative imaginary part
    above 1e-8 or a modulus below 1e-6 (a non-finite sample fails too).
    """
    xs = np.linspace(component.lo, component.hi, 11)[1:-1]
    vals = core.dg_over_gdh(xs, p)
    for x, val in zip(xs, vals):
        if abs(val.imag) > 1e-8 * abs(val):
            raise DegenerateSingularity(
                f"dG/(G dh) = {val} not real at x={x} on [{component.lo}, {component.hi}]"
            )
        if not abs(val) >= _NONDEGENERACY_FLOOR:
            raise DegenerateSingularity(
                f"|dG/(G dh)| = {abs(val)} below floor {_NONDEGENERACY_FLOOR} at x={x}"
            )
    return [float(v) for v in vals.real]


def endpoint_gauss_check(component: SingularComponent, p: SurfaceParams) -> bool:
    """Endpoint values of G against the sign table.

    SurfaceParams.signed_intervals() gives G = -sign at lo and +sign at hi.
    Checked to 1e-8 at the endpoints (the pointwise convention agrees with
    the real axis limit) and loosely at a finite offset for continuity.
    """
    s = component.sign
    expect_lo, expect_hi = -s, s
    g_lo = core.gauss(complex(component.lo), p).G
    g_hi = core.gauss(complex(component.hi), p).G
    if abs(g_lo - expect_lo) > 1e-8 or abs(g_hi - expect_hi) > 1e-8:
        return False
    eps = 1e-12 * max(1.0, component.length)
    g_lo_lim = core.gauss(complex(component.lo + eps), p).G
    g_hi_lim = core.gauss(complex(component.hi - eps), p).G
    return abs(g_lo_lim - expect_lo) < 1e-4 and abs(g_hi_lim - expect_hi) < 1e-4


def theorem_direction(component: SingularComponent) -> str:
    """Main-theorem sign convention, core.cone_direction of the component's row."""
    return "up" if core.cone_direction(component.lo, component.sign) == 1 else "down"


def lemma_statement_direction(component: SingularComponent) -> str:
    """The conflicting lemma wording (opposite of the theorem convention)."""
    return "down" if theorem_direction(component) == "up" else "up"


def classify_cone(
    component: SingularComponent,
    p: SurfaceParams,
    *,
    apex_tol: float = 1e-6,
) -> ConeReport:
    """Numeric up/down classification plus the verification bundle.

    f is integrated from the fixed origin a_{2m} + 1. The apex is the
    limit from above; apex_spread is the largest gap between it, the limit
    from below and the endpoint values f(lo) and f(hi), which are the
    along-axis limits, each one route from the origin. The apex x3 is
    compared with f3 at real-axis points just outside both endpoints, at
    eps and eps/10 (the two must agree); each of those values is f(lo) or
    f(hi) plus one short real-axis leg from the endpoint into the adjacent
    gap. Up means
    the apex is strictly the local maximum of the timelike coordinate. The
    report also records both printed sign conventions and whether the
    numeric result matches each. An apex_tol that is not a finite real > 0
    raises ValueError before any quadrature.

    The four limits start from the origin, and most of their routes open
    with the same quarter arc. The body runs inside integrate._leg_memo, so
    one classification integrates each distinct leg once and returns the
    bytes it would without the memo. The legs of the four limits' routes,
    which hold most of the splits, are integrated together first, in one
    lockstep, so a failing leg of any limit raises before apex's tolerance
    check.
    The four outside values then take one batch of legs, all carried from
    f(lo) and f(hi), and the stadium chain of the embedded-neighbourhood
    proxy starts at its own first point, so nothing else is routed from
    the origin. The memo ends with the call: kept longer, a call's work
    would depend on what ran before it, and leg and panel counts could no
    longer be compared across calls. Keeping it across calls waits for
    work counts kept by the library itself (ROADMAP item 1).
    """
    if not (is_real(apex_tol) and apex_tol > 0):
        raise ValueError(f"apex_tol must be a finite real > 0, got {apex_tol!r}")
    with _leg_memo(p):
        iv = (component.lo, component.hi)
        apex_f, spread, f_ends = _apex_with_spread(iv, p, apex_tol)
        eps_outer = _clamp_outer(1e-2 * component.length, component, p)
        votes = []
        for eps, f_lo, f_hi in _outside_values(component, p, f_ends, eps_outer):
            d_lo = apex_f[2] - f_lo[2]
            d_hi = apex_f[2] - f_hi[2]
            margin = 1e-12 * max(1.0, abs(apex_f[2]))
            if d_lo > margin and d_hi > margin:
                votes.append("up")
            elif d_lo < -margin and d_hi < -margin:
                votes.append("down")
            else:
                raise AmbiguousDirection(
                    f"x3 differences ({d_lo:g}, {d_hi:g}) below tolerance on "
                    f"[{component.lo}, {component.hi}] at eps={eps:g}"
                )
        if votes[0] != votes[1]:
            raise AmbiguousDirection(
                f"direction votes disagree across eps scales: {votes} on "
                f"[{component.lo}, {component.hi}]"
            )
        direction = votes[0]
        samples = tuple(nondegeneracy(component, p))
        thm = theorem_direction(component)
        lem = lemma_statement_direction(component)
        return ConeReport(
            component=component,
            apex=tuple(apex_f),
            direction=direction,
            dg_over_gdh_samples=samples,
            nondegenerate=True,
            embedded_neighborhood_check=embedded_neighborhood_proxy(component, p),
            theorem_direction=thm,
            lemma_statement_direction=lem,
            matches_theorem=direction == thm,
            matches_lemma_statement=direction == lem,
            apex_spread=spread,
            endpoint_gauss_ok=endpoint_gauss_check(component, p),
        )


def _apex_with_spread(iv, p, apex_tol):
    """(apex from above, four-limit spread, (f(lo), f(hi))).

    Each limit is one route from the origin: apex's onto the midpoint from
    either side, immersion's onto either endpoint. The legs of the four
    routes are integrated into the open memo first, in one _leg_sums call
    and so in one lockstep; apex and immersion then read them from the memo.
    """
    _leg_sums(_limit_legs(iv, p), p)
    vals = [np.asarray(apex(iv, s, p, tol=apex_tol)[0]) for s in ("above", "below")]
    vals += [np.asarray(immersion(complex(x), p).f) for x in iv]
    spread = float(max(np.max(np.abs(a - b)) for a in vals for b in vals))
    return vals[0], spread, vals[2:]


def _limit_legs(iv, p: SurfaceParams) -> list:
    """The legs of the four limits' routes, one each, as apex and immersion route them.

    A route that raises is left out, so that its consumer raises in its turn.
    """
    legs = []
    for side in ("above", "below"):
        with contextlib.suppress(ValueError):
            legs += _apex_legs(iv, side, p)
    return legs + _immersion_routes([complex(x) for x in iv], p)


def _outside_values(component: SingularComponent, p: SurfaceParams, f_ends, eps_outer: float):
    """[(eps, f at lo - eps, f at hi + eps)] for eps = eps_outer, eps_outer / 10.

    Each value is its endpoint's value in f_ends = (f(lo), f(hi)) plus the
    integral along the real axis into the adjacent gap: a square-root leg
    out of the branch point and at most one short segment. The legs of all
    four paths go through one batch (integrate._path_values), so the
    integrals are integrate_path's bytes. The routed immersion reaches the
    same points through the closed upper half-plane too, so the two agree
    to quadrature accuracy.
    """
    epsilons = (eps_outer, eps_outer / 10.0)
    starts = [
        start
        for eps in epsilons
        for start in ((component.lo, -eps, f_ends[0]), (component.hi, eps, f_ends[1]))
    ]
    paths = [
        _polyline_legs(PathSpec((x, x + step)).waypoints, p, cuts="reject")[0]
        for x, step, _ in starts
    ]
    values = [f_x + df for (_, _, f_x), df in zip(starts, _path_values(paths, p))]
    return [(eps, values[2 * i], values[2 * i + 1]) for i, eps in enumerate(epsilons)]


def _clamp_outer(eps: float, component: SingularComponent, p: SurfaceParams) -> float:
    gaps = []
    for x, direction in ((component.lo, -1.0), (component.hi, 1.0)):
        others = [c for c in p.branch_points() if c != x] + [0.0]
        ahead = [abs(c - x) for c in others if (c - x) * direction > 0]
        gaps.append(min(ahead) if ahead else math.inf)
    return min(eps, 0.4 * min(gaps))


def embedded_neighborhood_proxy(component: SingularComponent, p: SurfaceParams) -> bool:
    """Finite proxy for the embedded punctured neighborhood condition.

    Projects the image of a stadium-shaped loop around the component,
    integrated as one chain relative to its first point, to the x1x2-plane
    and checks the polyline is simple; a translation does not change that.
    A pass is evidence, not a proof; reports label it as a proxy.
    """
    pts = _stadium_image(component, p)[1][:, :2]
    ring = np.arange(len(pts))
    return touching_pairs(pts, np.stack([ring, np.roll(ring, -1)], axis=1)) == 0


def _stadium_image(component: SingularComponent, p: SurfaceParams):
    """The 62-point stadium loop and its image relative to the first point.

    Straight legs join the points into one chain from 0 at loop[0], so the
    image is continuous (a route per point would pass above or below 0 by
    the sign of Arg and split a period jump into the loop). It is f minus
    f(loop[0]): a translation, under which the x1x2 polygon stays simple or
    not, so no route from the origin is needed. The chain's legs are shared
    with no other route, so they are integrated outside the leg memo.
    """
    loop = _stadium_points(component, _clamp_outer(0.2 * component.length, component, p))
    legs, _, _ = _polyline_legs(PathSpec(loop).waypoints, p, cuts="reject")
    re, _ = _integrate_legs(legs, p)
    return loop, np.cumsum(np.vstack([np.zeros(3), re]), axis=0)


def _stadium_points(component: SingularComponent, d: float) -> np.ndarray:
    """Closed loop at distance d around the interval: two caps, two sides."""
    lo, hi = component.lo, component.hi
    xs = np.linspace(lo, hi, 16)
    top = xs + 1j * d
    bot = xs[::-1] - 1j * d
    th_r = np.linspace(0.5 * np.pi, -0.5 * np.pi, 16, endpoint=False)
    cap_r = hi + d * np.exp(1j * th_r)
    th_l = np.linspace(-0.5 * np.pi, -1.5 * np.pi, 16, endpoint=False)
    cap_l = lo + d * np.exp(1j * th_l)
    return np.concatenate([top, cap_r[1:], bot, cap_l[1:]])


def touching_pairs(points: np.ndarray, edges: np.ndarray) -> int:
    """Pairs of segments that share no vertex yet meet, touching included.

    points is (V, 2); edges is (E, 2) vertex indices. Two closed segments
    meet when their bounding boxes overlap and neither separates the
    other's endpoints strictly. Every comparison is written so that NaN
    coordinates count as a meeting. Only the pairs whose x-ranges overlap
    are tested (sort and sweep): with the edges sorted by the low end of
    their x-range, an edge's partners are the run of later edges that
    start at or before its high end. A NaN low end is taken as -inf and a
    NaN high end as +inf, per axis, which makes every box comparison what
    it is with the NaN; the side tests see the raw coordinates. Rows go
    in chunks of 256, so memory stays at O(E) whatever the edge count.
    """
    a, b = points[edges[:, 0]], points[edges[:, 1]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    lo[np.isnan(lo)] = -np.inf
    hi[np.isnan(hi)] = np.inf
    d = b - a
    order = np.argsort(lo[:, 0], kind="stable")
    # the sorted partners of sorted edge k are k + 1 .. end[k] - 1
    end = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    count = end - np.arange(1, len(edges) + 1)
    hits = 0
    for s in range(0, len(edges), 256):
        c = count[s : s + 256]
        first = np.cumsum(c) - c
        k = np.repeat(np.arange(s, s + len(c)), c)
        m = np.arange(int(c.sum())) - np.repeat(first, c) + k + 1
        i, j = order[k], order[m]
        # the y-box, shared-vertex and side tests are symmetric in i and j
        candidate = (lo[i, 1] <= hi[j, 1]) & (lo[j, 1] <= hi[i, 1])
        for x in range(2):
            for y in range(2):
                candidate &= edges[i, x] != edges[j, y]
        i, j = i[candidate], j[candidate]
        side_i = _cross(d[j], a[i] - a[j]) * _cross(d[j], b[i] - a[j])
        side_j = _cross(d[i], a[j] - a[i]) * _cross(d[i], b[j] - a[i])
        hits += int(np.count_nonzero(~(side_i > 0) & ~(side_j > 0)))
    return hits


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def stereographic(x) -> complex:
    """Stereographic projection (x1 + i x2)/(1 - x3) from the hyperboloid.

    Input must satisfy <x, x> = -1 in the (+, +, -) metric; the apex
    (0, 0, 1) maps to complex infinity. Inverse relation: sigma(nu(z)) = G(z)
    at regular points, with nu the hyperboloid-valued Gauss map.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise NotOnHyperboloid(f"expected a 3-vector, got shape {x.shape}")
    q = x[0] ** 2 + x[1] ** 2 - x[2] ** 2
    if abs(q + 1.0) > 1e-9 * max(1.0, float(np.max(np.abs(x)) ** 2)):
        raise NotOnHyperboloid(f"<x, x> = {q}, not -1")
    if x[2] == 1.0:
        return core.INF
    return complex(x[0], x[1]) / (1.0 - x[2])
