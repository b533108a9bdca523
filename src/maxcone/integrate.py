"""Contour integration of the form triple.

The immersion f(z) = Re of the path integral of (phi1, phi2, phi3) is
computed by adaptive Gauss-Kronrod quadrature over paths composed of legs:
radial segments and circular arcs centered at 0 (automatic routing),
straight segments (user paths), and a square-root reparametrized approach
leg for endpoints sitting exactly on a branch point. Arc/radial routing
keeps the integrand analytic along every leg and makes winding bookkeeping
exact, so f2 = -(accumulated angle) + Arg(basepoint) holds to quadrature
accuracy. Only immersion takes a basepoint; everything else integrates
from the fixed origin a_{2m} + 1, where f2 = -Arg z.

Loop periods around the two ends, polyline path integrals, running sums
along chains of consecutive legs, and the transverse apex limits of singular
intervals (Richardson extrapolation in sqrt(offset)) all live here. f
extends continuously to each closed singular interval and is constant on
it, so its along-axis limits are the endpoint values immersion(lo) and
immersion(hi), which the square-root leg integrates exactly.

A panel's integrand values are reduced to its K15 sum and |K15 - G7|
estimate (_panel_sums) where they are computed, so adaptive_leg handles
only those sums. Legs are integrated in chunks of at most _CHUNK: the
first panels of a chunk are evaluated and reduced in one batch, and any
number of legs, a generator of them included, runs in bounded memory.
After that, the two halves of a split share one kernel call. The kernels
give each point the same bits whatever the call size, so a leg's result
depends neither on the chunk it falls in nor on the pairing. Every leg
streams through that batch: the mesh grid's ring arcs, the routes of
immersion, the five routes of an apex side together, the stadium chain,
the loop of loop_period, and the sheet-tagged loop pieces of minimal,
whose omega-triple is passed in as the form with each piece's sheet as
the sign of w.

User paths, the stadium chain and the loops of minimal become legs
through one function, _polyline_legs, under the rules PathSpec states.

Inside _leg_memo(p), opened by one cone classification, one symmetry
check or one mesh weld check, _leg_sums integrates each distinct leg once
and serves repeats from the memo, with the same bytes; the memo ends with
that call.
"""

from __future__ import annotations

import cmath
import contextlib
import contextvars
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import phi_from_w, w_values
from .errors import NonConvergent, PathThroughSingularity, QuadratureFailure
from .params import SurfaceParams

# Gauss-7 / Kronrod-15 pair on [-1, 1] (QUADPACK abscissae and weights). The
# weights are stored complex: the panel sums are complex matrix-vector
# products, which would otherwise cast them on every call.
_XK = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_WK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ],
    dtype=complex,
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ],
    dtype=complex,
)
_GAUSS_IDX = np.arange(1, 15, 2)  # Gauss-7 nodes inside the Kronrod set
# nodes of a leg's first panel, computed as adaptive_leg computes every other panel's
_T_FIRST = 0.5 + 0.5 * _XK

# absolute error budget of every leg, read only by the quadrature calls here
# and in minimal: no public function takes a quadrature tolerance
DEFAULT_SEGMENT_TOL = 1e-10
MAX_DEPTH = 40
# panels one leg may evaluate; the worst leg of the 28 cone classes and the
# wide-ratio surface uses 73, and an estimate that does not shrink under
# splitting would otherwise grow the heap toward 2^MAX_DEPTH panels
MAX_PANELS = 2000
# legs whose first panels share one kernel call (7,680 nodes); it bounds the
# memory of a batch only, as a leg gives the same bytes in a chunk of any size
_CHUNK = 512


@dataclass(frozen=True)
class PathSpec:
    """Polyline path: two or more finite waypoints, consecutive ones distinct.

    One rule set keeps every polyline (integrate_path, the stadium chain,
    minimal.measure_period) off 0 and the closed singular intervals. No
    waypoint is 0 or on an interval, except that integrate_path lets the
    first or last sit on a branch point. A segment on the real axis does not
    contain 0 and meets an interval in at most one point. A segment from one
    side of the axis to the other does not cross it at 0 or a branch point;
    inside an interval integrate_path rejects the crossing, and
    measure_period splits the segment there and changes sheet. z = inf is
    an end and NaN is not a point, so neither is a waypoint.
    """

    waypoints: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "waypoints", tuple(complex(w) for w in self.waypoints))
        for w in self.waypoints:
            if not cmath.isfinite(w):
                raise PathThroughSingularity(f"waypoint {w} is not a finite point")
        if len(self.waypoints) < 2:
            raise PathThroughSingularity("a path needs at least two waypoints")
        for u, v in zip(self.waypoints, self.waypoints[1:]):
            if u == v:
                raise PathThroughSingularity("consecutive waypoints must be distinct")


@dataclass(frozen=True)
class ImmersionSample:
    """Domain point with its image in R^3 and a quadrature error estimate."""

    z: complex
    f: tuple[float, float, float]
    quad_error: float


@dataclass(frozen=True)
class PeriodVector:
    """Real part of a loop integral around one end (0 or inf)."""

    v: tuple[float, float, float]
    loop_center: float  # 0.0 or math.inf
    quad_error: float


# ---------------------------------------------------------------------------
# legs


class _Leg:
    """One smooth parametrized piece of a path, t in [0, 1]."""

    def points(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (z(t), dz/dt(t))."""
        raise NotImplementedError


@dataclass(frozen=True)
class ArcLeg(_Leg):
    r: float
    theta_a: float
    theta_b: float

    def points(self, t):
        th = self.theta_a + (self.theta_b - self.theta_a) * t
        z = self.r * np.exp(1j * th)
        return z, 1j * (self.theta_b - self.theta_a) * z


@dataclass(frozen=True)
class RadialLeg(_Leg):
    theta: float
    r_a: float
    r_b: float

    def points(self, t):
        rho = self.r_a + (self.r_b - self.r_a) * t
        e = cmath.exp(1j * self.theta)
        return rho * e, np.full_like(t, (self.r_b - self.r_a)) * e


@dataclass(frozen=True)
class SegmentLeg(_Leg):
    z_a: complex
    z_b: complex

    def points(self, t):
        dz = self.z_b - self.z_a
        return self.z_a + dz * t, np.full_like(t, dz, dtype=complex)


@dataclass(frozen=True)
class SqrtApproachLeg(_Leg):
    """Straight approach into a branch point c, reparametrized z = c + d t^2.

    The substitution turns the 1/sqrt(z - c) singularity of the forms into a
    bounded integrand; t runs from 1 (outer point) to 0 (the branch point),
    and quadrature nodes never touch t = 0.
    """

    c: complex
    z_outer: complex

    def points(self, t):
        s = 1.0 - t  # t=0 at z_outer, t=1 at the branch point
        d = self.z_outer - self.c
        return self.c + d * s**2, -2.0 * s * d * np.ones_like(t)


# ---------------------------------------------------------------------------
# quadrature


def _panel_sums(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled K15 sums and |K15 - G7| summed over the 3 components.

    vals holds the integrand on the 15 nodes of a panel, (..., 3, 15); the
    results have shapes (..., 3) and (...). adaptive_leg scales both by the
    panel half-width, a power of two, so the scaling is exact.
    """
    k = vals @ _WK
    return k, np.abs(k - vals[..., _GAUSS_IDX] @ _WG).sum(axis=-1)


def _leg_text(leg: _Leg, t0: float = 0.0, t1: float = 1.0) -> str:
    z_ends = leg.points(np.array([t0, t1]))[0]
    return f"{leg} over t in [{t0:g}, {t1:g}] (z from {z_ends[0]:.17g} to {z_ends[1]:.17g})"


def adaptive_leg(leg: _Leg, coeff_fn, tol: float) -> tuple[np.ndarray, float]:
    """Adaptive G7/K15 over one leg; returns (complex 3-vector, error estimate).

    coeff_fn(t) takes the 15 nodes t in [0, 1] of one panel and returns
    _panel_sums of the integrand phi(z(t)) z'(t) there: the unscaled K15
    sum (3,) and the summed |K15 - G7| difference. Each panel is exactly one
    coeff_fn call, so counting the calls counts the panels (the benchmark's
    panel anchor does that). The first call, on the panel [0, 1], receives
    the module array _T_FIRST itself, so a coeff_fn can recognize it by
    identity and return sums computed in advance (_leg_coeffs does). The
    two halves of a split are the rows of one (2, 15) array, each computed
    as a lone panel's nodes, passed left then right, so a coeff_fn can
    recognize the pair by the rows' .base and let the two halves share one
    kernel call (_LegCoeffs does).
    Interval halving against a global absolute budget: the worst panel is
    split until the summed estimate drops below tol. Panel width is capped
    at 2^-MAX_DEPTH and the panel count at MAX_PANELS; hitting either with
    the budget still blown signals a mis-routed path or an integrand the
    rule cannot resolve, and raises QuadratureFailure. So does a panel with
    a non-finite value or estimate, at once.
    """

    def panel(t0: float, t1: float, t: np.ndarray):
        k, d = coeff_fn(t)
        half = 0.5 * (t1 - t0)
        e = half * float(d)
        # a non-finite K15 or G7 sum makes e non-finite; NaN would otherwise
        # slip through the budget test below, as nan > tol is False
        if not math.isfinite(e):
            raise QuadratureFailure(f"non-finite integrand on {_leg_text(leg, t0, t1)}")
        return e, t0, t1, half * k

    e, t0, t1, k15 = panel(0.0, 1.0, _T_FIRST)
    if e <= tol:
        return k15, e
    counter = 0
    heap = [(-e, counter, t0, t1, k15)]
    err_sum = e
    min_width = 2.0**-MAX_DEPTH
    while err_sum > tol:
        neg_e, _, t0, t1, k15 = heapq.heappop(heap)
        if t1 - t0 <= min_width:
            raise QuadratureFailure(
                f"segment tolerance {tol:g} not reached at max depth (err {err_sum:g}) "
                f"on {_leg_text(leg, t0, t1)}; the path may pass too close to a singularity"
            )
        if counter + 3 > MAX_PANELS:  # 1 + counter panels so far, 2 more to come
            raise QuadratureFailure(
                f"segment tolerance {tol:g} not reached within {MAX_PANELS} panels "
                f"(err {err_sum:g}) on {_leg_text(leg)}"
            )
        err_sum += neg_e  # remove the split panel's estimate
        mid = 0.5 * (t0 + t1)
        halves = ((t0, mid), (mid, t1))
        # the rows of one array, each the nodes of a lone panel, left first
        rows = np.array([0.5 * (lo + hi) + 0.5 * (hi - lo) * _XK for lo, hi in halves])
        for (lo, hi), t in zip(halves, rows):
            e, a, b, v = panel(lo, hi, t)
            counter += 1
            heapq.heappush(heap, (-e, counter, a, b, v))
            err_sum += e
    total = np.zeros(3, dtype=complex)
    for neg_e, _, _, _, v in heap:
        total += v
    return total, err_sum


class _LegCoeffs:
    """coeff_fn of one leg for a form triple form(z, w) of the branch values w.

    form is phi_from_w (the maximal surface) unless given; minimal passes its
    omega-triple. sheet, when given, multiplies w_values elementwise (+1 or
    -1: the branch of w the leg lies on). first, when given, holds the first
    panel's sums, computed in a batch by _leg_coeffs: a call with _T_FIRST
    itself returns it. The two halves of a split share one kernel call: a
    call with a row of adaptive_leg's (2, 15) array, the left half, evaluates
    both rows and keeps the right one's sums for the next call, which passes
    the other row of that array (its .base). Any other call evaluates the
    form on its nodes alone. Either way one call per panel, with the same
    bytes.
    """

    __slots__ = ("leg", "p", "form", "sheet", "first", "right")

    def __init__(self, leg: _Leg, p: SurfaceParams, form=phi_from_w, sheet=None, first=None):
        self.leg, self.p, self.form, self.sheet, self.first = leg, p, form, sheet, first
        self.right = None  # (the (2, 15) array of a split, its right half's sums)

    def __call__(self, t: np.ndarray):
        if t is _T_FIRST and self.first is not None:
            return self.first
        rows = t.base
        if rows is None or rows.shape != (2, _XK.size):
            return _sums(*self.leg.points(t), self.p, self.form, self.sheet)
        if self.right is not None and self.right[0] is rows:
            sums, self.right = self.right[1], None
            return sums
        k, d = _sums(*self.leg.points(rows), self.p, self.form, self.sheet)
        self.right = (rows, (k[1], d[1]))
        return k[0], d[0]


def _sums(z: np.ndarray, dz: np.ndarray, p: SurfaceParams, form, sheet):
    """_panel_sums of the panels with nodes at z, (..., 15), reduced as one
    contiguous (..., 3, 15) array: each panel gets its 15-node call's bytes.

    A node on a branch point divides by w = 0 (adaptive_leg raises on the
    non-finite sums), so the caller ignores divide and invalid errors:
    _leg_coeffs for its batch, and the chunk loops of _integrate_legs and
    minimal.measure_period for every later panel.
    """
    vals = form(z, _branch(z, p, sheet)) * dz
    return _panel_sums(np.ascontiguousarray(vals.swapaxes(0, -2)))


def _branch(z: np.ndarray, p: SurfaceParams, sheet) -> np.ndarray:
    """w_values(z, p), times sheet (a scalar or a column of +-1) when given."""
    w = w_values(z, p)
    return w if sheet is None else sheet * w


def _first_points(legs) -> tuple[np.ndarray, np.ndarray]:
    """(z, dz/dt) at the first-panel nodes of K legs, (K, 15) each, as leg.points gives them."""
    kinds = {type(leg) for leg in legs}
    if kinds == {ArcLeg}:
        # the angular chains of a mesh grid: ArcLeg.points over all rows at once
        r, ta, tb = np.array([(leg.r, leg.theta_a, leg.theta_b) for leg in legs]).T[..., None]
        z = r * np.exp(1j * (ta + (tb - ta) * _T_FIRST))
        return z, 1j * (tb - ta) * z
    if kinds == {SegmentLeg}:
        # the stadium chain and the loop pieces of minimal: SegmentLeg.points over all legs
        za, zb = np.array([(leg.z_a, leg.z_b) for leg in legs], dtype=complex).T[..., None]
        dz = zb - za
        return za + dz * _T_FIRST, np.broadcast_to(dz, (len(legs), _T_FIRST.size))
    z, dz = zip(*(leg.points(_T_FIRST) for leg in legs))
    return np.stack(z), np.stack(dz)


def _leg_coeffs(legs, p: SurfaceParams, form=phi_from_w, sheets=None) -> list[_LegCoeffs]:
    """One coeff_fn per leg; the first panels of all legs are reduced together.

    Most legs of a chain need only their first panel, so one (3, K, 15)
    evaluation and one batched _panel_sums replace K small ones. form and
    the per-leg sheets are as in _LegCoeffs; the sheets enter the batch as a
    (K, 1) column. The kernels are elementwise and give the same bits at
    any call size, and the sums run over a contiguous (K, 3, 15) array, so
    each leg's sums are the ones a 15-node call gives, bit for bit, for
    any K.
    """
    if not legs:
        return []
    column = None if sheets is None else np.array(sheets)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        k, d = _sums(*_first_points(legs), p, form, column)
    if sheets is None:
        sheets = [None] * len(legs)
    return [
        _LegCoeffs(leg, p, form, sheet, first)
        for leg, sheet, first in zip(legs, sheets, zip(k, d.tolist()))
    ]


def _chunks(items):
    """Lists of at most _CHUNK consecutive items of any iterable, a generator included."""
    items = iter(items)
    while chunk := list(itertools.islice(items, _CHUNK)):
        yield chunk


# (surface, {leg: (re row, err)}) of the innermost open _leg_memo, or None
_LEG_MEMO: contextvars.ContextVar = contextvars.ContextVar("maxcone_leg_memo", default=None)


@contextlib.contextmanager
def _leg_memo(p: SurfaceParams):
    """Integrate each distinct leg of p once until the with-block ends.

    Inside the block _leg_sums keeps {leg: (re row, err)} for p and
    integrates only the legs it has not seen. A leg gives the same bytes
    alone or in any batch (see _leg_coeffs), so every value inside the
    block is the one it would be outside. The memo lives in a ContextVar
    and is dropped on exit, normal or not: no state outlives the call that
    opened it, so each call does the same work whenever it runs.
    """
    token = _LEG_MEMO.set((p, {}))
    try:
        yield
    finally:
        _LEG_MEMO.reset(token)


def _leg_sums(legs, p: SurfaceParams) -> tuple[np.ndarray, np.ndarray]:
    """Re-integrals (N, 3) and error estimates (N,) of legs, each integrated alone.

    legs may be any iterable, a generator included: it is consumed in chunks
    of at most _CHUNK legs, whose first panels are evaluated together, and
    only the per-leg results are kept. Inside _leg_memo(p) only the legs not
    yet integrated there are, in order of first appearance, and every row
    comes from the memo.
    """
    scope = _LEG_MEMO.get()
    if scope is None or scope[0] is not p:
        return _integrate_legs(legs, p)
    memo = scope[1]
    legs = list(legs)
    new = [leg for leg in dict.fromkeys(legs) if leg not in memo]
    memo.update(zip(new, zip(*_integrate_legs(new, p))))
    rows = [memo[leg] for leg in legs]
    return np.array([r for r, _ in rows]).reshape(-1, 3), np.array([e for _, e in rows])


def _integrate_legs(legs, p: SurfaceParams) -> tuple[np.ndarray, np.ndarray]:
    """_leg_sums without a memo: every leg integrated, chunk by chunk."""
    re, err = [np.zeros((0, 3))], [np.zeros(0)]
    for chunk in _chunks(legs):
        fns = _leg_coeffs(chunk, p)
        # one errstate for the later panels of the whole chunk (see _sums)
        with np.errstate(divide="ignore", invalid="ignore"):
            parts = [adaptive_leg(leg, fn, DEFAULT_SEGMENT_TOL) for leg, fn in zip(chunk, fns)]
        re.append(np.array([v for v, _ in parts]).real)
        err.append(np.array([e for _, e in parts]))
    return np.concatenate(re), np.concatenate(err)


def _accumulate(f0, e0: float, re: np.ndarray, err: np.ndarray):
    """Running sums from (f0, e0) over per-leg rows, one leg at a time in order."""
    f = np.cumsum(np.vstack([np.asarray(f0, dtype=float), re]), axis=0)
    e = np.cumsum(np.concatenate([[float(e0)], err]))
    return f[1:], e[1:]


def _running_sum(legs, p: SurfaceParams, f0, e0: float):
    """Re-integral and error estimate after each of consecutive legs.

    Starts from (f0, e0) and adds one leg at a time, in order, so row k of
    the (N, 3) result is f0 plus the real parts of legs 0..k.
    """
    return _accumulate(f0, e0, *_leg_sums(legs, p))


# ---------------------------------------------------------------------------
# routing


def _nearest_branch_point(z: complex, p: SurfaceParams) -> tuple[float, float]:
    bps = p.branch_points()
    d = [abs(z - c) for c in bps]
    i = int(np.argmin(d))
    return bps[i], d[i]


def _patch_radius(c: float, p: SurfaceParams) -> float:
    """Local sqrt-substitution patch size: 1e-2 of the adjacent gap."""
    others = [x for x in p.branch_points() if x != c] + [0.0]
    gap = min(abs(c - x) for x in others)
    return 1e-2 * gap


def _route_legs(z: complex, p: SurfaceParams, basepoint: complex) -> list[_Leg]:
    """Arc/radial route from the basepoint to z.

    Standard route: arc at |z0| from Arg(z0) to +-pi/2, radial to |z|, arc to
    Arg(z). It crosses the real axis only at its endpoints, so it never meets
    a singular interval; the accumulated angle equals Arg(z) - Arg(z0).
    """
    r0, th0 = abs(basepoint), cmath.phase(basepoint)
    r1, th1 = abs(z), cmath.phase(z)
    hemi = math.pi / 2 if th1 >= 0 else -math.pi / 2
    legs: list[_Leg] = []
    if th0 != hemi:
        legs.append(ArcLeg(r=r0, theta_a=th0, theta_b=hemi))
    if r0 != r1:
        legs.append(RadialLeg(theta=hemi, r_a=r0, r_b=r1))
    if th1 != hemi:
        legs.append(ArcLeg(r=r1, theta_a=hemi, theta_b=th1))
    return legs


def _route_to_branch_point(c: float, p: SurfaceParams, basepoint: complex) -> list[_Leg]:
    """Route ending exactly on a branch point via the sqrt-substitution leg.

    Approaches along the real axis from the adjacent gap side, away from the
    interval that owns c.
    """
    rho = _patch_radius(c, p)
    # approach from whichever side of c lies in a gap, not in an interval
    side = 1.0
    if p.contains_real(c + side * rho * 0.5):
        side = -1.0
    if p.contains_real(c + side * rho * 0.5):
        raise PathThroughSingularity(f"no regular approach side at branch point {c}")
    outer = c + side * rho
    legs = _route_legs(complex(outer), p, basepoint)
    legs.append(SqrtApproachLeg(c=complex(c), z_outer=complex(outer)))
    return legs


def _route_end(z, what: str) -> complex:
    """z as a complex a route can reach: finite, and 2 pi |z| (so every arc's dz) finite."""
    z = complex(z)
    if not (cmath.isfinite(z) and math.isfinite(2.0 * math.pi * math.hypot(z.real, z.imag))):
        raise PathThroughSingularity(f"{what} {z} is not a point: not finite or 2 pi |z| overflows")
    return z


def immersion(z: complex, p: SurfaceParams, basepoint: complex | None = None) -> ImmersionSample:
    """f(z) = Re of the path integral from the basepoint, with auto routing.

    The default basepoint is a_{2m} + 1 on the positive real axis, giving
    f(basepoint) = 0 and f2(z) = -Arg(z); a regular basepoint b > 0 gives
    the same surface translated by -immersion(b, p).f. Branch-point targets
    are reached through the square-root substitution leg; interior points of
    singular intervals are rejected. A target or basepoint that is not a
    point (see _route_end), and a basepoint at 0 or on a branch point, raise
    PathThroughSingularity before any quadrature.
    """
    z = _route_end(z, "target")
    if z == 0:
        raise PathThroughSingularity("z = 0 is an end, not a surface point")
    basepoint = _route_end(p.default_basepoint() if basepoint is None else basepoint, "basepoint")
    if basepoint == 0 or (basepoint.imag == 0 and basepoint.real in p.branch_points()):
        raise PathThroughSingularity(f"basepoint {basepoint} is 0 or a branch point, not regular")
    if z == basepoint:
        return ImmersionSample(z=z, f=(0.0, 0.0, 0.0), quad_error=0.0)
    c, dist = _nearest_branch_point(z, p)
    if dist == 0.0:
        legs = _route_to_branch_point(c, p, basepoint)
    else:
        if z.imag == 0.0 and p.contains_real(z.real):
            raise PathThroughSingularity(
                f"z={z} lies inside a singular interval; use apex() for its image"
            )
        legs = _route_legs(z, p, basepoint)
    f, err = _running_sum(legs, p, np.zeros(3), 0.0)
    return ImmersionSample(z=z, f=tuple(f[-1]), quad_error=float(err[-1]))


def integrate_path(path: PathSpec, p: SurfaceParams) -> tuple[tuple[float, float, float], float]:
    """Re of the integral of the form triple along a user polyline.

    The path obeys PathSpec's rules, and a segment may not cross a singular
    interval; a path that breaks one raises PathThroughSingularity before
    any quadrature. The first or last waypoint may sit exactly on a branch
    point, which is reached through the square-root substitution.
    """
    legs, _, _ = _polyline_legs(path.waypoints, p, cuts="reject")
    f, err = _running_sum(legs, p, np.zeros(3), 0.0)
    return tuple(f[-1]), float(err[-1])


def _polyline_legs(waypoints, p: SurfaceParams, *, cuts: str):
    """(legs, sheet of each leg, final sheet) of a PathSpec's waypoints.

    Applies PathSpec's rules and raises PathThroughSingularity on a breach.
    A segment crossing the axis does so at t = u.imag / (u.imag - v.imag),
    x = u + t * (v - u). Inside an interval, cuts="reject" raises, and
    cuts="flip" splits the segment at x and moves to the other sheet (+1 is
    the Re w >= 0 branch, -1 its continuation -w across a cut); empty pieces
    are dropped. With cuts="reject" an end on a branch point c gets the
    square-root leg into c.
    """
    flip = cuts == "flip"
    bps = p.branch_points()
    for i, z in enumerate(waypoints):
        if z == 0:
            raise PathThroughSingularity("path touches the puncture z = 0")
        end = not flip and i in (0, len(waypoints) - 1) and z in bps
        if z.imag == 0 and p.contains_real(z.real) and not end:
            raise PathThroughSingularity(f"waypoint {z} lies on a singular interval")
    out, sheet = [], 1
    for u, v in zip(waypoints, waypoints[1:]):
        pieces = [(u, v, sheet)]
        if u.imag == 0 and v.imag == 0:
            lo, hi = sorted((u.real, v.real))
            if lo < 0 < hi:
                raise PathThroughSingularity(f"segment from {u} to {v} passes through z = 0")
            for a, b in p.intervals():
                if max(lo, a) < min(hi, b):
                    raise PathThroughSingularity(
                        f"segment from {u} to {v} overlaps singular interval [{a}, {b}]"
                    )
        elif u.imag < 0 < v.imag or v.imag < 0 < u.imag:
            t = u.imag / (u.imag - v.imag)
            x = u + t * (v - u)
            if x.real == 0 or x.real in bps or (p.contains_real(x.real) and not flip):
                raise PathThroughSingularity(
                    f"segment from {u} to {v} crosses the real axis at the singular point x={x.real}"
                )
            if p.contains_real(x.real):
                pieces = [(u, x, sheet), (x, v, -sheet)]
                sheet = -sheet
        if u in bps and v in bps:
            raise PathThroughSingularity("segment joins two branch points")
        if v in bps:
            out += [(leg, sheet) for leg in _split_branch_segment(u, v, p, into=True)]
        elif u in bps:
            out += [(leg, sheet) for leg in _split_branch_segment(v, u, p, into=False)]
        else:
            out += [(SegmentLeg(z_a=a, z_b=b), s) for a, b, s in pieces if a != b]
    return [leg for leg, _ in out], [s for _, s in out], sheet


def _split_branch_segment(z_far: complex, c: complex, p: SurfaceParams, into: bool) -> list["_Leg"]:
    """Straight segment with one endpoint on a branch point, patched near c."""
    rho = _patch_radius(c.real, p)
    d = z_far - c
    if abs(d) <= rho:
        outer = z_far
        head = []
    else:
        outer = c + d * (rho / abs(d))
        head = [SegmentLeg(z_a=z_far, z_b=outer)]
    approach = SqrtApproachLeg(c=c, z_outer=outer)
    if into:
        return head + [approach]
    return [_ReversedLeg(approach)] + [SegmentLeg(z_a=l.z_b, z_b=l.z_a) for l in head]


@dataclass(frozen=True)
class _ReversedLeg(_Leg):
    inner: _Leg

    def points(self, t):
        z, dz = self.inner.points(1.0 - t)
        return z, -dz


# ---------------------------------------------------------------------------
# loop periods


def loop_period(center, p: SurfaceParams) -> PeriodVector:
    """Re of the closed loop integral around one end.

    center = 0 integrates counterclockwise around the puncture at 0 on the
    circle of half the innermost branch-point radius; center = inf
    integrates counterclockwise as seen from infinity (clockwise in the
    plane) on the circle of twice the outermost branch-point radius.
    """
    at_zero = center == 0
    if at_zero:
        leg = ArcLeg(r=0.5 * p.inner_radius(), theta_a=0.0, theta_b=2.0 * math.pi)
    else:
        leg = ArcLeg(r=2.0 * p.scale(), theta_a=0.0, theta_b=-2.0 * math.pi)
    re, err = _leg_sums([leg], p)
    return PeriodVector(
        v=tuple(re[0]),
        loop_center=0.0 if at_zero else math.inf,
        quad_error=float(err[0]),
    )


# ---------------------------------------------------------------------------
# apex limits


_SIDES = ("above", "below")


def apex(
    interval: tuple[float, float],
    side: str,
    p: SurfaceParams,
    *,
    tol: float = 1e-6,
) -> tuple[tuple[float, float, float], float]:
    """Limit of f approaching a singular interval transversally.

    f is immersion(z, p), integrated from the fixed origin a_{2m} + 1.
    Evaluates f above or below the interval midpoint at offsets
    1e-3 * length / 2^i, i < 5, and Richardson-extrapolates in sqrt(eps).
    The five samples take immersion's routes, and the legs of all five run
    through one _leg_sums batch; each sample sums its own legs in order, as
    immersion does, so the values are immersion's bytes.
    The interval must be a finite lo < hi inside one closed singular
    interval of p, else ValueError. Returns (apex, extrapolation residual);
    raises NonConvergent when the residual exceeds tol. The along-axis
    limits need no extrapolation: f is constant on the closed interval, so
    they are the endpoint values immersion(lo) and immersion(hi),
    integrated exactly through the square-root leg.
    The five routes open with the same quarter arc at the origin's radius.
    Called by singular.classify_cone, inside its _leg_memo, that arc and
    every other leg shared with the classification's other routes is
    integrated once per classification; the memo ends with that call, so
    the work of one call does not depend on earlier calls.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
    if not any(a <= lo < hi <= b for a, b in p.intervals()):
        raise ValueError(f"interval [{lo}, {hi}] is not lo < hi inside one singular interval of p")
    eps0 = 1e-3 * (hi - lo)
    mid = 0.5 * (lo + hi)
    sign = 1.0 if side == "above" else -1.0
    base = p.default_basepoint()
    routes = [_route_legs(complex(mid, sign * eps0 / 2.0**i), p, base) for i in range(5)]
    re, err = _leg_sums([leg for route in routes for leg in route], p)
    ends = np.cumsum([0] + [len(route) for route in routes])
    values = [
        _accumulate(np.zeros(3), 0.0, re[a:b], err[a:b])[0][-1] for a, b in zip(ends, ends[1:])
    ]
    est, resid = _richardson_sqrt(values)
    if resid > tol:
        raise NonConvergent(
            f"apex extrapolation residual {resid:g} above tolerance {tol:g} "
            f"for interval [{lo}, {hi}] side {side}"
        )
    # f is defined modulo the period (0, 2pi, 0); report the fundamental
    # representative (x2 matching -Arg of the interval), so below-side
    # approaches to negative-axis intervals agree with the other sides
    # instead of landing one period away
    expected_x2 = -cmath.phase(complex(mid))
    k = round((est[1] - expected_x2) / (2.0 * math.pi))
    est[1] -= 2.0 * math.pi * k
    return tuple(est), resid


def _richardson_sqrt(values: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Richardson table in h = sqrt(eps) for offsets halved per level.

    values[i] is the sample at eps0 / 2^i, so consecutive h ratios are
    sqrt(2). Returns the last diagonal entry and the gap to the previous one
    as the residual estimate.
    """
    r = math.sqrt(2.0)
    rows = [np.asarray(v, dtype=float) for v in values]
    diag = [rows[0]]
    for col in range(1, len(values)):
        factor = r**col
        rows = [
            (factor * rows[i + 1] - rows[i]) / (factor - 1.0)
            for i in range(len(rows) - 1)
        ]
        diag.append(rows[-1])
    resid = float(np.max(np.abs(diag[-1] - diag[-2])))
    return diag[-1], resid
