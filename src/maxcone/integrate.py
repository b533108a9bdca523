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
The legs whose first panel is rejected then refine in lockstep: each
round splits the worst panel of every open leg under adaptive_leg's rule
(_Refinement) and evaluates all the halves in one kernel call. After
that adaptive_leg runs once per leg, in order, on the sums the rounds
left, and decides its result or raises its error. The kernels give each
point the same bits whatever the call size, so a leg's result depends
neither on the chunk it falls in nor on the other legs of a round. Every
leg streams through that batch: the mesh grid's ring arcs, the routes of
immersion, the five routes of an apex side together, the stadium chain,
the loop of loop_period, and the sheet-tagged loop pieces of minimal,
whose omega-triple is passed in as the form with each piece's sheet as
the sign of w.

User paths, the stadium chain and the loops of minimal become legs
through one function, _polyline_legs, under the rules PathSpec states.

Inside _leg_memo(p), opened by one cone classification, one symmetry
check or one mesh weld check, _leg_sums integrates each distinct leg once
and serves repeats from the memo, with the same bytes; the memo ends with
that call. There _plan refines legs in advance, in one lockstep, for the
calls that follow: a cone classification plans the routes of its four
limits.
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


class _Refinement:
    """One leg's panels under adaptive_leg's rule, refined one split at a time.

    It holds the heap of panels (largest estimate first, ties to the panel
    made first), the summed estimate and the two limits. adaptive_leg
    drives it through coeff_fn once a leg's first panel is rejected;
    _lockstep drives the rejected legs of a chunk side by side. add raises QuadratureFailure on a panel with a
    non-finite value or estimate, and split on a panel at the width cap or
    past the panel budget.
    """

    __slots__ = ("leg", "tol", "heap", "err_sum", "made")

    def __init__(self, leg: _Leg, tol: float, first):
        self.leg, self.tol = leg, tol
        self.heap, self.err_sum, self.made = [], 0.0, 0
        self.add(0.0, 1.0, first)

    @property
    def open(self) -> bool:
        return self.err_sum > self.tol

    def add(self, t0: float, t1: float, sums) -> None:
        """Push the panel [t0, t1] with its _panel_sums (K15 sum, |K15 - G7|)."""
        k, d = sums
        half = 0.5 * (t1 - t0)
        e = half * float(d)
        # a non-finite K15 or G7 sum makes e non-finite; NaN would otherwise
        # slip through the budget test, as nan > tol is False
        if not math.isfinite(e):
            raise QuadratureFailure(f"non-finite integrand on {_leg_text(self.leg, t0, t1)}")
        heapq.heappush(self.heap, (-e, self.made, t0, t1, half, k))
        self.made += 1
        self.err_sum += e

    def split(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Pop the worst panel and return its halves, left first."""
        neg_e, _, t0, t1, _, _ = heapq.heappop(self.heap)
        if t1 - t0 <= 2.0**-MAX_DEPTH:
            raise QuadratureFailure(
                f"segment tolerance {self.tol:g} not reached at max depth (err {self.err_sum:g}) "
                f"on {_leg_text(self.leg, t0, t1)}; the path may pass too close to a singularity"
            )
        if self.made + 2 > MAX_PANELS:  # self.made panels so far, 2 more to come
            raise QuadratureFailure(
                f"segment tolerance {self.tol:g} not reached within {MAX_PANELS} panels "
                f"(err {self.err_sum:g}) on {_leg_text(self.leg)}"
            )
        self.err_sum += neg_e  # remove the split panel's estimate
        mid = 0.5 * (t0 + t1)
        return (t0, mid), (mid, t1)

    def result(self) -> tuple[np.ndarray, float]:
        """The sum of the panels' scaled K15 sums, in heap order, and the summed estimate."""
        total = np.zeros(3, dtype=complex)
        for _, _, _, _, half, k in self.heap:
            total += half * k
        return total, self.err_sum


def _nodes(t0, t1):
    """The 15 nodes of the panel [t0, t1]; t0 and t1 may be columns of many panels."""
    return 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * _XK


def adaptive_leg(leg: _Leg, coeff_fn, tol: float) -> tuple[np.ndarray, float]:
    """Adaptive G7/K15 over one leg; returns (complex 3-vector, error estimate).

    coeff_fn(t) takes the 15 nodes t in [0, 1] of one panel and returns
    _panel_sums of the integrand phi(z(t)) z'(t) there: the unscaled K15
    sum (3,) and the summed |K15 - G7| difference. Each panel is exactly one
    coeff_fn call, so counting the calls counts the panels (the benchmark's
    panel anchor does that). The first call, on the panel [0, 1], receives
    the module array _T_FIRST itself, so a coeff_fn can recognize it by
    identity; every later panel's nodes are _nodes(t0, t1), so a coeff_fn
    can recognize them by their bytes. Either way it may return sums
    computed in advance (_LegCoeffs does).
    Interval halving against a global absolute budget: the worst panel is
    split until the summed estimate drops below tol (_Refinement holds the
    rule). Panel width is capped at 2^-MAX_DEPTH and the panel count at
    MAX_PANELS; hitting either with the budget still blown signals a
    mis-routed path or an integrand the rule cannot resolve, and raises
    QuadratureFailure. So does a panel with a non-finite value or estimate,
    at once.
    """
    k, d = first = coeff_fn(_T_FIRST)
    e = 0.5 * float(d)
    if e <= tol:
        # the first panel, [0, 1], meets the budget (a NaN estimate does not):
        # most legs end here, so they build no _Refinement
        return 0.5 * k, e
    state = _Refinement(leg, tol, first)
    while state.open:
        for t0, t1 in state.split():
            state.add(t0, t1, coeff_fn(_nodes(t0, t1)))
    return state.result()


class _LegCoeffs:
    """coeff_fn of one leg for a form triple form(z, w) of the branch values w.

    form is phi_from_w (the maximal surface) unless given; minimal passes its
    omega-triple. sheet, when given, multiplies w_values elementwise (+1 or
    -1: the branch of w the leg lies on). first, when given, holds the first
    panel's sums: a call with _T_FIRST itself returns it. served, once the
    leg refines in lockstep, maps the bytes of a later panel's nodes to its
    sums: a call with those nodes takes them (and drops them). _leg_coeffs
    fills both in advance. Any other call evaluates the form on its nodes
    alone. Either way one call per panel, with the same bytes.
    """

    __slots__ = ("leg", "p", "form", "sheet", "first", "served")

    def __init__(self, leg: _Leg, p: SurfaceParams, form=phi_from_w, sheet=None, first=None):
        self.leg, self.p, self.form, self.sheet, self.first = leg, p, form, sheet, first
        self.served = None

    def __call__(self, t: np.ndarray):
        if t is _T_FIRST and self.first is not None:
            return self.first
        if self.served:
            sums = self.served.pop(t.tobytes(), None)
            if sums is not None:
                return sums
        return _sums(*self.leg.points(t), self.p, self.form, self.sheet)


def _sums(z: np.ndarray, dz: np.ndarray, p: SurfaceParams, form, sheet):
    """_panel_sums of the panels with nodes at z, (..., 15), reduced as one
    contiguous (..., 3, 15) array: each panel gets its 15-node call's bytes.

    A node on a branch point divides by w = 0 (adaptive_leg raises on the
    non-finite sums), so the caller ignores divide and invalid errors:
    _leg_coeffs for its whole chunk.
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


def _leg_coeffs(
    legs, p: SurfaceParams, form=phi_from_w, sheets=None, planned=None
) -> list[_LegCoeffs]:
    """One coeff_fn per leg, holding the sums of every panel adaptive_leg
    will ask of it at DEFAULT_SEGMENT_TOL.

    Most legs of a chain need only their first panel, so one (3, K, 15)
    evaluation and one batched _panel_sums replace K small ones. form and
    the per-leg sheets are as in _LegCoeffs; the sheets enter the batch as a
    (K, 1) column. Every leg whose first panel is rejected then refines in
    lockstep (_lockstep). The kernels are elementwise and give the same bits
    at any call size, and the sums run over a contiguous (K, 3, 15) array,
    so each panel's sums are the ones a 15-node call gives, bit for bit,
    whatever the other legs. A leg found in planned (see _plan) takes the
    coeff_fn made there, which is removed.
    """
    if planned:
        fns = [planned.pop(leg, None) for leg in legs]
        new = [i for i, fn in enumerate(fns) if fn is None]
        sheets = None if sheets is None else [sheets[i] for i in new]
        for i, fn in zip(new, _leg_coeffs([legs[i] for i in new], p, form, sheets)):
            fns[i] = fn
        return fns
    if not legs:
        return []
    column = None if sheets is None else np.array(sheets)[:, None]
    # one errstate for the whole chunk (see _sums)
    with np.errstate(divide="ignore", invalid="ignore"):
        k, d = _sums(*_first_points(legs), p, form, column)
        fns = [
            _LegCoeffs(leg, p, form, sheet, first)
            for leg, sheet, first in zip(legs, sheets or [None] * len(legs), zip(k, d.tolist()))
        ]
        # the first panel's estimate is 0.5 d: a leg that meets its budget
        # with it has nothing to refine (adaptive_leg accepts it at once),
        # and a non-finite one fails at once
        states = []
        for i in np.flatnonzero(~(0.5 * d <= DEFAULT_SEGMENT_TOL)).tolist():
            try:
                states.append((fns[i], _Refinement(legs[i], DEFAULT_SEGMENT_TOL, fns[i].first)))
            except QuadratureFailure:
                continue
            fns[i].served = {}
        _lockstep(states, p, form)
    return fns


def _lockstep(active, p: SurfaceParams, form) -> None:
    """Refine legs side by side, filling each coeff_fn's served sums.

    active holds a (coeff_fn, _Refinement) pair per open leg. Each round
    splits the worst panel of every open leg, as adaptive_leg does, and
    evaluates all the halves in one kernel call. A leg leaves on meeting
    its budget or on a failure, which raises nothing here: adaptive_leg
    meets it again when it replays the leg, and raises it there.
    """
    while active:
        split = []
        for fn, s in active:
            try:
                split.append((fn, s, s.split()))
            except QuadratureFailure:
                pass
        if not split:
            return
        # (K, 2, 15): the nodes of both halves of each split
        t = _nodes(*np.array([halves for _, _, halves in split]).transpose(2, 0, 1)[..., None])
        z, dz = map(np.concatenate, zip(*(fn.leg.points(ts) for (fn, _, _), ts in zip(split, t))))
        sheet = None
        if split[0][0].sheet is not None:
            sheet = np.repeat([fn.sheet for fn, _, _ in split], 2)[:, None]
        k, d = _sums(z, dz, p, form, sheet)
        sums = list(zip(k, d.tolist()))
        nodes, n = t.tobytes(), t[0, 0].nbytes
        active = []
        for i, (fn, s, ((t0, mid), (_, t1))) in enumerate(split):
            left, right = sums[2 * i], sums[2 * i + 1]
            fn.served[nodes[2 * i * n : (2 * i + 1) * n]] = left
            fn.served[nodes[(2 * i + 1) * n : (2 * i + 2) * n]] = right
            try:
                s.add(t0, mid, left)
                s.add(mid, t1, right)
            except QuadratureFailure:
                continue
            if s.open:
                active.append((fn, s))


def _chunks(items):
    """Lists of at most _CHUNK consecutive items of any iterable, a generator included."""
    items = iter(items)
    while chunk := list(itertools.islice(items, _CHUNK)):
        yield chunk


# (surface, {leg: (re row, err)}, {leg: coeff_fn made by _plan}) of the
# innermost open _leg_memo, or None
_LEG_MEMO: contextvars.ContextVar = contextvars.ContextVar("maxcone_leg_memo", default=None)


@contextlib.contextmanager
def _leg_memo(p: SurfaceParams):
    """Integrate each distinct leg of p once until the with-block ends.

    Inside the block _leg_sums keeps {leg: (re row, err)} for p and
    integrates only the legs it has not seen, and _plan may refine legs for
    it in advance. A leg gives the same bytes alone or in any batch (see
    _leg_coeffs), so every value inside the block is the one it would be
    outside. The memo lives in a ContextVar and is dropped on exit, normal
    or not: no state outlives the call that opened it, so each call does the
    same work whenever it runs.
    """
    token = _LEG_MEMO.set((p, {}, {}))
    try:
        yield
    finally:
        _LEG_MEMO.reset(token)


def _plan(legs, p: SurfaceParams) -> None:
    """Refine legs of p in lockstep now, for the open _leg_memo(p).

    Only the legs neither integrated nor planned there yet are, in chunks.
    _leg_sums replays each through adaptive_leg when a caller asks for it,
    so errors and work counts fall where they would without the plan.
    Outside a memo of p it does nothing.
    """
    scope = _LEG_MEMO.get()
    if scope is None or scope[0] is not p:
        return
    _, memo, planned = scope
    new = [leg for leg in dict.fromkeys(legs) if leg not in memo and leg not in planned]
    for chunk in _chunks(new):
        planned.update(zip(chunk, _leg_coeffs(chunk, p)))


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
    _, memo, planned = scope
    legs = list(legs)
    new = [leg for leg in dict.fromkeys(legs) if leg not in memo]
    memo.update(zip(new, zip(*_integrate_legs(new, p, planned=planned))))
    rows = [memo[leg] for leg in legs]
    return np.array([r for r, _ in rows]).reshape(-1, 3), np.array([e for _, e in rows])


def _integrate_legs(
    legs, p: SurfaceParams, form=phi_from_w, sheets=None, planned=None
) -> tuple[np.ndarray, np.ndarray]:
    """_leg_sums without a memo: every leg integrated, chunk by chunk.

    form, the per-leg sheets and planned are as in _leg_coeffs. adaptive_leg
    integrates the legs of a chunk in order, so the first failing leg
    raises, after the legs before it.
    """
    re, err = [np.zeros((0, 3))], [np.zeros(0)]
    for chunk in _chunks(legs if sheets is None else zip(legs, sheets)):
        chunk_sheets = None
        if sheets is not None:
            chunk, chunk_sheets = zip(*chunk)
        fns = _leg_coeffs(chunk, p, form, chunk_sheets, planned)
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
    legs = _immersion_legs(z, p, basepoint)
    z = complex(z)
    if not legs:
        return ImmersionSample(z=z, f=(0.0, 0.0, 0.0), quad_error=0.0)
    f, err = _running_sum(legs, p, np.zeros(3), 0.0)
    return ImmersionSample(z=z, f=tuple(f[-1]), quad_error=float(err[-1]))


def _immersion_legs(z, p: SurfaceParams, basepoint=None) -> list[_Leg]:
    """immersion's checks, then its route to z; no legs when z is the basepoint."""
    z = _route_end(z, "target")
    if z == 0:
        raise PathThroughSingularity("z = 0 is an end, not a surface point")
    basepoint = _route_end(p.default_basepoint() if basepoint is None else basepoint, "basepoint")
    if basepoint == 0 or (basepoint.imag == 0 and basepoint.real in p.branch_points()):
        raise PathThroughSingularity(f"basepoint {basepoint} is 0 or a branch point, not regular")
    if z == basepoint:
        return []
    c, dist = _nearest_branch_point(z, p)
    if dist == 0.0:
        return _route_to_branch_point(c, p, basepoint)
    if z.imag == 0.0 and p.contains_real(z.real):
        raise PathThroughSingularity(
            f"z={z} lies inside a singular interval; use apex() for its image"
        )
    return _route_legs(z, p, basepoint)


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
    routes = _apex_routes(interval, side, p)
    re, err = _leg_sums([leg for route in routes for leg in route], p)
    ends = np.cumsum([0] + [len(route) for route in routes])
    values = [
        _accumulate(np.zeros(3), 0.0, re[a:b], err[a:b])[0][-1] for a, b in zip(ends, ends[1:])
    ]
    est, resid = _richardson_sqrt(values)
    lo, hi = float(interval[0]), float(interval[1])
    if resid > tol:
        raise NonConvergent(
            f"apex extrapolation residual {resid:g} above tolerance {tol:g} "
            f"for interval [{lo}, {hi}] side {side}"
        )
    # f is defined modulo the period (0, 2pi, 0); report the fundamental
    # representative (x2 matching -Arg of the interval), so below-side
    # approaches to negative-axis intervals agree with the other sides
    # instead of landing one period away
    expected_x2 = -cmath.phase(complex(0.5 * (lo + hi)))
    k = round((est[1] - expected_x2) / (2.0 * math.pi))
    est[1] -= 2.0 * math.pi * k
    return tuple(est), resid


def _apex_routes(interval, side: str, p: SurfaceParams) -> list[list[_Leg]]:
    """apex's checks, then its five routes, from the offset eps0 to eps0 / 16."""
    lo, hi = float(interval[0]), float(interval[1])
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
    if not any(a <= lo < hi <= b for a, b in p.intervals()):
        raise ValueError(f"interval [{lo}, {hi}] is not lo < hi inside one singular interval of p")
    eps0 = 1e-3 * (hi - lo)
    mid = 0.5 * (lo + hi)
    sign = 1.0 if side == "above" else -1.0
    base = p.default_basepoint()
    return [_route_legs(complex(mid, sign * eps0 / 2.0**i), p, base) for i in range(5)]


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
