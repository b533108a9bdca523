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
intervals all live here. f extends continuously to each closed singular
interval and is constant on it, so its along-axis limits are the endpoint
values immersion(lo) and immersion(hi), which the square-root leg
integrates exactly, and its transverse limits are f at the midpoint,
reached by a route whose last arc ends on the axis. The mesh's apex
vertices alone still come from a Richardson extrapolation in sqrt(offset)
over five routes (_apex_ladder).

A panel's integrand values are reduced to its K15 integral and
|K15 - G7| error estimate where they are computed (_sums: _panel_sums
scaled by the panel's half-width, a power of two, so exactly), and
adaptive_leg handles only those two; it asks for them by panel (t0, t1),
so it builds no nodes. One chunk loop, _integrate_rows, integrates rows
of legs in chunks of at most _CHUNK, so any number runs in bounded memory:
the first panels of a chunk are evaluated and reduced in one batch, and
the rows whose first panel is rejected refine in lockstep: each round
splits the worst panel of every open leg under adaptive_leg's rule
(_Refinement) and evaluates all the halves in one kernel call. Then
adaptive_leg runs once per row, in order, and the chunk's sum server
(_SumServer) hands it every sum in the order it asks for them: each
row's first panel, then the halves of that row's splits. Only a row that
refines needs a leg object. The kernels give each point the same bits
whatever the call size, so a leg's result depends neither on the chunk
it falls in nor on the other legs of a round. Lists of legs enter the
loop through _integrate_legs: the routes of immersion and apex, the
mesh's apex ladder, the stadium chain, the loop of loop_period, and the
sheet-tagged loop pieces of minimal, whose omega-triple is passed in as
the form with each piece's sheet as the sign of w. The mesh grid's ring
arcs enter it as rows of ring and angle indices (_ring_arc_sums), their
first-panel points from one table of the grid's angular steps.

User paths, the stadium chain and the loops of minimal become legs
through one function, _polyline_legs, under the rules PathSpec states.

Inside _leg_memo(p), opened by one cone classification, one symmetry
check or one mesh weld check, _leg_sums integrates each distinct leg once
and serves repeats from the memo, with the same bytes; the memo ends with
that call. Each of the three integrates all its routes there first, in
one _leg_sums call, so they share one lockstep, and its apex and
immersion calls then read the memo. Legs that no other route shares,
such as the stadium chain's, go straight to _integrate_legs and skip the
memo's hashing.
"""

from __future__ import annotations

import cmath
import contextlib
import contextvars
import heapq
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import phi_from_w, w_values
from .errors import NonConvergent, PathThroughSingularity, QuadratureFailure
from .params import SurfaceParams, is_real

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
# nodes of a leg's first panel, the bytes _nodes(0.0, 1.0) gives
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
        # exact at both ends: r_a + (r_b - r_a) * t can miss r_b by a rounding
        # of the difference, a gap before the next arc that no estimate sees
        rho = self.r_a * (1.0 - t) + self.r_b * t
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
    results have shapes (..., 3) and (...). Times the panel half-width, a
    power of two and so an exact scaling, they are the panel's K15 integral
    and error estimate (_sums).
    """
    k = vals @ _WK
    return k, np.abs(k - vals[..., _GAUSS_IDX] @ _WG).sum(axis=-1)


def _leg_text(leg: _Leg, t0: float = 0.0, t1: float = 1.0) -> str:
    z_ends = leg.points(np.array([t0, t1]))[0]
    return f"{leg} over t in [{t0:g}, {t1:g}] (z from {z_ends[0]:.17g} to {z_ends[1]:.17g})"


# a leg's first panel: all of t in [0, 1]
_WHOLE = (0.0, 1.0)


class _Refinement:
    """One leg's panels under adaptive_leg's rule, refined one split at a time.

    It holds the heap of panels (largest estimate first, ties to the panel
    made first), the summed estimate and the two limits. adaptive_leg
    drives it through coeff_fn once a leg's first panel is rejected;
    _lockstep drives the rejected legs of a chunk side by side. add raises
    QuadratureFailure on a panel with a non-finite estimate, and split on a
    panel at the width cap or past the panel budget.
    """

    __slots__ = ("leg", "tol", "heap", "err_sum", "made")

    def __init__(self, leg: _Leg, tol: float, first):
        self.leg, self.tol = leg, tol
        self.heap, self.err_sum, self.made = [], 0.0, 0
        self.add(_WHOLE, first)

    @property
    def open(self) -> bool:
        return self.err_sum > self.tol

    def add(self, panel: tuple[float, float], sums) -> None:
        """Push panel (t0, t1) with its coeff_fn sums (K15 integral, error estimate)."""
        k, e = sums
        # a non-finite K15 or G7 sum makes e non-finite; NaN would otherwise
        # slip through the budget test, as nan > tol is False
        if not math.isfinite(e):
            raise QuadratureFailure(f"non-finite integrand on {_leg_text(self.leg, *panel)}")
        heapq.heappush(self.heap, (-e, self.made, panel, k))
        self.made += 1
        self.err_sum += e

    def split(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Pop the worst panel and return its halves, left first."""
        neg_e, _, (t0, t1), _ = heapq.heappop(self.heap)
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
        """The sum of the panels' K15 integrals, in heap order, and the summed estimate."""
        total = np.zeros(3, dtype=complex)
        for *_, k in self.heap:
            total += k
        return total, self.err_sum


def _nodes(t0, t1):
    """The 15 nodes of the panel [t0, t1]; t0 and t1 may be columns of many panels."""
    return 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * _XK


def adaptive_leg(leg: _Leg, coeff_fn, tol: float) -> tuple[np.ndarray, float]:
    """Adaptive G7/K15 over one leg; returns (complex 3-vector, error estimate).

    coeff_fn(panel) takes one panel (t0, t1) of [0, 1] and returns the K15
    integral (3,) of phi(z(t)) z'(t) over it and its error estimate, the
    summed |K15 - G7| difference: _panel_sums of the 15 nodes (_nodes),
    scaled by the half-width (t1 - t0) / 2, a power of two. Each panel is
    exactly one coeff_fn call, so counting the calls counts the panels (the
    benchmark's panel anchor does that). The calls come in a fixed order:
    (0, 1) first, then both halves of each split, left first. So a coeff_fn
    may serve sums computed in advance, in call order, as _SumServer.sums
    does for a chunk of legs. A first panel that meets tol is the result as
    coeff_fn gave it. Otherwise interval halving against a global absolute
    budget: the worst panel is split until the summed estimate drops below
    tol (_Refinement holds the rule). Panel width is capped at 2^-MAX_DEPTH
    and the panel count at MAX_PANELS; hitting either with the budget still
    blown signals a mis-routed path or an integrand the rule cannot resolve,
    and raises QuadratureFailure. So does a panel with a non-finite
    estimate, at once.
    """
    k, e = first = coeff_fn(_WHOLE)
    if e <= tol:
        # most legs end here, so they build no _Refinement (a NaN estimate
        # does not pass)
        return k, e
    state = _Refinement(leg, tol, first)
    while state.open:
        for panel in state.split():
            state.add(panel, coeff_fn(panel))
    return state.result()


class _SumServer:
    """The coeff_fn of every leg of one chunk (its method sums): sums computed
    in advance, served in call order.

    firsts holds each leg's first-panel sums, and queues maps the index of
    each leg that refines to the (panel, sums) of both halves of each of its
    _lockstep splits, left first. adaptive_leg, run on the legs in order,
    asks for exactly these: a leg's first panel (0, 1), then the leg's
    queue. A call that is not the next one, a first panel asked while the
    previous leg still holds halves, and close() with sums left raise
    RuntimeError, a defect of the hand-off: no leg is ever given another
    leg's sums.
    """

    __slots__ = ("firsts", "served", "queues", "queue")

    def __init__(self, k: np.ndarray, e: list):
        self.firsts = list(zip(k, e))
        self.served = 0
        self.queues: dict[int, list] = {}
        self.queue = None

    def sums(self, panel):
        """coeff_fn: the sums of panel, the next one adaptive_leg asks for."""
        if panel == _WHOLE:
            i = self.served
            if self.queue or i == len(self.firsts):
                raise RuntimeError(
                    f"sum server of {len(self.firsts)} legs asked for a first panel after {i} "
                    f"legs, with {len(self.queue or ())} halves of the last one left"
                )
            self.served = i + 1
            if self.queues:
                self.queue = self.queues.pop(i, None)
            return self.firsts[i]
        if not self.queue or self.queue[0][0] != panel:
            raise RuntimeError(f"sum server holds no sums for panel {panel} of leg {self.served - 1}")
        return self.queue.pop(0)[1]

    def close(self) -> None:
        """Raise RuntimeError unless every sum was served."""
        if self.queue or self.queues or self.served != len(self.firsts):
            raise RuntimeError(
                f"sum server of {len(self.firsts)} legs closed after {self.served} legs, "
                f"with the halves of {len(self.queues) + bool(self.queue)} refined legs left"
            )


def _sums(z: np.ndarray, dz: np.ndarray, half, p: SurfaceParams, form, sheet):
    """coeff_fn sums of the panels with nodes at z, (..., 15), and half-widths half.

    The integrand is reduced as one contiguous (..., 3, 15) array, so each
    panel gets its 15-node call's _panel_sums bytes, then scaled by half (a
    float, or one per panel). A node on a branch point divides by w = 0
    (adaptive_leg raises on the non-finite sums), so the caller ignores
    divide and invalid errors: _integrate_rows for its whole chunk.
    """
    vals = form(z, _branch(z, p, sheet)) * dz
    k, d = _panel_sums(np.ascontiguousarray(vals.swapaxes(0, -2)))
    return k * np.expand_dims(half, -1), d * half


def _branch(z: np.ndarray, p: SurfaceParams, sheet) -> np.ndarray:
    """w_values(z, p), times sheet (a scalar or a column of +-1) when given."""
    w = w_values(z, p)
    return w if sheet is None else sheet * w


def _first_points(legs) -> tuple[np.ndarray, np.ndarray]:
    """(z, dz/dt) at the first-panel nodes of K legs, (K, 15) each, as leg.points gives them."""
    if {type(leg) for leg in legs} == {SegmentLeg}:
        # the stadium chain and the loop pieces of minimal: SegmentLeg.points over all legs
        za, zb = np.array([(leg.z_a, leg.z_b) for leg in legs], dtype=complex).T[..., None]
        dz = zb - za
        return za + dz * _T_FIRST, np.broadcast_to(dz, (len(legs), _T_FIRST.size))
    z, dz = zip(*(leg.points(_T_FIRST) for leg in legs))
    return np.stack(z), np.stack(dz)


def _lockstep(active, queues: dict, p: SurfaceParams, form, sheets) -> None:
    """Refine legs side by side, queueing both halves of each split.

    active holds an (index in the chunk, _Refinement) pair per open leg;
    each split's halves go to queues[index] as (panel, sums), left first.
    Each round splits the worst panel of every open leg, as adaptive_leg
    does, and evaluates all the halves in one kernel call. A leg leaves on
    meeting its budget or on a failure, which raises nothing here:
    adaptive_leg meets it again when it replays the leg, and raises it there.
    """
    while active:
        split = []
        for i, s in active:
            try:
                split.append((i, s, s.split()))
            except QuadratureFailure:
                pass
        if not split:
            return
        # (K, 2) ends of both halves of each split, and their (K, 2, 15) nodes
        t0, t1 = np.array([halves for _, _, halves in split]).transpose(2, 0, 1)
        t = _nodes(t0[..., None], t1[..., None])
        z, dz = map(np.concatenate, zip(*(s.leg.points(ts) for (_, s, _), ts in zip(split, t))))
        sheet = None
        if sheets is not None:
            sheet = np.repeat([sheets[i] for i, _, _ in split], 2)[:, None]
        k, e = _sums(z, dz, 0.5 * (t1 - t0).ravel(), p, form, sheet)
        sums = list(zip(k, e.tolist()))
        active = []
        for (i, s, (left, right)), left_sums, right_sums in zip(split, sums[::2], sums[1::2]):
            queues.setdefault(i, []).extend(((left, left_sums), (right, right_sums)))
            try:
                s.add(left, left_sums)
                s.add(right, right_sums)
            except QuadratureFailure:
                continue
            if s.open:
                active.append((i, s))


# (surface, {leg: (re row, err)}) of the innermost open _leg_memo, or None
_LEG_MEMO: contextvars.ContextVar = contextvars.ContextVar("maxcone_leg_memo", default=None)


@contextlib.contextmanager
def _leg_memo(p: SurfaceParams):
    """Integrate each distinct leg of p once until the with-block ends.

    Inside the block _leg_sums keeps {leg: (re row, err)} for p and
    integrates only the legs it has not seen. A leg gives the same bytes
    alone or in any batch (see _integrate_rows), so every value inside the
    block is the one it would be outside. The memo lives in a ContextVar and
    is dropped on exit, normal or not: no state outlives the call that
    opened it, so each call does the same work whenever it runs.
    """
    token = _LEG_MEMO.set((p, {}))
    try:
        yield
    finally:
        _LEG_MEMO.reset(token)


def _leg_sums(legs: list, p: SurfaceParams) -> tuple[np.ndarray, np.ndarray]:
    """Re-integrals (N, 3) and error estimates (N,) of a list of legs, each
    integrated alone; inside _leg_memo(p) only the legs not yet integrated
    there are, in order of first appearance, and every row comes from the memo.
    """
    scope = _LEG_MEMO.get()
    if scope is None or scope[0] is not p:
        return _integrate_legs(legs, p)
    memo = scope[1]
    new = [leg for leg in dict.fromkeys(legs) if leg not in memo]
    memo.update(zip(new, zip(*_integrate_legs(new, p))))
    rows = [memo[leg] for leg in legs]
    return np.array([r for r, _ in rows]).reshape(-1, 3), np.array([e for _, e in rows])


def _integrate_rows(n: int, first_points, chunk_legs, p: SurfaceParams, form=phi_from_w,
                    sheets=None) -> tuple[np.ndarray, np.ndarray]:
    """Re-integrals (n, 3) and error estimates (n,) of n rows, each a leg
    integrated alone: the one chunk loop of the quadrature.

    Per chunk of at most _CHUNK rows (rows, a slice), first_points(rows)
    gives their first-panel (z, dz/dt), (K, 15) each, as leg.points gives
    them, and one batch their sums, each panel's the bits of its own
    15-node call (see _sums). form is phi_from_w unless minimal passes its
    omega-triple, with sheets, each row's sign of w (+1 or -1: the leg's
    branch), entering as a (K, 1) column. chunk_legs(rows, rejected) gives
    the chunk's legs, of which only the rejected rows (first panel rejected
    or non-finite) must be legs: they refine in lockstep (_lockstep).
    adaptive_leg then runs once per row, in order, served by the chunk's
    _SumServer, so the first failing leg raises after the rows before it; a
    row it accepts at its first panel keeps its batch row, the values
    adaptive_leg returns for it.
    """
    re, err = np.empty((n, 3)), np.empty(n)
    for s in range(0, n, _CHUNK):
        rows = slice(s, s + _CHUNK)
        signs = None if sheets is None else sheets[rows]
        column = None if signs is None else np.array(signs)[:, None]
        # one errstate for the whole chunk (see _sums)
        with np.errstate(divide="ignore", invalid="ignore"):
            k, e = _sums(*first_points(rows), 0.5, p, form, column)
            server = _SumServer(k, e.tolist())
            # a row whose first estimate meets the budget has nothing to
            # refine (adaptive_leg accepts it at once), and a non-finite one
            # fails at once
            rejected = np.flatnonzero(~(e <= DEFAULT_SEGMENT_TOL)).tolist()
            legs = chunk_legs(rows, rejected)
            active = []
            for i in rejected:
                with contextlib.suppress(QuadratureFailure):
                    active.append((i, _Refinement(legs[i], DEFAULT_SEGMENT_TOL, server.firsts[i])))
            _lockstep(active, server.queues, p, form, signs)
        sums = server.sums
        out = [adaptive_leg(leg, sums, DEFAULT_SEGMENT_TOL) for leg in legs]
        server.close()
        re[rows], err[rows] = k.real, e
        for i in rejected:
            re[s + i], err[s + i] = out[i][0].real, out[i][1]
    return re, err


def _integrate_legs(legs: list, p: SurfaceParams, form=phi_from_w, sheets=None):
    """_leg_sums without a memo: _integrate_rows of the legs, form and sheets as there."""
    return _integrate_rows(len(legs), lambda rows: _first_points(legs[rows]),
                           lambda rows, _: legs[rows], p, form, sheets)


def _arc_table(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(1j * theta) at the first-panel nodes of each step between
    consecutive angles of thetas, (2A - 2, 15), and the step's
    1j * (theta_b - theta_a), (2A - 2, 1).

    Step 2j runs from thetas[j] to thetas[j + 1] and step 2j + 1 back. These
    are the operations ArcLeg.points applies, so an arc of any radius along
    a step gets its first-panel bytes from the table (_arc_points).
    """
    ta = np.stack([thetas[:-1], thetas[1:]], axis=1).reshape(-1, 1)
    tb = np.stack([thetas[1:], thetas[:-1]], axis=1).reshape(-1, 1)
    return np.exp(1j * (ta + (tb - ta) * _T_FIRST)), 1j * (tb - ta)


def _arc_points(table, r: np.ndarray, j_from: np.ndarray, j_to: np.ndarray):
    """(z, dz/dt) at the first-panel nodes of the arcs ArcLeg(r[k],
    thetas[j_from[k]], thetas[j_to[k]]), (K, 15) each, as ArcLeg.points
    gives them; table is _arc_table(thetas), and |j_to - j_from| = 1."""
    nodes, turn = table
    step = 2 * np.minimum(j_from, j_to) + (j_from > j_to)
    z = r[:, None] * nodes[step]
    return z, turn[step] * z


def _ring_arc_sums(radii, thetas, ring, j_from, j_to, p: SurfaceParams):
    """_leg_sums of the ring arcs ArcLeg(radii[ring[k]], thetas[j_from[k]],
    thetas[j_to[k]]), k < N, between consecutive angles, with the same bytes.

    The arcs enter _integrate_rows as rows of index arrays: their
    first-panel points come from one angular table for all rings
    (_arc_points), and only an arc whose first panel is rejected becomes an
    ArcLeg, the leg its refinement and failure text need. adaptive_leg is
    handed None for every other arc, which it accepts at its first panel.
    """
    table, r = _arc_table(thetas), radii[ring]

    def first_points(rows):
        return _arc_points(table, r[rows], j_from[rows], j_to[rows])

    def arcs(rows, rejected):
        legs = [None] * len(r[rows])
        for i in rejected:
            k = rows.start + i
            legs[i] = ArcLeg(float(r[k]), float(thetas[j_from[k]]), float(thetas[j_to[k]]))
        return legs

    return _integrate_rows(len(r), first_points, arcs, p)


def _accumulate(f0, e0: float, re: np.ndarray, err: np.ndarray):
    """Running sums from (f0, e0) over per-leg rows, one leg at a time in order."""
    f = np.cumsum(np.vstack([np.asarray(f0, dtype=float), re]), axis=0)
    e = np.cumsum(np.concatenate([[float(e0)], err]))
    return f[1:], e[1:]


def _path_values(paths, p: SurfaceParams) -> list[np.ndarray]:
    """The integral over each path (a list of legs) from 0, one _leg_sums batch for all.

    Each path sums its own legs in order, as immersion and integrate_path
    do, so each value is their bytes.
    """
    re, err = _leg_sums([leg for legs in paths for leg in legs], p)
    ends = np.cumsum([0] + [len(legs) for legs in paths])
    return [
        _accumulate(np.zeros(3), 0.0, re[a:b], err[a:b])[0][-1] for a, b in zip(ends, ends[1:])
    ]


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


def _route_legs(z: complex, p: SurfaceParams, basepoint: complex, hemi=None) -> list[_Leg]:
    """Arc/radial route from the basepoint to z.

    Standard route: arc at |z0| from Arg(z0) to hemi, radial to |z|, arc to
    Arg(z). hemi is +-pi/2, by default the sign of Arg(z); apex passes it to
    pick the half-plane of a point on the real axis. The route crosses the
    real axis only at its endpoints, so it never meets a singular interval;
    the accumulated angle equals Arg(z) - Arg(z0).
    """
    r0, th0 = abs(basepoint), cmath.phase(basepoint)
    r1, th1 = abs(z), cmath.phase(z)
    if hemi is None:
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
    """z as a complex a route can reach: finite, and 2 pi |z| (so every arc's dz) finite.

    z must be a real or complex number and not a bool (numpy scalars
    included), else ValueError: complex() would read the string '3' as 3
    and True as the branch point 1.
    """
    if isinstance(z, bool) or not isinstance(z, numbers.Complex):
        raise ValueError(f"{what} must be a real or complex number, got {z!r}")
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
    real or complex number (a bool, a string, None) raises ValueError; one
    that is not finite or whose 2 pi |z| overflows (see _route_end), and a
    basepoint at 0 or on a branch point, raise PathThroughSingularity. Both
    are raised before any quadrature.
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


def _immersion_routes(points, p: SurfaceParams) -> list[_Leg]:
    """The legs of immersion's routes from the origin to points, in order.

    A point whose route raises is left out, so that its immersion call
    raises in its turn.
    """
    legs = []
    for z in points:
        with contextlib.suppress(PathThroughSingularity, ValueError):
            legs += _immersion_legs(z, p)
    return legs


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
    # once per call: a set of the branch points (a complex equal to one
    # hashes as it does) and the sorted intervals of p.contains_real
    bps, ivs = frozenset(p.branch_points()), p.intervals()

    def on_interval(x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in ivs)

    for i, z in enumerate(waypoints):
        if z == 0:
            raise PathThroughSingularity("path touches the puncture z = 0")
        end = not flip and i in (0, len(waypoints) - 1) and z in bps
        if z.imag == 0 and on_interval(z.real) and not end:
            raise PathThroughSingularity(f"waypoint {z} lies on a singular interval")
    out, sheet = [], 1
    for u, v in zip(waypoints, waypoints[1:]):
        pieces = [(u, v, sheet)]
        if u.imag == 0 and v.imag == 0:
            lo, hi = sorted((u.real, v.real))
            if lo < 0 < hi:
                raise PathThroughSingularity(f"segment from {u} to {v} passes through z = 0")
            for a, b in ivs:
                if max(lo, a) < min(hi, b):
                    raise PathThroughSingularity(
                        f"segment from {u} to {v} overlaps singular interval [{a}, {b}]"
                    )
        elif u.imag < 0 < v.imag or v.imag < 0 < u.imag:
            t = u.imag / (u.imag - v.imag)
            x = u + t * (v - u)
            inside = on_interval(x.real)
            if x.real == 0 or x.real in bps or (inside and not flip):
                raise PathThroughSingularity(
                    f"segment from {u} to {v} crosses the real axis at the singular point x={x.real}"
                )
            if inside:
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


_ENDS = (0, math.inf)


def loop_period(center, p: SurfaceParams) -> PeriodVector:
    """Re of the closed loop integral around one end.

    center is 0 or math.inf, the two ends; anything else (another number,
    -inf, NaN, None, a string, a bool) raises ValueError. center = 0
    integrates counterclockwise around the puncture at 0 on the circle of
    half the innermost branch-point radius; center = inf integrates
    counterclockwise as seen from infinity (clockwise in the plane) on the
    circle of twice the outermost branch-point radius.
    """
    if isinstance(center, bool) or not isinstance(center, numbers.Real) or center not in _ENDS:
        raise ValueError(f"center must be one of {_ENDS}, got {center!r}")
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

    f is immersion(z, p), integrated from the fixed origin a_{2m} + 1; it
    extends continuously to the closed interval and is constant there. The
    limit is f at the interval midpoint, reached by one arc/radial/arc
    route whose radial leg lies in the side's half-plane and whose last arc
    ends on the axis. The interval must be a finite lo < hi inside one
    closed singular interval of p, and tol a finite real > 0, else
    ValueError before any quadrature. Returns (apex, the route's summed
    quadrature error estimate); raises NonConvergent when the estimate
    exceeds tol. Inside singular.classify_cone's _leg_memo the route's
    opening quarter arc, shared with the other limits' routes, is
    integrated once per classification.
    """
    if not (is_real(tol) and tol > 0):
        raise ValueError(f"tol must be a finite real > 0, got {tol!r}")
    f, err = _running_sum(_apex_legs(interval, side, p), p, np.zeros(3), 0.0)
    lo, hi = float(interval[0]), float(interval[1])
    if err[-1] > tol:
        raise NonConvergent(
            f"apex quadrature error estimate {err[-1]:g} above tolerance {tol:g} "
            f"for interval [{lo}, {hi}] side {side}"
        )
    return _fundamental(f[-1], 0.5 * (lo + hi)), float(err[-1])


def _apex_legs(interval, side: str, p: SurfaceParams) -> list[_Leg]:
    """apex's checks, then its route onto the midpoint through the side's half-plane."""
    lo, hi = float(interval[0]), float(interval[1])
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
    if not any(a <= lo < hi <= b for a, b in p.intervals()):
        raise ValueError(f"interval [{lo}, {hi}] is not lo < hi inside one singular interval of p")
    sign = 1.0 if side == "above" else -1.0
    # the signed zero gives a negative midpoint the angle +-pi of its side,
    # so the last arc stays in that half-plane
    mid = complex(0.5 * (lo + hi), math.copysign(0.0, sign))
    return _route_legs(mid, p, p.default_basepoint(), hemi=sign * math.pi / 2)


def _fundamental(est: np.ndarray, mid: float) -> tuple[float, float, float]:
    """est with x2 moved by a multiple of 2 pi to -Arg(mid).

    f is defined modulo the period (0, 2pi, 0); this is the fundamental
    representative, so below-side approaches to negative-axis intervals
    agree with the other sides instead of landing one period away.
    """
    expected_x2 = -cmath.phase(complex(mid))
    est = np.array(est, dtype=float)
    est[1] -= 2.0 * math.pi * round((est[1] - expected_x2) / (2.0 * math.pi))
    return tuple(est)


def _apex_ladder(interval, p: SurfaceParams) -> tuple[tuple[float, float, float], float]:
    """The mesh's apex vertex: the limit from above by a Richardson ladder.

    f is sampled above the midpoint at offsets 1e-3 * length / 2^i, i < 5,
    on immersion's routes in one _leg_sums batch, and extrapolated in
    sqrt(offset). Returns (value, residual); raises NonConvergent above
    1e-6. Only mesh.sample_fundamental calls it, as the benchmark's README
    grid anchor counts these legs; it is less accurate than apex (ROADMAP
    item 16 replaces it).
    """
    lo, hi = float(interval[0]), float(interval[1])
    eps0 = 1e-3 * (hi - lo)
    mid = 0.5 * (lo + hi)
    base = p.default_basepoint()
    routes = [_route_legs(complex(mid, eps0 / 2.0**i), p, base) for i in range(5)]
    est, resid = _richardson_sqrt(_path_values(routes, p))
    if resid > 1e-6:
        raise NonConvergent(
            f"apex extrapolation residual {resid:g} above tolerance 1e-06 "
            f"for interval [{lo}, {hi}] side above"
        )
    return _fundamental(est, mid), resid


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
