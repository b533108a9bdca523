"""Doubly periodic minimal-surface data on the same algebraic curve.

Two orientations of the omega-triple are carried:

  vertical-ends:    ((1/2)(1/w - w), (i/2)(1/w + w), 1) dz/z,  G = w, dh = dz/z
  horizontal-ends:  ((i/2)(1/w + w), 1, (1/2)(1/w - w)) dz/z

The horizontal triple relates to the maximal-surface forms by
(phi1, phi2, phi3) = (i omega1, i omega2, omega3). Periods are only
measured, never solved: closed loops on the curve are integrated with sheet
tracking across the branch cuts (the singular intervals), and the resulting
vectors are reported so the distance to a genuine horizontal period lattice
can be inspected. The pieces of a loop stream through the same batched
first panels as the maximal-surface legs (integrate._leg_coeffs), each
piece still integrated to the same tolerance by its own adaptive_leg call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import NotClosedOnCurve, OrderingInfeasible, PathThroughSingularity, SignDomain
from .integrate import (
    DEFAULT_SEGMENT_TOL,
    PathSpec,
    SegmentLeg,
    _chunks,
    _leg_coeffs,
    adaptive_leg,
)
from .params import SurfaceParams

ORIENTATIONS = ("vertical-ends", "horizontal-ends")


@dataclass(frozen=True)
class MinimalData:
    """Shared-curve minimal surface data with an end orientation."""

    params: SurfaceParams
    orientation: str = "vertical-ends"

    def __post_init__(self):
        if self.orientation not in ORIENTATIONS:
            raise SignDomain(
                f"orientation must be one of {ORIENTATIONS}, got {self.orientation!r}"
            )


@dataclass(frozen=True)
class PeriodLattice:
    """Measured loop periods with per-vector horizontality flags."""

    measured_loops: tuple[tuple[str, tuple[float, float, float]], ...]
    horizontal: tuple[bool, ...]
    genus: int

    def to_dict(self) -> dict:
        return {
            "genus": self.genus,
            "loops": [
                {"loop": name, "re_period": list(v), "horizontal": h}
                for (name, v), h in zip(self.measured_loops, self.horizontal)
            ],
        }


def b2n_normalize(p: SurfaceParams) -> SurfaceParams:
    """Replace b_{2n} by the closed-form value forcing G(0) = w(0) = 1.

    Defined for the all-plus sign pattern (every alpha_k = beta_k = +1) with
    n >= 1; the solved b_{2n} must stay below b_{2n-1}, otherwise
    OrderingInfeasible is raised.
    """
    if p.n < 1:
        raise SignDomain("b_{2n} normalization needs n >= 1")
    if any(s != 1 for s in p.alpha) or any(s != 1 for s in p.beta):
        raise SignDomain("b_{2n} normalization is defined for the all-plus sign pattern")
    factor = 1.0
    for k in range(p.m):
        factor *= p.a[2 * k + 1] / p.a[2 * k]
    for k in range(p.n - 1):
        factor *= p.b[2 * k] / p.b[2 * k + 1]
    b2n = factor * p.b[2 * p.n - 2]  # b_{2n-1} times the product
    if not b2n < p.b[2 * p.n - 2]:
        raise OrderingInfeasible(
            f"solved b_2n = {b2n} is not below b_2n-1 = {p.b[2 * p.n - 2]}"
        )
    b = p.b[:-1] + (b2n,)
    return SurfaceParams(m=p.m, n=p.n, a=p.a, b=b, alpha=p.alpha, beta=p.beta)


def omega_from_w(z: np.ndarray, w: np.ndarray, orientation: str) -> np.ndarray:
    """Omega-triple coefficients (3, N) from branch values."""
    inv = 1.0 / w
    out = np.empty((3, *np.shape(z)), dtype=complex)
    diff, plus, one = (0, 1, 2) if orientation == "vertical-ends" else (2, 0, 1)
    np.divide(0.5 * (inv - w), z, out=out[diff, ...])
    np.divide(0.5j * (inv + w), z, out=out[plus, ...])
    np.divide(np.ones_like(z), z, out=out[one, ...])
    return out


def omega(z: complex, d: MinimalData) -> tuple[complex, complex, complex]:
    """Omega-triple coefficients at one point (w on the Re w >= 0 sheet)."""
    z = complex(z)
    w = core.branch_w(z, d.params).w
    c = omega_from_w(np.asarray([z]), np.asarray([w]), d.orientation)[:, 0]
    return complex(c[0]), complex(c[1]), complex(c[2])


def _cut_crossing(u: complex, v: complex, p: SurfaceParams) -> float | None:
    """Real-axis crossing of segment (u, v) inside a branch cut, if any.

    Returns the crossing parameter t in (0, 1), or None. Crossing at a
    branch point or interval endpoint is rejected.
    """
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


def _sheet_split_segments(waypoints, p: SurfaceParams):
    """Split a polyline at cut crossings, tagging each piece with its sheet.

    Sheet +1 is the Re w >= 0 branch; crossing a cut moves to the analytic
    continuation -w. Returns (pieces, final_sheet) with pieces as
    (z_from, z_to, sheet).
    """
    pieces = []
    sheet = 1
    for u, v in zip(waypoints, waypoints[1:]):
        u, v = complex(u), complex(v)
        t = _cut_crossing(u, v, p)
        if t is None:
            pieces.append((u, v, sheet))
            continue
        x = u + t * (v - u)
        pieces.append((u, x, sheet))
        sheet = -sheet
        pieces.append((x, v, sheet))
    return pieces, sheet


def measure_period(loop, d: MinimalData) -> tuple[tuple[float, float, float], float]:
    """Re of the omega-triple integral over a closed loop on the curve.

    `loop` is a PathSpec or waypoint sequence; it is closed if the last
    waypoint equals the first (the closing edge is appended otherwise).
    Loops crossing an odd number of branch cuts do not close on the curve
    and raise NotClosedOnCurve. Returns (vector, error estimate).
    """
    if isinstance(loop, PathSpec):
        pts = list(loop.waypoints)
    else:
        pts = [complex(z) for z in loop]
    if pts[0] != pts[-1]:
        pts.append(pts[0])
    p = d.params
    for z in pts:
        if z == 0:
            raise PathThroughSingularity("loop touches the puncture z = 0")
        if z.imag == 0 and p.contains_real(z.real):
            raise PathThroughSingularity(f"waypoint {z} lies on a branch cut")
    pieces, final_sheet = _sheet_split_segments(pts, p)
    if final_sheet != 1:
        raise NotClosedOnCurve(
            "loop crosses an odd number of branch cuts; it ends on the other sheet"
        )
    form = functools.partial(omega_from_w, orientation=d.orientation)
    total = np.zeros(3, dtype=complex)
    err = 0.0
    # the first panels of a chunk of pieces are evaluated in one batch, with
    # each piece's sheet as the sign of w; split panels one at a time
    for chunk in _chunks((a, b, sheet) for a, b, sheet in pieces if a != b):
        legs = [SegmentLeg(z_a=a, z_b=b) for a, b, _ in chunk]
        fns = _leg_coeffs(legs, p, form, sheets=[sheet for _, _, sheet in chunk])
        for leg, fn in zip(legs, fns):
            v, e = adaptive_leg(leg, fn, DEFAULT_SEGMENT_TOL)
            total += v
            err += e
    return tuple(total.real), err


# vertex angles of the 64-sided loop polygons
_LOOP_THETAS = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)


def end_loop_waypoints(p: SurfaceParams) -> list[complex]:
    """Polygonal counterclockwise loop around z = 0 inside the branch points."""
    r = 0.5 * p.inner_radius()
    return [complex(r * math.cos(t), r * math.sin(t)) for t in _LOOP_THETAS]


def handle_loop_waypoints(p: SurfaceParams, lo: float, hi: float) -> list[complex]:
    """Polygonal loop around one singular interval (an even-crossing cycle).

    The loop stays clear of neighboring branch points, crosses the real axis
    only in the gaps outside [lo, hi], and therefore closes on the curve
    without changing sheet.
    """
    cx = 0.5 * (lo + hi)
    others = [c for c in p.branch_points() if not (lo <= c <= hi)] + [0.0]
    clearance = min(abs(c - x) for c in others for x in (lo, hi))
    rx = 0.5 * (hi - lo) + 0.5 * clearance
    ry = 0.5 * clearance
    return [complex(cx + rx * math.cos(t), ry * math.sin(t)) for t in _LOOP_THETAS]


def end_loop_residue(d: MinimalData) -> tuple[float, float, float]:
    """Closed-form Re period of the counterclockwise end loop at z = 0.

    Residues at 0 of the omega coefficients use w(0) > 0; the real part of
    2 pi i times a real residue vanishes, so only components with imaginary
    residue survive.
    """
    w0 = core.end_value_w0(d.params)
    if d.orientation == "vertical-ends":
        res = np.array([0.5 * (1.0 / w0 - w0), 0.5j * (1.0 / w0 + w0), 1.0], dtype=complex)
    else:
        res = np.array([0.5j * (1.0 / w0 + w0), 1.0, 0.5 * (1.0 / w0 - w0)], dtype=complex)
    return tuple((2.0j * math.pi * res).real)


def standard_loops(d: MinimalData) -> PeriodLattice:
    """Measure the end loop at 0 and one handle loop per singular interval.

    A loop counts as horizontal when its x3 period is at most 1e-8, the
    integrated rung of the tolerance ladder.
    """
    p = d.params
    loops = [("end_0", end_loop_waypoints(p))]
    comps = sorted(p.intervals())
    for i, (lo, hi) in enumerate(comps):
        loops.append((f"handle_{i + 1}", handle_loop_waypoints(p, lo, hi)))
    measured = []
    flags = []
    for name, wps in loops:
        v, _ = measure_period(wps, d)
        measured.append((name, v))
        flags.append(abs(v[2]) <= 1e-8)
    return PeriodLattice(
        measured_loops=tuple(measured),
        horizontal=tuple(flags),
        genus=p.m + p.n - 1,
    )
