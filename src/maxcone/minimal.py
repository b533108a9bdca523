"""Doubly periodic minimal-surface data on the same algebraic curve.

Two orientations of the omega-triple are carried:

  vertical-ends:    ((1/2)(1/w - w), (i/2)(1/w + w), 1) dz/z,  G = w, dh = dz/z
  horizontal-ends:  ((i/2)(1/w + w), 1, (1/2)(1/w - w)) dz/z

The horizontal triple relates to the maximal-surface forms by
(phi1, phi2, phi3) = (i omega1, i omega2, omega3). Periods are only
measured, never solved: closed loops on the curve are integrated with sheet
tracking across the branch cuts (the singular intervals), and the resulting
vectors are reported so the distance to a genuine horizontal period lattice
can be inspected. A loop obeys the polyline rules of integrate.PathSpec,
the ones a maximal-surface path obeys; only a crossing inside a cut
differs: here it changes sheet. The loop's sheet-tagged pieces go through
the chunk loop of the maximal-surface legs (integrate._integrate_legs):
batched first panels with each piece's sheet as the sign of w, lockstep
rounds, and one sum server per chunk, from which each piece's own
adaptive_leg call takes its panels' scaled K15 sums, so each piece is
still integrated to the same tolerance, with the bytes it has alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import core
from .errors import NotClosedOnCurve, OrderingInfeasible, SignDomain
from .integrate import PathSpec, _accumulate, _integrate_legs, _polyline_legs
from .integrate import adaptive_leg  # noqa: F401  the benchmark's span tracer wraps this binding
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
    table = p.signed_intervals()
    if any(s != 1 for _, _, s in table):
        raise SignDomain("b_{2n} normalization is defined for the all-plus sign pattern")
    factor = 1.0
    for lo, hi, _ in table[:-1]:
        factor *= hi / lo
    b2n_1 = table[-1][1]
    b2n = factor * b2n_1
    if not b2n < b2n_1:
        raise OrderingInfeasible(f"solved b_2n = {b2n} is not below b_2n-1 = {b2n_1}")
    return replace(p, b=p.b[:-1] + (b2n,))


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


def measure_period(loop, d: MinimalData) -> tuple[tuple[float, float, float], float]:
    """Re of the omega-triple integral over a closed loop on the curve.

    `loop` is a PathSpec or a waypoint sequence, which is made one; it is
    closed if the last waypoint equals the first (the closing edge is
    appended otherwise). The loop obeys PathSpec's rules and raises
    PathThroughSingularity before any quadrature when it breaks one. A
    segment crossing a branch cut (a singular interval) is split there and
    continues on the other sheet; loops crossing an odd number of cuts do
    not close on the curve and raise NotClosedOnCurve. Returns (vector,
    error estimate).
    """
    if not isinstance(loop, PathSpec):
        loop = PathSpec(loop)
    pts = list(loop.waypoints)
    if pts[0] != pts[-1]:
        pts.append(pts[0])
    p = d.params
    legs, sheets, final_sheet = _polyline_legs(pts, p, cuts="flip")
    if final_sheet != 1:
        raise NotClosedOnCurve(
            "loop crosses an odd number of branch cuts; it ends on the other sheet"
        )
    form = functools.partial(omega_from_w, orientation=d.orientation)
    # each piece's sheet is the sign of w; the pieces are added one at a time
    f, err = _accumulate(np.zeros(3), 0.0, *_integrate_legs(legs, p, form, sheets))
    return tuple(f[-1]), float(err[-1])


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
