"""Algebraic layer of the Weierstrass data.

Evaluates w^2 (a rational product over the branch points), the square-root
branch with Re w >= 0, the Gauss map G = (1 + w)/(1 - w), the holomorphic
form coefficients (phi1, phi2, phi3)/dz, the conformal metric factor, and
the Hopf differential coefficient. Everything here is pointwise, pure, and
deterministic; array-valued helpers carry the hot path for the integrator.
G and dh are formed in one place, `weierstrass_data`, which every scalar
helper and the other modules call; the non-degeneracy ratio dG/(G dh) has
the rational closed form `dg_over_gdh`, with no branch choice and no finite
difference.

Branch convention: w is the principal square root re-selected so Re w >= 0,
with Im w >= 0 breaking ties on the singular intervals. On this domain that
branch is continuous off the singular intervals; the test suite verifies
continuity rather than assuming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import BranchPointEvaluation, DegenerateGauss, Infeasible, OrderingViolation
from .params import SurfaceParams

INF = complex(math.inf, 0.0)


def is_infinite(w: complex) -> bool:
    return math.isinf(w.real) or math.isinf(w.imag)


@dataclass(frozen=True)
class BranchedValue:
    """A domain point with its branch-resolved square root (Re w >= 0)."""

    z: complex
    w: complex


@dataclass(frozen=True)
class FormTriple:
    """Coefficients of (phi1, phi2, phi3) with respect to dz at one point."""

    phi1: complex
    phi2: complex
    phi3: complex


@dataclass(frozen=True)
class GaussValue:
    """Gauss map value G (possibly inf) and the normalized Gauss vector."""

    G: complex
    nu: tuple[float, float, float]


@lru_cache(maxsize=256)
def _signed_roots(p: SurfaceParams) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(num_roots, den_roots) of the w^2 product: the zero and the pole of
    each row of p.signed_intervals(), m + n Python floats each."""
    rows = p.signed_intervals()
    num = tuple(hi if s == 1 else lo for lo, hi, s in rows)
    return num, tuple(lo if s == 1 else hi for lo, hi, s in rows)


def w2_values(z: np.ndarray, p: SurfaceParams) -> np.ndarray:
    """Vectorized w^2; denominator roots map to complex infinity.

    Multiplies and divides factor by factor. A node on a denominator root
    divides by zero there, and only then is the pole mask built, so the
    common all-finite case costs four array operations per factor.
    """
    z = np.asarray(z, dtype=complex)
    num, den = _signed_roots(p)
    out = np.ones_like(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        for nr, dr in zip(num, den):
            # z - nr is named so that numpy cannot reuse the temporary as the
            # product's output (it does on large arrays, swapping operands,
            # and its complex product is not bitwise commutative); not in
            # place either, which rounds one-element arrays differently
            zn = z - nr
            out = out * zn
            out /= z - dr
    if not np.isfinite(out).all():
        pole = z == den[0]
        for dr in den[1:]:
            pole |= z == dr
        out = np.where(pole, INF, out)
    return out


def w_values(z: np.ndarray, p: SurfaceParams) -> np.ndarray:
    """Vectorized branch-resolved w with Re w >= 0 (ties: Im w >= 0)."""
    w2 = w2_values(z, p)
    finite = np.isfinite(w2)
    all_finite = finite.all()
    w = np.sqrt(w2 if all_finite else np.where(finite, w2, 1.0))
    # principal sqrt already has Re >= 0; fix the Im < 0 edge on the cut
    on_cut = w.real == 0.0
    if on_cut.any():
        w = np.where(on_cut & (w.imag < 0.0), -w, w)
    return w if all_finite else np.where(finite, w, INF)


def w_squared(z: complex, p: SurfaceParams) -> complex:
    """w^2 at a point; returns complex infinity at denominator roots.

    z = complex infinity is accepted and yields 1 (every factor tends to 1).
    """
    if is_infinite(complex(z)):
        return 1.0 + 0.0j
    return complex(w2_values(np.asarray([z]), p)[0])


def branch_w(z: complex, p: SurfaceParams) -> BranchedValue:
    """Branch-resolved square root of w^2 at z, Re w >= 0."""
    z = complex(z)
    if is_infinite(z):
        return BranchedValue(z=z, w=1.0 + 0.0j)
    return BranchedValue(z=z, w=complex(w_values(np.asarray([z]), p)[0]))


def weierstrass_data(z, p: SurfaceParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized pointwise data (w, G, dh/dz) at the points z.

    G = (1 + w)/(1 - w), with G = -1 at w^2-poles by continuity and G = inf
    at w = 1; dh/dz = -(1/w - w)/(2z) is not finite at branch points. At
    z = inf, w = 1 (every factor of w^2 tends to 1).
    """
    z = np.asarray(z, dtype=complex)
    w = np.where(np.isinf(z), 1.0 + 0.0j, w_values(z, p))
    with np.errstate(divide="ignore", invalid="ignore"):
        G = np.where(w == 1.0, INF, (1.0 + w) / (1.0 - w))
        dh = -0.5 * (1.0 / w - w) / z
    return w, np.where(np.isfinite(w), G, -1.0 + 0.0j), dh


def dg_over_gdh(z, p: SurfaceParams) -> np.ndarray:
    """Closed-form dG/(G dh) = -2 z W (log W)' / (1 - W)^2 with W = w^2.

    Rational in z, so no branch choice enters: real on the singular
    intervals, where the non-degeneracy criterion asks it to be nonzero.
    """
    z = np.asarray(z, dtype=complex)
    W = w2_values(z, p)
    return -2.0 * z * W * dlog_w2(z, p) / (1.0 - W) ** 2


def nu_from_w(w) -> np.ndarray:
    """Normalized Gauss vectors (..., 3) from branch values.

    Equals (-2 Re G, -2 Im G, |G|^2 + 1) normalized, rewritten in w so the
    G = inf point (w = 1) needs no special care; w^2-poles give (1, 0, 1)/sqrt 2.
    """
    w = np.asarray(w, dtype=complex)
    aw2 = np.abs(w) ** 2
    with np.errstate(invalid="ignore", over="ignore"):
        norm = np.sqrt((aw2 - 1.0) ** 2 + 4.0 * w.imag**2 + (aw2 + 1.0) ** 2)
        v = np.stack([aw2 - 1.0, -2.0 * w.imag, aw2 + 1.0], axis=-1) / norm[..., None]
    r = 1.0 / math.sqrt(2.0)
    return np.where(np.isfinite(w)[..., None], v, np.array([r, 0.0, r]))


def gauss(z: complex, p: SurfaceParams) -> GaussValue:
    """Gauss map at z. At w^2-poles G = -1 by continuity; at w = 1, G = inf."""
    w, G, _ = weierstrass_data(z, p)
    return GaussValue(G=complex(G), nu=tuple(float(c) for c in nu_from_w(w)))


def phi_from_w(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Form coefficients (3, N) from precomputed branch values."""
    inv = 1.0 / w
    out = np.empty((3, *np.shape(z)), dtype=complex)
    np.divide(-0.5 * (inv + w), z, out=out[0, ...])
    np.divide(1j, z, out=out[1, ...])
    np.divide(0.5 * (inv - w), z, out=out[2, ...])
    return out


def phi(z: complex, p: SurfaceParams) -> FormTriple:
    """Form triple at a point; branch points (w in {0, inf}) are refused."""
    z = complex(z)
    w = branch_w(z, p).w
    if w == 0.0 or is_infinite(w):
        raise BranchPointEvaluation(f"forms are singular at branch point z={z}")
    c1, c2, c3 = phi_from_w(np.asarray([z]), np.asarray([w]))[:, 0]
    return FormTriple(phi1=complex(c1), phi2=complex(c2), phi3=complex(c3))


def metric_factor(z: complex, p: SurfaceParams) -> float:
    """Conformal factor of ds^2 with respect to |dz|^2; 0 on the singular set.

    Uses (1/|G| - |G|)^2 |dh|^2 / 4 generically and the equivalent
    (|phi1|^2 + |phi2|^2 - |phi3|^2)/2 expression where G blows up, which
    stays finite through the removable point w = 1.
    """
    z = complex(z)
    w, G, dh = (complex(v) for v in weierstrass_data(z, p))
    if w == 0.0 or is_infinite(w):
        return 0.0  # closed singular intervals include their endpoints
    if abs(1.0 - w) < 1e-6:
        t = phi(z, p)
        return 0.5 * (abs(t.phi1) ** 2 + abs(t.phi2) ** 2 - abs(t.phi3) ** 2)
    return float((1.0 / abs(G) - abs(G)) ** 2 * abs(dh) ** 2 / 4.0)


def dlog_w2(z, p: SurfaceParams):
    """Logarithmic derivative of the rational product w^2."""
    z = np.asarray(z, dtype=complex)
    num, den = _signed_roots(p)
    out = np.zeros_like(z)
    for nr, dr in zip(num, den):
        out = out + 1.0 / (z - nr) - 1.0 / (z - dr)
    return out


def hopf(z: complex, p: SurfaceParams) -> complex:
    """Hopf differential coefficient Q/dz^2 = dG dh / G = (dG/(G dh)) dh^2."""
    z = complex(z)
    w, _, dh = (complex(v) for v in weierstrass_data(z, p))
    if w == 0.0 or is_infinite(w):
        raise BranchPointEvaluation(f"Q is singular at branch point z={z}")
    if w == 1.0:
        raise DegenerateGauss(f"G = inf at z={z}")
    return complex(dg_over_gdh(z, p)) * dh**2


def end_value_w0(p: SurfaceParams) -> float:
    """w(0): positive square root of the signed product of endpoint ratios.

    The end at z = 0 is horizontal exactly when this equals 1.
    """
    prod = 1.0
    for lo, hi, s in p.signed_intervals():
        prod *= (hi / lo) ** s
    return math.sqrt(prod)


def _coordinate_exponent(p: SurfaceParams, axis: str, index: int) -> int:
    """Exponent of a coordinate in w(0)^2: its row's sign at hi, minus that sign at lo."""
    if axis not in ("a", "b"):
        raise ValueError(f"axis must be 'a' or 'b', got {axis!r}")
    coords, first = (p.a, 0) if axis == "a" else (p.b, p.m)
    if not 1 <= index <= len(coords):
        raise IndexError(f"{axis} index out of range: {index}")
    _, hi, s = p.signed_intervals()[first + (index - 1) // 2]
    return s if coords[index - 1] == hi else -s


def cone_direction(lo: float, sign: int) -> int:
    """+1 (up) or -1 (down): up exactly when w^2 vanishes at the endpoint nearer 0.

    Its own inverse in the sign: cone_direction(lo, d) is the sign that points d.
    """
    return -sign if lo > 0 else sign


def directions_from_signs(p: SurfaceParams) -> list[int]:
    """Predicted cone directions (+1 up, -1 down), positive axis first."""
    return [cone_direction(lo, s) for lo, _, s in p.signed_intervals()]


def normalize_horizontal_end(p: SurfaceParams, free_index: tuple[str, int]) -> SurfaceParams:
    """Re-solve one coordinate in closed form so that w(0) = 1.

    free_index is ('a', i) or ('b', i) with the paper's 1-based index. Raises
    Infeasible when all cones point the same way (no solution exists) or when
    the solved value breaks the strict ordering.
    """
    if len(set(directions_from_signs(p))) == 1:
        raise Infeasible("all cones point the same direction; end at 0 cannot be horizontal")
    axis, index = free_index
    e = _coordinate_exponent(p, axis, index)
    coords = list(p.a if axis == "a" else p.b)
    old = coords[index - 1]
    # w(0)^2 = K * x^e with x the chosen coordinate and e = +-1
    k_rest = end_value_w0(p) ** 2 / old**e
    solved = (1.0 / k_rest) if e == 1 else k_rest
    coords[index - 1] = solved
    try:
        return replace(p, **{axis: tuple(coords)})
    except OrderingViolation as exc:
        raise Infeasible(f"solved {axis}_{index} = {solved} violates ordering: {exc}") from exc


def regular_sample_points(
    p: SurfaceParams,
    count: int,
    rng: np.random.Generator,
    margin: float = 1e-3,
    upper: bool = False,
) -> np.ndarray:
    """Quasi-random regular points, kept margin-away from the singular set.

    margin is relative to the surface scale. upper keeps the points in the
    upper half-plane; otherwise they fill both.
    """
    scale = p.scale()
    lo_r, hi_r = 0.05 * p.inner_radius(), 20.0 * scale
    out = []
    guard = margin * scale
    while len(out) < count:
        k = max(64, 2 * (count - len(out)))
        r = np.exp(rng.uniform(np.log(lo_r), np.log(hi_r), size=k))
        th = rng.uniform(0.0 if upper else -np.pi, np.pi, size=k)
        z = r * np.exp(1j * th)
        ok = np.abs(z) > guard
        for lo, hi in p.intervals():
            d = np.where(
                (z.real >= lo) & (z.real <= hi),
                np.abs(z.imag),
                np.minimum(np.abs(z - lo), np.abs(z - hi)),
            )
            ok &= d > guard
        out.extend(z[ok][: count - len(out)])
    return np.asarray(out)
