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
from dataclasses import dataclass
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

    def as_array(self) -> np.ndarray:
        return np.array([self.phi1, self.phi2, self.phi3])


@dataclass(frozen=True)
class GaussValue:
    """Gauss map value G (possibly inf) and the normalized Gauss vector."""

    G: complex
    nu: tuple[float, float, float]


@lru_cache(maxsize=256)
def _signed_roots(p: SurfaceParams) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator roots of the w^2 product, sign-resolved.

    For alpha_k = +1 the k-th positive factor is (z - a_{2k})/(z - a_{2k-1});
    alpha_k = -1 swaps the pair. Likewise (z - b_{2k-1})/(z - b_{2k}) with
    beta_k. Returns (num_roots, den_roots), each of length m + n.
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
    return np.array(num, dtype=float), np.array(den, dtype=float)


def w2_values(z: np.ndarray, p: SurfaceParams) -> np.ndarray:
    """Vectorized w^2; denominator roots map to complex infinity."""
    z = np.asarray(z, dtype=complex)
    num, den = _signed_roots(p)
    pole = np.zeros(z.shape, dtype=bool)
    out = np.ones_like(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        for nr, dr in zip(num, den):
            hit = z == dr
            pole |= hit
            out = out * (z - nr) / np.where(hit, 1.0, z - dr)
    out = np.where(pole, INF, out)
    return out


def w_values(z: np.ndarray, p: SurfaceParams) -> np.ndarray:
    """Vectorized branch-resolved w with Re w >= 0 (ties: Im w >= 0)."""
    w2 = w2_values(z, p)
    inf_mask = ~np.isfinite(w2)
    w = np.sqrt(np.where(inf_mask, 1.0, w2))
    # principal sqrt already has Re >= 0; fix the Im < 0 edge on the cut
    flip = (w.real == 0.0) & (w.imag < 0.0)
    w = np.where(flip, -w, w)
    return np.where(inf_mask, INF, w)


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
    return np.stack(
        [
            -0.5 * (inv + w) / z,
            1j / z,
            0.5 * (inv - w) / z,
        ]
    )


def phi_values(z: np.ndarray, p: SurfaceParams) -> np.ndarray:
    """Vectorized form coefficients; caller keeps nodes off branch points."""
    z = np.asarray(z, dtype=complex)
    return phi_from_w(z, w_values(z, p))


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
    for k in range(p.m):
        prod *= (p.a[2 * k + 1] / p.a[2 * k]) ** p.alpha[k]
    for k in range(p.n):
        prod *= (p.b[2 * k] / p.b[2 * k + 1]) ** p.beta[k]
    return math.sqrt(prod)


def _coordinate_exponent(p: SurfaceParams, axis: str, index: int) -> int:
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


def directions_from_signs(p: SurfaceParams) -> list[int]:
    """Predicted cone directions (+1 up, -1 down), positive axis first.

    Positive-axis cone j points up iff alpha_j = -1; negative-axis cone k
    points up iff beta_k = +1.
    """
    return [-s for s in p.alpha] + [s for s in p.beta]


def normalize_horizontal_end(p: SurfaceParams, free_index: tuple[str, int]) -> SurfaceParams:
    """Re-solve one coordinate in closed form so that w(0) = 1.

    free_index is ('a', i) or ('b', i) with the paper's 1-based index. Raises
    Infeasible when all cones point the same way (no solution exists) or when
    the solved value breaks the strict ordering.
    """
    dirs = directions_from_signs(p)
    if all(d == dirs[0] for d in dirs):
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
        if axis == "a":
            q = SurfaceParams(m=p.m, n=p.n, a=tuple(coords), b=p.b, alpha=p.alpha, beta=p.beta)
        else:
            q = SurfaceParams(m=p.m, n=p.n, a=p.a, b=tuple(coords), alpha=p.alpha, beta=p.beta)
    except OrderingViolation as exc:
        raise Infeasible(f"solved {axis}_{index} = {solved} violates ordering: {exc}") from exc
    return q


def regular_sample_points(
    p: SurfaceParams,
    count: int,
    rng: np.random.Generator,
    margin: float = 1e-3,
    half_plane: str = "both",
) -> np.ndarray:
    """Quasi-random regular points, kept margin-away from the singular set.

    margin is relative to the surface scale. half_plane selects 'upper',
    'lower', or 'both'.
    """
    scale = p.scale()
    lo_r, hi_r = 0.05 * p.inner_radius(), 20.0 * scale
    out = []
    guard = margin * scale
    while len(out) < count:
        k = max(64, 2 * (count - len(out)))
        r = np.exp(rng.uniform(np.log(lo_r), np.log(hi_r), size=k))
        if half_plane == "upper":
            th = rng.uniform(0.0, np.pi, size=k)
        elif half_plane == "lower":
            th = rng.uniform(-np.pi, 0.0, size=k)
        else:
            th = rng.uniform(-np.pi, np.pi, size=k)
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
