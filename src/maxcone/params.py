"""Surface parameter vectors: validation, intervals, JSON round trip.

A surface is determined by m cones on the positive real axis and n cones on
the negative real axis, with branch points

    b_{2n} < ... < b_1 < 0 < a_1 < ... < a_{2m}

and sign vectors alpha (length m) and beta (length n) with entries +-1.
The a list is stored ascending, the b list descending toward -inf, matching
the index order b_1, ..., b_{2n}.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, OrderingViolation, SignDomain


def is_int(x) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    """A Python or numpy real number that is finite as a float, not a bool."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class SurfaceParams:
    """Validated parameter vector (m, n, a, b, alpha, beta).

    Construction validates types, lengths, sign domains, and the strict
    ordering of branch points around 0; invalid data raises a typed error
    naming the field. m, n and the signs are stored as Python ints, the
    branch points as Python floats. Instances are immutable and hashable, so
    they are safe to share across threads.
    """

    m: int
    n: int
    a: tuple[float, ...]
    b: tuple[float, ...] = ()
    alpha: tuple[int, ...] = ()
    beta: tuple[int, ...] = ()

    def __post_init__(self):
        for name, least in (("m", 1), ("n", 0)):
            v = getattr(self, name)
            if not is_int(v) or v < least:
                raise LengthMismatch(f"{name!r} must be an integer >= {least}, got {v!r}")
            object.__setattr__(self, name, int(v))
        for name, ok, cast, kind, err in (
            ("a", is_real, float, "finite reals", OrderingViolation),
            ("b", is_real, float, "finite reals", OrderingViolation),
            ("alpha", is_int, int, "integers", SignDomain),
            ("beta", is_int, int, "integers", SignDomain),
        ):
            v = getattr(self, name)
            listlike = isinstance(v, (list, tuple)) or (isinstance(v, np.ndarray) and v.ndim == 1)
            if not (listlike and all(map(ok, v))):
                raise err(f"{name!r} must be a list of {kind}, got {v!r}")
            object.__setattr__(self, name, tuple(map(cast, v)))
        _validate(self)

    # -- derived geometry -------------------------------------------------

    def positive_intervals(self) -> list[tuple[float, float]]:
        """Closed intervals [a_{2j-1}, a_{2j}] for j = 1..m."""
        return [(self.a[2 * j], self.a[2 * j + 1]) for j in range(self.m)]

    def negative_intervals(self) -> list[tuple[float, float]]:
        """Closed intervals [b_{2k}, b_{2k-1}] for k = 1..n."""
        return [(self.b[2 * k + 1], self.b[2 * k]) for k in range(self.n)]

    def signed_intervals(self) -> list[tuple[float, float, int]]:
        """The sign table: (lo, hi, sign) per cone, positive axis first, each
        axis outward from 0.

        Rows are ([a_{2j-1}, a_{2j}], alpha_j) and ([b_{2k}, b_{2k-1}], beta_k).
        The row's factor of w^2 is ((z - hi)/(z - lo))^sign: with sign = +1,
        w^2 vanishes at hi and has its pole at lo, so G = +1 at hi and -1 at
        lo; sign = -1 swaps them. A cone points up exactly when w^2 vanishes
        at its endpoint nearer 0 (core.cone_direction). Every sign rule of
        the package is read from this table.
        """
        rows = zip(self.positive_intervals() + self.negative_intervals(), self.alpha + self.beta)
        return [(lo, hi, s) for (lo, hi), s in rows]

    def intervals(self) -> list[tuple[float, float]]:
        """All singular intervals, negative axis first, ordered left to right."""
        return sorted(self.negative_intervals() + self.positive_intervals())

    def branch_points(self) -> tuple[float, ...]:
        """All branch points in ascending order."""
        return tuple(sorted(self.b)) + self.a

    def scale(self) -> float:
        """Largest branch-point magnitude; sets absolute tolerances."""
        return max(abs(x) for x in self.branch_points())

    def inner_radius(self) -> float:
        """Distance from 0 to the nearest branch point."""
        return min(abs(x) for x in self.branch_points())

    def default_basepoint(self) -> complex:
        """Integration basepoint a_{2m} + 1 on the positive real axis."""
        return complex(self.a[-1] + 1.0, 0.0)

    def contains_real(self, x: float) -> bool:
        """True when x lies in a closed singular interval."""
        return any(lo <= x <= hi for lo, hi in self.intervals())

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "a": list(self.a),
            "b": list(self.b),
            "alpha": list(self.alpha),
            "beta": list(self.beta),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: Mapping) -> "SurfaceParams":
        if not isinstance(d, Mapping):
            raise LengthMismatch(f"parameters must be a mapping, got {type(d).__name__}")
        missing = {"m", "n", "a", "alpha"} - set(d)
        if missing:
            raise LengthMismatch(f"missing parameter fields: {sorted(missing)}")
        return cls(
            m=d["m"], n=d["n"], a=d["a"], b=d.get("b", ()), alpha=d["alpha"], beta=d.get("beta", ())
        )

    @classmethod
    def from_json(cls, s: str) -> "SurfaceParams":
        return cls.from_dict(json.loads(s))


def _validate(p: SurfaceParams) -> None:
    if len(p.a) != 2 * p.m:
        raise LengthMismatch(f"expected {2 * p.m} a-points, got {len(p.a)}")
    if len(p.b) != 2 * p.n:
        raise LengthMismatch(f"expected {2 * p.n} b-points, got {len(p.b)}")
    if len(p.alpha) != p.m:
        raise LengthMismatch(f"expected {p.m} alpha signs, got {len(p.alpha)}")
    if len(p.beta) != p.n:
        raise LengthMismatch(f"expected {p.n} beta signs, got {len(p.beta)}")
    for name, signs in (("alpha", p.alpha), ("beta", p.beta)):
        for s in signs:
            if s not in (1, -1):
                raise SignDomain(f"{name} entries must be +1 or -1, got {s}")
    # chain: b_{2n} < ... < b_1 < 0 < a_1 < ... < a_{2m}
    for i in range(len(p.a) - 1):
        if not p.a[i] < p.a[i + 1]:
            raise OrderingViolation(
                f"a must be strictly ascending: a[{i + 1}]={p.a[i]} >= a[{i + 2}]={p.a[i + 1]}"
            )
    if p.a and not p.a[0] > 0:
        raise OrderingViolation(f"a_1 must be positive, got {p.a[0]}")
    for i in range(len(p.b) - 1):
        if not p.b[i] > p.b[i + 1]:
            raise OrderingViolation(
                f"b must be listed b_1 > b_2 > ...: b[{i + 1}]={p.b[i]} <= b[{i + 2}]={p.b[i + 1]}"
            )
    if p.b and not p.b[0] < 0:
        raise OrderingViolation(f"b_1 must be negative, got {p.b[0]}")


def validate_params(raw) -> SurfaceParams:
    """Validate a candidate parameter vector.

    Accepts a mapping with keys m, n, a, b, alpha, beta (b and beta optional
    when n = 0), its JSON text, or an existing SurfaceParams. Raises
    OrderingViolation, LengthMismatch, or SignDomain on bad input.
    """
    if isinstance(raw, SurfaceParams):
        return raw
    if isinstance(raw, str):
        return SurfaceParams.from_json(raw)
    return SurfaceParams.from_dict(raw)
