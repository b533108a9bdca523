"""Enumeration of surface types and cone-direction classes.

A type (m, n) has m cones on the positive axis and n on the negative axis,
normalized to m >= n >= 0 with m >= 1. Each cone points up or down;
configurations are identified under rigid motions of the picture: swapping
the two axes, reversing the order along both axes, and flipping all
directions, in any combination. That group of eight commuting involutions
is pinned down empirically: it is the choice among the natural
rotation/reflection candidates that reproduces the published class counts
(6 for type (4,0), 6 for (3,1), 5 for (2,2), 17 in total for four cones,
and five types for nine cones); the test suite asserts those counts.

Canonical representatives have m >= n, first positive-axis cone pointing
up, and are lexicographically minimal within their orbit (up before down).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import cone_direction
from .errors import LengthMismatch, SignDomain
from .params import SurfaceParams, is_int, is_real

UP, DOWN = 1, -1


@dataclass(frozen=True)
class ConeConfig:
    """Direction configuration: m, n, and per-cone up/down lists.

    dirs_pos is ordered outward along the positive axis (index 1 nearest 0),
    dirs_neg outward along the negative axis. Entries are +1 (up) or
    -1 (down). Canonical instances satisfy m >= n and dirs_pos[0] = up.
    """

    m: int
    n: int
    dirs_pos: tuple[int, ...]
    dirs_neg: tuple[int, ...] = ()

    def __post_init__(self):
        if not (is_int(self.m) and is_int(self.n) and self.m >= 1 and self.n >= 0):
            raise LengthMismatch(f"need integers m >= 1 and n >= 0, got ({self.m!r}, {self.n!r})")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "n", int(self.n))
        for name in ("dirs_pos", "dirs_neg"):
            dirs = getattr(self, name)
            if not (isinstance(dirs, (list, tuple)) and all(map(is_int, dirs))):
                raise SignDomain(f"{name} must be a list of integers, got {dirs!r}")
            object.__setattr__(self, name, tuple(map(int, dirs)))
        if len(self.dirs_pos) != self.m or len(self.dirs_neg) != self.n:
            raise LengthMismatch(
                f"direction lists ({len(self.dirs_pos)}, {len(self.dirs_neg)}) "
                f"do not match ({self.m}, {self.n})"
            )
        for d in self.dirs_pos + self.dirs_neg:
            if d not in (UP, DOWN):
                raise SignDomain(f"directions must be +1 (up) or -1 (down), got {d}")

    def words(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        name = {UP: "up", DOWN: "down"}
        return tuple(name[d] for d in self.dirs_pos), tuple(name[d] for d in self.dirs_neg)

    def to_dict(self) -> dict:
        wp, wn = self.words()
        return {"m": self.m, "n": self.n, "dirs_pos": list(wp), "dirs_neg": list(wn)}


def enumerate_types(total: int) -> list[tuple[int, int]]:
    """All (m, n) with m + n = total, m >= n >= 0, m >= 1."""
    if not is_int(total) or total < 1:
        raise LengthMismatch(f"total must be an integer >= 1, got {total!r}")
    return [(m, total - m) for m in range(total, (total - 1) // 2, -1)]


def _orbit(c: ConeConfig) -> list[ConeConfig]:
    """All images under the eight-element identification group."""
    out = []
    for do_swap, do_rev, do_flip in product((False, True), repeat=3):
        m, n, p, q = c.m, c.n, c.dirs_pos, c.dirs_neg
        if do_swap:
            m, n, p, q = n, m, q, p
        if do_rev:
            p, q = p[::-1], q[::-1]
        if do_flip:
            p, q = tuple(-d for d in p), tuple(-d for d in q)
        if m >= 1:
            out.append(ConeConfig(m=m, n=n, dirs_pos=p, dirs_neg=q))
    return out


def _sort_key(c: ConeConfig):
    # up (+1) sorts before down (-1)
    return tuple(-d for d in c.dirs_pos) + tuple(-d for d in c.dirs_neg)


def canonicalize(c: ConeConfig) -> ConeConfig:
    """Canonical representative of the configuration's identification class."""
    candidates = [g for g in _orbit(c) if g.m >= g.n and g.dirs_pos[0] == UP]
    return min(candidates, key=_sort_key)


def classes_for_type(m: int, n: int) -> list[tuple[ConeConfig, int]]:
    """Canonical classes of type (m, n) with their orbit sizes.

    Orbit size counts how many of the 2^(m+n) raw direction assignments of
    this (m, n) shape fall into the class (axis-swapped images of shape
    (n, m) are not counted when m != n).
    """
    if not (is_int(m) and is_int(n) and m >= n >= 0 and m >= 1):
        raise LengthMismatch(f"type must be integers m >= n >= 0, m >= 1: got ({m!r}, {n!r})")
    buckets: dict[ConeConfig, int] = {}
    for p in product((UP, DOWN), repeat=m):
        for q in product((UP, DOWN), repeat=n):
            rep = canonicalize(ConeConfig(m=m, n=n, dirs_pos=p, dirs_neg=q))
            buckets[rep] = buckets.get(rep, 0) + 1
    return sorted(buckets.items(), key=lambda kv: _sort_key(kv[0]))


def build_catalog(total: int) -> dict:
    """Catalog of all canonical classes with `total` cones, JSON-shaped."""
    types_out = []
    grand = 0
    for m, n in enumerate_types(total):
        classes = classes_for_type(m, n)
        grand += len(classes)
        types_out.append(
            {
                "type": [m, n],
                "class_count": len(classes),
                "max_classes": 2 ** (m + n - 1),
                "moduli_dimension": 2 * (m + n) - 1,
                "classes": [
                    dict(cfg.to_dict(), class_size=size) for cfg, size in classes
                ],
            }
        )
    return {"cones": total, "types": types_out, "total_classes": grand}


def instantiate(c: ConeConfig, spacing: float = 1.0) -> SurfaceParams:
    """Evenly spaced parameters realizing a canonical configuration.

    Gauge a_1 = 1 with consecutive gaps `spacing` (a finite positive number)
    on each axis, mirrored placement on the negative axis. Each sign is the
    inverse of core.cone_direction for its row of
    SurfaceParams.signed_intervals(). The remaining free real parameters
    number 2(m + n) - 1.
    """
    if not (is_real(spacing) and spacing > 0):
        raise SignDomain(f"spacing must be a finite positive number, got {spacing!r}")
    a = tuple(1.0 + i * spacing for i in range(2 * c.m))
    b = tuple(-(1.0 + i * spacing) for i in range(2 * c.n))
    alpha = tuple(cone_direction(lo, d) for lo, d in zip(a[::2], c.dirs_pos))
    beta = tuple(cone_direction(lo, d) for lo, d in zip(b[1::2], c.dirs_neg))
    return SurfaceParams(m=c.m, n=c.n, a=a, b=b, alpha=alpha, beta=beta)
