"""SurfaceParams.signed_intervals() is the one sign table.

Every sign rule of the package is read from it: the roots of w^2, w(0), the
exponent of each coordinate in w(0)^2, the predicted cone directions, the
singular components, the b_{2n} normalization and the catalog's inverse map.
The table-driven versions must equal, exactly, the rules the package wrote
out from alpha and beta one by one (kept in oracles.py), and each row must
mean what its docstring says.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from test_kernels import surfaces

import oracles
from maxcone import catalog as C
from maxcone import core, singular
from maxcone.core import INF
from maxcone.errors import MaxconeError, OrderingInfeasible
from maxcone.minimal import b2n_normalize

CLASSES = [
    C.instantiate(cfg)
    for total in range(1, 5)
    for m, n in C.enumerate_types(total)
    for cfg, _ in C.classes_for_type(m, n)
]


def outcome(fn, *args):
    """A value, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (MaxconeError, IndexError, ValueError) as exc:
        return type(exc), str(exc)


def assert_table_rules_match_oracles(p):
    assert core._signed_roots(p) == oracles.signed_roots_loop_ref(p)
    w0, w0_ref = core.end_value_w0(p), oracles.end_value_w0_ref(p)
    assert w0.hex() == w0_ref.hex()
    assert core.directions_from_signs(p) == oracles.directions_from_signs_ref(p)
    for comp in singular.components(p):
        assert singular.theorem_direction(comp) == oracles.theorem_direction_ref(comp)
    for axis in ("a", "b", "c"):
        for index in range(0, 2 * max(p.m, p.n) + 2):
            got = outcome(core._coordinate_exponent, p, axis, index)
            assert got == outcome(oracles.coordinate_exponent_ref, p, axis, index)
    if p.n >= 1:
        plus = replace(p, alpha=(1,) * p.m, beta=(1,) * p.n)
        b2n = oracles.b2n_value_ref(plus)
        got = outcome(b2n_normalize, plus)
        if b2n < plus.b[-2]:
            assert got.b[-1].hex() == b2n.hex() and got.b[:-1] == plus.b[:-1]
        else:
            assert got[0] is OrderingInfeasible


def assert_rows_mean_what_they_say(p):
    rows = p.signed_intervals()
    assert [(lo, hi) for lo, hi, _ in rows] == p.positive_intervals() + p.negative_intervals()
    assert [s for _, _, s in rows] == list(p.alpha + p.beta)
    for (lo, hi, s), direction in zip(rows, core.directions_from_signs(p)):
        zero, pole = (hi, lo) if s == 1 else (lo, hi)
        w2 = core.w2_values(np.array([zero, pole], dtype=complex), p)
        assert w2[0] == 0.0 and w2[1] == INF
        # up exactly when w^2 vanishes at the endpoint nearer 0
        assert direction == (1 if abs(zero) < abs(pole) else -1)
        assert core.cone_direction(lo, direction) == s


def signs(p):
    return f"{p.m}{p.n}" + "".join("+" if s == 1 else "-" for s in p.alpha + p.beta)


@pytest.mark.parametrize("p", CLASSES, ids=signs)
def test_table_rules_on_the_canonical_classes(p):
    assert len(CLASSES) == 28
    assert_table_rules_match_oracles(p)
    assert_rows_mean_what_they_say(p)


@given(p=surfaces())
@settings(max_examples=200, deadline=None)
def test_table_rules_on_random_surfaces(p):
    assert_table_rules_match_oracles(p)
    assert_rows_mean_what_they_say(p)


def test_instantiate_inverts_the_direction_rule():
    for total in range(1, 7):
        for m, n in C.enumerate_types(total):
            for cfg, _ in C.classes_for_type(m, n):
                p = C.instantiate(cfg)
                assert core.directions_from_signs(p) == list(cfg.dirs_pos + cfg.dirs_neg)
