import json

import numpy as np
import pytest

from maxcone.errors import LengthMismatch, OrderingViolation, SignDomain
from maxcone.params import SurfaceParams, validate_params
from maxcone.report import ToleranceLadder

VALID = {"m": 1, "n": 0, "a": [1, 2], "alpha": [1]}


def test_minimal_instance_valid():
    p = validate_params({"m": 1, "n": 0, "a": [1, 2], "alpha": [1]})
    assert p.m == 1 and p.n == 0
    assert p.a == (1.0, 2.0)


def test_ordering_reversed_rejected():
    with pytest.raises(OrderingViolation):
        validate_params({"m": 1, "n": 0, "a": [2, 1], "alpha": [1]})


def test_b_list_order_is_descending():
    # b given as [b_1, b_2] = [-2, -1] violates b_2 < b_1 < 0
    with pytest.raises(OrderingViolation):
        validate_params(
            {"m": 2, "n": 1, "a": [1, 2, 3, 4], "b": [-2, -1], "alpha": [1, -1], "beta": [1]}
        )


def test_b_descending_accepted():
    p = validate_params(
        {"m": 2, "n": 1, "a": [1, 2, 3, 4], "b": [-1, -2], "alpha": [1, -1], "beta": [1]}
    )
    assert p.negative_intervals() == [(-2.0, -1.0)]


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        validate_params({"m": 2, "n": 0, "a": [1, 2], "alpha": [1, 1]})
    with pytest.raises(LengthMismatch):
        validate_params({"m": 1, "n": 0, "a": [1, 2], "alpha": [1, 1]})


def test_sign_domain():
    with pytest.raises(SignDomain):
        validate_params({"m": 1, "n": 0, "a": [1, 2], "alpha": [2]})
    with pytest.raises(SignDomain):
        validate_params({"m": 1, "n": 1, "a": [1, 2], "b": [-1, -2], "alpha": [1], "beta": [0]})


def test_positive_b_rejected():
    with pytest.raises(OrderingViolation):
        validate_params({"m": 1, "n": 1, "a": [1, 2], "b": [1, -2], "alpha": [1], "beta": [1]})


def test_m_zero_rejected():
    with pytest.raises(LengthMismatch):
        validate_params({"m": 0, "n": 0, "a": [], "alpha": []})


def test_intervals(p22):
    assert p22.positive_intervals() == [(1.0, 2.0), (3.0, 4.0)]
    assert p22.negative_intervals() == [(-2.0, -1.0), (-4.0, -3.0)]
    assert p22.intervals() == [(-4.0, -3.0), (-2.0, -1.0), (1.0, 2.0), (3.0, 4.0)]


def test_contains_real(p10):
    assert p10.contains_real(1.0)
    assert p10.contains_real(1.5)
    assert p10.contains_real(2.0)
    assert not p10.contains_real(0.99)
    assert not p10.contains_real(2.01)


def test_json_round_trip(p21):
    q = SurfaceParams.from_json(p21.to_json())
    assert q == p21


def test_json_field_order_matches_schema(p11):
    d = json.loads(p11.to_json())
    assert set(d) == {"m", "n", "a", "b", "alpha", "beta"}
    assert d["a"] == sorted(d["a"])  # ascending
    assert d["b"] == sorted(d["b"], reverse=True)  # b_1 first, toward -inf


def test_params_hashable_and_frozen(p10):
    {p10: 1}
    with pytest.raises(AttributeError):
        p10.m = 2


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("m", True, LengthMismatch),
        ("m", 1.0, LengthMismatch),
        ("n", "0", LengthMismatch),
        ("a", 5, OrderingViolation),
        ("a", ("1", "2"), OrderingViolation),
        ("a", (True, 2), OrderingViolation),
        ("a", (1, float("nan")), OrderingViolation),
        ("a", (1, 10**400), OrderingViolation),
        ("a", np.array([[1.0, 2.0]]), OrderingViolation),
        ("b", "12", OrderingViolation),
        ("alpha", (1.7,), SignDomain),
        ("alpha", (1.0,), SignDomain),
        ("alpha", (True,), SignDomain),
        ("beta", 1, SignDomain),
    ],
)
def test_wrong_types_rejected_naming_the_field(field, value, error):
    # checked before any coercion: alpha 1.7 used to become 1, m=True was kept
    with pytest.raises(error, match=f"'{field}'"):
        SurfaceParams(**{**VALID, field: value})


def test_numpy_values_stored_as_python_numbers():
    p = SurfaceParams(
        m=np.int64(1), n=np.int32(0), a=np.array([1.0, 2.0]), alpha=[np.int64(-1)]
    )
    assert p == SurfaceParams(**{**VALID, "alpha": [-1]})
    assert [type(x) for x in (p.m, p.n, p.a[0], p.alpha[0])] == [int, int, float, int]
    assert json.loads(json.dumps(p.to_dict()))["a"] == [1.0, 2.0]


@pytest.mark.parametrize("raw", [5, [VALID], "[1]"])
def test_validate_params_rejects_non_mapping(raw):
    with pytest.raises(LengthMismatch, match="mapping"):
        validate_params(raw)


@pytest.mark.parametrize(
    "field, value", [("mesh", "1e-6"), ("mesh", float("nan")), ("algebraic", None),
                     ("integrated", True), ("integrated", float("inf")), ("mesh", 0.0),
                     ("algebraic", -1e-6)]
)
def test_tolerance_ladder_rejects_non_finite_reals(field, value):
    with pytest.raises(ValueError, match=field):
        ToleranceLadder(**{field: value})


def test_tolerance_ladder_stores_floats():
    tol = ToleranceLadder(mesh=np.float32(0.5), algebraic=1)
    assert type(tol.mesh) is float and type(tol.algebraic) is float
    assert tol.to_dict() == {"algebraic": 1.0, "integrated": 1e-8, "mesh": 0.5}
