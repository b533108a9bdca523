import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcone import catalog as C
from maxcone import singular
from maxcone.errors import LengthMismatch, SignDomain


def test_types_nine_cones():
    assert C.enumerate_types(9) == [(9, 0), (8, 1), (7, 2), (6, 3), (5, 4)]


def test_types_four_cones():
    assert C.enumerate_types(4) == [(4, 0), (3, 1), (2, 2)]


def test_types_one_cone():
    assert C.enumerate_types(1) == [(1, 0)]


def test_types_rejects_zero():
    with pytest.raises(LengthMismatch):
        C.enumerate_types(0)


@pytest.mark.parametrize(
    "call, error, field",
    [
        (lambda: C.enumerate_types(2.5), LengthMismatch, "total"),
        (lambda: C.enumerate_types("4"), LengthMismatch, "total"),
        (lambda: C.classes_for_type(2.0, 0), LengthMismatch, "m >= n"),
        (lambda: C.classes_for_type(2, False), LengthMismatch, "m >= n"),
        (lambda: C.build_catalog(True), LengthMismatch, "total"),
        (lambda: C.ConeConfig(1, 0, (1.5,)), SignDomain, "dirs_pos"),
        (lambda: C.ConeConfig(1, 1, (1,), (True,)), SignDomain, "dirs_neg"),
        (lambda: C.ConeConfig(1, 0, 1), SignDomain, "dirs_pos"),
        (lambda: C.ConeConfig(True, 0, (1,)), LengthMismatch, "m >= 1"),
        (lambda: C.ConeConfig(1.0, 0, (1,)), LengthMismatch, "m >= 1"),
    ],
    ids=["types-float", "types-str", "classes-float", "classes-bool", "catalog-bool",
         "dirs-float", "dirs-bool", "dirs-scalar", "m-bool", "m-float"],
)
def test_counts_and_directions_must_be_integers(call, error, field):
    # these used to leak range()'s TypeError, or truncate 1.5 to 1
    with pytest.raises(error, match=field):
        call()


def test_numpy_counts_accepted():
    assert C.enumerate_types(np.int64(4)) == [(4, 0), (3, 1), (2, 2)]
    c = C.ConeConfig(np.int64(2), 0, (np.int64(1), -1))
    assert c == C.ConeConfig(2, 0, (1, -1))
    assert type(c.m) is int and type(c.dirs_pos[0]) is int


def test_four_cone_class_counts():
    assert len(C.classes_for_type(4, 0)) == 6
    assert len(C.classes_for_type(3, 1)) == 6
    assert len(C.classes_for_type(2, 2)) == 5


def test_four_cone_total_17():
    cat = C.build_catalog(4)
    assert cat["total_classes"] == 17
    assert [t["class_count"] for t in cat["types"]] == [6, 6, 5]


def test_counts_bounded_by_power():
    for total in range(1, 7):
        for m, n in C.enumerate_types(total):
            assert len(C.classes_for_type(m, n)) <= 2 ** (m + n - 1)


def test_orbit_sizes_partition_raw_configs():
    for m, n in ((4, 0), (3, 1), (2, 2), (2, 1)):
        classes = C.classes_for_type(m, n)
        assert sum(size for _, size in classes) == 2 ** (m + n)


def test_canonical_first_cone_up():
    for m, n in C.enumerate_types(4):
        for cfg, _ in C.classes_for_type(m, n):
            assert cfg.dirs_pos[0] == C.UP
            assert cfg.m >= cfg.n


def test_canonicalize_handles_axis_swap():
    c = C.ConeConfig(m=1, n=2, dirs_pos=(C.DOWN,), dirs_neg=(C.UP, C.DOWN))
    r = C.canonicalize(c)
    assert (r.m, r.n) == (2, 1)
    assert r.dirs_pos[0] == C.UP


@given(
    m=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_canonicalize_idempotent(m, n, data):
    p = tuple(data.draw(st.sampled_from((C.UP, C.DOWN))) for _ in range(m))
    q = tuple(data.draw(st.sampled_from((C.UP, C.DOWN))) for _ in range(n))
    c = C.ConeConfig(m=m, n=n, dirs_pos=p, dirs_neg=q)
    r1 = C.canonicalize(c)
    assert C.canonicalize(r1) == r1


@given(
    m=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_orbit_members_share_canonical_form(m, n, data):
    p = tuple(data.draw(st.sampled_from((C.UP, C.DOWN))) for _ in range(m))
    q = tuple(data.draw(st.sampled_from((C.UP, C.DOWN))) for _ in range(n))
    c = C.ConeConfig(m=m, n=n, dirs_pos=p, dirs_neg=q)
    rep = C.canonicalize(c)
    for g in C._orbit(c):
        assert C.canonicalize(g) == rep


def test_instantiate_sign_mapping():
    cfg = C.ConeConfig(m=1, n=0, dirs_pos=(C.UP,))
    assert C.instantiate(cfg).alpha == (-1,)
    cfg = C.ConeConfig(m=1, n=1, dirs_pos=(C.UP,), dirs_neg=(C.UP,))
    p = C.instantiate(cfg)
    assert p.alpha == (-1,) and p.beta == (1,)


def test_instantiate_gauge_and_moduli():
    cfg = C.ConeConfig(m=2, n=1, dirs_pos=(C.UP, C.DOWN), dirs_neg=(C.DOWN,))
    p = C.instantiate(cfg, spacing=0.5)
    assert p.a[0] == 1.0
    # the catalog's moduli dimension counts the coordinates left free by the gauge
    (entry,) = [t for t in C.build_catalog(3)["types"] if t["type"] == [2, 1]]
    assert entry["moduli_dimension"] == len(p.a) + len(p.b) - 1 == 2 * 3 - 1
    # consecutive gaps equal the spacing on each axis
    import numpy as np

    assert np.allclose(np.diff(p.a), 0.5)
    assert np.allclose(np.diff(p.b), -0.5)


def test_instantiate_directions_match_theorem_prediction():
    for total in (1, 2):
        for m, n in C.enumerate_types(total):
            for cfg, _ in C.classes_for_type(m, n):
                p = C.instantiate(cfg)
                comps = singular.components(p)
                want = {("pos", j + 1): d for j, d in enumerate(cfg.dirs_pos)}
                want.update({("neg", k + 1): d for k, d in enumerate(cfg.dirs_neg)})
                for comp in comps:
                    pred = singular.theorem_direction(comp)
                    expect = "up" if want[(comp.axis, comp.index)] == C.UP else "down"
                    assert pred == expect


def test_instantiate_rejects_bad_spacing():
    with pytest.raises(SignDomain):
        C.instantiate(C.ConeConfig(m=1, n=0, dirs_pos=(C.UP,)), spacing=0.0)


@pytest.mark.parametrize("spacing", ["1", True, None, float("nan"), float("inf"), -0.5])
def test_instantiate_spacing_is_a_finite_positive_number(spacing):
    # a string used to raise a bare TypeError and True was taken as 1
    with pytest.raises(SignDomain, match="spacing"):
        C.instantiate(C.ConeConfig(m=1, n=0, dirs_pos=(C.UP,)), spacing=spacing)


def test_instantiate_accepts_numpy_spacing():
    cfg = C.ConeConfig(m=2, n=1, dirs_pos=(C.UP, C.DOWN), dirs_neg=(C.UP,))
    assert C.instantiate(cfg, spacing=np.float64(0.8)) == C.instantiate(cfg, spacing=0.8)


def test_nine_cone_types_have_five_entries():
    assert len(C.build_catalog(9)["types"]) == 5


def test_catalog_json_shape():
    cat = C.build_catalog(2)
    for t in cat["types"]:
        assert {"type", "class_count", "max_classes", "moduli_dimension", "classes"} <= set(t)
        for cls in t["classes"]:
            assert set(cls) == {"m", "n", "dirs_pos", "dirs_neg", "class_size"}
            assert all(d in ("up", "down") for d in cls["dirs_pos"] + cls["dirs_neg"])
