"""The leg memo of one cone classification or symmetry check: same bytes, less work."""

import contextlib
import json
import math
import sys

import numpy as np
import pytest

from maxcone import integrate as I
from maxcone import mesh as MM
from maxcone import report as R
from maxcone import singular as S
from maxcone.catalog import classes_for_type, enumerate_types, instantiate
from maxcone.errors import QuadratureFailure
from maxcone.params import SurfaceParams

WIDE = SurfaceParams(m=2, n=0, a=(1e-3, 1, 10, 1e3), alpha=(1, -1))
CLASSES = [
    instantiate(cfg) for total in range(1, 5) for m, n in enumerate_types(total)
    for cfg, _ in classes_for_type(m, n)
]


def _no_memo(p):
    return contextlib.nullcontext()


@pytest.fixture
def leg_log(monkeypatch):
    """Every adaptive_leg call as [leg, panels], counted as the benchmark counts them."""
    adaptive_leg, log = I.adaptive_leg, []

    def counted_leg(leg, coeff_fn, tol):
        log.append([leg, 0])

        def counted_panel(panel):
            log[-1][1] += 1
            return coeff_fn(panel)

        return adaptive_leg(leg, counted_panel, tol)

    monkeypatch.setattr(I, "adaptive_leg", counted_leg)
    return log


@pytest.fixture
def kernel_log(monkeypatch):
    """The size of every w_values call the quadrature makes."""
    w_values, sizes = I.w_values, []

    def counted(z, p):
        sizes.append(np.size(z))
        return w_values(z, p)

    monkeypatch.setattr(I, "w_values", counted)
    return sizes


def _route_legs(p):
    """Routes from the origin to a few points: every one opens with a quarter arc."""
    base = p.default_basepoint()
    targets = [complex(-0.5 * p.inner_radius(), 0.3), 2.2 + 0.4j, 2.2 - 0.4j, 0.7j]
    return [leg for z in targets for leg in I._route_legs(z, p, base)]


def _same(a, b):
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_leg_sums_in_the_memo_are_the_bytes_outside(p21, leg_log):
    legs = _route_legs(p21)
    repeats = legs + legs[::-1] + legs[:3]
    thetas = np.linspace(0.0, math.pi, I._CHUNK + 91)
    ring = [
        I.ArcLeg(r=1.5 * p21.scale(), theta_a=float(a), theta_b=float(b))
        for a, b in zip(thetas, thetas[1:])
    ]
    assert len(ring) > I._CHUNK
    cases = {
        "repeats": lambda: repeats,
        "generator": lambda: (leg for leg in repeats),
        "empty": lambda: [],
        "more than a chunk": lambda: ring + ring[:40],
    }
    for name, make in cases.items():
        plain = I._leg_sums(make(), p21)
        assert plain[0].shape == (len(list(make())), 3), name
        with I._leg_memo(p21):
            _same(I._leg_sums(make(), p21), plain)
            leg_log.clear()
            _same(I._leg_sums(make(), p21), plain)  # every row now from the memo
            assert leg_log == [], name


def test_the_memo_integrates_each_distinct_leg_once(p21, leg_log):
    legs = _route_legs(p21)
    with I._leg_memo(p21):
        I._leg_sums(legs + legs, p21)
        first = [leg for leg, _ in leg_log]
        I._leg_sums(legs[:2], p21)
    assert first == list(dict.fromkeys(legs))  # in order of first appearance
    assert len(leg_log) == len(first)


def test_the_memo_holds_one_surface_only(p21, p22):
    # legs of another surface inside the scope bypass the memo
    legs = _route_legs(p21)
    plain = I._leg_sums(legs, p22)
    with I._leg_memo(p21):
        I._leg_sums(legs, p21)
        _same(I._leg_sums(legs, p22), plain)


def test_nested_scopes_restore_the_outer_memo(p21):
    assert I._LEG_MEMO.get() is None
    with I._leg_memo(p21):
        outer = I._LEG_MEMO.get()
        with I._leg_memo(p21):
            assert I._LEG_MEMO.get() is not outer
        assert I._LEG_MEMO.get() is outer
    assert I._LEG_MEMO.get() is None


@pytest.mark.parametrize(
    "surfaces",
    [[("p21", None)], [("wide-ratio", WIDE)], [(f"class{i}", p) for i, p in enumerate(CLASSES)]],
    ids=["p21", "wide-ratio", "classes"],
)
def test_cone_reports_equal_the_unscoped_values(surfaces, request, monkeypatch):
    # with and without the memo: the same ConeReport.to_dict() bytes, and the
    # same value from every apex() and immersion() call classify_cone makes,
    # the limits from above and below and f(lo), f(hi) among them
    assert len(CLASSES) == 28
    calls = []

    def spied(fn):
        def spy(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((fn.__name__, args, out))
            return out

        return spy

    monkeypatch.setattr(S, "apex", spied(S.apex))
    monkeypatch.setattr(S, "immersion", spied(S.immersion))
    for name, p in surfaces:
        p = p or request.getfixturevalue(name)
        for c in S.components(p):
            calls.clear()
            rep = S.classify_cone(c, p)
            assert I._LEG_MEMO.get() is None
            scoped = calls[:]
            assert [(n, args[0]) for n, args, _ in scoped[:4]] == [
                ("apex", (c.lo, c.hi)), ("apex", (c.lo, c.hi)),
                ("immersion", complex(c.lo)), ("immersion", complex(c.hi)),
            ]
            calls.clear()
            with monkeypatch.context() as unscoped:
                unscoped.setattr(S, "_leg_memo", _no_memo)
                ref = S.classify_cone(c, p)
            assert json.dumps(rep.to_dict()) == json.dumps(ref.to_dict()), (name, c)
            assert repr(scoped) == repr(calls), (name, c)


def test_classify_cone_integrates_no_leg_twice(p21, leg_log, kernel_log):
    # legs and panels of each p21 cone; without the memo the two quarter arcs
    # at the origin's radius were integrated 13 times between them, 108 legs
    # and 336, 310 and 310 panels. Kernel calls and points beside them: with
    # each split panel in its own call there were 172, 146 and 146 calls on
    # the same points, with the two halves of a split in one call 91, 78 and
    # 78, with every split of a round in one call 19, 20 and 19 (97 legs on
    # 259, 233 and 233 panels). Then the stadium chain starts at its first
    # point, not at a routed immersion of it, and the four vote paths share
    # one batch: 2 legs fewer (95 legs on 247, 223 and 223 panels, 12, 12 and
    # 11 calls on 3,705, 3,345 and 3,345 points). Now each transverse limit
    # takes one route instead of five: 16 legs fewer, with the kernel calls
    # unchanged
    work = []
    for c in S.components(p21):
        leg_log.clear()
        kernel_log.clear()
        S.classify_cone(c, p21)
        legs = [leg for leg, _ in leg_log]
        assert len(set(legs)) == len(legs)
        work.append((len(legs), sum(n for _, n in leg_log), len(kernel_log), sum(kernel_log)))
    assert work == [(79, 151, 12, 2265), (79, 143, 12, 2145), (79, 143, 11, 2145)]


def test_classify_cone_kernel_calls_are_batches_and_rounds(p21, kernel_log, monkeypatch):
    # every kernel call of a p21 classification is a chunk's first-panel
    # batch or a round of _lockstep; adaptive_leg is served every panel, and
    # no panel is evaluated alone
    sums, calls = I._sums, []

    def counted_sums(*args):
        calls.append(sys._getframe(1).f_code.co_name)
        return sums(*args)

    monkeypatch.setattr(I, "_sums", counted_sums)
    for c in S.components(p21):
        calls.clear()
        kernel_log.clear()
        S.classify_cone(c, p21)
        assert len(kernel_log) == len(calls)
        assert set(calls) == {"_chunk_server", "_lockstep"}, calls


def test_the_memo_does_not_leak_after_a_failure(p21, leg_log):
    bad = SurfaceParams(m=2, n=0, a=(1, 2, 2.001, 3), alpha=(1, -1))
    with pytest.raises(QuadratureFailure):
        S.classify_cone(S.components(bad)[0], bad)
    assert I._LEG_MEMO.get() is None
    leg_log.clear()
    coarse = MM.GridSpec(radial_samples=28, angular_samples=16, seam_refinement=2)
    MM.sample_fundamental(p21, coarse)
    assert (len(leg_log), sum(n for _, n in leg_log)) == (2548, 2848)


def test_symmetry_check_is_unchanged_by_the_memo(p21, leg_log, monkeypatch):
    rng = np.random.default_rng(R.CHECK_SEED)
    rep = R._check_symmetry(p21, rng, R.ToleranceLadder())
    legs = [leg for leg, _ in leg_log]
    assert len(set(legs)) == len(legs)
    monkeypatch.setattr(R, "_leg_memo", _no_memo)
    leg_log.clear()
    ref = R._check_symmetry(p21, np.random.default_rng(R.CHECK_SEED), R.ToleranceLadder())
    assert json.dumps(rep) == json.dumps(ref)
    assert len(leg_log) > len(legs)


def test_the_mesh_is_sampled_outside_any_memo(p10, monkeypatch):
    # sample_fundamental's work counts are pinned, so no scope may reach it
    sample_fundamental, scopes = MM.sample_fundamental, []

    def spy(*args):
        scopes.append(I._LEG_MEMO.get())
        return sample_fundamental(*args)

    monkeypatch.setattr(MM, "sample_fundamental", spy)
    R.run_checks(p10, MM.GridSpec(radial_samples=28, angular_samples=16))
    assert scopes == [None]


def test_weld_check_integrates_no_leg_twice(p21, leg_log, monkeypatch):
    # the six endpoint routes of p21's three cones: 24 legs, of which 19
    # distinct, and 172 panels. Without the memo the batch of all the routes
    # and then each immersion integrate all 24, so twice over: 48 legs and
    # 344 panels
    fund = MM.sample_fundamental(p21, MM.GridSpec(radial_samples=40, angular_samples=20))
    leg_log.clear()
    residuals = MM._weld_check(fund, p21)
    assert I._LEG_MEMO.get() is None
    legs = [leg for leg, _ in leg_log]
    assert len(set(legs)) == len(legs)
    assert (len(legs), sum(n for _, n in leg_log)) == (19, 137)
    monkeypatch.setattr(MM, "_leg_memo", _no_memo)
    leg_log.clear()
    ref = MM._weld_check(fund, p21)
    assert [r.hex() for r in residuals] == [r.hex() for r in ref]
    assert (len(leg_log), sum(n for _, n in leg_log)) == (2 * 24, 2 * 172)


@pytest.mark.parametrize("fixture", ["p21", "p22"])
def test_planned_symmetry_and_weld_batches_give_the_unplanned_bytes(fixture, request, leg_log, kernel_log, monkeypatch):
    # the symmetry check and the weld check integrate all their routes in
    # one batch inside the memo before their immersions read it: the same
    # residuals, to the last bit, as immersions that each integrate their own
    # new legs, on the same legs and panels, in fewer kernel calls
    p = request.getfixturevalue(fixture)
    fund = MM.sample_fundamental(p, MM.GridSpec(radial_samples=40, angular_samples=20))

    def run():
        leg_log.clear()
        kernel_log.clear()
        sym = R._check_symmetry(p, np.random.default_rng(R.CHECK_SEED), R.ToleranceLadder())
        weld = MM._weld_check(fund, p)
        work = (len(leg_log), sum(n for _, n in leg_log), len(kernel_log), sum(kernel_log))
        return [sym["details"]["max_mirror_deviation"], *weld], work

    planned, work = run()
    for module in (R, MM):
        monkeypatch.setattr(module, "_immersion_routes", lambda points, p: [])
    unplanned, ref_work = run()
    assert [r.hex() for r in planned] == [r.hex() for r in unplanned]
    assert work[:2] == ref_work[:2] and work[3] == ref_work[3] and work[2] < ref_work[2]
