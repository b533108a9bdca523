"""One rule set turns every polyline into legs: integrate._polyline_legs.

integrate_path and the stadium chain call it with cuts="reject", and
minimal.measure_period with cuts="flip". The table below pins what both
public entry points do with the inputs on which they used to disagree or to
fail late; the property test checks the legs themselves, with no quadrature.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import oracles
from maxcone import integrate as I
from maxcone import minimal as M
from maxcone.errors import NotClosedOnCurve, PathThroughSingularity
from test_kernels import hard_points, surfaces

INF, NAN = float("inf"), float("nan")

# On a = (1, 2). Each row: the waypoints, then what integrate_path and
# measure_period (which closes the polyline) give: a pattern of the
# PathThroughSingularity message, another error type, or the closed-form
# vector. The comment says what they gave before the rules were shared.
ROWS = {
    # along the cut [1, 2]: measure_period hit the max-depth QuadratureFailure
    "along-cut loop": ([0.5 + 1j, 0.5, 3.4, 3.4 + 1j], r"\[1\.0, 2\.0\]", r"\[1\.0, 2\.0\]"),
    # through z = 0: both failed with a non-finite integrand
    "axis segment through 0": ([-0.5, 0.5], "through z = 0", "through z = 0"),
    "crossing at 0": ([0.3 - 1j, -0.3 + 1j], "x=0.0", "x=0.0"),
    # a waypoint on the cut: integrate_path accepted it from below
    "touches the cut from below": ([0.5 - 1j, 1.5, 3 - 1j], r"\(1\.5\+0j\)", r"\(1\.5\+0j\)"),
    "touches the cut from above": ([0.5 + 1j, 1.5, 3 + 1j], r"\(1\.5\+0j\)", r"\(1\.5\+0j\)"),
    # a square-root leg along the cut: integrate_path returned (0, 0, 0)
    "square-root leg along the cut": ([1, 1.5], r"\(1\.5\+0j\)", r"\(1\+0j\)"),
    # 7e-4 from the branch point 2: integrate_path rejected it under an
    # interior-waypoint clearance rule
    "near a branch point": (
        [3 + 1j, 2.0005 + 0.0005j, 3 - 1j],
        (0.0, 2.0 * math.atan(1.0 / 3.0), 0.0),
        (0.0, 0.0, 0.0),
    ),
    # crosses [1, 2] at a t that rounds to 1: measure_period stayed on the
    # sheet and returned a vector
    "grazing crossing": ([1.5 + 1j, 1.5 - 1e-300j, 2.5 - 1j, 2.5 + 1j], "x=1.5", NotClosedOnCurve),
    # no loop: measure_period raised IndexError on [] and returned 0 on one point
    "no waypoint": ([], "two waypoints", "two waypoints"),
    "one waypoint": ([1 + 1j], "two waypoints", "two waypoints"),
    # measure_period integrated around the repeated point
    "repeated waypoint": ([1 + 1j, 1 + 1j, 2 + 1j], "distinct", "distinct"),
    # both warned and failed with a non-finite integrand
    "waypoint at infinity": ([1 + 1j, complex(INF, 0.0)], r"\(inf\+0j\)", r"\(inf\+0j\)"),
    "NaN waypoint": ([1 + 1j, complex(NAN, 1.0)], r"\(nan\+1j\)", r"\(nan\+1j\)"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("fn", ["integrate_path", "measure_period"])
def test_regression_table(fn, row, p10):
    waypoints, *outcomes = ROWS[row]
    expect = outcomes[fn == "measure_period"]

    def run():
        if fn == "integrate_path":
            return I.integrate_path(I.PathSpec(waypoints), p10)
        return M.measure_period(waypoints, M.MinimalData(params=p10))

    if isinstance(expect, str):
        with pytest.raises(PathThroughSingularity, match=expect):
            run()
    elif isinstance(expect, type):
        with pytest.raises(expect):
            run()
    else:
        v, err = run()
        assert np.asarray(v) == pytest.approx(expect, abs=1e-8)
        assert err < 1e-8


def _ends(leg):
    """(start, end) of a leg as the polyline joins them."""
    if isinstance(leg, I.SegmentLeg):
        return leg.z_a, leg.z_b
    if isinstance(leg, I.SqrtApproachLeg):
        return leg.z_outer, leg.c
    return leg.inner.c, leg.inner.z_outer  # a reversed square-root leg


def _singular_meeting(a, b, p):
    """Where the closed segment [a, b] meets 0 or a closed interval, exactly.

    Returns the (lo, hi) range on the real axis as Fractions, or None.
    """
    (ax, ay), (bx, by) = [(Fraction(z.real), Fraction(z.imag)) for z in (a, b)]
    if ay == 0 and by == 0:
        lo, hi = min(ax, bx), max(ax, bx)
    elif ay == 0 or by == 0:
        lo = hi = ax if ay == 0 else bx
    elif (ay > 0) == (by > 0):
        return None
    else:
        lo = hi = ax + (bx - ax) * ay / (ay - by)
    for ilo, ihi in [(0.0, 0.0), *p.intervals()]:
        if max(lo, ilo) <= min(hi, ihi):
            return max(lo, Fraction(ilo)), min(hi, Fraction(ihi))
    return None


def _polylines(p):
    """Waypoint lists on and off the real axis, some straight above or below a hard point."""
    coord = st.floats(min_value=-40.0, max_value=40.0)
    # off the axis by at least 1e-3: the old splitter misses a crossing whose
    # t rounds to 0 or 1 (the grazing row of the table), so the comparison
    # with it keeps t away from both
    height = st.floats(min_value=1e-3, max_value=40.0).flatmap(lambda h: st.sampled_from((h, -h)))
    axis = st.sampled_from([complex(z) for z in hard_points(p) if cmath.isfinite(z)])
    above_axis = st.builds(lambda z, h: z + 1j * h, axis, height)
    points = st.one_of(axis, st.builds(complex, coord), st.builds(complex, coord, height), above_axis)
    return st.lists(st.one_of(points, above_axis), min_size=2, max_size=8)


@given(p=surfaces(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_polyline_legs_properties(p, data):
    drawn = data.draw(_polylines(p))
    drawn = [z for i, z in enumerate(drawn) if i == 0 or z != drawn[i - 1]]
    if len(drawn) < 2:
        reject()
    wps = I.PathSpec(drawn).waypoints
    bps = p.branch_points()
    for cuts in ("reject", "flip"):
        try:
            legs, sheets, sheet = I._polyline_legs(wps, p, cuts=cuts)
        except PathThroughSingularity:
            # never without cause: some segment meets 0 or a closed interval
            assert any(_singular_meeting(u, v, p) for u, v in zip(wps, wps[1:]))
            continue
        # contiguous from the first waypoint to the last
        ends = [_ends(leg) for leg in legs]
        assert ends[0][0] == wps[0] and ends[-1][1] == wps[-1]
        assert all(b == c for (_, b), (c, _) in zip(ends, ends[1:]))
        assert len(sheets) == len(legs) and set(sheets) <= {1, -1}
        # no straight leg meets 0 or a closed interval, except a flip leg at
        # the end where it was split off inside a cut (the split point is
        # rounded, so the exact meeting lies within the same cut)
        for leg, (a, b) in zip(legs, ends):
            hit = _singular_meeting(a, b, p) if isinstance(leg, I.SegmentLeg) else None
            if hit is None:
                continue
            assert cuts == "flip"
            split = [z for z in (a, b) if z not in wps]
            assert len(split) == 1 and hit[0] == hit[1]
            x = split[0].real
            assert any(lo < x < hi and lo < hit[0] < hi for lo, hi in p.intervals())
            assert x not in bps
        if cuts == "reject":
            assert set(sheets) <= {1} and sheet == 1
        else:
            # the legs and sheets of the old splitter's non-empty pieces
            pieces, final = oracles.sheet_split_segments_ref(wps, p)
            pieces = [(a, b, s) for a, b, s in pieces if a != b]
            assert repr([(leg.z_a, leg.z_b) for leg in legs]) == repr([(a, b) for a, b, _ in pieces])
            assert sheets == [s for _, _, s in pieces] and sheet == final
