"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a [PASS]/[FAIL] line (visible with pytest -s); the
assertions carry the same conditions. Canonical classes with up to four
cones are instantiated once and shared.
"""

import json
import math
import time

import numpy as np
import pytest

from maxcone import catalog as catalog_mod
from maxcone import core, minimal, singular
from maxcone.catalog import classes_for_type, enumerate_types, instantiate
from maxcone.cli import main as cli_main
from maxcone.errors import Infeasible
from maxcone.integrate import apex, immersion, loop_period
from maxcone.mesh import GridSpec, build_mesh, export_obj, graph_check
from maxcone.params import SurfaceParams

TWO_PI = 2.0 * math.pi


def _report(num, ok, text):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def _random_configs(count=10, seed=424242):
    """Valid configurations drawn across types (1,0) through (3,2)."""
    rng = np.random.default_rng(seed)
    types = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]
    out = []
    for k in range(count):
        m, n = types[k % len(types)]
        a = np.cumsum(rng.uniform(0.4, 1.4, size=2 * m)) + rng.uniform(0.2, 1.0)
        b = -(np.cumsum(rng.uniform(0.4, 1.4, size=2 * n)) + rng.uniform(0.2, 1.0))
        alpha = tuple(int(s) for s in rng.choice([-1, 1], size=m))
        beta = tuple(int(s) for s in rng.choice([-1, 1], size=n))
        out.append(
            SurfaceParams(m=m, n=n, a=tuple(a), b=tuple(b), alpha=alpha, beta=beta)
        )
    return out


@pytest.fixture(scope="module")
def random_configs():
    return _random_configs()


@pytest.fixture(scope="module")
def canonical_classes():
    """All canonical classes with m + n <= 4, instantiated at unit spacing."""
    out = []
    for total in range(1, 5):
        for m, n in enumerate_types(total):
            for cfg, _ in classes_for_type(m, n):
                out.append((cfg, instantiate(cfg)))
    return out


def test_criterion_1_period_reproduction(random_configs):
    t0 = time.time()
    worst = 0.0
    for p in random_configs:
        v0 = np.asarray(loop_period(0, p).v)
        vi = np.asarray(loop_period(math.inf, p).v)
        worst = max(
            worst,
            float(np.max(np.abs(v0 - [0.0, -TWO_PI, 0.0]))),
            float(np.max(np.abs(vi - [0.0, TWO_PI, 0.0]))),
        )
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(
        1,
        ok,
        f"loop periods (0,-2pi,0)/(0,2pi,0) on 10 random configs, "
        f"worst dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_conformality(random_configs):
    t0 = time.time()
    worst = 0.0
    for p in random_configs:
        rng = np.random.default_rng(7)
        pts = core.regular_sample_points(p, 1000, rng)
        c = core.phi_values(pts, p)
        num = np.abs(c[0] ** 2 + c[1] ** 2 - c[2] ** 2)
        den = np.abs(c[0]) ** 2 + np.abs(c[1]) ** 2 + np.abs(c[2]) ** 2
        worst = max(worst, float(np.max(num / den)))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(2, ok, f"conformality residual {worst:.2e} at 1000 points/config, {elapsed:.2f}s")


def test_criterion_3_singular_set_identity(random_configs):
    ok = True
    for p in random_configs:
        comps = singular.singular_set(p, verify=False)
        for c in comps:
            for x in np.linspace(c.lo, c.hi, 25):
                g = core.gauss(complex(x), p).G
                if abs(abs(g) - 1.0) > 1e-10:
                    ok = False
        for x in singular.off_axis_probe_points(p, 1000):
            g = core.gauss(complex(x), p).G
            if abs(abs(g) - 1.0) <= 1e-10:
                ok = False
    _report(3, ok, "numeric |G|=1 locus matches closed-form intervals, no off-set hits")


def test_criterion_4_cone_point_property(random_configs):
    worst_sides = 0.0
    worst_const = 0.0
    for p in random_configs[:6]:
        for lo, hi in p.intervals():
            # limits from above and below; along the axis they are the endpoint values
            vals = [np.asarray(apex((lo, hi), s, p)[0]) for s in ("above", "below")]
            vals += [np.asarray(immersion(complex(x), p).f) for x in (lo, hi)]
            spread = max(np.max(np.abs(a - b)) for a in vals for b in vals)
            worst_sides = max(worst_sides, float(spread))
            # constancy along the interval: offsets above five interior points
            delta = 1e-7 * (hi - lo)
            fs = [
                np.asarray(immersion(complex(x, delta), p).f)
                for x in np.linspace(lo, hi, 7)[1:-1]
            ]
            worst_const = max(
                worst_const, float(max(np.max(np.abs(u - v)) for u in fs for v in fs))
            )
    ok = worst_sides <= 1e-6 and worst_const <= 1e-6
    _report(
        4,
        ok,
        f"apex four-side spread {worst_sides:.2e}, interval constancy {worst_const:.2e}",
    )


def test_criterion_5_direction_table(canonical_classes):
    mismatches = []
    for cfg, p in canonical_classes:
        comps = singular.components(p)
        want = {("pos", j + 1): d for j, d in enumerate(cfg.dirs_pos)}
        want.update({("neg", k + 1): d for k, d in enumerate(cfg.dirs_neg)})
        for comp in comps:
            r = singular.classify_cone(comp, p)
            expect = "up" if want[(comp.axis, comp.index)] == catalog_mod.UP else "down"
            # instantiate maps directions through the main-theorem signs, so
            # numeric-vs-theorem agreement is exactly numeric == expected
            if r.direction != expect or not r.matches_theorem:
                mismatches.append((cfg.m, cfg.n, comp.axis, comp.index, r.direction, expect))
            if r.matches_lemma_statement:
                mismatches.append((cfg.m, cfg.n, comp.axis, comp.index, "lemma-statement-agrees"))
    ok = not mismatches
    _report(
        5,
        ok,
        f"numeric direction matches the theorem sign convention on all "
        f"{len(canonical_classes)} canonical classes (m+n <= 4); mismatches: {mismatches}",
    )


def test_criterion_6_enumeration_counts(tmp_path):
    out4 = tmp_path / "cat4.json"
    out9 = tmp_path / "cat9.json"
    rc4 = cli_main(["catalog", "--cones", "4", "--out", str(out4)])
    rc9 = cli_main(["catalog", "--cones", "9", "--out", str(out9)])
    cat4 = json.loads(out4.read_text())
    cat9 = json.loads(out9.read_text())
    counts = {tuple(t["type"]): t["class_count"] for t in cat4["types"]}
    ok = (
        rc4 == 0
        and rc9 == 0
        and counts == {(4, 0): 6, (3, 1): 6, (2, 2): 5}
        and cat4["total_classes"] == 17
        and len(cat9["types"]) == 5
    )
    _report(6, ok, f"catalog counts {counts}, total {cat4['total_classes']}, nine-cone types {len(cat9['types'])}")


def test_criterion_7_and_8_graph_property(canonical_classes):
    failures = []
    worst_f2 = 0.0
    slowest = 0.0
    for cfg, p in canonical_classes:
        t0 = time.time()
        mesh = build_mesh(p, GridSpec())
        rep = graph_check(mesh)
        dt = time.time() - t0
        slowest = max(slowest, dt)
        worst_f2 = max(worst_f2, mesh.f2_max_dev)
        if not rep.passed or dt >= 30.0:
            failures.append(((cfg.m, cfg.n), rep.to_dict(), round(dt, 1)))
    ok7 = not failures
    _report(
        7,
        ok7,
        f"graph_check passed on default grids for all {len(canonical_classes)} "
        f"classes, slowest {slowest:.1f}s; failures: {failures}",
    )
    ok8 = worst_f2 <= 1e-10
    _report(8, ok8, f"f2 identity |f2 + Arg - c| worst deviation {worst_f2:.2e} over all mesh samples")


def test_criterion_9_horizontal_end_normalization():
    p = SurfaceParams(
        m=2, n=1, a=(1.0, 1.9, 2.7, 3.8), b=(-1.1, -2.3), alpha=(1, -1), beta=(1,)
    )
    q = core.normalize_horizontal_end(p, ("b", 2))
    dev = abs(core.end_value_w0(q) - 1.0)
    infeasible_all = True
    for m, n in ((1, 0), (2, 0), (1, 1), (2, 1)):
        for direction in (1, -1):
            alpha = tuple(direction for _ in range(m))  # all down / all up
            beta = tuple(-direction for _ in range(n))
            a = tuple(float(i + 1) for i in range(2 * m))
            b = tuple(-float(i + 1) for i in range(2 * n))
            cfg = SurfaceParams(m=m, n=n, a=a, b=b, alpha=alpha, beta=beta)
            try:
                core.normalize_horizontal_end(cfg, ("a", 2))
                infeasible_all = False
            except Infeasible:
                pass
    ok = dev <= 1e-12 and infeasible_all
    _report(
        9,
        ok,
        f"mixed (2,1) normalization gives w(0)=1 to {dev:.2e}; "
        f"all-same-direction instances all infeasible: {infeasible_all}",
    )


def test_criterion_10_minimal_counterpart():
    p = SurfaceParams(
        m=2, n=1, a=(1, 1.6, 2.4, 3.5), b=(-1.0, -1.8), alpha=(1, 1), beta=(1,)
    )
    q = minimal.b2n_normalize(p)
    g0_dev = abs(core.end_value_w0(q) - 1.0)  # G(0) = w(0) for the shared-curve data
    d = minimal.MinimalData(params=q, orientation="horizontal-ends")
    rng = np.random.default_rng(12)
    identity_worst = 0.0
    for z in core.regular_sample_points(q, 200, rng):
        z = complex(z)
        om = minimal.omega(z, d)
        t = core.phi(z, q)
        identity_worst = max(
            identity_worst,
            abs(1j * om[0] - t.phi1) / max(abs(t.phi1), 1e-290),
            abs(1j * om[1] - t.phi2) / max(abs(t.phi2), 1e-290),
            abs(om[2] - t.phi3) / max(abs(t.phi3), 1e-290),
        )
    loops = [
        [4.2 + 0.5j, 5.0 + 0.5j, 5.0 + 1.5j, 4.2 + 1.5j],
        [0.2 + 0.2j, 0.4 + 0.2j, 0.4 + 0.4j, 0.2 + 0.4j],
        [-1.0 - 2.0j, -0.5 - 2.5j, -1.5 - 2.8j],
    ]
    contractible_worst = 0.0
    for loop in loops:
        v, _ = minimal.measure_period(loop, d)
        contractible_worst = max(contractible_worst, float(np.max(np.abs(v))))
    ok = g0_dev <= 1e-12 and identity_worst <= 1e-14 and contractible_worst <= 1e-8
    _report(
        10,
        ok,
        f"G(0)=1 dev {g0_dev:.2e}; (i w1, i w2, w3) identity dev {identity_worst:.2e}; "
        f"contractible loops {contractible_worst:.2e}",
    )


def test_criterion_11_nondegeneracy(random_configs, canonical_classes):
    worst_floor = math.inf
    ok = True
    tested = list(random_configs) + [p for _, p in canonical_classes[:10]]
    for p in tested:
        for comp in singular.components(p):
            try:
                samples = singular.nondegeneracy(comp, p, n_samples=7)
            except Exception as exc:  # noqa: BLE001 - any failure fails the gate
                ok = False
                print("nondegeneracy failure:", exc)
                continue
            worst_floor = min(worst_floor, min(abs(s) for s in samples))
    ok = ok and worst_floor > 1e-6
    _report(
        11,
        ok,
        f"dG/(G dh) real and bounded from 0 on every interval "
        f"(smallest modulus {worst_floor:.2e})",
    )


def test_nine_cone_types_build_and_export(tmp_path):
    """Property-based acceptance for the nine-cone figures: types (8,1), (7,2)."""
    for m, n in ((8, 1), (7, 2)):
        cfg = classes_for_type(m, n)[0][0]
        p = instantiate(cfg, spacing=0.8)
        # criterion 1: periods
        v0 = np.asarray(loop_period(0, p).v)
        vi = np.asarray(loop_period(math.inf, p).v)
        assert np.max(np.abs(v0 - [0, -TWO_PI, 0])) <= 1e-8
        assert np.max(np.abs(vi - [0, TWO_PI, 0])) <= 1e-8
        # criterion 2: conformality
        rng = np.random.default_rng(2)
        pts = core.regular_sample_points(p, 1000, rng)
        c = core.phi_values(pts, p)
        num = np.abs(c[0] ** 2 + c[1] ** 2 - c[2] ** 2)
        den = np.abs(c[0]) ** 2 + np.abs(c[1]) ** 2 + np.abs(c[2]) ** 2
        assert float(np.max(num / den)) <= 1e-12
        # criterion 3: singular set
        singular.singular_set(p, verify=True, off_samples=1000)
        # criteria 4-5 on a sample of cones
        comps = singular.components(p)
        for comp in comps[:2] + comps[-1:]:
            r = singular.classify_cone(comp, p)
            assert r.apex_spread <= 1e-6
            assert r.matches_theorem
        # criteria 7-8: mesh, graph property, f2 identity
        mesh = build_mesh(p, GridSpec())
        rep = graph_check(mesh)
        assert rep.passed, rep.to_dict()
        assert mesh.f2_max_dev <= 1e-10
        assert len(mesh.cone_vertices) == 9
        out = tmp_path / f"nine_{m}_{n}.obj"
        export_obj(mesh, out)
        cone_lines = [
            l for l in out.read_text().splitlines() if l.startswith("# cone ")
        ]
        assert len(cone_lines) == 9
    print("[PASS] nine-cone property check: types (8,1) and (7,2) build, verify, and export")
