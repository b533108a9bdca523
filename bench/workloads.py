"""Workloads of the maxcone benchmark: seeded inputs, one op each, correctness gates.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned, as for a user who waits for each surface. An op
fails when it raises a typed MaxconeError, returns a non-finite number, or
breaks an independent check. Only a silent wrong answer (a non-finite
number, a broken check, output that differs on a repeated surface) makes
the run incorrect; a typed error is the program reporting its own failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

# The surface of the README example; every workload includes it, and the
# accuracy metrics are read from its op so they do not depend on the seed.
README_SURFACE = {
    "m": 2,
    "n": 1,
    "a": [1.0, 1.8, 2.5, 3.6],
    "b": [-1.2, -2.4],
    "alpha": [1, -1],
    "beta": [1],
}

# Known defect (ROADMAP open item 5): classify_cone raises NonConvergent on
# these two surfaces at the seed commit. They stay in cone-sweep so the defect
# shows in the failure count.
ITEM5_SURFACES = (
    {"m": 2, "n": 0, "a": [1.0, 2.0, 2.001, 3.0], "alpha": [1, -1]},
    {"m": 2, "n": 0, "a": [1e-3, 1.0, 10.0, 1e3], "alpha": [1, -1]},
)

GAP_RANGE = (0.3, 3.0)  # log-uniform gap ratios (gap over a_1 = 1)
SPACING_JITTER = (0.8, 1.25)  # log-uniform factor on the catalog spacing 1.0

# Resolution of the accuracy metrics: 1/1000 of the tolerance each quantity is
# checked against (f2: 1e-10 in report; periods, quadrature: the integrated
# tolerance 1e-8; weld, apex spread: the mesh tolerance 1e-6). Values below
# are round-off and are reported as the floor, so that reordering a sum does
# not read as an accuracy change.
ACCURACY_FLOOR = {
    "quad_err_max": 1e-11,
    "f2_dev_max": 1e-13,
    "weld_residual_max": 1e-9,
    "apex_spread_max": 1e-9,
    "period_dev_max": 1e-11,
}
ACCURACY_FAILED = 1.0  # reported when the reference op fails: worse than any tolerance
PERIOD_TOL = 1e-8


@dataclass
class Op:
    index: int
    label: str
    surface: dict
    config: str
    out: str = ""
    params: object = None  # SurfaceParams, built at set-up
    reference: bool = False  # accuracy metrics are read from this op


@dataclass
class Outcome:
    seconds: float = 0.0
    ok: bool = True
    wrong: bool = False  # silent wrong answer: makes the run incorrect
    error: str = ""
    digest: str = ""
    accuracy: dict = field(default_factory=dict)


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def seeded_surface(rng: random.Random, m: int, n: int) -> dict:
    """Admissible (m, n) surface: a_1 = 1, log-uniform gaps, random signs."""
    a = [1.0]
    for _ in range(2 * m - 1):
        a.append(a[-1] + _loguniform(rng, *GAP_RANGE))
    b = []
    if n:
        b.append(-_loguniform(rng, *GAP_RANGE))
        for _ in range(2 * n - 1):
            b.append(b[-1] - _loguniform(rng, *GAP_RANGE))
    return {
        "m": m,
        "n": n,
        "a": a,
        "b": b,
        "alpha": [rng.choice((1, -1)) for _ in range(m)],
        "beta": [rng.choice((1, -1)) for _ in range(n)],
    }


def _write_config(path: str, surface: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(surface, fh)


def _nonfinite(value) -> bool:
    """True when any number inside a JSON-like value is NaN or infinite."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return False
    if isinstance(value, (int, float)):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_nonfinite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_nonfinite(v) for v in value)
    return not math.isfinite(float(value))


def _fail(out: Outcome, message: str, wrong: bool = True) -> Outcome:
    out.ok = False
    out.wrong = out.wrong or wrong
    out.error = out.error or message
    return out


def _floored(values: dict) -> dict:
    return {k: max(float(v), ACCURACY_FLOOR[k]) for k, v in values.items()}


END_PERIODS = ((0.0, -2.0 * math.pi, 0.0), (0.0, 2.0 * math.pi, 0.0))  # loops around 0, inf


def _end_periods(m, p):
    return m.integrate.loop_period(0, p), m.integrate.loop_period(math.inf, p)


def _period_dev(periods) -> float:
    """Largest deviation of the end-loop periods from (0, -2pi, 0) and (0, 2pi, 0)."""
    return max(
        max(abs(x - e) for x, e in zip(pv.v, expect)) for pv, expect in zip(periods, END_PERIODS)
    )


class Workload:
    name = ""
    # A run makes min_ops ops whatever --seconds says, then whole steps of
    # `step` ops until --seconds have passed, so the op mix of a run does not
    # depend on where the clock happens to stop.
    min_ops = 1
    step = 1
    anchored = False  # the reference op's work counts are pinned (run.ANCHOR)

    def make_ops(self, m, seed: int, workdir: str) -> list[Op]:
        raise NotImplementedError

    def run(self, m, op: Op):
        raise NotImplementedError

    def check(self, m, op: Op, result, seen: dict) -> Outcome:
        raise NotImplementedError

    def expected_spans(self) -> tuple[str, ...]:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Verify(Workload):
    """`maxcone verify` at the default grid.

    The README surface runs twice, then ops alternate between seeded
    surfaces, whose types cycle through m + n = 1..4 in a fixed order, and
    the README surface again (a repeat, so the report's determinism is
    checked on every run). A run makes at least four ops: the README surface
    three times and one seeded (1, 0) surface, the cheapest type, so the
    median op, the slowest op and the peak memory of a four-op run are the
    README surface's and do not move with the seed.
    """

    name = "verify"
    min_ops = 4
    step = 2
    anchored = True
    TYPES = ((1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (2, 2), (4, 0))

    def make_ops(self, m, seed, workdir):
        rng = random.Random(seed)
        readme = os.path.join(workdir, "readme.json")
        _write_config(readme, README_SURFACE)
        ops = [Op(0, "readme(2,1)", README_SURFACE, readme, reference=True)]
        for k in range(16):
            ops.append(Op(len(ops), "readme(2,1)", README_SURFACE, readme))
            mm, nn = self.TYPES[k % len(self.TYPES)]
            surface = seeded_surface(rng, mm, nn)
            cfg = os.path.join(workdir, f"verify{k}.json")
            _write_config(cfg, surface)
            ops.append(Op(len(ops), f"seeded({mm},{nn})", surface, cfg))
        for op in ops:
            op.params = m.params.validate_params(op.surface)
            op.out = os.path.join(workdir, f"report{op.index}.json")
        return ops

    def run(self, m, op):
        return m.cli.main(["verify", "--config", op.config, "--out", op.out])

    def check(self, m, op, rc, seen):
        out = Outcome()
        if rc != 0:
            return _fail(out, f"verify exited {rc}", wrong=False)
        with open(op.out, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(op.out)
        if _nonfinite(report):
            return _fail(out, "non-finite number in report")
        if not report.get("overall_pass"):
            return _fail(out, "overall_pass is false with exit code 0")
        report.pop("timestamp", None)
        out.digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
        first = seen.setdefault(op.config, out.digest)
        if first != out.digest:
            return _fail(out, "report differs from the earlier report of the same surface")
        if op.reference:
            det = {c["name"]: c["details"] for c in report["checks"]}
            per = det["periods"]
            out.accuracy = _floored(
                {
                    "quad_err_max": report["quadrature"]["max_error_estimate"],
                    "f2_dev_max": det["graph_checks"]["f2_identity_max_dev"],
                    "weld_residual_max": det["graph_checks"]["weld_residual_max"],
                    "apex_spread_max": det["apex_coincidence"]["worst_four_side_spread"],
                    "period_dev_max": max(per["deviation_0"], per["deviation_inf"]),
                }
            )
        return out

    def expected_spans(self):
        return (
            "cli.main", "report.run_checks", "core.w_values", "core.gauss",
            "integrate.adaptive_leg", "integrate.immersion", "integrate.apex",
            "integrate.loop_period", "singular.singular_set", "singular.classify_cone",
            "singular.nondegeneracy", "singular.embedded_neighborhood_proxy",
            "mesh.build_mesh", "mesh.sample_fundamental", "mesh.assemble", "mesh.graph_check",
        )


# ---------------------------------------------------------------------------


@dataclass
class ConeResult:
    comps: list
    cones: list
    periods: tuple
    minimal_data: object
    lattice: object


class ConeSweep(Workload):
    """Singular set, cone classification, end-loop periods and minimal loops; no meshing.

    A run is at least three whole passes; each pass is the two ROADMAP item-5
    surfaces, the README surface, then the catalog's 28 canonical classes for
    m + n <= 4, each at a fresh seeded spacing.
    """

    name = "cone-sweep"
    min_ops = 93
    step = 31

    def make_ops(self, m, seed, workdir):
        rng = random.Random(seed)
        # each cone count's classes spread evenly over the pass, so that no stretch
        # of the pass (and of the host's speed) holds only one kind of op
        placed = []
        for total in range(1, 5):
            group = [
                cfg
                for mm, nn in m.catalog.enumerate_types(total)
                for cfg, _ in m.catalog.classes_for_type(mm, nn)
            ]
            placed.extend(((i + 0.5) / len(group), total, cfg) for i, cfg in enumerate(group))
        classes = [cfg for _, _, cfg in sorted(placed, key=lambda t: t[:2])]
        ops = []
        for _ in range(4):
            for k, surface in enumerate(ITEM5_SURFACES):
                ops.append(Op(len(ops), f"item5-{k + 1}", surface, ""))
            ops.append(Op(len(ops), "readme(2,1)", README_SURFACE, "", reference=len(ops) == 2))
            for cfg in classes:
                spacing = _loguniform(rng, *SPACING_JITTER)
                p = m.catalog.instantiate(cfg, spacing=spacing)
                ops.append(Op(len(ops), f"class({cfg.m},{cfg.n})", p.to_dict(), "", params=p))
        for op in ops:
            if op.params is None:
                op.params = m.params.validate_params(op.surface)
        return ops

    def run(self, m, op):
        p = op.params
        comps = m.singular.singular_set(p, verify=True)
        cones = [m.singular.classify_cone(c, p) for c in comps]
        periods = _end_periods(m, p)
        d = m.minimal.MinimalData(params=p)
        return ConeResult(comps, cones, periods, d, m.minimal.standard_loops(d))

    def check(self, m, op, r, seen):
        out = Outcome()
        numbers = [list(c.apex) + [c.apex_spread] + list(c.dg_over_gdh_samples) for c in r.cones]
        numbers += [list(pv.v) + [pv.quad_error] for pv in r.periods]
        numbers += [list(v) for _, v in r.lattice.measured_loops]
        if _nonfinite(numbers):
            return _fail(out, "non-finite number in cone-sweep output")
        for comp, cone in zip(r.comps, r.cones):
            if cone.direction != m.singular.theorem_direction(comp):
                return _fail(out, f"cone {comp.axis}{comp.index} points {cone.direction}")
        if _period_dev(r.periods) > PERIOD_TOL:
            return _fail(out, f"end-loop periods {[pv.v for pv in r.periods]} are not {END_PERIODS}")
        name, measured = r.lattice.measured_loops[0]
        closed = m.minimal.end_loop_residue(r.minimal_data)
        if name != "end_0" or max(abs(x - e) for x, e in zip(measured, closed)) > PERIOD_TOL:
            return _fail(out, f"minimal end loop {measured} is not the residue {closed}")
        out.digest = hashlib.sha256(repr((numbers, [c.direction for c in r.cones])).encode()).hexdigest()
        if seen.setdefault(repr(op.surface), out.digest) != out.digest:
            return _fail(out, "output differs from the earlier output of the same surface")
        if op.reference:
            p = op.params
            bp = p.default_basepoint()
            f2 = weld = 0.0
            for comp, cone in zip(r.comps, r.cones):
                expected_x2 = math.atan2(bp.imag, bp.real) - (0.0 if comp.axis == "pos" else math.pi)
                f2 = max(f2, abs(cone.apex[1] - expected_x2))
                for x in (comp.lo, comp.hi):
                    direct = m.integrate.immersion(complex(x), p, bp).f
                    weld = max(weld, max(abs(u - v) for u, v in zip(direct, cone.apex)))
            out.accuracy = _floored(
                {
                    "quad_err_max": max(pv.quad_error for pv in r.periods),
                    "f2_dev_max": f2,
                    "weld_residual_max": weld,
                    "apex_spread_max": max(c.apex_spread for c in r.cones),
                    "period_dev_max": _period_dev(r.periods),
                }
            )
        return out

    def expected_spans(self):
        return (
            "core.w_values", "core.gauss", "integrate.adaptive_leg", "integrate.immersion",
            "integrate.apex", "integrate.loop_period", "singular.singular_set",
            "singular.classify_cone", "singular.nondegeneracy",
            "singular.embedded_neighborhood_proxy", "minimal.standard_loops",
            "minimal.measure_period", "catalog.enumerate_types", "catalog.classes_for_type",
            "catalog.canonicalize", "catalog.instantiate",
        )


WORKLOADS = {w.name: w for w in (Verify, ConeSweep)}
