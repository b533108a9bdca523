"""Verification report: the full invariant suite for one surface.

Every check appears exactly once, in a fixed order, with machine-parseable
details and the conventions (basepoint, gauge, tolerance ladder) echoed so
a report is self-describing. Sampling inside checks uses a fixed seed
recorded in the report; the only nondeterministic field is the timestamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core, singular
from .errors import MaxconeError
from .integrate import _leg_memo, immersion, loop_period
from .mesh import GridSpec, build_mesh, graph_check
from .params import SurfaceParams, is_real
from .version import __version__

CHECK_SEED = 20250808


@dataclass(frozen=True)
class ToleranceLadder:
    """Default tolerances: round-off, quadrature, and mesh-level scales."""

    algebraic: float = 1e-12
    integrated: float = 1e-8
    mesh: float = 1e-6

    def __post_init__(self):
        for name, v in self.to_dict().items():
            if not is_real(v):
                raise ValueError(f"{name} must be a finite real, got {v!r}")
            object.__setattr__(self, name, float(v))

    def scaled(self, factor: float) -> "ToleranceLadder":
        return ToleranceLadder(
            algebraic=self.algebraic * factor,
            integrated=self.integrated * factor,
            mesh=self.mesh * factor,
        )

    def to_dict(self) -> dict:
        return {"algebraic": self.algebraic, "integrated": self.integrated, "mesh": self.mesh}


TOL_LEVELS = {"strict": 0.1, "default": 1.0, "relaxed": 10.0}


def run_checks(
    p: SurfaceParams,
    grid: GridSpec | None = None,
    *,
    tol: ToleranceLadder | None = None,
    require_horizontal_ends: bool = False,
) -> dict:
    """Run the invariant suite and return the report dictionary.

    The pointwise checks run on 1000 regular points drawn with CHECK_SEED.
    f is integrated from the fixed origin a_{2m} + 1 (conventions.basepoint).
    """
    if tol is None:
        tol = ToleranceLadder()
    if grid is None:
        grid = GridSpec()
    rng = np.random.default_rng(CHECK_SEED)
    checks = []

    pts = core.regular_sample_points(p, 1000, rng)
    w, G, _ = core.weierstrass_data(pts, p)
    checks.append(_check_conformality(pts, w, tol))
    checks.append(_check_branch_coherence(p, pts, w, tol))
    checks.append(_check_gauss_modulus(w, G, tol))
    checks.append(_check_singular_set(p, tol))
    comps = singular.components(p)
    reports, cone_checks = _cone_checks(comps, p, tol)
    checks.extend(cone_checks)
    checks.append(_check_periods(p, tol))
    mesh_check, quad_max = _check_graph(p, grid, tol)
    checks.append(mesh_check)
    checks.append(_check_symmetry(p, rng, tol))
    if require_horizontal_ends:
        checks.append(_check_horizontal_ends(p, tol))

    overall = all(c["passed"] for c in checks)
    basepoint = p.default_basepoint()
    return {
        "version": __version__,
        "params": p.to_dict(),
        "conventions": {
            "basepoint": [basepoint.real, basepoint.imag],
            "gauge": "a_1 = 1 for catalog-generated parameters",
            "mirror_constant": -math.atan2(basepoint.imag, basepoint.real),
            "branch": "Re w >= 0, ties Im w >= 0",
            "direction_rule": "apex x3 above nearby boundary x3 means up",
            "sample_seed": CHECK_SEED,
        },
        "tolerances": tol.to_dict(),
        "checks": checks,
        "cones": [r.to_dict() for r in reports],
        "quadrature": {"max_error_estimate": quad_max},
        "overall_pass": bool(overall),
    }


def _entry(name: str, passed: bool, **details) -> dict:
    return {"name": name, "passed": bool(passed), "details": details}


def _check_conformality(pts, w, tol):
    c = core.phi_from_w(pts, w)
    num = np.abs(c[0] ** 2 + c[1] ** 2 - c[2] ** 2)
    den = np.abs(c[0]) ** 2 + np.abs(c[1]) ** 2 + np.abs(c[2]) ** 2
    worst = float(np.max(num / den))
    return _entry(
        "conformality", worst <= tol.algebraic, max_relative_residual=worst, samples=len(pts)
    )


def _check_branch_coherence(p, pts, w, tol):
    w2 = core.w2_values(pts, p)
    resid = float(np.max(np.abs(w**2 - w2) / np.abs(w2)))
    re_ok = bool(np.all(w.real >= 0.0))
    return _entry(
        "branch_coherence",
        resid <= tol.algebraic and re_ok,
        max_relative_residual=resid,
        re_w_nonnegative=re_ok,
    )


def _check_gauss_modulus(w, G, tol):
    absg = np.abs(G[np.isfinite(G)])
    min_mod = float(np.min(absg))
    # nu normalization on the same samples
    nus = core.nu_from_w(w)
    nu_norm_dev = float(np.max(np.abs(np.linalg.norm(nus, axis=1) - 1.0)))
    nu3_ok = bool(np.all(nus[:, 2] > 0.0))
    return _entry(
        "gauss_modulus",
        min_mod >= 1.0 - tol.algebraic and nu_norm_dev <= 1e-14 and nu3_ok,
        min_abs_g=min_mod,
        nu_norm_deviation=nu_norm_dev,
        nu3_positive=nu3_ok,
    )


def _check_singular_set(p, tol):
    try:
        comps = singular.singular_set(p, verify=True)
    except MaxconeError as exc:
        return _entry("singular_set", False, error=str(exc))
    return _entry(
        "singular_set",
        True,
        components=[[c.lo, c.hi] for c in comps],
        count=len(comps),
        expected_count=p.m + p.n,
    )


def _cone_checks(comps, p, tol):
    reports = []
    spread_worst = 0.0
    dir_ok = True
    endpoint_ok = True
    mismatches = []
    try:
        for comp in comps:
            r = singular.classify_cone(comp, p, apex_tol=tol.mesh)
            reports.append(r)
            spread_worst = max(spread_worst, r.apex_spread)
            if not r.matches_theorem:
                dir_ok = False
                mismatches.append([comp.axis, comp.index])
            endpoint_ok &= r.endpoint_gauss_ok
    except MaxconeError as exc:
        return reports, [
            _entry("apex_coincidence", False, error=str(exc)),
            _entry("cone_directions", False, error=str(exc)),
            _entry("nondegeneracy", False, error=str(exc)),
        ]
    checks = [
        _entry(
            "apex_coincidence",
            spread_worst <= tol.mesh,
            worst_four_side_spread=spread_worst,
        ),
        _entry(
            "cone_directions",
            dir_ok,
            numeric_vs_theorem_mismatches=mismatches,
            lemma_statement_agrees=[r.matches_lemma_statement for r in reports],
            endpoint_gauss_ok=endpoint_ok,
        ),
        _entry(
            "nondegeneracy",
            endpoint_ok,
            per_cone_ranges=[
                [min(r.dg_over_gdh_samples), max(r.dg_over_gdh_samples)] for r in reports
            ],
        ),
    ]
    return reports, checks


def _check_periods(p, tol):
    try:
        p0 = loop_period(0, p)
        pinf = loop_period(math.inf, p)
    except MaxconeError as exc:
        return _entry("periods", False, error=str(exc))
    twopi = 2.0 * math.pi
    d0 = max(abs(p0.v[0]), abs(p0.v[1] + twopi), abs(p0.v[2]))
    dinf = max(abs(pinf.v[0]), abs(pinf.v[1] - twopi), abs(pinf.v[2]))
    closure = max(abs(a + b) for a, b in zip(p0.v, pinf.v))
    ok = d0 <= tol.integrated and dinf <= tol.integrated and closure <= tol.integrated
    return _entry(
        "periods",
        ok,
        loop_0=list(p0.v),
        loop_inf=list(pinf.v),
        deviation_0=d0,
        deviation_inf=dinf,
        residue_closure=closure,
        quad_error=max(p0.quad_error, pinf.quad_error),
    )


def _check_graph(p, grid, tol):
    try:
        mesh = build_mesh(p, grid)
        rep = graph_check(mesh)
    except MaxconeError as exc:
        return _entry("graph_checks", False, error=str(exc)), None
    f2_ok = mesh.f2_max_dev <= 1e-10
    weld_ok = max(mesh.weld_residuals) <= tol.mesh
    details = rep.to_dict()
    details.pop("passed", None)
    details.update(
        f2_identity_max_dev=mesh.f2_max_dev,
        weld_residual_max=max(mesh.weld_residuals),
        apex_residual_max=mesh.apex_residual_max,
        vertices=len(mesh.vertices),
        triangles=len(mesh.triangles),
    )
    return (
        _entry("graph_checks", rep.passed and f2_ok and weld_ok, **details),
        mesh.quad_error_max,
    )


def _check_symmetry(p, rng, tol):
    # the 16 routes open with one of two quarter arcs at the origin's radius;
    # the memo integrates each distinct leg once, with unchanged values
    pts = core.regular_sample_points(p, 8, rng, upper=True)
    worst = 0.0
    with _leg_memo(p):
        for z in pts:
            fu = np.asarray(immersion(complex(z), p).f)
            fl = np.asarray(immersion(complex(z).conjugate(), p).f)
            worst = max(worst, float(np.max(np.abs(fu - fl * np.array([1.0, -1.0, 1.0])))))
    return _entry("symmetry", worst <= tol.integrated, max_mirror_deviation=worst)


def _check_horizontal_ends(p, tol):
    w0 = core.end_value_w0(p)
    dirs = core.directions_from_signs(p)
    feasible = not all(d == dirs[0] for d in dirs)
    ok = abs(w0 - 1.0) <= tol.algebraic
    return _entry(
        "horizontal_ends",
        ok,
        w0=w0,
        horizontal=ok,
        normalization_feasible=feasible,
    )
