"""The settable surface of the public API.

Every defaulted parameter of a callable in maxcone.__all__ and every
defaulted field of an exported dataclass is an option a caller can vary.
The set is pinned, so adding or removing one is a visible edit here.
"""

import dataclasses
import inspect

import pytest

import maxcone

OPTIONS = {
    "ConeConfig.dirs_neg",
    "GridSpec.angular_samples",
    "GridSpec.r_max",
    "GridSpec.r_min",
    "GridSpec.radial_samples",
    "GridSpec.seam_refinement",
    "MinimalData.orientation",
    "SurfaceParams.alpha",
    "SurfaceParams.b",
    "SurfaceParams.beta",
    "ToleranceLadder.algebraic",
    "ToleranceLadder.integrated",
    "ToleranceLadder.mesh",
    "apex(tol)",
    "assemble(copies)",
    "build_mesh(copies)",
    "build_mesh(g)",
    "classify_cone(apex_tol)",
    "immersion(basepoint)",
    "instantiate(spacing)",
    "run_checks(grid)",
    "run_checks(require_horizontal_ends)",
    "run_checks(tol)",
    "sample_fundamental(g)",
    "singular_set(verify)",
}


def _options():
    out = set()
    for name in maxcone.__all__:
        obj = getattr(maxcone, name)
        if dataclasses.is_dataclass(obj):
            out |= {
                f"{name}.{f.name}"
                for f in dataclasses.fields(obj)
                if f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING
            }
        elif callable(obj) and not inspect.isclass(obj):
            out |= {
                f"{name}({param.name})"
                for param in inspect.signature(obj).parameters.values()
                if param.default is not inspect.Parameter.empty
            }
    return out


def test_option_surface_is_pinned():
    assert len(OPTIONS) == 25
    assert _options() == OPTIONS


def test_tolerances_are_keyword_only():
    # a stale positional basepoint must not be read as a tolerance
    p = maxcone.SurfaceParams(m=1, n=0, a=(1, 2), alpha=(1,))
    comp = maxcone.singular_set(p)[0]
    with pytest.raises(TypeError):
        maxcone.apex((1.0, 2.0), "above", p, 1e-6)
    with pytest.raises(TypeError):
        maxcone.classify_cone(comp, p, 1e-6)
    with pytest.raises(TypeError):
        maxcone.run_checks(p, None, maxcone.ToleranceLadder())
