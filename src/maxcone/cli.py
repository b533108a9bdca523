"""Command-line interface: verify, mesh, catalog, minimal-measure.

Exit codes: 0 all checks pass, 1 verification or numeric failure, 2 usage
or configuration error. Config values are type-checked by the constructors
they are passed to (SurfaceParams, GridSpec, ToleranceLadder), so a
malformed one, like an unknown key, exits 2 with a message naming the key.
Reports are JSON; output files are written atomically (write to a temp
file, then rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys

from . import minimal as mini
from .catalog import build_catalog
from .core import end_value_w0
from .errors import MaxconeError, NumericFailure
from .mesh import GridSpec, _atomic_write, build_mesh, export_obj, export_ply, graph_check
from .params import SurfaceParams, validate_params
from .report import TOL_LEVELS, ToleranceLadder, run_checks
from .version import __version__

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

_FIELDS = {f.name for f in dataclasses.fields(SurfaceParams)}
# top-level config keys besides the SurfaceParams fields
_SECTIONS = {"params", "grid", "tolerances", "orientation"}


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise MaxconeError(f"config must be a JSON object, got {type(config).__name__}")
    unknown = set(config) - _SECTIONS - _FIELDS
    if unknown:
        raise MaxconeError(f"unknown config keys: {sorted(unknown)}")
    return config


def _section(config: dict, key: str, cls) -> dict:
    """The config object under key, checked for keys that cls does not take."""
    value = config.get(key, {})
    if not isinstance(value, dict):
        raise MaxconeError(f"config key {key!r} must be a JSON object, got {value!r}")
    unknown = set(value) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise MaxconeError(f"unknown {key} keys: {sorted(unknown)}")
    return value


def _params_from_config(config: dict) -> SurfaceParams:
    """The surface: its fields at the top level, or a params section, not both."""
    if "params" not in config:
        return validate_params(config)
    both = sorted(_FIELDS & set(config))
    if both:
        raise MaxconeError(f"config has a params section and top-level surface keys {both}")
    return validate_params(_section(config, "params", SurfaceParams))


def _grid_from_config(config: dict, grid_flag: str | None) -> GridSpec:
    section = dict(_section(config, "grid", GridSpec))
    if grid_flag is not None:
        r, _, a = grid_flag.lower().partition("x")
        if not (r.isdecimal() and a.isdecimal()):
            raise MaxconeError(f"--grid takes RxA, two integers like 200x100, got {grid_flag!r}")
        section["radial_samples"] = int(r)
        section["angular_samples"] = int(a)
    return GridSpec(**section)


def _tol_from_config(config: dict, level: str) -> ToleranceLadder:
    section = _section(config, "tolerances", ToleranceLadder)
    return ToleranceLadder(**section).scaled(TOL_LEVELS[level])


def _write_json(payload: dict, out_path: str | None, to_stdout: bool) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False, default=float)
    if to_stdout or out_path is None:
        print(text)
    if out_path is not None:
        _atomic_write(out_path, (text + "\n").encode("utf-8"))


def _stamp(report: dict) -> dict:
    report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return report


def cmd_verify(args) -> int:
    config = _load_config(args.config)
    p = _params_from_config(config)
    grid = _grid_from_config(config, args.grid)
    tol = _tol_from_config(config, args.tol)
    report = run_checks(p, grid, tol=tol, require_horizontal_ends=args.require_horizontal_ends)
    _write_json(_stamp(report), args.out, args.json)
    if not report["overall_pass"]:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_mesh(args) -> int:
    config = _load_config(args.config)
    p = _params_from_config(config)
    grid = _grid_from_config(config, args.grid)
    mesh = build_mesh(p, grid, copies=args.copies)
    findings = graph_check(mesh)
    out_path = args.out or "surface.obj"
    if out_path.lower().endswith(".ply"):
        export_ply(mesh, out_path)
    else:
        export_obj(mesh, out_path)
    report = {
        "version": __version__,
        "params": p.to_dict(),
        "output": out_path,
        "copies": args.copies,
        "vertices": len(mesh.vertices),
        "triangles": len(mesh.triangles),
        "cone_vertices": [v + 1 for v in mesh.cone_vertices],
        "cone_directions": mesh.cone_directions,
        "weld_residual_max": max(mesh.weld_residuals),
        "f2_identity_max_dev": mesh.f2_max_dev,
        "graph_check": findings.to_dict(),
    }
    _write_json(_stamp(report), _sidecar(out_path), args.json)
    return EXIT_OK if findings.passed else EXIT_CHECK_FAILED


def _sidecar(out_path: str) -> str:
    root, _ = os.path.splitext(out_path)
    return root + ".report.json"


def cmd_catalog(args) -> int:
    payload = build_catalog(args.cones)
    _write_json(payload, args.out, to_stdout=args.out is None or args.json)
    return EXIT_OK


def cmd_minimal_measure(args) -> int:
    config = _load_config(args.config)
    p = _params_from_config(config)
    orientation = config.get("orientation", "vertical-ends")
    d = mini.MinimalData(params=p, orientation=orientation)
    normalized = None
    if args.normalize_b2n:
        p = mini.b2n_normalize(p)
        d = mini.MinimalData(params=p, orientation=orientation)
        normalized = p.to_dict()
    lattice = mini.standard_loops(d)
    report = {
        "version": __version__,
        "params": p.to_dict(),
        "orientation": orientation,
        "normalized_params": normalized,
        "end_value_w0": end_value_w0(p),
        "minimal_counterpart": lattice.to_dict(),
    }
    _write_json(_stamp(report), args.out, args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="maxcone",
        description=(
            "Construct, verify, classify, and mesh singly periodic maximal "
            "graphs with cone-like singularities."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config with the parameter vector")
    common.add_argument("--out", default=None, help="output file path")
    common.add_argument("--json", action="store_true", help="print the report to stdout")
    gridded = argparse.ArgumentParser(add_help=False, parents=[common])
    gridded.add_argument("--grid", default=None, metavar="RxA", help="grid override, e.g. 200x100")

    v = sub.add_parser("verify", parents=[gridded], help="run the verification suite")
    v.add_argument(
        "--tol", default="default", choices=sorted(TOL_LEVELS), help="tolerance ladder level"
    )
    v.add_argument(
        "--require-horizontal-ends",
        action="store_true",
        help="additionally require w(0) = 1 (both ends horizontal)",
    )
    v.set_defaults(func=cmd_verify)

    me = sub.add_parser("mesh", parents=[gridded], help="export a triangulated mesh")
    me.add_argument("--copies", type=int, default=0, help="period translates to append")
    me.set_defaults(func=cmd_mesh)

    ca = sub.add_parser("catalog", help="enumerate cone configurations")
    ca.add_argument("--cones", type=int, required=True, help="total number of cones")
    ca.add_argument("--out", default=None)
    ca.add_argument("--json", action="store_true")
    ca.set_defaults(func=cmd_catalog)

    mm = sub.add_parser(
        "minimal-measure", parents=[common], help="measure minimal-surface loop periods"
    )
    mm.add_argument(
        "--normalize-b2n", action="store_true", help="apply the G(0) = 1 normalization first"
    )
    mm.set_defaults(func=cmd_minimal_measure)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (MaxconeError, OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
