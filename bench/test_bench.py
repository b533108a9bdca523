"""Tests of the benchmark itself: anchor counts, tracing, gates.

Run from the repository root with `python3 -m pytest bench -q`.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import run  # noqa: E402
from spans import TRACED, SpanStats, Tracer  # noqa: E402
from workloads import README_SURFACE, WORKLOADS, _nonfinite  # noqa: E402


@pytest.fixture(scope="module")
def m():
    return run.import_package(SRC)


def _readme_params(m):
    return m.params.validate_params(README_SURFACE)


def test_anchor_counts_repeat_exactly(m):
    """README (2,1) at the default grid: fixed leg, panel, vertex and triangle counts, twice."""
    p = _readme_params(m)
    tracer = Tracer()
    tracer.install()
    try:
        for op in (0, 1):
            tracer.op_id = op
            m.mesh.assemble(m.mesh.sample_fundamental(p), p)
    finally:
        tracer.uninstall()
    s = SpanStats(tracer)
    legs = s.mask("integrate.adaptive_leg") & s.under("mesh.sample_fundamental")
    for op in (0, 1):
        sel = legs & (s.a["op"] == op)
        assert int(sel.sum()) == run.ANCHOR["legs"]
        assert int(s.a["count"][sel].sum()) == run.ANCHOR["panels"]
        assert s.counted("mesh.assemble", [op]) == run.ANCHOR["vertices"]
        assert s.counted("mesh.assemble", [op], second=True) == run.ANCHOR["triangles"]


def test_every_binding_site_is_wrapped_and_restored(m):
    originals = {
        id(getattr(getattr(m, mod), fn)): (mod, fn) for mod, fns in TRACED.items() for fn in fns
    }
    tracer = Tracer()
    tracer.install()
    try:
        left = [
            (name, attr)
            for name, mod in sys.modules.items()
            if name.startswith("maxcone")
            for attr, value in vars(mod).items()
            if id(value) in originals
        ]
        assert left == []
        # bindings by import named in the benchmark's description
        for mod, attr in (("report", "build_mesh"), ("report", "graph_check"), ("report", "immersion"),
                          ("report", "loop_period"), ("mesh", "apex"), ("mesh", "immersion"),
                          ("integrate", "w_values"), ("minimal", "adaptive_leg")):
            assert hasattr(getattr(getattr(m, mod), attr), "__wrapped__"), (mod, attr)
    finally:
        tracer.uninstall()
    assert not hasattr(m.report.build_mesh, "__wrapped__")
    assert not hasattr(m.integrate.w_values, "__wrapped__")


def _small_config(tmp_path):
    cfg = dict(README_SURFACE, grid={"radial_samples": 40, "angular_samples": 20})
    path = tmp_path / "small.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _verify_and_mesh(m, cfg, tmp_path, tag):
    report_path = tmp_path / f"{tag}.json"
    mesh_path = tmp_path / f"{tag}.ply"
    m.cli.main(["verify", "--config", cfg, "--out", str(report_path)])
    m.cli.main(["mesh", "--config", cfg, "--copies", "1", "--out", str(mesh_path)])
    report = json.loads(report_path.read_text())
    report.pop("timestamp")
    return json.dumps(report, indent=2), mesh_path.read_bytes()


def test_tracing_changes_no_output(m, tmp_path):
    cfg = _small_config(tmp_path)
    plain = _verify_and_mesh(m, cfg, tmp_path, "plain")
    tracer = Tracer()
    tracer.install()
    try:
        traced = _verify_and_mesh(m, cfg, tmp_path, "traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert SpanStats(tracer).calls("mesh.export") == 1


@pytest.mark.parametrize("name", ["verify", "cone-sweep"])
def test_shortest_run_repeats_a_surface(m, tmp_path, name):
    """The repeat gate (identical output for a repeated surface) runs on every run."""
    wl = WORKLOADS[name]()
    ops = wl.make_ops(m, 1, str(tmp_path))[: wl.min_ops]
    keys = [repr(op.surface) for op in ops]
    assert len(set(keys)) < len(keys)
    assert any(op.reference for op in ops)


def test_nonfinite_numbers_are_found():
    assert _nonfinite({"a": [1.0, {"b": float("nan")}]})
    assert _nonfinite([1, (2.0, math.inf)])
    assert not _nonfinite({"a": [1.0, "nan", True, None]})


def test_tail_percentile_has_ten_samples_beyond():
    lat = [float(i) for i in range(30)]
    value, pct, n = run.tail(lat)
    assert sum(x > value for x in lat) == 10
    assert (value, n) == (19.0, 30) and pct == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0])[:2] == (3.0, 100.0)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
