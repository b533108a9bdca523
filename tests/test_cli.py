import json
import math

import numpy as np
import pytest

from maxcone.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE_10 = {"m": 1, "n": 0, "a": [1, 2], "alpha": [1]}
FAST_GRID = {"grid": {"radial_samples": 28, "angular_samples": 16, "seam_refinement": 2}}


def test_verify_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, {**BASE_10, **FAST_GRID})
    out = str(tmp_path / "report.json")
    rc = main(["verify", "--config", cfg, "--out", out])
    assert rc == EXIT_OK
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["overall_pass"] is True
    names = [c["name"] for c in rep["checks"]]
    assert names == [
        "conformality",
        "branch_coherence",
        "gauss_modulus",
        "singular_set",
        "apex_coincidence",
        "cone_directions",
        "nondegeneracy",
        "periods",
        "graph_checks",
        "symmetry",
    ]
    assert len(names) == len(set(names))
    periods = next(c for c in rep["checks"] if c["name"] == "periods")
    assert np.asarray(periods["details"]["loop_0"]) == pytest.approx(
        [0, -2 * math.pi, 0], abs=1e-8
    )
    assert "timestamp" in rep and "tolerances" in rep and "conventions" in rep


def test_verify_reports_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, {**BASE_10, **FAST_GRID})
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["verify", "--config", cfg, "--out", out1]) == EXIT_OK
    assert main(["verify", "--config", cfg, "--out", out2]) == EXIT_OK
    r1 = json.loads((tmp_path / "r1.json").read_text())
    r2 = json.loads((tmp_path / "r2.json").read_text())
    r1.pop("timestamp")
    r2.pop("timestamp")
    assert r1 == r2


def test_verify_bad_ordering_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"m": 1, "n": 0, "a": [2, 1], "alpha": [1]})
    rc = main(["verify", "--config", cfg])
    assert rc == EXIT_CONFIG
    assert "ascending" in capsys.readouterr().err


def test_default_grid_takes_r_min_inside_the_innermost_branch_point(tmp_path):
    # b_1 = -0.01 lies far inside a_1 = 1: with no grid options the radius
    # 0.05 a_1 would lie outside it and exit 2 on a valid surface
    from maxcone.mesh import GridSpec
    from maxcone.params import SurfaceParams

    surface = {"m": 1, "n": 1, "a": [1, 2], "b": [-0.01, -0.02], "alpha": [1], "beta": [1]}
    p = SurfaceParams(**surface)
    r_min, _ = GridSpec().resolve(p)
    assert 0.0 < r_min < p.inner_radius() == 0.01
    cfg = write_config(tmp_path, surface)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "report.json")]) == EXIT_OK
    assert json.loads((tmp_path / "report.json").read_text())["overall_pass"] is True
    assert main(["mesh", "--config", cfg, "--out", str(tmp_path / "s.ply")]) == EXIT_OK


def test_numeric_failure_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"m": 2, "n": 0, "a": [1, 2, 2.001, 3], "alpha": [1, -1]})
    rc = main(["mesh", "--config", cfg, "--grid", "40x20", "--out", str(tmp_path / "s.obj")])
    assert rc == EXIT_CHECK_FAILED
    assert "non-finite" in capsys.readouterr().err


def test_failing_verify_report_is_strict_json(tmp_path, capsys):
    # the graph check fails before any quadrature estimate exists: the report
    # says null there, not the bare NaN token that strict JSON rejects
    cfg = write_config(tmp_path, {"m": 2, "n": 0, "a": [1, 2, 2.001, 3], "alpha": [1, -1]})
    out = tmp_path / "report.json"
    rc = main(["verify", "--config", cfg, "--grid", "40x20", "--out", str(out)])
    assert rc == EXIT_CHECK_FAILED
    assert "graph_checks" in capsys.readouterr().err

    def reject(token):
        raise ValueError(f"{token} in the report")

    rep = json.loads(out.read_text(), parse_constant=reject)
    assert rep["overall_pass"] is False
    assert rep["quadrature"]["max_error_estimate"] is None


def test_verify_missing_config_exit_2(tmp_path):
    rc = main(["verify", "--config", str(tmp_path / "nope.json")])
    assert rc == EXIT_CONFIG


def test_require_horizontal_ends_all_up_fails(tmp_path, capsys):
    # every cone pointing the same way makes a horizontal end at 0 impossible
    cfg = write_config(tmp_path, {**BASE_10, **FAST_GRID})
    rc = main(["verify", "--config", cfg, "--require-horizontal-ends"])
    assert rc == EXIT_CHECK_FAILED
    assert "horizontal_ends" in capsys.readouterr().err


def test_require_horizontal_ends_normalized_passes(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "m": 1,
            "n": 1,
            "a": [1, 2],
            "b": [-1, -2],
            "alpha": [1],
            "beta": [1],
            **FAST_GRID,
        },
    )
    rc = main(["verify", "--config", cfg, "--require-horizontal-ends"])
    assert rc == EXIT_OK


def test_mesh_single_cone_tag(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_10)
    out = str(tmp_path / "s.obj")
    rc = main(["mesh", "--config", cfg, "--grid", "28x16", "--copies", "0", "--out", out])
    assert rc == EXIT_OK
    cone_lines = [
        l for l in (tmp_path / "s.obj").read_text().splitlines() if l.startswith("# cone ")
    ]
    assert len(cone_lines) == 1
    report = json.loads((tmp_path / "s.report.json").read_text())
    assert report["graph_check"]["passed"] is True


def test_mesh_ply_suffix_in_any_case_writes_ply(tmp_path):
    cfg = write_config(tmp_path, BASE_10)
    out = tmp_path / "M.PLY"
    rc = main(["mesh", "--config", cfg, "--grid", "28x16", "--out", str(out)])
    assert rc == EXIT_OK
    assert out.read_bytes().startswith(b"ply\nformat binary_little_endian 1.0\n")
    assert (tmp_path / "M.report.json").exists()


def test_mesh_copies_extend_x2(tmp_path):
    cfg = write_config(tmp_path, BASE_10)

    def extent(path):
        xs = [
            float(l.split()[2])
            for l in path.read_text().splitlines()
            if l.startswith("v ")
        ]
        return max(xs) - min(xs)

    main(["mesh", "--config", cfg, "--grid", "28x16", "--copies", "0", "--out", str(tmp_path / "a.obj")])
    main(["mesh", "--config", cfg, "--grid", "28x16", "--copies", "2", "--out", str(tmp_path / "b.obj")])
    assert extent(tmp_path / "b.obj") - extent(tmp_path / "a.obj") == pytest.approx(
        4 * math.pi, abs=1e-6
    )


def test_mesh_22_has_four_cone_tags(tmp_path):
    from maxcone.catalog import classes_for_type, instantiate

    cfg_obj, _ = classes_for_type(2, 2)[0]
    p = instantiate(cfg_obj)
    cfg = write_config(tmp_path, p.to_dict())
    out = str(tmp_path / "s22.obj")
    rc = main(["mesh", "--config", cfg, "--grid", "28x16", "--out", out])
    assert rc == EXIT_OK
    cone_lines = [
        l for l in (tmp_path / "s22.obj").read_text().splitlines() if l.startswith("# cone ")
    ]
    assert len(cone_lines) == 4
    per_axis = {"up": 0, "down": 0}
    for l in cone_lines:
        per_axis[l.split()[-1]] += 1
    assert sum(per_axis.values()) == 4


def test_catalog_counts(tmp_path, capsys):
    out = str(tmp_path / "cat.json")
    rc = main(["catalog", "--cones", "4", "--out", out])
    assert rc == EXIT_OK
    cat = json.loads((tmp_path / "cat.json").read_text())
    counts = {tuple(t["type"]): t["class_count"] for t in cat["types"]}
    assert counts == {(4, 0): 6, (3, 1): 6, (2, 2): 5}
    assert cat["total_classes"] == 17


def test_catalog_nine_cones(tmp_path):
    out = str(tmp_path / "cat9.json")
    assert main(["catalog", "--cones", "9", "--out", out]) == EXIT_OK
    cat = json.loads((tmp_path / "cat9.json").read_text())
    assert [tuple(t["type"]) for t in cat["types"]] == [(9, 0), (8, 1), (7, 2), (6, 3), (5, 4)]


def test_catalog_one_cone(tmp_path):
    out = str(tmp_path / "cat1.json")
    assert main(["catalog", "--cones", "1", "--out", out]) == EXIT_OK
    cat = json.loads((tmp_path / "cat1.json").read_text())
    assert cat["total_classes"] == 1
    assert cat["types"][0]["classes"][0]["dirs_pos"] == ["up"]


def test_minimal_measure(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "m": 1,
            "n": 1,
            "a": [1, 2],
            "b": [-1, -1.5],
            "alpha": [1],
            "beta": [1],
            "orientation": "vertical-ends",
        },
    )
    out = str(tmp_path / "mm.json")
    rc = main(["minimal-measure", "--config", cfg, "--normalize-b2n", "--out", out])
    assert rc == EXIT_OK
    rep = json.loads((tmp_path / "mm.json").read_text())
    assert rep["params"]["b"] == [-1.0, -2.0]
    assert rep["end_value_w0"] == pytest.approx(1.0, abs=1e-12)
    end = rep["minimal_counterpart"]["loops"][0]
    assert np.asarray(end["re_period"]) == pytest.approx([0, -2 * math.pi, 0], abs=1e-8)


def test_params_section_reads_the_same_surface(tmp_path):
    # the surface under "params" and at the top level give the same report
    surface = {"m": 1, "n": 1, "a": [1, 2], "b": [-1, -1.5], "alpha": [1], "beta": [1]}
    reports = []
    for payload in (surface, {"params": surface}):
        payload = {**payload, "orientation": "horizontal-ends"}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "mm.json"
        assert main(["minimal-measure", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        rep.pop("timestamp")
        reports.append(rep)
    assert reports[0] == reports[1]
    assert reports[0]["params"]["b"] == [-1.0, -1.5]


def test_json_flag_prints_to_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, {**BASE_10, **FAST_GRID})
    rc = main(["verify", "--config", cfg, "--json"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["overall_pass"] is True


def test_usage_error_exit_2():
    assert main(["verify"]) == EXIT_CONFIG
    assert main(["not-a-command"]) == EXIT_CONFIG


def test_tol_level_flag(tmp_path):
    cfg = write_config(tmp_path, {**BASE_10, **FAST_GRID})
    out = str(tmp_path / "r.json")
    assert main(["verify", "--config", cfg, "--tol", "relaxed", "--out", out]) == EXIT_OK
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["tolerances"]["algebraic"] == pytest.approx(1e-11)


@pytest.mark.parametrize(
    "payload, key",
    [
        ({**BASE_10, "basepoint": [4.6, 0.0]}, "basepoint"),
        ({**BASE_10, "grid": {"radial_samples": 40.5}}, "radial_samples"),
        ({**BASE_10, "grid": {"seam_refinement": 1.5}}, "seam_refinement"),
        ({**BASE_10, "grid": {"r_min": "0.01"}}, "r_min"),
        ({**BASE_10, "tolerances": {"mesh": "1e-6"}}, "mesh"),
        ({**BASE_10, "tolerances": {"meshh": 1e-6}}, "meshh"),
        ({**BASE_10, "tolerances": {"mesh": 0}}, "mesh"),
        ({**BASE_10, "tolerances": {"mesh": -1}}, "mesh"),
        ({**BASE_10, "a": 5}, "'a'"),
        ({**BASE_10, "alpha": [1.5]}, "alpha"),
        ([BASE_10], "JSON object"),
        ({**BASE_10, "basepoint": 4.6}, "basepoint"),
        ({**BASE_10, "gird": {"radial_samples": 28}}, "gird"),
        ({"params": {**BASE_10, "bta": [1]}, "m": 2, "a": [1, 2, 3, 4]}, "['a', 'm']"),
        ({"params": BASE_10, "alpha": [1]}, "['alpha']"),
        ({"params": {**BASE_10, "bta": [1]}}, "bta"),
        ({"params": {**BASE_10, **FAST_GRID}}, "grid"),
        ({"params": [BASE_10]}, "params"),
    ],
    ids=["basepoint-pair", "radial-float", "seam-float", "r_min-string", "tol-string",
         "tol-unknown", "tol-zero", "tol-negative", "a-number", "alpha-float", "top-level-list",
         "basepoint-number", "section-misspelled", "params-and-top-level", "params-and-one-field",
         "params-stray-key", "params-holds-grid", "params-not-object"],
)
def test_malformed_config_exit_2(tmp_path, capsys, payload, key):
    # a bad value is a config error naming its key, not a traceback
    cfg = write_config(tmp_path, payload)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "r.json")]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["40", "40x", "x20", "40x20x3", "ax20"])
def test_malformed_grid_flag_exit_2(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, BASE_10)
    assert main(["verify", "--config", cfg, "--grid", grid]) == EXIT_CONFIG
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["mesh", "--tol", "strict"], ["minimal-measure", "--grid", "10x10", "--tol", "relaxed"]],
    ids=["mesh-tol", "minimal-measure-grid-tol"],
)
def test_flags_only_on_subcommands_that_read_them(tmp_path, argv):
    cfg = write_config(tmp_path, BASE_10)
    out = str(tmp_path / "out.json")
    assert main(argv + ["--config", cfg, "--out", out]) == EXIT_CONFIG
    assert not (tmp_path / "out.json").exists()


def test_report_write_failure_exit_2(tmp_path, capsys):
    out = str(tmp_path / "missing" / "catalog.json")
    assert main(["catalog", "--cones", "1", "--out", out]) == EXIT_CONFIG
    assert "could not write" in capsys.readouterr().err
