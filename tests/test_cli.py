import inspect
import json
import math

import numpy as np
import pytest

from lkpolar.cli import emit_plot_data, main, run
from lkpolar.lkmeasure import CATALOG
from lkpolar.plstrata import StratifiedComplex


def strip_times(report):
    out = json.loads(json.dumps(report))
    out.pop("wall_time_ms", None)
    for row in out.get("rows", []):
        row.pop("wall_time_ms", None)
    return out


def test_measure_torus_gauss_bonnet():
    report, status = run(
        ["measure", "--shape", "torus:2:1", "--k", "0", "--samples", "1", "--seed", "0"]
    )
    assert status == 0
    row = report["rows"][0]
    assert abs(row["value"]) < 1e-9
    assert row["std_error"] < 1e-9
    assert "Gauss-Bonnet" in row["method"]


def test_verify_cube_report(tmp_path):
    path = tmp_path / "cube.json"
    report, status = run(
        [
            "verify", "--shape", "cube", "--q", "0,2,3",
            "--samples", "300", "--seed", "7", "--report", str(path),
        ]
    )
    assert status == 0
    assert report["schema"] == 1
    on_disk = json.loads(path.read_text())
    assert on_disk["config"]["shape"] == "cube"
    refs = {0: 1.0, 2: 3.0, 3: 1.0}
    for row in on_disk["rows"]:
        assert row["pass"]
        assert row["reference"] == pytest.approx(refs[row["k"]])


def test_local_rays_rows():
    report, status = run(
        ["local", "--germ", "rays:3", "--k", "0,1", "--samples", "2000", "--seed", "1"]
    )
    assert status == 0
    by_key = {(r["quantity"], r["k"]): r for r in report["rows"]}
    assert by_key[("L_loc", 0)]["value"] == pytest.approx(-0.5, abs=1e-9)
    assert by_key[("L_loc", 1)]["value"] == pytest.approx(1.5, abs=1e-9)
    assert ("refined_L0", 0) in by_key


def test_rerun_reproduces_bitwise():
    argv = ["verify", "--shape", "disk:1", "--q", "1", "--samples", "150", "--seed", "3"]
    a, _ = run(argv)
    b, _ = run(argv)
    assert strip_times(a) == strip_times(b)


def test_doubling_samples_shrinks_se():
    argv = ["polar", "--shape", "disk:1", "--q", "1", "--seed", "11", "--samples"]
    a, _ = run(argv + ["200"])
    b, _ = run(argv + ["400"])
    ratio = a["rows"][0]["std_error"] / b["rows"][0]["std_error"]
    assert 1.2 <= ratio <= 1.7


def test_polar_csv_schema(tmp_path):
    path = tmp_path / "planes.csv"
    report, status = run(
        [
            "polar", "--shape", "cube", "--q", "1",
            "--samples", "25", "--seed", "2", "--csv", str(path),
        ]
    )
    assert status == 0
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["q", "sample_index", "plane_frame"]
    assert header[-1] == "degenerate"
    assert len(lines) >= 26


def test_polar_csv_has_one_column_per_q_cell(tmp_path):
    # cells below dimension q have images of no q-volume, so no column
    path = tmp_path / "planes.csv"
    _, status = run(["polar", "--shape", "cube", "--q", "1", "--samples", "25", "--seed", "2",
                     "--csv", str(path)])
    assert status == 0
    header = path.read_text().splitlines()[0].split(",")
    assert len([name for name in header if name.startswith("m:")]) == 19  # one per edge


@pytest.mark.parametrize("shape", ["sphere:1", "cube"])
def test_polar_csv_at_q_n_minus_1_is_one_identity_row(tmp_path, shape):
    # P = R^3 at q = 2: one plane is valued, whatever --samples says
    path = tmp_path / "planes.csv"
    report, status = run(["polar", "--shape", shape, "--q", "2", "--samples", "50",
                          "--csv", str(path)])
    assert status == 0
    row = report["rows"][0]
    assert (row["n_samples"], row["std_error"], row["method"]) == (1, 0.0, "full-space")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[:2] == ["2", "0"] and fields[-1] == "ok"
    assert [float(x) for x in fields[2].split(";")] == np.eye(3).ravel().tolist()
    assert sum(float(x) for x in fields[3:-1] if x) == pytest.approx(row["value"], rel=1e-12)


def test_verify_rows_report_each_routes_sample_count():
    report, status = run(["verify", "--shape", "cube", "--q", "1,2", "--samples", "40",
                          "--seed", "5"])
    assert status == 0
    q1, q2 = report["rows"]
    assert (q1["n_samples"], q1["n_samples_b"]) == (1, 40)  # exact curvature, 40 planes
    assert (q2["n_samples"], q2["n_samples_b"]) == (1, 1)  # and one plane, R^3
    assert q2["std_error_b"] == 0.0


def test_emit_plot_data(tmp_path):
    report, _ = run(
        ["verify", "--shape", "cube", "--q", "0,1,2,3", "--samples", "200", "--seed", "4"]
    )
    path = tmp_path / "plot.csv"
    emit_plot_data(report, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "quantity,k,value,std_error,reference"
    assert len(lines) == 5
    refs = [float(line.split(",")[4]) for line in lines[1:]]
    assert refs == [1.0, 3.0, 3.0, 1.0]

    empty = tmp_path / "empty.csv"
    emit_plot_data({"rows": []}, str(empty))
    assert empty.read_text().strip() == "quantity,k,value,std_error,reference"


def test_unknown_shape_nonzero_exit():
    report, status = run(["measure", "--shape", "pyramid", "--k", "0", "--samples", "10"])
    assert status == 2
    assert "error" in report


@pytest.mark.parametrize("spec", ["cube:0", "cube-boundary:0", "cube:nan", "disk:0", "circle:0",
                                  "sphere:inf", "sphere:0", "ball:0", "hemisphere:-2",
                                  "sphere:abc", "sphere:1:", "torus:2:x"])
def test_bad_catalog_parameter_is_a_json_error(spec):
    report, status = run(["measure", "--shape", spec, "--k", "1", "--samples", "10"])
    assert status == 2
    assert spec in report["error"]


def _one_too_many(name):
    # the builder's defaults, then one parameter past the most it takes
    build, most = CATALOG[name]
    defaults = [p.default for p in inspect.signature(build).parameters.values()][:most]
    return ":".join([name] + [f"{a:g}" for a in defaults] + [str(most + 1)])


@pytest.mark.parametrize("spec", [_one_too_many(name) for name in CATALOG])
def test_extra_catalog_parameter_is_a_json_error(spec):
    report, status = run(["measure", "--shape", spec, "--k", "1", "--samples", "10"])
    assert status == 2
    assert spec in report["error"] and "at most" in report["error"]


@pytest.mark.parametrize("spec, side", [("square", 1.0), ("square:2.5", 2.5)])
def test_measure_square(spec, side):
    # the boundary of a square: Euler characteristic 0 and its length, exactly
    report, status = run(["measure", "--shape", spec, "--k", "0,1", "--samples", "10"])
    assert status == 0
    rows = report["rows"]
    assert [(r["k"], r["value"], r["std_error"]) for r in rows] == [(0, 0.0, 0.0),
                                                                  (1, 4 * side, 0.0)]


def test_missing_cone_link_file_is_a_json_error(tmp_path):
    for path in ("/no/such.plstrat", str(tmp_path)):
        report, status = run(["local", "--germ", f"cone-link:{path}", "--samples", "10"])
        assert status == 2
        assert path in report["error"]
        assert report["config"]["germ"] == f"cone-link:{path}"


def test_main_prints_rows(capsys):
    status = main(["measure", "--shape", "sphere:1", "--k", "0", "--samples", "1", "--seed", "1"])
    captured = capsys.readouterr()
    assert status == 0
    assert "Lambda[0]" in captured.out


def test_catalog_roundtrip(tmp_path):
    out = tmp_path / "oct.plstrat"
    report, status = run(["catalog", "--name", "octahedron", "--out", str(out)])
    assert status == 0
    from lkpolar.plstrata import euler_characteristic, load_plstrat

    assert euler_characteristic(load_plstrat(out)) == 2


COMPLEXES = [name for name, (build, _) in CATALOG.items()
             if isinstance(build(), StratifiedComplex)]


@pytest.mark.parametrize("name", COMPLEXES)
def test_every_catalog_complex_round_trips(name, tmp_path):
    # a written complex measures to the same bits as the catalog shape, at
    # every order
    out = tmp_path / f"{name}.plstrat"
    _, status = run(["catalog", "--name", name, "--out", str(out)])
    assert status == 0
    orders = ",".join(map(str, range(CATALOG[name][0]().ambient_dim + 1)))
    from_file, status = run(["measure", "--shape", f"pl:{out}", "--k", orders])
    assert status == 0
    catalog, _ = run(["measure", "--shape", name, "--k", orders])
    bits = [[(r["k"], r["value"], r["std_error"]) for r in report["rows"]]
            for report in (from_file, catalog)]
    assert bits[0] == bits[1]


def test_smooth_name_is_not_a_catalog_complex(tmp_path):
    out = tmp_path / "sphere.plstrat"
    report, status = run(["catalog", "--name", "sphere", "--out", str(out)])
    assert status == 2
    assert "sphere" in report["error"] and not out.exists()


def test_local_judges_every_row_at_the_tolerance():
    argv = ["local", "--germ", "rays:3", "--k", "1", "--samples", "300"]
    report, status = run(argv)
    assert status == 0
    report, status = run(argv + ["--tolerance", "0.001"])
    assert status == 1
    sigma = next(r for r in report["rows"] if r["quantity"] == "sigma_diff")
    assert sigma["std_error"] > 0 and not sigma["pass"]


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_bad_tolerance_fails_before_any_work(tolerance, monkeypatch):
    import lkpolar.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("an order was computed before the tolerance was checked")

    monkeypatch.setattr(cli, "lk_measure", no_work)
    monkeypatch.setattr(cli, "kinematic_check", no_work)
    monkeypatch.setattr(cli.germs, "verify_local_identities", no_work)
    for argv in (["measure", "--shape", "cube", "--k", "1"],
                 ["kinematic", "--shape", "ball:1", "--k", "1"],
                 ["local", "--germ", "rays:3", "--k", "1"]):
        report, status = run(argv + [f"--tolerance={tolerance}"])
        assert status == 2, argv
        assert "--tolerance" in report["error"]


@pytest.mark.parametrize("argv", [["measure", "--shape", "cube", "--k", "0"],
                                  ["polar", "--shape", "cube", "--q", "1", "--samples", "5"]])
def test_negative_seed_fails_before_any_work(argv, monkeypatch):
    import lkpolar.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("an order was computed before the seed was checked")

    monkeypatch.setattr(cli, "lk_measure", no_work)
    monkeypatch.setattr(cli, "polar_length", no_work)
    report, status = run(argv + ["--seed=-1"])
    assert status == 2
    assert "--seed" in report["error"]


@pytest.mark.parametrize("argv", [["verify", "--shape", "cube", "--q", "2", "--samples", "-3"],
                                  ["measure", "--shape", "sphere:1", "--k", "0", "--samples", "-3"],
                                  ["polar", "--shape", "cube", "--q", "1", "--samples", "0"]])
def test_bad_samples_fail_before_any_work(argv, monkeypatch):
    # q = n - 1 and the curvature route draw nothing, so only the check in
    # run catches a count below 1 there
    import lkpolar.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("an order was computed before the sample count was checked")

    monkeypatch.setattr(cli, "lk_measure", no_work)
    monkeypatch.setattr(cli, "polar_length", no_work)
    report, status = run(argv)
    assert status == 2
    assert "--samples" in report["error"]


def test_runtime_error_is_a_json_error(monkeypatch, capsys):
    import lkpolar.cli as cli

    def quota(*args, **kwargs):
        raise RuntimeError("plane resample quota exceeded; rejection histogram: {'span': 100}")

    monkeypatch.setattr(cli, "polar_length", quota)
    argv = ["polar", "--shape", "cube", "--q", "1", "--samples", "5", "--seed", "1"]
    report, status = run(argv)
    assert status == 2
    assert "resample quota" in report["error"]
    assert report["config"]["shape"] == "cube"
    assert main(argv) == 2
    assert "resample quota" in capsys.readouterr().err


def test_missing_pl_file_is_a_json_error(tmp_path):
    for path in ("/no/such.plstrat", str(tmp_path)):
        report, status = run(["measure", "--shape", f"pl:{path}", "--k", "0", "--samples", "1"])
        assert status == 2
        assert path in report["error"]
        assert report["config"]["shape"] == f"pl:{path}"


def test_four_simplex_vertex_is_a_json_error(tmp_path):
    # the vertex links of a 4-simplex in R^4 are tetrahedra, past the
    # closed-form exterior angles; the edges' links are triangles
    import numpy as np

    from lkpolar.plstrata import StratifiedComplex, save_plstrat

    path = tmp_path / "simplex4.plstrat"
    save_plstrat(StratifiedComplex.from_maximal_cells(
        np.vstack([np.zeros(4), np.eye(4)]), [(0, 1, 2, 3, 4)]), path)
    report, status = run(["measure", "--shape", f"pl:{path}", "--k", "0"])
    assert status == 2
    assert "cell (0,)" in json.loads(json.dumps(report))["error"]
    report, status = run(["measure", "--shape", f"pl:{path}", "--k", "1,4"])
    assert status == 0
    assert [r["std_error"] for r in report["rows"]] == [0.0, 0.0]
    assert report["rows"][1]["value"] == pytest.approx(1 / 24, rel=1e-12)


def test_out_of_range_order_fails_before_any_work(monkeypatch):
    import lkpolar.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("an order was computed before the orders were checked")

    monkeypatch.setattr(cli, "lk_measure", no_work)
    monkeypatch.setattr(cli, "polar_length", no_work)
    monkeypatch.setattr(cli, "kinematic_check", no_work)
    monkeypatch.setattr(cli.germs, "verify_local_identities", no_work)
    for argv in (["verify", "--shape", "ellipse:2:1", "--q", "0,1,2,3"],
                 ["polar", "--shape", "ellipse:2:1", "--q", "0,3"],
                 ["measure", "--shape", "cube", "--k=-1,0"],
                 ["kinematic", "--shape", "sphere:1+ellipse:2:1", "--k", "2"],
                 ["local", "--germ", "rays:3", "--k", "0,3"]):
        report, status = run(argv + ["--samples", "2"])
        assert status == 2, argv
        assert "valid orders are" in report["error"]
    report, _ = run(["verify", "--shape", "ellipse:2:1", "--q", "0,1,2,3", "--samples", "2"])
    assert "0..2" in report["error"] and "ellipse:2:1" in report["error"]


@pytest.mark.parametrize("argv, orders", [
    (["measure", "--shape", "cube"], [0, 1, 2, 3]),
    (["polar", "--shape", "cube"], [0, 1, 2, 3]),
    (["verify", "--shape", "cube"], [0, 1, 2, 3]),
    (["verify", "--shape", "ellipse:2:1"], [0, 1, 2]),
    (["kinematic", "--shape", "cube"], [1, 2]),
], ids=["measure", "polar", "verify", "verify-ellipse", "kinematic"])
def test_no_orders_means_every_valid_order(argv, orders):
    # a run that names no order checks them all, never none
    report, status = run(argv + ["--samples", "20", "--seed", "3"])
    assert status in (0, 1), report
    ks = [row["k"] for row in report["rows"] if row["quantity"] != "kinematic_constancy"]
    assert ks == orders


def test_kinematic_row_fails_on_a_wrong_ratio(monkeypatch):
    import lkpolar.cli as cli
    from lkpolar.geomkit import Estimate
    from lkpolar.lkmeasure import KinematicCheck

    def fixed(value):
        # b_1 b_2 / (C(3, 1) b_3) = 1/2 in R^3
        def check(X, k, n_flats, rng):
            est = Estimate(value, 0.01, n_flats, rng.master_seed)
            return KinematicCheck(numerator=est, denominator=est, ratio=est,
                                  flagged_division=False)
        return check

    argv = ["kinematic", "--shape", "ball:1", "--k", "1", "--samples", "10"]
    monkeypatch.setattr(cli, "kinematic_check", fixed(0.51))
    report, status = run(argv)
    assert status == 0
    assert report["rows"][0]["reference"] == pytest.approx(0.5, rel=1e-12)
    monkeypatch.setattr(cli, "kinematic_check", fixed(0.6))
    report, status = run(argv)
    assert status == 1
    assert not report["rows"][0]["pass"]
    assert report["rows"][-1]["pass"]  # one shape: the constancy row still passes


def test_measure_row_fails_on_a_one_percent_error(monkeypatch):
    # lk_measure is exact on the cube (se 0), so a 1% error is many se away
    import lkpolar.cli as cli

    argv = ["measure", "--shape", "cube", "--k", "0,1,2,3"]
    assert run(argv)[1] == 0
    exact = cli.lk_measure
    monkeypatch.setattr(cli, "lk_measure", lambda X, k, rng: exact(X, k, rng).scaled(1.01))
    report, status = run(argv)
    assert status == 1
    assert not any(row["pass"] for row in report["rows"])


def test_exhausted_plane_quota_is_a_json_error(monkeypatch):
    from lkpolar import polar
    from lkpolar.geomkit import MAX_REDRAWS

    def cusp(X, images, rows, bases):
        # every plane of the stack is flagged by its alpha step
        return np.zeros((len(bases), len(rows))), np.ones(len(bases), dtype=bool)

    monkeypatch.setattr(polar, "_pl_cell_values_many", cusp)
    report, status = run(["polar", "--shape", "cube", "--q", "1", "--samples", "3"])
    assert status == 2
    assert "resample quota" in report["error"] and f"{MAX_REDRAWS} draws" in report["error"]
    assert report["config"]["shape"] == "cube"


def test_flagged_full_space_is_a_json_error(monkeypatch):
    # at q = n - 1 every plane is R^n, so a flag on it cannot be redrawn away
    from lkpolar import polar

    def cusp(X, images, rows, bases):
        return np.zeros((len(bases), len(rows))), np.ones(len(bases), dtype=bool)

    monkeypatch.setattr(polar, "_pl_cell_values_many", cusp)
    report, status = run(["polar", "--shape", "cube", "--q", "2", "--samples", "3"])
    assert status == 2
    assert "whole space is degenerate at q = 2: alpha" in report["error"]


@pytest.mark.parametrize("argv, path", [
    (["measure", "--shape", "cube", "--k", "0", "--samples", "1", "--report"], "report.json"),
    (["measure", "--shape", "cube", "--k", "0", "--samples", "1", "--csv"], "plot.csv"),
    (["polar", "--shape", "cube", "--q", "0", "--samples", "2", "--csv"], "planes.csv"),
    (["catalog", "--name", "cube", "--out"], "cube.plstrat"),
], ids=["measure-report", "measure-csv", "polar-csv", "catalog-out"])
def test_an_unwritable_output_path_is_a_json_error(argv, path, tmp_path):
    # a missing directory: exit 2 (bad input), not 1 (a failed row)
    out = str(tmp_path / "missing" / path)
    report, status = run(argv + [out])
    assert status == 2
    assert out in report["error"]
    assert "rows" not in report


def test_kinematic_on_a_tiny_sphere_runs():
    # the tangency band scales with the radius; an absolute band of 1e-9
    # made every line tangent to a sphere of radius 1e-10.  Its area keeps
    # the ratio row at k = 1; Lambda_1 = 0 leaves a numerator row at k = 2
    report, status = run(["kinematic", "--shape", "sphere:1e-10", "--k", "1,2", "--samples", "50"])
    assert status == 0
    assert [row["quantity"] for row in report["rows"][:2]] == ["kinematic_ratio",
                                                               "kinematic_numerator"]


def test_kinematic_on_a_tiny_ball_checks_the_ratio(monkeypatch):
    # the division floor scales as radius^(n - k): a ball of radius 1e-10
    # keeps its ratio rows, so a 5% error in Lambda_(n-k) fails them
    import lkpolar.lkmeasure as lkmeasure

    argv = ["kinematic", "--shape", "ball:1e-10", "--samples", "50", "--seed", "1"]
    report, status = run(argv)
    assert status == 0
    rows = [row for row in report["rows"] if row["quantity"] != "kinematic_constancy"]
    assert [(row["quantity"], row["k"]) for row in rows] == [("kinematic_ratio", 1),
                                                             ("kinematic_ratio", 2)]
    assert all(row["value"] == pytest.approx(0.5, rel=1e-9) for row in rows)
    exact = lkmeasure.lk_measure
    monkeypatch.setattr(lkmeasure, "lk_measure", lambda X, k, rng: exact(X, k, rng).scaled(1.05))
    assert run(argv)[1] == 1


@pytest.mark.parametrize("spec", ["rays:abc", "rays", "rays:", "halfplane:x", "cone-circle:x"])
def test_bad_germ_parameter_is_a_json_error(spec):
    report, status = run(["local", "--germ", spec, "--samples", "10"])
    assert status == 2
    assert spec in report["error"] and "expected rays:" in report["error"]


def test_flagged_full_space_germ_plane_is_a_json_error(monkeypatch):
    # at k = n - 1 every plane is R^n, so a flag on it cannot be redrawn away
    from lkpolar import germ

    values = germ._pl_local_polar_many

    def flag_identity(X, k, bases):
        vals, redraw = values(X, k, bases)
        return vals, redraw | [np.array_equal(B, np.eye(len(B))) for B in bases]

    monkeypatch.setattr(germ, "_pl_local_polar_many", flag_identity)
    report, status = run(["local", "--germ", "rays:3", "--samples", "20"])
    assert status == 2
    assert "whole space is degenerate for rays:3 at k = 1" in report["error"]


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [["measure", "--shape", "sphere:1e160", "--k", "2"],
                                  ["verify", "--shape", "sphere:1e160", "--q", "2",
                                   "--samples", "3"]])
def test_a_non_finite_estimate_fails_and_the_report_stays_strict_json(argv, tmp_path, capsys):
    # the area of a sphere of radius 1e160 overflows: the row must fail (exit
    # 1), whether or not it has a reference, and the report on disk must
    # parse as strict JSON, with null for each non-finite number
    path = tmp_path / "report.json"
    assert main(argv + ["--report", str(path)]) == 1
    assert "[FAIL]" in capsys.readouterr().out
    on_disk = json.loads(path.read_text(), parse_constant=_reject_constant)
    (row,) = on_disk["rows"]
    assert row["pass"] is False and row["value"] is None
