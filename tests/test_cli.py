import json
import math

import pytest

from lkpolar.cli import emit_plot_data, main, run


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


def test_pl_file_shape_matches_catalog(tmp_path):
    out = tmp_path / "cube.plstrat"
    _, status = run(["catalog", "--name", "cube", "--out", str(out)])
    assert status == 0
    argv = ["measure", "--k", "1,3", "--samples", "400", "--seed", "6"]
    from_file, status = run(argv + ["--shape", f"pl:{out}"])
    assert status == 0
    catalog, _ = run(argv + ["--shape", "cube"])
    assert [(r["value"], r["std_error"]) for r in from_file["rows"]] == [
        (r["value"], r["std_error"]) for r in catalog["rows"]
    ]


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
