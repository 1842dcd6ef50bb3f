"""End-to-end CLI subcommand coverage via main()."""

import csv
import json

import numpy as np
import pytest

from ultrasmall.cli import main
from ultrasmall.degrees import read_degrees, write_degrees, DegreeSequence
from ultrasmall.multigraph import read_edge_list
from ultrasmall.pam import PamParams, read_pam


def test_gen_cm_writes_edge_list(tmp_path):
    out = tmp_path / "g.txt"
    rc = main(
        [
            "gen-cm", "--tau", "2.5", "--dmin", "3", "--n", "50",
            "--seed", "1", "--out", str(out), "--fix-parity",
        ]
    )
    assert rc == 0
    g = read_edge_list(out)
    assert g.n == 50
    assert g.degrees.min() >= 3


def test_gen_cm_from_degree_file(tmp_path):
    deg = tmp_path / "deg.txt"
    write_degrees(deg, DegreeSequence([3, 3, 3, 3]))
    out = tmp_path / "g.txt"
    rc = main(
        [
            "gen-cm", "--tau", "2.5", "--dmin", "3", "--n", "4",
            "--seed", "2", "--out", str(out), "--degrees", str(deg),
        ]
    )
    assert rc == 0
    assert np.array_equal(read_edge_list(out).degrees, [3, 3, 3, 3])


def test_gen_cm_odd_total_is_an_error(tmp_path, capsys):
    deg = tmp_path / "deg.txt"
    write_degrees(deg, DegreeSequence([3, 3, 3]))
    rc = main(
        [
            "gen-cm", "--tau", "2.5", "--dmin", "3", "--n", "3",
            "--seed", "2", "--out", str(tmp_path / "g.txt"),
            "--degrees", str(deg),
        ]
    )
    assert rc == 1
    assert "parity" in capsys.readouterr().err


def test_gen_pam_formats(tmp_path):
    xi_out = tmp_path / "pam.txt"
    rc = main(
        ["gen-pam", "--m", "2", "--delta", "-0.5", "--t", "30",
         "--seed", "3", "--out", str(xi_out)]
    )
    assert rc == 0
    g = read_pam(xi_out, PamParams(2, -0.5))
    assert g.t == 30
    el_out = tmp_path / "pam_edges.txt"
    rc = main(
        ["gen-pam", "--m", "2", "--delta", "-0.5", "--t", "30",
         "--seed", "3", "--out", str(el_out), "--format", "edgelist"]
    )
    assert rc == 0
    und = read_edge_list(el_out)
    assert np.array_equal(und.degrees, g.degrees())


def test_fix_parity_command(tmp_path):
    src = tmp_path / "odd.txt"
    dst = tmp_path / "even.txt"
    write_degrees(src, DegreeSequence([3, 3, 3]))
    assert main(["fix-parity", "--in", str(src), "--out", str(dst)]) == 0
    assert read_degrees(dst).ell_n % 2 == 0


def test_diameter_csv_output(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("# n 4\n1 2\n2 3\n3 4\n")
    for flag in ([], ["--exact"], ["--ifub"]):
        assert main(["diameter", "--in", str(graph), "--seed", "9", *flag]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["n", "seed", "diam", "lcc_fraction"]
        assert rows[1][:3] == ["4", "9", "3"]
        assert float(rows[1][3]) == 1.0


def test_analyze_mkc(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    # triangle of degree-2 vertices: every vertex minimally-0-connected
    graph.write_text("1 2\n2 3\n3 1\n")
    rc = main(
        ["analyze", "--in", str(graph), "--what", "mkc",
         "--tau", "2.5", "--dmin", "2", "--k", "0"]
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "vertex"
    assert out[1:] == ["1", "2", "3"]


def test_analyze_core_dist_and_explore(tmp_path, capsys):
    out = tmp_path / "g.txt"
    main(
        ["gen-cm", "--tau", "2.5", "--dmin", "3", "--n", "400",
         "--seed", "4", "--out", str(out), "--fix-parity"]
    )
    capsys.readouterr()
    rc = main(
        ["analyze", "--in", str(out), "--what", "core-dist",
         "--tau", "2.5", "--dmin", "3", "--sigma", "2.2"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "vertex,dist_to_core"
    assert len(lines) == 401
    rc = main(
        ["analyze", "--in", str(out), "--what", "explore",
         "--tau", "2.5", "--dmin", "3", "--k", "2"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "vertex,boundary,collisions,hit_core"
    assert len(lines) == 401


def test_bounds_subcommand(capsys):
    rc = main(
        ["bounds", "--which", "constants",
         "--params", '{"tau": 2.5, "d_min": 3, "n": 100000, "eps": 0.1}']
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diam_constant"] == pytest.approx(5.7708, abs=1e-4)
    assert payload["k_minus"] <= payload["k_plus"]

    rc = main(
        ["bounds", "--which", "mk1",
         "--params", '{"degrees": [3, 3, 3, 3], "k": 1}']
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(648 / 693, abs=1e-12)

    rc = main(
        ["bounds", "--which", "appA",
         "--params", '{"t": 10000, "gamma": 0.6666666666666666, "k_max": 2}']
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["g"][0] == 118


def test_experiment_subcommand(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "cm",
                "params": {"tau": 2.5, "d_min": 3},
                "sizes": [80],
                "replicas": 2,
                "seed_base": 11,
                "measurements": ["diameter", "typical"],
            }
        )
    )
    out_dir = tmp_path / "results"
    rc = main(
        ["experiment", "--config", str(cfg), "--out", str(out_dir),
         "--threads", "1", "--gnuplot"]
    )
    assert rc == 0
    assert (out_dir / "rows.csv").exists()
    assert (out_dir / "aggregates.json").exists()
    assert (out_dir / "gnuplot.dat").exists()
    with open(out_dir / "rows.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(r["error"] == "" for r in rows)


def test_experiment_passes_replica_budget(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "cm",
                "params": {"tau": 2.5, "d_min": 3},
                "sizes": [80],
                "replicas": 1,
                "seed_base": 11,
                "measurements": ["diameter"],
                "replica_budget_s": 0.0,
            }
        )
    )
    out_dir = tmp_path / "results"
    assert main(["experiment", "--config", str(cfg), "--out", str(out_dir)]) == 0
    with open(out_dir / "rows.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["timed_out"] for r in rows] == ["1"]
