"""End-to-end CLI subcommand coverage via main()."""

import csv
import hashlib
import json

import numpy as np
import pytest

from ultrasmall.cli import main
from ultrasmall.degrees import (
    DegreeSequence,
    PowerLawSpec,
    read_degrees,
    sample_iid_powerlaw,
    write_degrees,
)
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


# SHA-256 of the files and CSV bodies the package writes for fixed seeds:
# any change of an output byte (number spelling, line order, headers, the
# seed -> graph map) fails here
PINNED_DIGESTS = {
    "degrees.txt": "22a641545b10e6f0fb851a4a6051a5f88310f6d1bbc6eb0fc2595223dcbb7691",
    "degrees_even.txt": "31eb7a4c0df6a6b3d5df936a1c1dcae2bf6a3244349c3cc34c877cbefbe10eff",
    "cm.txt": "4ffae11d8ca9478db03225c76b54cf5548e14a0cded975f88160a96eb42fa920",
    "pam_xi.txt": "8d6a53d482993a0e1428667cb6cb43dc8a14673b41e77e72615737a65e85ae2d",
    "pam_edges.txt": "0170b968c96d3f87f7634b0e5d2811f5c7e5570579b95516dee966f8f538111d",
    "core-dist.csv": "7f150a482eaa0a2e9f8f4daf9efffd1e5cbd0130d77410e258a0ad1e265f4333",
    "mkc.csv": "b42fe1187ad8609719b23b227efb17e15919a9c1584856ac7074ea6e53d880d6",
    "diameter.csv": "0dbbd4e287592fcdd4026d9bfe6e68f6ef1441862580cc23436369914b83cec4",
}


def test_output_bytes_are_pinned(tmp_path, capsys):
    def path(name):
        return str(tmp_path / name)

    # d_min = 1 leaves vertices out of reach of the core: `inf` cells
    seq = sample_iid_powerlaw(PowerLawSpec(tau=2.5, d_min=1, n=1000), 5)
    write_degrees(path("degrees.txt"), seq)
    pam = ["gen-pam", "--m", "2", "--delta", "-1.0", "--t", "1000", "--seed", "6"]
    for argv in (
        ["fix-parity", "--in", path("degrees.txt"), "--out", path("degrees_even.txt")],
        ["gen-cm", "--tau", "2.5", "--dmin", "1", "--n", "1000", "--seed", "5",
         "--degrees", path("degrees_even.txt"), "--out", path("cm.txt")],
        pam + ["--out", path("pam_xi.txt")],
        pam + ["--format", "edgelist", "--out", path("pam_edges.txt")],
    ):
        assert main(argv) == 0
    outputs = {name: (tmp_path / name).read_bytes() for name in PINNED_DIGESTS
               if name.endswith(".txt")}
    capsys.readouterr()
    analyze = ["analyze", "--in", path("cm.txt"), "--tau", "2.5"]
    assert main(analyze + ["--what", "core-dist", "--dmin", "1"]) == 0
    outputs["core-dist.csv"] = capsys.readouterr().out.encode()
    assert main(analyze + ["--what", "mkc", "--dmin", "2", "--k", "1"]) == 0
    outputs["mkc.csv"] = capsys.readouterr().out.encode()
    # `diameter` labels the components and keeps the largest, 781 of the
    # 1000 vertices
    assert main(["diameter", "--in", path("cm.txt")]) == 0
    outputs["diameter.csv"] = capsys.readouterr().out.encode()
    assert b",inf\n" in outputs["core-dist.csv"]
    assert b",0\n" in outputs["core-dist.csv"]
    digests = {
        name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()
    }
    assert digests == PINNED_DIGESTS
