"""Experiment orchestration: determinism, serialization, aggregation."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ultrasmall import harness


def small_config(**overrides):
    base = dict(
        model="cm",
        params={"tau": 2.5, "d_min": 3},
        sizes=(100, 200),
        replicas=3,
        seed_base=1000,
        measurements=("diameter", "typical"),
    )
    base.update(overrides)
    return harness.ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(sizes=())
    with pytest.raises(ValueError):
        small_config(replicas=0)
    with pytest.raises(ValueError):
        small_config(model="other")
    with pytest.raises(ValueError):
        small_config(measurements=("nope",))


def test_run_row_count_and_order():
    cfg = small_config()
    res = harness.run(cfg)
    assert len(res.rows) == len(cfg.sizes) * cfg.replicas
    keys = [(r["size"], r["seed"]) for r in res.rows]
    assert keys == sorted(keys)
    for r in res.rows:
        assert r["error"] == ""
        assert r["seed"] == cfg.seed_base + r["replica"]
        assert r["diam"] >= 1


def test_same_config_identical_csv_bytes():
    cfg = small_config()
    a = harness.csv_bytes(harness.run(cfg))
    b = harness.csv_bytes(harness.run(cfg))
    assert a == b


def test_parallel_run_matches_serial():
    cfg = small_config(replicas=2, sizes=(80,))
    serial = harness.csv_bytes(harness.run(cfg, threads=1))
    parallel = harness.csv_bytes(harness.run(cfg, threads=2))
    assert serial == parallel


SPAWN_SCRIPT = """
import multiprocessing
import sys

from ultrasmall import harness

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    cfg = harness.ExperimentConfig(
        model="cm",
        params={"tau": 2.5, "d_min": 3},
        sizes=(80,),
        replicas=2,
        seed_base=1000,
        measurements=("diameter", "typical"),
    )
    sys.stdout.buffer.write(harness.csv_bytes(harness.run(cfg, threads=2)))
"""


def test_parallel_run_under_spawn_matches_serial():
    # the replica pool must not depend on state inherited by fork
    cfg = small_config(replicas=2, sizes=(80,))
    serial = harness.csv_bytes(harness.run(cfg, threads=1))
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", SPAWN_SCRIPT],
        env=env,
        capture_output=True,
        check=True,
        timeout=300,
    )
    assert proc.stdout == serial


def test_errors_recorded_per_row_not_raised():
    # sigma below 1/(3-tau) makes the core measurement fail per replica
    cfg = small_config(measurements=("core",), sigma=1.0, sizes=(50,), replicas=2)
    res = harness.run(cfg)
    assert len(res.rows) == 2
    assert all("ValueError" in r["error"] for r in res.rows)


def test_csv_roundtrip_reproduces_aggregates(tmp_path):
    cfg = small_config()
    res = harness.run(cfg)
    path = tmp_path / "rows.csv"
    harness.write_csv(res, str(path))
    back = harness.read_csv(str(path), cfg)
    a, b = res.aggregates(), back.aggregates()
    assert a.keys() == b.keys()
    for size in a:
        for col, stats in a[size].items():
            if isinstance(stats, dict):
                for stat, val in stats.items():
                    assert abs(b[size][col][stat] - val) <= 1e-12 * max(
                        1.0, abs(val)
                    )
            else:
                assert b[size][col] == stats


def test_empty_result_header_only_csv():
    cfg = small_config()
    empty = harness.ExperimentResult(config=cfg, rows=[])
    data = harness.csv_bytes(empty).decode()
    assert data == ",".join(harness.COLUMNS) + "\n"


def test_json_report_includes_constants(tmp_path):
    cfg = small_config(sizes=(60,), replicas=1)
    res = harness.run(cfg)
    path = tmp_path / "agg.json"
    harness.write_json(res, str(path))
    payload = json.loads(path.read_text())
    assert payload["theory"]["diam_constant"] == pytest.approx(5.7708, abs=1e-4)
    assert payload["config"]["seed_base"] == cfg.seed_base
    assert "60" in payload["aggregates"]


def test_diam_at_least_sampled_typical_max():
    cfg = small_config(sizes=(300,), replicas=3)
    res = harness.run(cfg)
    for r in res.rows:
        assert r["diam"] >= r["typical_max"]


def test_gnuplot_layout(tmp_path):
    cfg = small_config(sizes=(60, 120), replicas=2)
    res = harness.run(cfg)
    path = tmp_path / "plot.dat"
    harness.write_gnuplot(res, str(path))
    text = path.read_text()
    assert "# diam: size mean stderr" in text
    block = [l for l in text.splitlines() if l.startswith("60 ")]
    assert block  # one data line per size inside each block


def test_loglog_slope_on_exact_line():
    sizes = [10**3, 10**4, 10**5]
    vals = [4.0 * math.log(math.log(s)) + 1.0 for s in sizes]
    assert harness.loglog_slope(sizes, vals) == pytest.approx(4.0)


def test_pam_model_runs():
    cfg = harness.ExperimentConfig(
        model="pam",
        params={"m": 2, "delta": -1.0},
        sizes=(150,),
        replicas=2,
        seed_base=7,
        measurements=("diameter", "typical", "mkc"),
    )
    res = harness.run(cfg)
    for r in res.rows:
        assert r["error"] == ""
        assert r["mkc_count"] >= 0
