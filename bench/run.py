"""Fixed-work benchmark of the ultrasmall pipeline.

    python3 bench/run.py --workload-seed 1 --workload cm-growth --seed 3 \
        --seconds 20 --trace 0

One run imports the package from ``src/`` of the checkout this file sits
in, warms up, then repeats whole passes of the workload's fixed work until
``--seconds`` have gone by, checks the last pass's outputs against scipy
(see checks.py) and prints one JSON object as its last line. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every call into the package is wrapped in spans (see spans.py) and the
metrics are per-layer self times, counts and rates.

``run_rel`` is a pass's time in units of a fixed reference computation
(numpy gathers, sorts and counts plus a pure-Python loop): each call of
the pass is timed against the reference run in this process right before
and right after it. The shared machine's speed drifts by tens of percent
over seconds to minutes, and the ratio cancels the drift; the raw pass
times go to standard error.

``--workload-seed`` alone picks the graphs; ``--seed`` does not change the
work. BENCHMARK.json pins the workload seed, so every run does the same
work: the BFS sweeps behind one diameter vary several-fold from graph to
graph. ``setup_s`` runs from this file's first statement to the end of
the warm-up.

Outputs go to ``bench/out/<workload>/``: the last pass's files and, traced,
its spans in ``spans.jsonl``.
"""

import time

_T0 = time.perf_counter()

import argparse
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: per-layer metric -> unit; BENCHMARK.json lists the same names
LAYER_UNITS = {
    "degrees.sample_s": "s",
    "cm.generate_s": "s",
    "pam.generate_s": "s",
    "pam.attachments_per_s": "1/s",
    "pam.undirected_view_s": "s",
    "multigraph.build_s": "s",
    "multigraph.edges_s": "s",
    "multigraph.write_edge_list_s": "s",
    "multigraph.read_edge_list_s": "s",
    "multigraph.edge_list_mb_per_s": "MB/s",
    "metrics.components_s": "s",
    "metrics.components_count": "count",
    "metrics.diameter_self_s": "s",
    "metrics.diameter_calls": "count",
    "metrics.typical_s": "s",
    "metrics.typical_pairs_per_s": "1/s",
    "metrics.bfs_sweep_s": "s",
    "metrics.bfs_edges_per_s": "1/s",
    "metrics.extract_core_s": "s",
    "structure.census_mkc_s": "s",
    "structure.explore_s": "s",
    "structure.explore_calls": "count",
    "structure.distance_to_core_s": "s",
    "bounds.self_s": "s",
    "harness.self_s": "s",
    "cli.self_s": "s",
}


_REFERENCE = None


def reference_s():
    """Wall time of the fixed reference computation, which calls nothing
    of the program; its arrays are small so as not to move peak memory."""
    global _REFERENCE
    import numpy as np

    if _REFERENCE is None:
        rng = np.random.default_rng(0)
        _REFERENCE = (
            rng.integers(0, 1 << 30, 1 << 18, dtype=np.int32),
            rng.integers(0, 1 << 18, 1 << 17, dtype=np.int32),
        )
    data, index = _REFERENCE
    start = time.perf_counter()
    for _ in range(40):
        gathered = data[index]
        gathered.sort()
        np.bincount(index, minlength=data.size)
    table = {}
    for i in range(165_000):
        table[i & 4095] = table.get(i & 4095, 0) + i * 3
    return time.perf_counter() - start


class Clock:
    """Times the calls of a pass: `wall` adds up their wall times, `rel`
    each one's wall time over the mean of the reference times right
    before and right after it."""

    def __init__(self):
        self.ref = reference_s()
        self.wall = self.rel = 0.0

    def call(self, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        ref = reference_s()
        self.wall += wall
        self.rel += wall / ((self.ref + ref) / 2)
        self.ref = ref
        return result


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(tracer):
    """Per-layer figures of one traced pass; 0 where a layer was not
    called."""
    s, c = tracer.self_s, tracer.counts
    io_s = s["multigraph.write_edge_list"] + s["multigraph.read_edge_list"]
    return {
        "degrees.sample_s": s["degrees.sample"],
        "cm.generate_s": s["cm.generate"],
        "pam.generate_s": s["pam.generate"],
        "pam.attachments_per_s": _rate(c["pam.attachments"], s["pam.generate"]),
        "pam.undirected_view_s": s["pam.undirected_view"],
        "multigraph.build_s": s["multigraph.build"],
        "multigraph.edges_s": s["multigraph.edges"],
        "multigraph.write_edge_list_s": s["multigraph.write_edge_list"],
        "multigraph.read_edge_list_s": s["multigraph.read_edge_list"],
        "multigraph.edge_list_mb_per_s": _rate(
            c["multigraph.edge_list_bytes"] / 1e6, io_s
        ),
        "metrics.components_s": s["metrics.components"],
        "metrics.components_count": c["metrics.components"],
        "metrics.diameter_self_s": s["metrics.diameter"],
        "metrics.diameter_calls": c["metrics.diameter.calls"],
        "metrics.typical_s": s["metrics.typical"],
        "metrics.typical_pairs_per_s": _rate(
            c["metrics.typical_pairs"], s["metrics.typical"]
        ),
        "metrics.extract_core_s": s["metrics.extract_core"],
        "structure.census_mkc_s": s["structure.census_mkc"],
        "structure.explore_s": s["structure.explore"],
        "structure.explore_calls": c["structure.explore.calls"],
        "structure.distance_to_core_s": s["structure.distance_to_core"],
        "bounds.self_s": s["bounds"],
        "harness.self_s": s["harness"],
        "cli.self_s": s["cli"],
    }


def bfs_sweeps(graphs):
    """Public `metrics.bfs` from the highest-degree vertex of each graph
    and from the farthest vertex it reaches (a double sweep): the median
    sweep time and the half-edges reached per second over all sweeps."""
    import numpy as np
    from ultrasmall import metrics

    times, half_edges = [], 0
    for graph in graphs:
        degrees = graph.degrees
        source = int(np.argmax(degrees))
        for _ in range(2):
            start = time.perf_counter()
            report = metrics.bfs(graph, source)
            times.append(time.perf_counter() - start)
            reached = np.isfinite(report.distances)
            half_edges += int(degrees[reached].sum())
            source = int(np.argmax(np.where(reached, report.distances, -1)))
    if not times:
        return {"metrics.bfs_sweep_s": 0.0, "metrics.bfs_edges_per_s": 0.0}
    return {
        "metrics.bfs_sweep_s": statistics.median(times),
        "metrics.bfs_edges_per_s": half_edges / sum(times),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--workload-seed",
        type=int,
        required=True,
        help="seed of the workload's graphs",
    )
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ultrasmall
        from ultrasmall import cli
    except ImportError as exc:
        print(f"error: cannot import ultrasmall from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if Path(ultrasmall.__file__).resolve().parent != ROOT / "src" / "ultrasmall":
        print(f"error: ultrasmall imported from {ultrasmall.__file__}, not "
              "from this checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    seed = args.workload_seed

    outdir = BENCH / "out" / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    passdir = outdir / "pass"
    passdir.mkdir(parents=True)
    workload.prepare(seed, str(outdir))
    workload.warm_up(cli)
    setup_s = time.perf_counter() - _T0

    tracer = uninstall = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        uninstall = tracer.install()
        tracer.capture = True
    pass_s, pass_rel, layers, digests = [], [], [], set()
    attempted = failed = 0
    begin = time.perf_counter()
    clock = Clock()
    while True:
        if tracer:
            tracer.reset()
        clock.wall = clock.rel = 0.0
        tried, lost, digest = workload.run_pass(cli, str(passdir), clock)
        pass_s.append(clock.wall)
        pass_rel.append(clock.rel)
        attempted += tried
        failed += lost
        if digest is not None:
            digests.add(digest)
        if tracer:
            layers.append(layer_metrics(tracer))
            tracer.capture = False
        if time.perf_counter() - begin >= args.seconds:
            break
    if tracer:
        uninstall()
        with open(outdir / "spans.jsonl", "w") as fh:  # the last pass's
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "layer", "start", "end"), span))) + "\n")
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, work = workload.check(str(passdir))
    if len(digests) > 1:
        problems.append(f"outputs differ between the {len(pass_s)} passes")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    run_s, run_rel = statistics.median(pass_s), statistics.median(pass_rel)
    print(f"{args.workload}: workload seed {seed}, run_s {run_s:.4f}, "
          f"run_rel {run_rel:.4f}{' traced' if tracer else ''}, passes (s):",
          " ".join(f"{t:.3f}" for t in pass_s), file=sys.stderr)
    print(json.dumps({"work": work}))

    if tracer:
        metrics = {
            name: statistics.median(layer[name] for layer in layers)
            for name in layers[0]
        }
        metrics.update(bfs_sweeps(tracer.captured.values()))
        units = LAYER_UNITS
    else:
        metrics = {"setup_s": setup_s, "run_rel": run_rel,
                   "peak_rss_mib": peak_rss_mib}
        units = {"setup_s": "s", "run_rel": "x", "peak_rss_mib": "MiB"}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
