"""The three workloads: their fixed work, a warm-up, and their checks.

Each workload's graphs are a function of the workload seed `w` alone:
in the experiments replica `i` of every size is built from seed
`1000 w + offset + i`, and the CLI calls pass `--seed 1000 w + offset`.
One pass is the workload's whole fixed work; repeated passes in one run do
the same work and must write the same bytes. A pass makes its calls
through `clock.call`, which times each call against the reference
computation run right before and after it (see run.py): an experiment
runs one `ultrasmall experiment` call per graph, so that no call lasts
much longer than the machine's speed holds still.
The checks (and scipy) are imported only once the measured passes are
over, so that neither set-up time nor peak memory counts them.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import traceback

import numpy as np

CM_PARAMS = {"tau": 2.5, "d_min": 3}
PAM_PARAMS = {"m": 2, "delta": -1.0}
SIGMA = 2.2  # the harness's and `analyze`'s default core exponent


def _run_cli(cli, argv, stdout_path=None):
    """One CLI call in this process; True when it exits with code 0."""
    try:
        with contextlib.ExitStack() as stack:
            if stdout_path is not None:
                fh = stack.enter_context(open(stdout_path, "w"))
                stack.enter_context(contextlib.redirect_stdout(fh))
            return cli.main(argv) == 0
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code == 0
    except Exception:  # a failed operation; the run goes on
        traceback.print_exc()
        return False


class Experiment:
    """`ultrasmall experiment` over a fixed config; one operation is one
    replica row, failed when its `error` cell is not empty."""

    def __init__(self, name, model, params, sizes, replicas, measurements,
                 seed_offset, **extra):
        self.name = name
        self.model = model
        self.params = params
        self.sizes = sizes
        self.replicas = replicas
        self.measurements = measurements
        self.seed_offset = seed_offset
        self.extra = extra

    def _write_config(self, path, size, seed):
        with open(path, "w") as fh:
            json.dump(dict(
                model=self.model,
                params=self.params,
                sizes=[size],
                replicas=1,
                seed_base=seed,
                measurements=self.measurements,
                **self.extra,
            ), fh)

    def prepare(self, workload_seed, workdir):
        """One config per graph, named `<size>_<replica>`."""
        self.workdir = workdir
        base = 1000 * workload_seed + self.seed_offset
        self.cells = []
        for size in self.sizes:
            for i in range(self.replicas):
                cell = f"{size}_{i}"
                path = os.path.join(workdir, cell + ".json")
                self._write_config(path, size, base + i)
                self.cells.append((cell, path))
        self.warm_path = os.path.join(workdir, "warmup.json")
        self._write_config(self.warm_path, 300, base)

    def _experiment(self, cli, config_path, outdir):
        return _run_cli(
            cli,
            ["experiment", "--config", config_path, "--out", outdir,
             "--threads", "1"],
        )

    def warm_up(self, cli):
        self._experiment(cli, self.warm_path, os.path.join(self.workdir, "warm"))

    def run_pass(self, cli, outdir, clock):
        """(attempted, failed, digest of the outputs)."""
        failed, digest = 0, hashlib.sha256()
        for cell, config_path in self.cells:
            celldir = os.path.join(outdir, cell)
            rows_path = os.path.join(celldir, "rows.csv")
            if os.path.exists(rows_path):
                os.remove(rows_path)
            if not clock.call(self._experiment, cli, config_path, celldir) or (
                not os.path.exists(rows_path)
            ):
                failed += 1
                continue
            with open(rows_path, "rb") as fh:
                data = fh.read()
            rows = list(csv.DictReader(io.StringIO(data.decode())))
            failed += len(rows) != 1 or bool(rows[0]["error"])
            digest.update(data)
        return len(self.cells), failed, None if failed else digest.hexdigest()

    def check(self, outdir):
        """(problems, work counts) of the last pass's `rows.csv` files."""
        import checks
        from ultrasmall import (
            PamParams, PowerLawSpec, fix_parity, generate_cm, generate_pam,
            sample_iid_powerlaw,
        )

        rows = [
            r
            for cell, _ in self.cells
            for r in checks.read_rows(os.path.join(outdir, cell, "rows.csv"))
            if not r["error"]
        ]
        problems = []
        work = dict(graphs=0, vertices=0, edges=0, pairs=0, explorations=0)
        smallest = min(self.sizes)
        for row in rows:
            size, seed = int(row["size"]), int(row["seed"])
            tag = f"{self.name} size {size} seed {seed}"
            if self.model == "cm":
                seq = fix_parity(
                    sample_iid_powerlaw(PowerLawSpec(n=size, **self.params), seed)
                )
                edges = generate_cm(seq, seed).edges()
                problems += checks.degree_problems(tag, size, edges, seq.degrees)
            else:
                graph = generate_pam(PamParams(**self.params), size, seed)
                view = graph.undirected_view()
                xi = graph.xi
                edges = checks.pam_edges(xi)
                problems += checks.pam_problems(
                    tag, xi, view.degrees, view.num_edges
                )
            work["graphs"] += 1
            work["vertices"] += size
            work["edges"] += len(edges)
            if "diameter" in self.measurements:
                problems += checks.diameter_problems(
                    tag, size, edges, int(row["diam"]),
                    float(row["lcc_fraction"]), exact=size == smallest,
                )
            if "typical" in self.measurements:
                work["pairs"] += int(row["typical_pairs"])
                problems += checks.typical_problems(
                    tag, float(row["typical_mean"]), float(row["typical_max"]),
                    int(row["diam"]),
                )
            # the census and core checks read xi: they are PAM-only (k = 1)
            if "mkc" in self.measurements:
                count = checks.pam_mkc1(xi)
                if int(row["mkc_count"]) != count:
                    problems.append(f"{tag}: mkc_count {row['mkc_count']} != {count}")
            if "core" in self.measurements:
                core = checks.pam_core(xi, SIGMA)
                if int(row["core_size"]) != core.size:
                    problems.append(
                        f"{tag}: core_size {row['core_size']} != {core.size}"
                    )
                if core.size:
                    dist = checks.core_distances(size, edges, core)
                    top = int(dist[np.isfinite(dist)].max())
                    if int(row["core_max_dist"]) != top:
                        problems.append(
                            f"{tag}: core_max_dist {row['core_max_dist']} != {top}"
                        )
            if "exploration" in self.measurements:
                work["explorations"] += min(self.extra["explore_sample"], size)
                if not 0 <= float(row["explore_multi_collision_frac"]) <= 1:
                    problems.append(f"{tag}: collision fraction outside [0, 1]")
        return problems, work


class CliFiles:
    """The file pipeline of a CLI user; one operation is one CLI call,
    failed when it exits with a code other than 0."""

    name = "cli-files"

    def __init__(self, n):
        self.n = n

    def _steps(self, n, workdir):
        seed3, seed1 = self.seeds
        dense = os.path.join(workdir, "cm_dmin3.txt")
        sparse = os.path.join(workdir, "cm_dmin1.txt")
        tau = str(CM_PARAMS["tau"])
        gen = ["gen-cm", "--tau", tau, "--n", str(n), "--fix-parity"]
        return [
            (gen + ["--dmin", "3", "--seed", str(seed3), "--out", dense], None),
            (["analyze", "--in", dense, "--what", "core-dist", "--tau", tau,
              "--dmin", "3"], os.path.join(workdir, "core_dist.csv")),
            (gen + ["--dmin", "1", "--seed", str(seed1), "--out", sparse], None),
            (["diameter", "--in", sparse, "--threads", "1"],
             os.path.join(workdir, "diameter.csv")),
        ]

    def prepare(self, workload_seed, workdir):
        self.workdir = workdir
        self.seeds = (1000 * workload_seed + 900, 1000 * workload_seed + 901)

    def warm_up(self, cli):
        warm = os.path.join(self.workdir, "warm")
        os.makedirs(warm, exist_ok=True)
        for argv, stdout_path in self._steps(300, warm):
            _run_cli(cli, argv, stdout_path)

    def run_pass(self, cli, outdir, clock):
        steps = self._steps(self.n, outdir)
        failed = sum(
            not clock.call(_run_cli, cli, argv, out) for argv, out in steps
        )
        if failed:
            return len(steps), failed, None
        digest = hashlib.sha256()
        for name in ("cm_dmin3.txt", "core_dist.csv", "cm_dmin1.txt",
                     "diameter.csv"):
            with open(os.path.join(outdir, name), "rb") as fh:
                digest.update(fh.read())
        return len(steps), 0, digest.hexdigest()

    def check(self, outdir):
        import checks
        from ultrasmall import PowerLawSpec, fix_parity, sample_iid_powerlaw

        problems = []
        work = dict(graphs=0, vertices=0, edges=0, pairs=0, explorations=0)
        graphs = {}
        for d_min, seed in zip((3, 1), self.seeds):
            path = os.path.join(outdir, f"cm_dmin{d_min}.txt")
            n, edges = checks.read_edge_list(path)
            seq = fix_parity(
                sample_iid_powerlaw(
                    PowerLawSpec(tau=CM_PARAMS["tau"], d_min=d_min, n=self.n), seed
                )
            )
            problems += checks.degree_problems(path, n, edges, seq.degrees)
            graphs[d_min] = (n, edges)
            work["graphs"] += 1
            work["vertices"] += n
            work["edges"] += len(edges)
        n, edges = graphs[3]
        core = checks.cm_core(np.bincount(edges.ravel(), minlength=n), SIGMA)
        problems += checks.core_dist_problems(
            "core-dist", n, edges, core, os.path.join(outdir, "core_dist.csv")
        )
        (row,) = checks.read_rows(os.path.join(outdir, "diameter.csv"))
        n, edges = graphs[1]
        if int(row["n"]) != n:
            problems.append(f"diameter: n {row['n']} != {n}")
        problems += checks.diameter_problems(
            "diameter", n, edges, int(row["diam"]), float(row["lcc_fraction"]),
            exact=False,
        )
        return problems, work


WORKLOADS = {
    w.name: w
    for w in (
        Experiment(
            "cm-growth", "cm", CM_PARAMS, sizes=[1000, 10000, 100000],
            replicas=2, measurements=["diameter", "typical"], seed_offset=0,
            typical_pairs=50,
        ),
        Experiment(
            "pam-growth", "pam", PAM_PARAMS, sizes=[3000, 10000, 30000],
            replicas=2, measurements=["diameter", "mkc", "core", "exploration"],
            seed_offset=500, explore_sample=200,
        ),
        CliFiles(n=100000),
    )
}
