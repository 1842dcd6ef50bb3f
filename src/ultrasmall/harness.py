"""Multi-replica, multi-size experiment orchestration.

Replica seeds derive from a 64-bit base by counter (seed = base + index);
the RNG is PCG64 (numpy default_rng) everywhere, so runs replicate across
platforms. CSV (one row per replica) is the source of truth; the JSON
report carries aggregates with the theory constants alongside.
"""

import csv
import io
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .degrees import PowerLawSpec, sample_iid_powerlaw, fix_parity
from .cm import generate_cm
from .pam import PamParams, generate_pam
from .metrics import diameter, typical_distance_sample, extract_core
from .structure import census_mkc, explore, distance_to_core
from . import bounds as _bounds

MEASUREMENTS = ("diameter", "typical", "mkc", "core", "exploration", "bounds")

#: fixed column order of result rows (CSV determinism contract)
COLUMNS = (
    "model",
    "size",
    "replica",
    "seed",
    "timed_out",
    "error",
    "diam",
    "lcc_fraction",
    "typical_mean",
    "typical_max",
    "typical_pairs",
    "mkc_count",
    "mkc_expected",
    "core_size",
    "core_max_dist",
    "explore_multi_collision_frac",
    "diam_constant",
    "typ_constant",
    "k_plus",
    "k_bar",
    "h_n",
)


@dataclass(frozen=True)
class ExperimentConfig:
    model: str  # "cm" | "pam"
    params: dict  # cm: tau, d_min; pam: m, delta
    sizes: tuple
    replicas: int
    seed_base: int
    measurements: tuple = ("diameter",)
    eps: float = 0.1
    sigma: float = 2.2
    eta: float = 0.05
    B: float = None  # default 1/gamma_d from the feasible doubling rate
    C: float = None  # default log(sigma/log 2)
    typical_pairs: int = 100
    explore_sample: int = 1000
    mkc_k: int = 1
    replica_budget_s: float = None  # wall-clock budget flagged per row

    def __post_init__(self):
        if self.model not in ("cm", "pam"):
            raise ValueError(f"model must be 'cm' or 'pam', got {self.model!r}")
        if not self.sizes:
            raise ValueError("sizes must be nonempty")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        for mkey in self.measurements:
            if mkey not in MEASUREMENTS:
                raise ValueError(f"unknown measurement {mkey!r}")

    def model_params(self):
        if self.model == "cm":
            return PowerLawSpec(
                tau=self.params["tau"], d_min=self.params["d_min"], n=0
            )
        return PamParams(m=self.params["m"], delta=self.params["delta"])

    def b_c(self):
        """(B, C) with documented defaults."""
        B = self.B
        if B is None:
            gamma_d, _ = _bounds.feasible_doubling_rate(self.model_params().tau)
            B = 1.0 / gamma_d
        C = self.C
        if C is None:
            C = math.log(self.sigma / math.log(2.0))
        return B, C


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list  # one dict per replica, keys drawn from COLUMNS

    def aggregates(self):
        """Per-size mean/stderr/quantiles of every numeric column."""
        out = {}
        for size in self.config.sizes:
            rows = [r for r in self.rows if r["size"] == size and not r["error"]]
            agg = {"size": size, "replicas_ok": len(rows)}
            for col in COLUMNS:
                vals = [
                    r[col]
                    for r in rows
                    if isinstance(r.get(col), (int, float))
                    and math.isfinite(r[col])
                ]
                if not vals:
                    continue
                arr = np.asarray(vals, dtype=np.float64)
                agg[col] = {
                    "mean": float(arr.mean()),
                    "stderr": float(arr.std(ddof=1) / math.sqrt(arr.size))
                    if arr.size > 1
                    else 0.0,
                    "q25": float(np.quantile(arr, 0.25)),
                    "median": float(np.quantile(arr, 0.5)),
                    "q75": float(np.quantile(arr, 0.75)),
                }
            out[str(size)] = agg
        return out


def _build_graph(config, size, seed):
    if config.model == "cm":
        spec = PowerLawSpec(
            tau=config.params["tau"], d_min=config.params["d_min"], n=size
        )
        seq = sample_iid_powerlaw(spec, seed)
        if seq.ell_n % 2 != 0:
            seq = fix_parity(seq)
        return generate_cm(seq, seed), seq
    params = PamParams(m=config.params["m"], delta=config.params["delta"])
    return generate_pam(params, size, seed), None


def run_replica(config, size, index):
    """One replica; exceptions are recorded in the row, never raised."""
    seed = config.seed_base + index
    row = {c: "" for c in COLUMNS}
    row.update(model=config.model, size=size, replica=index, seed=seed, error="")
    t0 = time.perf_counter()
    try:
        graph, seq = _build_graph(config, size, seed)
        mp = config.model_params()
        und = graph.undirected_view() if config.model == "pam" else graph
        consts = _bounds.asymptotic_constants(mp)
        core = None

        if "bounds" in config.measurements or "diameter" in config.measurements:
            B, C = config.b_c()
            row["diam_constant"] = consts.diam_constant
            row["typ_constant"] = consts.typ_constant
            row["k_plus"] = consts.k_plus(size, config.eps)
            row["k_bar"] = consts.k_bar(size, config.eps)
            row["h_n"] = consts.h(size, B, C)
        if "diameter" in config.measurements:
            res = diameter(und)
            row["diam"] = res.diam
            row["lcc_fraction"] = res.component_fraction
        if "typical" in config.measurements:
            dists = typical_distance_sample(und, config.typical_pairs, seed)
            finite = dists[np.isfinite(dists)]
            row["typical_pairs"] = int(finite.size)
            if finite.size:
                row["typical_mean"] = float(finite.mean())
                row["typical_max"] = float(finite.max())
        if "mkc" in config.measurements:
            census_graph = graph if config.model == "pam" else und
            cen = census_mkc(census_graph, mp, config.mkc_k)
            row["mkc_count"] = cen.count
            if config.model == "cm":
                row["mkc_expected"] = _bounds.cm_mk_first_moment(seq, config.mkc_k)
        if "core" in config.measurements or "exploration" in config.measurements:
            core = extract_core(
                graph if config.model == "pam" else und, mp, config.sigma
            )
        if "core" in config.measurements:
            row["core_size"] = int(core.members.size)
            if core.members.size:
                dtc = distance_to_core(und, core)
                row["core_max_dist"] = dtc.max_finite
        if "exploration" in config.measurements:
            k_plus = consts.k_plus(size, config.eps)
            rng = np.random.default_rng(seed)
            sample = rng.choice(
                und.n, size=min(config.explore_sample, und.n), replace=False
            )
            multi = 0
            for v in sample:
                eg = explore(graph, int(v), k_plus, mp, core=core)
                if eg.collisions_before_core() >= 2:
                    multi += 1
            row["explore_multi_collision_frac"] = multi / sample.size
    except Exception as exc:  # recorded per row, batch continues
        row["error"] = f"{type(exc).__name__}: {exc}"
    # wall-clock stays out of the CSV columns (byte-determinism contract);
    # the budget flag is 0 whenever no budget is configured
    elapsed = time.perf_counter() - t0
    row["elapsed_s"] = round(elapsed, 3)
    row["timed_out"] = int(
        config.replica_budget_s is not None and elapsed > config.replica_budget_s
    )
    return row


def run(config, threads=1):
    """Run every (size, replica) cell, in `threads` worker processes when
    more than one; deterministic given seed_base."""
    cells = [
        (size, i)
        for size in config.sizes
        for i in range(config.replicas)
    ]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(
                pool.map(run_replica, *zip(*[(config, s, i) for s, i in cells]))
            )
    else:
        rows = [run_replica(config, s, i) for s, i in cells]
    rows.sort(key=lambda r: (r["size"], r["seed"]))
    return ExperimentResult(config=config, rows=rows)


def _format_cell(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(result, path_or_buf):
    """Deterministic per-row CSV (fixed column order, repr floats)."""
    own = isinstance(path_or_buf, str)
    fh = open(path_or_buf, "w", newline="") if own else path_or_buf
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in result.rows:
            writer.writerow([_format_cell(row.get(c, "")) for c in COLUMNS])
    finally:
        if own:
            fh.close()


def csv_bytes(result):
    buf = io.StringIO()
    write_csv(result, buf)
    return buf.getvalue().encode()


def read_csv(path, config):
    """Re-ingest a row CSV into an ExperimentResult."""
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            row = {}
            for col in COLUMNS:
                raw = rec.get(col, "")
                if col in ("model", "error"):
                    row[col] = raw
                elif raw == "":
                    row[col] = ""
                else:
                    num = float(raw)
                    row[col] = int(num) if num == int(num) and "." not in raw else num
            rows.append(row)
    return ExperimentResult(config=config, rows=rows)


def write_json(result, path):
    """Aggregate report: config echo, theory constants, per-size stats."""
    consts = _bounds.asymptotic_constants(result.config.model_params())
    B, C = result.config.b_c()
    payload = {
        "config": asdict(result.config),
        "theory": {
            "tau": consts.tau,
            "d_fwd": consts.d_fwd,
            "c_dist": consts.c_dist,
            "diam_constant": consts.diam_constant,
            "typ_constant": consts.typ_constant,
            "B": B,
            "C": C,
        },
        "aggregates": result.aggregates(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_gnuplot(result, path):
    """Whitespace-separated data layout: size, mean, stderr per column
    block, one block per measured column, blank-line separated."""
    aggs = result.aggregates()
    with open(path, "w") as fh:
        for col in COLUMNS:
            blocks = []
            for size in result.config.sizes:
                agg = aggs[str(size)].get(col)
                if isinstance(agg, dict):
                    blocks.append((size, agg["mean"], agg["stderr"]))
            if not blocks:
                continue
            fh.write(f"# {col}: size mean stderr\n")
            for size, mean, err in blocks:
                fh.write(f"{size} {mean!r} {err!r}\n")
            fh.write("\n\n")


def loglog_slope(sizes, values):
    """Least-squares slope of values against loglog(size)."""
    x = np.array([math.log(math.log(s)) for s in sizes])
    y = np.asarray(values, dtype=np.float64)
    return float(np.polyfit(x, y, 1)[0])
