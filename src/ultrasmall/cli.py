"""Command-line interface.

Subcommands: gen-cm, gen-pam, fix-parity, diameter, analyze, bounds,
experiment. Edge lists are text files with one `u v` pair per line
(1-based ids, self-loop as `u u`); degree files are newline-delimited
integers. `experiment --threads N` runs the replicas in N processes.
"""

import argparse
import csv
import json
import sys

import numpy as np

from . import bounds as _bounds
from .degrees import (
    PowerLawSpec,
    DegreeSequence,
    sample_iid_powerlaw,
    quantile_sequence,
    fix_parity,
    read_degrees,
    write_degrees,
)
from .cm import generate_cm
from .pam import PamParams, generate_pam, write_pam
from .multigraph import read_edge_list
from .textio import write_rows
from .metrics import diameter, extract_core
from .structure import census_mkc, explore, distance_to_core
from . import harness


def _cmd_gen_cm(args):
    spec = PowerLawSpec(tau=args.tau, d_min=args.dmin, n=args.n)
    if args.degrees:
        seq = read_degrees(args.degrees)
    elif args.quantile:
        seq = quantile_sequence(spec)
    else:
        seq = sample_iid_powerlaw(spec, args.seed)
    if seq.ell_n % 2 != 0:
        if args.fix_parity:
            seq = fix_parity(seq)
        else:
            print(
                "error: odd total degree; pass --fix-parity or run "
                "`ultrasmall fix-parity`",
                file=sys.stderr,
            )
            return 1
    graph = generate_cm(seq, args.seed)
    graph.write_edge_list(args.out)
    return 0


def _cmd_gen_pam(args):
    params = PamParams(m=args.m, delta=args.delta)
    graph = generate_pam(params, args.t, args.seed)
    if args.format == "xi":
        write_pam(args.out, graph)
    else:
        graph.undirected_view().write_edge_list(args.out)
    return 0


def _cmd_fix_parity(args):
    seq = read_degrees(getattr(args, "in"))
    write_degrees(args.out, fix_parity(seq))
    return 0


def _cmd_diameter(args):
    graph = read_edge_list(getattr(args, "in"))
    method = "exact" if args.exact else "ifub" if args.ifub else "auto"
    res = diameter(graph, method=method)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "seed", "diam", "lcc_fraction"])
    writer.writerow([graph.n, args.seed, res.diam, repr(res.component_fraction)])
    return 0


def _cmd_analyze(args):
    graph = read_edge_list(getattr(args, "in"))
    spec = PowerLawSpec(tau=args.tau, d_min=args.dmin, n=graph.n)
    if args.what == "mkc":
        cen = census_mkc(graph, spec, args.k if args.k is not None else 1)
        sys.stdout.write("vertex\n")
        write_rows(sys.stdout, "%d\n", np.asarray(cen.members, dtype=np.int64) + 1)
        print(
            json.dumps({"k": args.k, "count": cen.count, "i_k": cen.i_k}),
            file=sys.stderr,
        )
        return 0
    core = extract_core(graph, spec, args.sigma)
    if args.what == "core-dist":
        dist = distance_to_core(graph, core).distances
        unreached = np.isinf(dist)
        rows = np.empty((graph.n, 2), dtype=object)
        rows[:, 0] = np.arange(1, graph.n + 1)
        rows[:, 1] = np.where(unreached, 0, dist).astype(np.int64)
        rows[unreached, 1] = "inf"
        sys.stdout.write("vertex,dist_to_core\n")
        write_rows(sys.stdout, "%s,%s\n", rows)
        return 0
    if args.what == "explore":
        consts = _bounds.asymptotic_constants(spec)
        k = args.k if args.k is not None else consts.k_plus(graph.n, args.eps)
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["vertex", "boundary", "collisions", "hit_core"])
        for v in range(graph.n):
            eg = explore(graph, v, k, spec, core=core)
            writer.writerow(
                [v + 1, len(eg.boundary), len(eg.collisions), int(eg.hit_core)]
            )
        return 0
    raise ValueError(f"unknown analysis {args.what!r}")


def _cmd_bounds(args):
    p = json.loads(args.params)
    out = {"which": args.which, "inputs": p}
    if args.which == "constants":
        if "m" in p:
            consts = _bounds.asymptotic_constants(
                PamParams(m=p["m"], delta=p["delta"])
            )
        else:
            consts = _bounds.asymptotic_constants(
                PowerLawSpec(tau=p["tau"], d_min=p["d_min"], n=0)
            )
        out.update(
            tau=consts.tau,
            d_fwd=consts.d_fwd,
            c_dist=consts.c_dist,
            diam_constant=consts.diam_constant,
            typ_constant=consts.typ_constant,
        )
        if "n" in p and "eps" in p:
            out.update(
                k_minus=consts.k_minus(p["n"], p["eps"]),
                k_plus=consts.k_plus(p["n"], p["eps"]),
                k_bar=consts.k_bar(p["n"], p["eps"]),
            )
    elif args.which in ("mk1", "mk2"):
        seq = DegreeSequence(np.asarray(p["degrees"], dtype=np.int64))
        fn = (
            _bounds.cm_mk_first_moment
            if args.which == "mk1"
            else _bounds.cm_mk_second_moment_bound
        )
        out["value"] = fn(seq, p["k"])
    elif args.which == "pathbound":
        seq = DegreeSequence(np.asarray(p["degrees"], dtype=np.int64))
        g = _bounds.cm_growth_sequence(
            seq.n, p["tau"], eta=p.get("eta", 0.05)
        )
        out["value"] = _bounds.cm_distance_bound(
            seq, p["d_a"], p["d_b"], p["k_bar"], g
        )
    elif args.which == "appA":
        seqs = _bounds.appendixA_sequences(
            p["t"],
            p.get("R", 2.0),
            p["gamma"],
            p["k_max"],
            c=p.get("c", _bounds.FITTED_RECURSION_C),
        )
        out.update(g=seqs.g, alpha=seqs.alpha[1:], beta=seqs.beta[1:])
    else:
        raise ValueError(f"unknown bound {args.which!r}")
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_experiment(args):
    import os

    with open(args.config) as fh:
        raw = json.load(fh)
    config = harness.ExperimentConfig(
        model=raw["model"],
        params=raw["params"],
        sizes=tuple(raw["sizes"]),
        replicas=raw["replicas"],
        seed_base=raw["seed_base"],
        measurements=tuple(raw.get("measurements", ["diameter"])),
        eps=raw.get("eps", 0.1),
        sigma=raw.get("sigma", 2.2),
        eta=raw.get("eta", 0.05),
        B=raw.get("B"),
        C=raw.get("C"),
        typical_pairs=raw.get("typical_pairs", 100),
        explore_sample=raw.get("explore_sample", 1000),
        mkc_k=raw.get("mkc_k", 1),
        replica_budget_s=raw.get("replica_budget_s"),
    )
    result = harness.run(config, threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    harness.write_csv(result, os.path.join(args.out, "rows.csv"))
    harness.write_json(result, os.path.join(args.out, "aggregates.json"))
    if args.gnuplot:
        harness.write_gnuplot(result, os.path.join(args.out, "gnuplot.dat"))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ultrasmall",
        description="Random graphs with ultra-small distances: generation, "
        "measurement and bound evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-cm", help="generate a configuration model graph")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--dmin", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--degrees", help="read degrees from file instead of sampling")
    p.add_argument(
        "--quantile", action="store_true", help="deterministic quantile degrees"
    )
    p.add_argument("--fix-parity", action="store_true")
    p.set_defaults(fn=_cmd_gen_cm)

    p = sub.add_parser("gen-pam", help="generate a preferential attachment graph")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["xi", "edgelist"], default="xi")
    p.set_defaults(fn=_cmd_gen_pam)

    p = sub.add_parser("fix-parity", help="make a degree file's total even")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_fix_parity)

    p = sub.add_parser("diameter", help="exact diameter of an edge list")
    p.add_argument("--in", required=True)
    p.add_argument("--threads", type=int, default=None, help="has no effect")
    p.add_argument("--seed", type=int, default=0, help="echoed into the CSV")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exact", action="store_true")
    g.add_argument("--ifub", action="store_true")
    p.set_defaults(fn=_cmd_diameter)

    p = sub.add_parser("analyze", help="structural analyses of a realized graph")
    p.add_argument("--in", required=True)
    p.add_argument("--what", choices=["mkc", "explore", "core-dist"], required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--dmin", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--sigma", type=float, default=2.2)
    p.add_argument("--eps", type=float, default=0.1)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("bounds", help="evaluate closed-form quantities")
    p.add_argument(
        "--which",
        choices=["mk1", "mk2", "pathbound", "appA", "constants"],
        required=True,
    )
    p.add_argument("--params", required=True, help="JSON object of inputs")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("experiment", help="run a multi-replica experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1, help="replica worker processes")
    p.add_argument("--gnuplot", action="store_true", help="also emit gnuplot data")
    p.set_defaults(fn=_cmd_experiment)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
