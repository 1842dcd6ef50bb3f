"""Steadiness check: two sets of ten runs of every workload on the same code.

    python3 bench/steady.py

Runs the command of BENCHMARK.json one run at a time, each with its own
``--seed`` and its ``run_seconds``, and prints for every end-to-end metric
of every workload each set's median and its quartile spread
((q3 - q1) / median, from ``statistics.quantiles(values, n=4)``), and how
far the second set's median moved from the first's. A spread wider than
the metric's bound, a median that worsened by more than the bound, a
failed share that differs between sets, or work counts that differ
between runs make it exit with code 1. The report is also written to
``bench/out/steady.json``.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS, RUNS = 2, 10


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    sys.stderr.write(proc.stderr)
    return json.loads(lines[-2])["work"], json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report, ok = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        sets, works = [], set()
        for k in range(SETS):
            results = []
            for i in range(RUNS):
                work, result = run_once(spec["command"], workload,
                                        1 + k * RUNS + i, spec["run_seconds"])
                works.add(json.dumps(work, sort_keys=True))
                ok &= result["correct"]
                results.append(result)
            sets.append(results)
        rows = report[workload] = {}
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for s in sets]
        if len(set(shares)) != 1 or len(works) != 1:
            ok = False
        print(f"{workload}: failed share per set {shares}, "
              f"{len(works)} distinct work count(s): {sorted(works)}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = [spread([r["metrics"][name]["value"] for r in s])
                     for s in sets]
            rows[name] = stats
            bound = metric["bound"]
            first = stats[0][0]
            drift = [(m - first) / first
                     * (1 if metric["better"] == "lower" else -1)
                     for m, _ in stats[1:]]
            line = "  ".join(f"median {m:.6g} spread {q:.2%}" for m, q in stats)
            line += "  worse by " + " ".join(f"{d:+.2%}" for d in drift)
            line += f"  (bound {bound:.0%})"
            if any(q > bound for _, q in stats) or any(d > bound for d in drift):
                ok = False
            print(f"  {name:28s} {line}")
    out = BENCH / "out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
