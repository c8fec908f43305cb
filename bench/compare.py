"""Two interleaved sets of benchmark runs of the same code, to measure the
spread of every end-to-end metric and check it against the bounds.

    python3 bench/compare.py

Every run lasts ``run_seconds`` from ``BENCHMARK.json``, and each set has
ten runs of every workload there.  Set A uses seeds 1..10 and set B seeds
101..110.  The runs alternate between the sets (A first in even rounds, B
first in odd ones) and cycle through the workloads, so drift of the host
over time falls on both sets alike.  Every result is written to
``.bench_runs/compare.json`` as it arrives.  The summary gives, per workload
and metric, each set's median and quartiles, its spread (q3 - q1) / median,
and how far set B's median is from set A's, against the metric's bound in
``BENCHMARK.json``.  The exit code is 0 only if every spread and every
difference of the medians, either way, is within its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LOG = ROOT / ".bench_runs" / "compare.json"
RUNS = 10


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(records: list[dict], spec: dict) -> bool:
    ok = True
    print("| workload | metric | set | median | q1 | q3 | spread | B vs A | bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in dict.fromkeys(r["workload"] for r in records):
        rows = [r for r in records if r["workload"] == workload]
        failed = {
            s: sum(r["result"]["failed"] for r in rows if r["set"] == s)
            / sum(r["result"]["attempted"] for r in rows if r["set"] == s)
            for s in "AB"
        }
        if failed["A"] != failed["B"] or any(not r["result"]["correct"] for r in rows):
            ok = False
            print(f"| {workload} | failed share | A {failed['A']} | B {failed['B']} |")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = {}
            for s in "AB":
                values = [r["result"]["metrics"][name]["value"] for r in rows if r["set"] == s]
                q1, median, q3 = statistics.quantiles(values, n=4)
                medians[s] = median
                spread = (q3 - q1) / median
                within = spread <= bound
                ok &= within
                change = ""
                if s == "B":
                    moved = medians["B"] / medians["A"] - 1.0
                    ok &= abs(moved) <= bound
                    change = f"{moved:+.4f}"
                flag = "" if within else " (over)"
                print(
                    f"| {workload} | {name} | {s} ({len(values)}) | {median:.4f} | {q1:.4f} "
                    f"| {q3:.4f} | {spread:.4f}{flag} | {change} | {bound} |"
                )
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    LOG.parent.mkdir(exist_ok=True)
    records = []
    for i in range(RUNS):
        for workload in spec["workloads"]:
            for s in "AB" if i % 2 == 0 else "BA":
                seed = (1 if s == "A" else 101) + i
                result = run_once(workload["name"], seed, spec["run_seconds"])
                records.append(
                    {"workload": workload["name"], "set": s, "seed": seed, "result": result}
                )
                LOG.write_text(json.dumps(records, indent=1))
                print(workload["name"], s, seed, json.dumps(result["metrics"]), flush=True)
    return 0 if summarize(records, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
