"""latfield benchmark: each workload runs through the CLI entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of quench16, scan12, tensor10, thermal6, or ``all`` for the
four in turn.  One worker process (``worker.py``) runs a warm-up experiment
and then timed repetitions for S seconds, with BLAS pinned to one thread.
Fresh interpreters (``probe.py``) then measure set-up time, and finally
every experiment's outputs are checked against references computed apart
from latfield (``reference.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` (experiments) and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Outputs go to ``.bench_runs/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import TARGETS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
# Fresh-interpreter set-up samples per run; single samples vary by a third.
SETUP_SAMPLES = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    pass


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {"setup.numpy_s": "s", "setup.scipy_s": "s", "setup.latfield_s": "s"}
    units["config.load_run_config.s"] = "s"
    for name, *_, counts in TARGETS:
        units.update({f"{name}.s": "s", f"{name}.self_s": "s"})
        units.update({f"{name}.calls": "count", f"{name}.minflt": "count"})
        units.update({f"{name}.{suffix}": "count" for suffix in counts})
    units.update({"proc.utime_s": "s", "proc.stime_s": "s", "proc.minflt": "count"})
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_pct": "%"})
    return units


def environment() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def import_times(stderr: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and latfield, from ``python -X
    importtime`` output.  Each module's own time goes to the nearest of the
    three packages among itself and the modules that imported it, so a
    standard-library module counts for the package that needed it."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, _, name = line[len("import time:") :].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip().split(".")[0], int(own) / 1e6))
    totals = {"numpy": 0.0, "scipy": 0.0, "latfield": 0.0}
    chain: list[tuple[int, str]] = []
    # importtime lists children before their parent; reversed, parents lead.
    for depth, package, own in reversed(entries):
        while chain and chain[-1][0] >= depth:
            chain.pop()
        chain.append((depth, package))
        owner = next((p for _, p in reversed(chain) if p in totals), None)
        if owner is not None:
            totals[owner] += own
    return {f"setup.{package}_s": seconds for package, seconds in totals.items()}


def probe(config: Path, subcommand: str, trace: bool, env: dict) -> dict[str, float]:
    cmd = [sys.executable, str(BENCH / "probe.py"), str(config), subcommand]
    if trace:
        cmd[1:1] = ["-X", "importtime"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{done.stderr[-2000:]}")
    sample = json.loads(done.stdout.splitlines()[-1])
    if trace:
        sample.update(import_times(done.stderr))
    return sample


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row.get(key, 0.0) for row in rows)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, out_root: Path = RUNS, tiny: bool = False
) -> dict:
    """One run of one workload; ``tiny`` sizes serve the benchmark's tests."""
    exp = WORKLOADS[name](seed, tiny)
    run_dir = out_root / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "config.ini"
    config.write_text(exp.ini, encoding="utf-8")
    env = environment()
    result_path = run_dir / "worker.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), str(config), exp.subcommand]
    cmd += [str(seed), str(seconds), str(result_path)]
    if trace:
        cmd += ["--trace", str(run_dir / "spans.csv")]
    done = subprocess.run(cmd, env=env, cwd=run_dir, timeout=seconds + 120)
    if done.returncode != 0:
        raise BenchError(f"{name}: worker exited with code {done.returncode}")
    worker = json.loads(result_path.read_text())
    probes = [probe(config, exp.subcommand, trace, env) for _ in range(SETUP_SAMPLES)]

    import reference  # numpy and scipy load only after the measured part

    report = reference.check_run(exp, worker["results"])
    for result, problems in zip(worker["results"], report):
        for problem in problems:
            print(f"{name} {Path(result['out']).name}: {problem}", file=sys.stderr)
    if trace:
        metrics = {key: median_of(worker["layers"], key) for key in per_layer_units()}
        for key in ("setup.numpy_s", "setup.scipy_s", "setup.latfield_s"):
            metrics[key] = median_of(probes, key)
        metrics["config.load_run_config.s"] = median_of(probes, "load_run_config_s")
        metrics.update({f"proc.{key}": value for key, value in worker["proc"].items()})
        traced = statistics.median(worker["traced_walls"])
        untraced = statistics.median(worker["walls"])
        metrics["trace.wall_s"] = traced
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
        units = per_layer_units()
    else:
        metrics = {
            "wall_s": statistics.median(worker["walls"]),
            "setup_s": median_of(probes, "setup_s"),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        units = END_TO_END
    return {
        # An experiment that exited with an error is failed, not incorrect.
        "correct": all(
            not problems
            for result, problems in zip(worker["results"], report)
            if result["code"] == 0
        ),
        "attempted": len(report),
        "failed": sum(1 for problems in report if problems),
        "metrics": {key: {"value": float(metrics[key]), "unit": units[key]} for key in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latfield" / "cli.py").is_file():
        print(f"no latfield sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
            for key, metric in result["metrics"].items():
                print(f"{name}: {key} = {metric['value']:.6g} {metric['unit']}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
