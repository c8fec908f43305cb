"""One benchmark worker: repeated experiments through ``latfield.cli.main``
in a single process.

    python bench/worker.py CONFIG SUBCOMMAND SEED SECONDS RESULT_JSON [--trace SPANS_CSV]

The first experiment is an untimed warm-up; peak RSS is read right after
it, so the figure does not depend on how many repetitions follow.  Timed
repetitions then run until ``SECONDS`` have passed (whole experiments
only).  With ``--trace`` the repetitions come in pairs, one untraced and one
with spans around latfield's public functions, in alternating order; this
gives the per-layer figures and the tracing overhead from one process, with
drift of the host falling on both sides alike.  Each experiment writes to
its own directory beside RESULT_JSON.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import latfield.cli


def _rusage() -> tuple[float, float, int]:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime, r.ru_stime, r.ru_minflt


def main(argv: list[str]) -> int:
    config, subcommand, seed, seconds, result_path = argv[:5]
    spans_path = argv[6] if argv[5:6] == ["--trace"] else None
    seconds = float(seconds)
    run_dir = Path(result_path).resolve().parent
    results = []

    def experiment() -> tuple[float, list]:
        out = run_dir / f"exp{len(results):03d}"
        argv = [subcommand, "--config", config, "--out", str(out), "--seed", seed]
        before = _rusage()
        start = time.perf_counter()
        code = latfield.cli.main(argv)
        wall = time.perf_counter() - start
        after = _rusage()
        results.append({"code": code, "out": str(out)})
        return wall, [b - a for a, b in zip(before, after)]

    experiment()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {"peak_rss_mb": peak_rss_mb}
    walls = []
    start = time.perf_counter()
    if spans_path is None:
        while time.perf_counter() - start < seconds:
            walls.append(experiment()[0])
    else:
        import tracing

        tracer = tracing.Tracer()
        patches = tracing.Patches(tracer)
        traced_walls, layers, proc = [], [], []

        def untraced() -> None:
            wall, usage = experiment()
            walls.append(wall)
            proc.append(usage)

        def traced() -> None:
            patches.install()
            tracer.begin_experiment()
            try:
                wall, _ = experiment()
            finally:
                patches.remove()
            traced_walls.append(wall)
            layers.append(tracer.experiment_totals())

        while time.perf_counter() - start < seconds:
            for step in (untraced, traced) if len(walls) % 2 == 0 else (traced, untraced):
                step()
        tracer.write(spans_path)
        report["layers"] = layers
        report["traced_walls"] = traced_walls
        report["proc"] = {
            "utime_s": statistics.median(p[0] for p in proc),
            "stime_s": statistics.median(p[1] for p in proc),
            "minflt": statistics.median(p[2] for p in proc),
        }
    report["walls"] = walls
    report["results"] = results
    Path(result_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
