"""Fast tests of the benchmark itself: every workload's harness at tiny
sizes, and every output check against a corrupted result.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import latfield.cli  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def experiments(tmp_path: Path, name: str, count: int = 2):
    """Run a tiny form of the workload ``count`` times through the CLI."""
    exp = WORKLOADS[name](7, tiny=True)
    config = tmp_path / "config.ini"
    config.write_text(exp.ini)
    results = []
    for k in range(count):
        out = tmp_path / f"exp{k}"
        argv = [exp.subcommand, "--config", str(config), "--out", str(out), "--seed", "7"]
        results.append({"code": latfield.cli.main(argv), "out": str(out)})
    return exp, results


def edit_cell(out: Path, name: str, row: int, column: str, change) -> None:
    """Change one value of a data row of a CSV and update the manifest
    checksum, so that only the value check can notice."""
    path = out / reference.CSV_NAME[name]
    lines = path.read_text().splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    header = lines[data[0]].split(",")
    cells = lines[data[1 + row]].split(",")
    col = header.index(column)
    cells[col] = repr(change(float(cells[col])))
    lines[data[1 + row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["outputs"][path.name]["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))


def problems_after(tmp_path, name, corrupt) -> list[str]:
    exp, results = experiments(tmp_path, name, count=1)
    assert reference.check_run(exp, results) == [[]]
    corrupt(Path(results[0]["out"]))
    return reference.check_run(exp, results)[0]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_experiments_pass_every_check(tmp_path, name):
    exp, results = experiments(tmp_path, name)
    assert all(r["code"] == 0 for r in results)
    assert reference.check_run(exp, results) == [[], []]


@pytest.mark.parametrize(
    "name, row, column, change, expected",
    [
        ("quench16", 1, "energy", lambda v: v + 2.0, "energy"),
        ("quench16", 0, "energy", lambda v: v + 1e-6, "energy"),
        ("quench16", 2, "particle_density", lambda v: v + 0.01, "density"),
        ("quench16", 0, "particle_density", lambda v: 1e-3, "out of range"),
        ("quench16", 1, "charge", lambda v: 1e-6, "charge"),
        ("scan12", 0, "energy", lambda v: -100.0, "below the ground energy"),
        ("scan12", 1, "energy", lambda v: v + 10.0, "too far above"),
        ("scan12", 2, "order_parameter", lambda v: 1.5, "order parameter"),
        ("scan12", 0, "variance", lambda v: -1e-3, "negative variance"),
        ("tensor10", 3, "re", lambda v: v + 1e-6, "W ="),
        ("thermal6", 1, "observable", lambda v: v + 1e-6, "observable"),
    ],
)
def test_value_checks_reject_a_perturbed_value(tmp_path, name, row, column, change, expected):
    problems = problems_after(
        tmp_path, name, lambda out: edit_cell(out, name, row, column, change)
    )
    assert any(expected in p for p in problems), problems


def test_thermal_trace_check_rejects_a_wrong_trace(tmp_path):
    def corrupt(out: Path) -> None:
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["summary"]["trace"] *= 1.0 + 1e-6
        (out / "manifest.json").write_text(json.dumps(manifest))

    problems = problems_after(tmp_path, "thermal6", corrupt)
    assert any("manifest trace" in p for p in problems), problems


def test_checksum_check_rejects_an_edited_file(tmp_path):
    def corrupt(out: Path) -> None:
        path = out / "tensor.csv"
        path.write_text("# edited\n" + path.read_text())

    problems = problems_after(tmp_path, "tensor10", corrupt)
    assert any("SHA-256" in p for p in problems), problems


def test_repetitions_must_write_identical_bytes(tmp_path):
    exp, results = experiments(tmp_path, "thermal6")
    # A change below every tolerance that only the byte comparison sees.
    edit_cell(Path(results[1]["out"]), "thermal6", 0, "observable", lambda v: v + 1e-13)
    report = reference.check_run(exp, results)
    assert report[0] == [] and any("differs from the first" in p for p in report[1])


def test_an_experiment_with_an_error_exit_fails(tmp_path):
    exp, results = experiments(tmp_path, "quench16", count=1)
    results.append({"code": 4, "out": str(tmp_path / "missing")})
    assert reference.check_run(exp, results) == [[], ["exit code 4"]]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_harness_runs_each_workload(tmp_path, name):
    result = run.run_workload(name, 3, 0.1, False, out_root=tmp_path, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer(tmp_path):
    result = run.run_workload("quench16", 3, 0.2, True, out_root=tmp_path, tiny=True)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["evolution.trotter_states.sweeps"] == 8
    assert metrics["pauli.PauliSum.apply_to.calls"] > 0
    assert metrics["cli.run.calls"] == 1
    assert 0 < metrics["cli.run.self_s"] < metrics["cli.run.s"]
    assert metrics["setup.numpy_s"] > 0 and metrics["setup.scipy_s"] > 0
    spans = (tmp_path / "quench16" / "spans.csv").read_text().splitlines()
    assert spans[0] == "id,name,start,end,parent,minflt" and len(spans) > 10


def test_import_times_attribute_each_module_once():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:        50 |         50 |       json",
            "import time:       100 |        150 |     numpy._core",
            "import time:        10 |        160 |   numpy",
            "import time:        20 |         20 |     numpy.linalg",
            "import time:       300 |        320 |   scipy.optimize",
            "import time:        30 |        510 | latfield",
            "import time:         5 |          5 | json",
        ]
    )
    assert run.import_times(stderr) == pytest.approx(
        {"setup.numpy_s": 180e-6, "setup.scipy_s": 300e-6, "setup.latfield_s": 30e-6}
    )


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quench16", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0 and "{" not in done.stdout
