"""Self-test of the benchmark: every workload at reduced rounds.

    python3 -m pytest bench/test_bench.py -q

Checks that each run emits exactly the metrics BENCHMARK.json names, with
their units, that traced counts follow from the config, that a corrupted
output counts as a failed run, and that the benchmark refuses to run without
the package source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROUNDS = 20
SEED = 3

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def invoke(workload: str, trace: int, seed: int = SEED,
           rounds: int = ROUNDS) -> tuple[int, list[str], dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--rounds", str(rounds)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    code, _, result = invoke(workload, 0)
    assert code == 0 and result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == 2 * bench_run.MIN_CYCLES
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units("end_to_end")
    assert result["metrics"]["pass_frac"]["value"] == 1.0
    for name in ("run_s", "setup_s", "peak_rss_mib"):
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_metrics(workload):
    code, lines, result = invoke(workload, 1)
    assert code == 0 and result["correct"], lines
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units("per_layer")

    w = WORKLOADS[workload]
    arcs = 2 * (w.n + w.n // 3)
    harness = [name for name in metrics if name.startswith("harness.")]
    if w.algorithm == "dadmm":
        assert metrics["objective.local_solves"] == w.n * ROUNDS
        assert metrics["harness.messages"] == arcs * ROUNDS
        assert metrics["harness.payload_scalars"] == arcs * w.p * ROUNDS
        assert metrics["solvers.steps"] == 0
    else:
        assert all(metrics[name] == 0 for name in harness)
        engines = 2 if w.compare else 1
        assert metrics["solvers.steps"] == engines * ROUNDS
    assert metrics["netgraph.residual_calls"] == ROUNDS + 1
    assert metrics["denselin.eigen_max_order"] > 0
    assert (metrics["analysis.cert_array_bytes"] > 0) == w.verify


def test_corrupted_output_counts_as_failure(monkeypatch, capsys):
    real = bench_run.run_child
    corrupted = []

    def corrupting(config, result_path, traced, timeout):
        result = real(config, result_path, traced, timeout)
        if config.endswith("full.ini") and not corrupted:
            path = os.path.join(os.path.dirname(config), "out-full", "trace.csv")
            with open(path) as fh:
                rows = fh.read().splitlines()
            fields = rows[-1].split(",")
            fields[2] = repr(float(fields[2]) + 1e-3)
            rows[-1] = ",".join(fields)
            with open(path, "w") as fh:
                fh.write("\n".join(rows) + "\n")
            corrupted.append(path)
        return result

    monkeypatch.setattr(bench_run, "run_child", corrupting)
    code = bench_run.main(["--workload", "compare-p1", "--seed", str(SEED),
                           "--seconds", "0", "--trace", "0", "--rounds", str(ROUNDS)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert corrupted and code == 1
    assert not result["correct"]
    attempted = result["attempted"]
    assert result["failed"] == 1
    assert result["metrics"]["pass_frac"]["value"] == pytest.approx(1 - 1 / attempted)


def test_delta_within_search_width_passes():
    # at this seed the package's golden-section searches stop 1e-5 of delta
    # below the exact max-min, inside their documented stopping width
    code, lines, result = invoke("certify", 0, seed=31, rounds=2)
    assert code == 0 and result["correct"], lines


def test_refuses_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
