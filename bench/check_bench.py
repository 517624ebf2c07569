"""Tests of the benchmark itself, at the "tiny" size.

    PYTHONPATH=src python -m pytest -q bench/check_bench.py

The file name keeps these tests out of the repository's own test run:
they take about a minute and import sympy.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


def _run(capsys, out_dir, workload, trace, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.05"]
    assert run.main(argv + ["--trace", str(trace)], size="tiny") == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    record = json.loads((out_dir / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_named_metric(capsys, out_dir, workload, trace):
    result, record = _run(capsys, out_dir, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for key in ("nproc", "python", "numpy", "git_sha", "seed", "seconds"):
        assert key in record
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_measures_every_layer_metric(capsys, out_dir, workload):
    _, record = _run(capsys, out_dir, workload, 1)
    values = record["all_values"]
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in values]
    assert missing == []
    modules = {m["name"].split(".")[0] for m in SPEC["per_layer"]} - {"trace", "bench"}
    total = sum(values[f"{m}.self_s"] for m in modules) + values["bench.remainder_s"]
    assert total == pytest.approx(values["trace.phase_s"], rel=1e-9)


CORRUPT = {
    "exact-group": lambda e: {**e, "type": tuple(2 * t for t in e["type"])},
    "cohomology-dsz": lambda e: {**e, "groups": [(r + 1, t) for r, t in e["groups"]]},
    "uduality-enum": lambda e: e | {((1, 9), (0, 1))},
    "cli-calls": lambda e: (e[0], {**e[1], "extra": 1}),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_expected_answer_is_an_error(capsys, out_dir, monkeypatch, workload):
    build = workloads.build

    def corrupted(*args, **kwargs):
        wl = build(*args, **kwargs)
        wl.ops[0].expected = CORRUPT[workload](wl.ops[0].expected)
        return wl

    monkeypatch.setattr(workloads, "build", corrupted)
    # With no time to fill, the timed phase runs the first op only.
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0"]
    assert run.main(argv, size="tiny") == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    record = json.loads((out_dir / f"{workload}-seed3-trace0.json").read_text())
    assert not result["correct"] and result["failed"] > 0
    assert record["all_values"]["error_rate"] > 0


def test_traced_counts_repeat_for_one_seed(capsys, out_dir):
    counts = []
    for _ in range(2):
        _, record = _run(capsys, out_dir, "uduality-enum", 1)
        values = record["all_values"]
        counts.append(
            {
                k: v
                for k, v in values.items()
                if k.endswith((".calls", ".raised", "max_bits"))
                or k in ("uduality.membership_checks", "uduality.accepted")
            }
        )
    assert counts[0] == counts[1]
    assert counts[0]["uduality.membership_checks"] > 0
    assert counts[0]["exact_linalg.snf.calls"] > 0


def test_second_seed_gives_another_operation_list():
    def answers(seed):
        return [op.expected for op in workloads.build("exact-group", seed, str(ROOT), "tiny").ops]

    assert answers(1) == answers(1)
    assert answers(1) != answers(2)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-group", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
