"""Tests of the benchmark itself, at its smoke size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import transferlab  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import BUILDERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
KNOWN_DEFECT_OPS = {"fit-ladder": 0, "cli-docs": 2}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    passes = 3 if trace else 1
    assert result["correct"] is True
    assert result["attempted"] >= passes
    assert result["failed"] == KNOWN_DEFECT_OPS[workload] * passes


def test_a_wrong_digest_is_flagged():
    ops = BUILDERS["fit-ladder"](0, "smoke")
    passes = [run.run_pass(ops)]
    expected = {op.name: rec.digest for op, rec in zip(ops, passes[0])}
    assert not any(run.judge(ops, passes, expected)[0])

    expected[ops[1].name] = "0" * 16
    verdict = run.judge(ops, passes, expected)[0]
    assert [i for i, reasons in enumerate(verdict) if reasons] == [1]
    assert verdict[1] == [f"digest {passes[0][1].digest}, recorded {'0' * 16}"]
    summary = run.summarize(
        {"ops": ops, "verdicts": [verdict], "problems": []}
    )
    assert summary == {"correct": False, "attempted": len(ops), "failed": 1}


def test_tracer_wraps_every_binding_and_restores_them():
    from transferlab import cli, structural, transfer

    original = transfer.run_transfer
    tracer = Tracer()
    tracer.install()
    try:
        assert transfer.run_transfer is not original
        assert cli.run_transfer is transfer.run_transfer is structural.run_transfer
        assert transferlab.run_transfer is transfer.run_transfer
        assert transfer.run_transfer.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert transfer.run_transfer is original is cli.run_transfer is transferlab.run_transfer


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "fit-ladder", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
