"""transferlab's benchmark: end-to-end metrics per workload, or a traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload fit-ladder --seed 1 --seconds 50 --trace 0

One process runs one workload as a closed loop with a single client: it
builds the inputs from ``--seed`` (the set-up), then repeats the
workload's fixed op list, one op at a time, for ``--seconds`` (at least
once; a pass starts only if it should end in time).  After each pass
every op's outcome is checked against the outcome the program's
contract requires, its result is digested and compared with the first
pass, with the digest recorded in ``expected_digests.json`` for the
default seed, and (first pass) with closed-form facts.  Every op's
outcome and digest is printed, so two commits compare op by op; the
last line is one JSON object.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: from interpreter start until the first op is ready
  (import plus input building), the median of fresh interpreters;
* ``wall_s``: the fixed op list run back to back (the sum of its op
  latencies), the median over passes;
* ``op_p50_ms`` / ``op_p90_ms``: per-op latency over every op run;
* ``peak_rss_mb``: peak resident memory of the workload process;
* ``cold_start_s``: a fresh ``python -m transferlab.cli validate`` on a
  small document, the median of samples taken between the passes; the
  same measurement in every workload.

The failed share is ``failed`` over ``attempted`` in the JSON line.

``--trace 1`` runs one warm-up pass, then alternates untraced and
traced passes (the set-up is traced once), and reports per-layer calls,
self times and counts from ``tracer.py``, plus the tracing overhead
(traced minus untraced ``wall_s``); traced results must digest exactly
as untraced ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 0
EXPECTED_DIGESTS = HERE / "expected_digests.json"
SETUP_SAMPLES = {"full": 3, "smoke": 1}
COLD_START_SAMPLES = {"full": 3, "smoke": 1}  # per pass
CHILD_TIMEOUT_S = 120

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("cold_start_s", "s"),
]
TRACE_METRICS = [("trace.overhead_s", "s"), ("trace.spans_per_pass", "count")]


def _import_program():
    """Import transferlab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "transferlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no transferlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import transferlab

    if Path(transferlab.__file__).resolve().parent != SRC / "transferlab":
        raise SystemExit(f"error: transferlab imported from {transferlab.__file__}")
    sys.path.insert(0, str(HERE))


# -- running ops ---------------------------------------------------------------------

class Record:
    __slots__ = ("outcome", "latency", "payload", "digest", "error")

    def __init__(self, outcome, latency, payload, digest, error=None):
        self.outcome = outcome
        self.latency = latency
        self.payload = payload
        self.digest = digest
        self.error = error


def run_pass(ops, tracer=None, keep_payloads=True) -> list[Record]:
    """Run the op list once; later passes keep digests only, so memory stays flat."""
    from workloads import digest

    records = []
    clock = time.perf_counter
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        start = clock()
        error = None
        try:
            raw = op.run()
            outcome = None
        except Exception as exc:  # an op that raises is a measured outcome
            raw, outcome, error = None, type(exc).__name__, exc
        latency = clock() - start
        payload = None
        if outcome is None:
            outcome = f"exit {raw}" if op.expect.startswith("exit") else "ok"
            try:
                payload = op.view(raw)
            except Exception as exc:  # a result that cannot be read fails the op
                outcome, error = f"unreadable result ({type(exc).__name__})", exc
        if error is not None:
            error = "".join(traceback.format_exception(error)).strip()
        records.append(
            Record(outcome, latency, payload if keep_payloads else None, digest(payload), error)
        )
    if tracer is not None:
        tracer.op = None
    return records


def judge(ops, passes, expected=None) -> list[list[list[str]]]:
    """Failure reasons per pass and op; empty where the outcome is as required.

    The first pass also runs each op's closed-form checks and, when
    ``expected`` digests are given, compares against them (known-defect
    ops excepted, since fixing a defect changes their result).  Later
    passes must digest exactly as the first.
    """
    first: list[list[str]] = []
    for op, rec in zip(ops, passes[0]):
        reasons = []
        if rec.outcome != op.expect:
            reasons.append(f"outcome {rec.outcome}, not {op.expect}")
        elif op.check is not None:
            try:
                reasons += op.check(rec.payload)
            except Exception as exc:  # a check that cannot run is a failed check
                reasons.append(f"check raised {type(exc).__name__}: {exc}")
        if expected is not None and op.defect is None:
            recorded = expected.get(op.name)
            if recorded != rec.digest:
                reasons.append(f"digest {rec.digest}, recorded {recorded}")
        first.append(reasons)
    verdicts = [first]
    for records in passes[1:]:
        verdicts.append(
            [
                reasons + ([] if rec.digest == rec0.digest else [f"digest {rec.digest} differs from pass 1"])
                for reasons, rec, rec0 in zip(first, records, passes[0])
            ]
        )
    return verdicts


def is_known_defect(op, reasons: list[str]) -> bool:
    return op.defect is not None and reasons == [op.defect]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- fresh interpreters ------------------------------------------------------------------

def setup_probe(workload: str, seed: int, scale: str) -> None:
    """Child side of the set-up measurement: build, report the clock, exit."""
    from workloads import BUILDERS

    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"setup-{workload}-", dir=OUT)
    os.chdir(work)
    BUILDERS[workload](seed, scale)
    print(f"ready {time.perf_counter()!r}", flush=True)
    os.chdir(ROOT)
    shutil.rmtree(work, ignore_errors=True)
    os._exit(0)


def measure_setup(workload: str, seed: int, scale: str) -> float:
    """Median time from a fresh interpreter's start until its ops are ready.

    CLOCK_MONOTONIC, behind ``perf_counter`` on Linux, is shared by all
    processes, so the child's ready time and the parent's start time
    compare directly.
    """
    times = []
    for _ in range(SETUP_SAMPLES[scale]):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-probe"]
        if scale == "smoke":
            argv.append("--smoke")
        start = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        ready = [line for line in done.stdout.splitlines() if line.startswith("ready ")]
        if done.returncode != 0 or not ready:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        times.append(float(ready[0].split()[1]) - start)
    return statistics.median(times)


class ColdStart:
    """Fresh ``python -m transferlab.cli validate`` runs on a small emitted document."""

    def __init__(self) -> None:
        from transferlab import cli

        Path("cold").mkdir()
        Path("cold/spec.json").write_text(
            json.dumps({"version": 1, "scenario": {"grid_size": 4, "seed": 7}}), encoding="utf-8"
        )
        if cli.main(["scenario", "cold/spec.json", "--emit", "cold", "--out", "cold/emit.json"]):
            raise RuntimeError("could not emit the cold-start document")
        self.times: list[float] = []
        self.problems: list[str] = []

    def sample(self, count: int) -> None:
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        argv = [sys.executable, "-m", "transferlab.cli", "validate", "cold/pair_00.json",
                "--out", "cold/report.json"]
        for _ in range(count):
            start = time.perf_counter()
            done = subprocess.run(argv, capture_output=True, env=env, timeout=CHILD_TIMEOUT_S)
            self.times.append(time.perf_counter() - start)
            if done.returncode != 0:
                self.problems.append(f"cold-start validate exited {done.returncode}")


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


# -- the run ---------------------------------------------------------------------------

def recorded_digests(workload: str) -> dict[str, str]:
    if not EXPECTED_DIGESTS.is_file():
        return {}
    return json.loads(EXPECTED_DIGESTS.read_text(encoding="utf-8")).get(workload, {})


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, scale: str,
    expected: dict[str, str] | None = None,
) -> dict:
    """Set up, run passes for ``seconds``, judge them; returns the run's summary."""
    from tracer import Tracer, layer_metrics
    from workloads import BUILDERS

    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    os.chdir(work)
    try:
        problems: list[str] = []
        metrics: dict[str, float] = {}
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        try:
            ops = BUILDERS[workload](seed, scale)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_spans = list(tracer.spans) if tracer is not None else []

        cold = None
        if not trace:
            metrics["setup_s"] = measure_setup(workload, seed, scale)
            cold = ColdStart()

        # Cold starts are sampled between passes, so that they and the
        # passes both span the run; a pass starts only if it should end
        # within ``seconds``.
        passes: list[list[Record]] = []
        traced: list[tuple[int, int, int]] = []  # (pass index, first span, end span)
        if trace:
            # The first pass fills lazily computed caches of the inputs; it is
            # judged but left out of the overhead, which compares later passes.
            passes.append(run_pass(ops))
        started = time.perf_counter()
        while True:
            lap = time.perf_counter()
            gc.collect()
            passes.append(run_pass(ops, keep_payloads=not passes))
            if tracer is not None:
                gc.collect()
                first_span = len(tracer.spans)
                tracer.install()
                try:
                    passes.append(run_pass(ops, tracer, keep_payloads=False))
                finally:
                    tracer.uninstall()
                traced.append((len(passes) - 1, first_span, len(tracer.spans)))
            if cold is not None:
                cold.sample(COLD_START_SAMPLES[scale])
            now = time.perf_counter()
            if now - started + (now - lap) > seconds:
                break
        if cold is not None:
            metrics["cold_start_s"] = statistics.median(cold.times)
            problems += cold.problems

        verdicts = judge(ops, passes, expected)
        walls = [sum(r.latency for r in records) for records in passes]
        if trace:
            untraced = [w for i, w in enumerate(walls) if i % 2 == 1]
            per_pass = [
                layer_metrics(setup_spans + tracer.spans[lo:hi]) for _, lo, hi in traced
            ]
            for name in per_pass[0]:
                metrics[name] = statistics.median(m[name] for m in per_pass)
            metrics["trace.overhead_s"] = statistics.median(
                walls[i] for i, _, _ in traced
            ) - statistics.median(untraced)
            metrics["trace.spans_per_pass"] = statistics.median(hi - lo for _, lo, hi in traced)
        else:
            latencies = [r.latency * 1e3 for records in passes for r in records]
            metrics["wall_s"] = statistics.median(walls)
            metrics["op_p50_ms"] = statistics.median(latencies)
            metrics["op_p90_ms"] = quantile(latencies, 90)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"ops": ops, "passes": passes, "verdicts": verdicts, "metrics": metrics,
                "problems": problems}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


def summarize(result: dict) -> dict:
    """Count attempts and failures; ``correct`` allows only known defects."""
    ops, verdicts = result["ops"], result["verdicts"]
    attempted = sum(len(v) for v in verdicts)
    failed = sum(1 for v in verdicts for reasons in v if reasons)
    unexpected = sum(
        1 for v in verdicts for op, reasons in zip(ops, v)
        if reasons and not is_known_defect(op, reasons)
    )
    return {
        "correct": unexpected == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
    }


def record_digests(workload: str, result: dict) -> None:
    recorded = {}
    if EXPECTED_DIGESTS.is_file():
        recorded = json.loads(EXPECTED_DIGESTS.read_text(encoding="utf-8"))
    recorded[workload] = {
        op.name: rec.digest
        for op, rec in zip(result["ops"], result["passes"][0])
        if op.defect is None
    }
    EXPECTED_DIGESTS.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fit-ladder", "cli-docs"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    parser.add_argument("--record", action="store_true",
                        help="store this run's first-pass digests as the recorded ones")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    scale = "smoke" if args.smoke else "full"

    _import_program()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, scale)
    from tracer import LAYER_METRICS

    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={scale}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    recorded = scale == "full" and args.seed == DEFAULT_SEED
    if args.record and not (recorded and not args.trace):
        raise SystemExit("error: record digests only from an untraced full run of the default seed")
    expected = recorded_digests(args.workload) if recorded and not args.record else None
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), scale, expected)
    if args.record:
        record_digests(args.workload, result)

    ops, passes, verdicts = result["ops"], result["passes"], result["verdicts"]
    for i, op in enumerate(ops):
        reasons = next((v[i] for v in verdicts if v[i]), [])
        status = "ok"
        if reasons:
            status = ("known-defect: " if is_known_defect(op, reasons) else "FAILED: ") + "; ".join(reasons)
        median_ms = statistics.median(p[i].latency for p in passes) * 1e3
        print(f"op {op.name} outcome={passes[0][i].outcome} digest={passes[0][i].digest} "
              f"median_ms={median_ms:.3f} {status}")
        if reasons and passes[0][i].error:
            print(passes[0][i].error, file=sys.stderr)
    for problem in result["problems"]:
        print(f"problem {problem}")

    summary = summarize(result)
    units = dict(LAYER_METRICS + TRACE_METRICS if args.trace else END_TO_END)
    metrics = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    ratio = summary["failed"] / summary["attempted"]
    print(f"passes {len(passes)}, ops per pass {len(ops)}, "
          f"failed_ratio {summary['failed']}/{summary['attempted']} = {ratio:.4f}")
    print(json.dumps({**summary, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
