"""The benchmark's workloads, each a fixed list of ops built from a seed.

An op is one library call or one CLI verb a user would issue.  Building
a workload is its set-up: it generates the inputs (scenario pairs,
learning and transfer systems, documents on disk) in the current
directory and returns the op list.  Ops run one at a time, in order,
and call transferlab through module attributes so the tracer's wrappers
are reached.

Each op carries the outcome the program's contract requires (``ok`` for
a library call, ``exit 0`` for a CLI verb), a view that turns its raw
result into the payload that is digested, and optionally a check of
closed-form facts about that payload.  ``defect`` names the failure a
known defect produces today, so the harness can tell it from a new one.

Why these workloads:

* ``fit-ladder``: learning and transfer do nearly all the work, document
  I/O and the structure search none.  A size ladder of full function
  classes (|Θ| = 64 .. 4096, binary labels) shows how cost grows with
  |Θ|.  The penalized rules are quadratic in |Θ| today, so they stop at
  the size where one op takes about a second (|Θ| = 512, on the first
  seed only; 256 on the others).
* ``cli-docs``: the CLI in-process on emitted documents, small ones
  (|X| 3-6, 2-3 labels) and |X| = 12 ones (1.7 MB).  Document parsing
  and emission dominate the cheap verbs, the evaluation layer dominates
  ``negative``, and ``structures`` (size_bound 4 up to |X| = 5, else 3)
  and structural ``transferability`` run the shared-structure search,
  where relations and structural analysis do the work and learning only
  fits tiny latent classes many times.  Emission runs beside reading, so
  a format change that speeds one and slows the other shows.  Two
  reproduced defects run as ops with their contract outcome.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Any, Callable

import numpy as np

from transferlab import (
    cli,
    evaluation,
    learning,
    relations,
    scenarios,
    transfer,
)


@dataclasses.dataclass
class Op:
    name: str
    run: Callable[[], Any]
    view: Callable[[Any], Any] = lambda raw: canonical(raw)
    expect: str = "ok"
    check: Callable[[Any], list[str]] | None = None
    defect: str | None = None


def canonical(obj: Any) -> Any:
    """A JSON-able form of a result, exact for floats and stable in order."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, relations.FiniteSet):
        return [obj.name, [canonical(e) for e in obj.elements]]
    if isinstance(obj, dict):
        return [[canonical(k), canonical(v)] for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((canonical(v) for v in obj), key=repr)
    if isinstance(obj, float):
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return repr(obj)


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def sub_seed(*parts: object) -> int:
    """A deterministic 32-bit seed for one generated input."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big")


# -- fit-ladder -----------------------------------------------------------------

def _merge_last_inputs(target: learning.LearningSystem, source: learning.LearningSystem):
    """Feature maps that merge the last two inputs into one latent input."""
    xs = target.x_set.elements
    latent_x = relations.FiniteSet("latent_x", tuple(f"u{i}" for i in range(len(xs) - 1)))
    input_map = {x: latent_x.elements[min(i, len(xs) - 2)] for i, x in enumerate(xs)}
    latent = learning.LearningSystem(
        latent_x,
        target.y_set,
        learning.full_function_class(latent_x, target.y_set),
        target.loss,
    )
    ys = target.y_set.elements
    return transfer.FeatureRepSpec(
        latent,
        pair_map_target={(x, y): (input_map[x], y) for x in xs for y in ys},
        pair_map_source={
            (x, y): (input_map[x], y)
            for x in source.x_set.elements
            for y in source.y_set.elements
        },
        input_map=input_map,
        output_map={y: y for y in ys},
    )


def _transfer_view(raw):
    theta, trace = raw
    return {
        "selected": theta,
        "approach": trace.approach,
        "n_target": trace.n_target,
        "zero_shot": trace.zero_shot,
        "objective": [repr(v) for v in trace.objective.values()],
    }


def _axioms_view(report):
    return {
        "passed": report.passed,
        "cascade_violations": len(report.cascade_violations),
        "goal_seek_checked": report.seeking.checked,
        "goal_seek_violations": len(report.seeking.violations),
        "optimality_violations": len(report.optimality_violations),
    }


def _realizable_erm_check(pack):
    """Target data carries clean labels, so ERM reaches zero training risk."""

    def check(theta):
        risk = learning.empirical_risk(pack.dataset, theta, pack.system)
        return [] if risk == 0.0 else [f"ERM risk {risk!r} on realizable data, not 0"]

    return check


def _axioms_check(view):
    return [] if view["passed"] else ["learning axioms do not hold for an ERM system"]


def build_fit_ladder(seed: int, scale: str = "full") -> list[Op]:
    if scale == "full":
        replicas, sizes, quadratic_max, axioms_size = 3, range(6, 13), (9, 8, 8), 10
    else:
        replicas, sizes, quadratic_max, axioms_size = 1, range(3, 6), (4,), 4
    ops: list[Op] = []
    for r in range(replicas):
        for n in sizes:
            spec = scenarios.ScenarioSpec(
                grid_size=n,
                label_count=2,
                marginal_shift=0.3,
                posterior_flip=0.2,
                sample_sizes=(40, 10),
                seed=sub_seed("fit-ladder", seed, r, n),
            )
            source, target, _ = scenarios.generate_pair(spec)
            knowledge = transfer.Knowledge(instances=source.dataset)
            systems = {
                "instance": transfer.TransferSystem(
                    source.system, target.system, knowledge, "instance"
                ),
                "feature_representation": transfer.TransferSystem(
                    source.system,
                    target.system,
                    knowledge,
                    "feature_representation",
                    latent=_merge_last_inputs(target.system, source.system),
                ),
            }
            if n <= quadratic_max[r]:
                for approach in ("parameter", "instance_parameter"):
                    systems[approach] = evaluation.build_transfer_system(
                        source, target, approach
                    )
            tag = f"n{n:02d}.r{r}"
            for role, pack in (("source", source), ("target", target)):
                ops.append(
                    Op(
                        f"erm.{role}.{tag}",
                        lambda pack=pack: learning.run_algorithm(pack.dataset, pack.system),
                        check=_realizable_erm_check(pack) if role == "target" else None,
                    )
                )
            for approach, ts in systems.items():
                ops.append(
                    Op(
                        f"transfer.{approach}.{tag}",
                        lambda ts=ts, data=target.dataset: transfer.run_transfer(ts, data),
                        view=_transfer_view,
                    )
                )
            if n == axioms_size:
                rng = np.random.default_rng(sub_seed("fit-ladder.axioms", seed, r))
                samples = [
                    scenarios.resample_pack(target, 10, rng, f"sample{i}") for i in range(4)
                ]
                ops.append(
                    Op(
                        f"axioms.{tag}",
                        lambda target=target, samples=samples: learning.verify_learning_axioms(
                            target.system, samples
                        ),
                        view=_axioms_view,
                        check=_axioms_check,
                    )
                )
    return ops


# -- cli-docs ---------------------------------------------------------------------

def _write_json(path: str, obj: Any, indent: int | None = None) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=indent) + "\n", encoding="utf-8")


def _quiet_main(argv: list[str]) -> int:
    """Run the CLI with its stderr captured (checks and set-up only)."""
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _report_view(out_path: str):
    def view(rc):
        path = Path(out_path)
        report = json.loads(path.read_text(encoding="utf-8")) if rc == 0 else None
        path.unlink(missing_ok=True)
        return {"exit": rc, "report": report}

    return view


def _emission_view(out_path: str):
    def view(rc):
        payload = _report_view(out_path)(rc)
        emitted = (payload["report"] or {}).get("emitted", [])
        payload["files"] = [
            hashlib.sha256(Path(e["path"]).read_bytes()).hexdigest() for e in emitted
        ]
        return payload

    return view


def _revalidates(payload) -> list[str]:
    problems = []
    for entry in (payload["report"] or {}).get("emitted", []):
        rc = _quiet_main(["validate", entry["path"], "--out", "reports/revalidate.json"])
        if rc != 0:
            problems.append(f"{entry['path']} re-validates with exit {rc}, not exit 0")
    return problems


def _validate_check(payload) -> list[str]:
    return [] if payload["report"]["ok"] is True else ["validate report is not ok"]


def _distance_check(spec: dict):
    def check(payload):
        facts = scenarios.generate_pair(_scenario_spec(spec))[2]
        value = payload["report"]["results"]["value"]
        if facts.analytic_tv_x is None or not math.isclose(
            value, facts.analytic_tv_x, rel_tol=0.0, abs_tol=1e-12
        ):
            return [f"distance {value!r} != analytic TV {facts.analytic_tv_x!r}"]
        return []

    return check


def _scenario_spec(spec: dict) -> scenarios.ScenarioSpec:
    return scenarios.ScenarioSpec(**{**spec, "sample_sizes": tuple(spec["sample_sizes"])})


def _balanced_truth(spec: dict) -> bool:
    """Whether the pair's truth uses every label equally often (up to one).

    The structure search's cost depends on a truth graph mostly through
    its label counts, so fixing them keeps the cost from swinging with
    the seed; which input gets which label stays random.
    """
    source = scenarios.generate_pair(_scenario_spec(spec))[0]
    counts = np.bincount(list(source.truth.values()), minlength=spec["label_count"])
    return counts.max() - counts.min() <= 1


SMALL_ANALYSES = (
    "classify", "distance", "transfer", "bound", "negative", "transferability", "generalist",
    "structures",
)
LARGE_ANALYSES = ("classify", "distance", "transfer", "bound", "negative")


def build_cli_docs(seed: int, scale: str = "full") -> list[Op]:
    if scale == "full":
        small_grids = [
            (4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3), (3, 2), (3, 3), (4, 2), (5, 2), (6, 2)
        ]
        large_grids = [(12, 2), (12, 2)]
    else:
        small_grids, large_grids = [(3, 2), (4, 3)], [(5, 2)]
    rng = np.random.default_rng(sub_seed("cli-docs", seed))
    specs = []
    for i, (grid, labels) in enumerate(small_grids + large_grids):
        while True:
            spec = {
                "grid_size": grid,
                "label_count": labels,
                "marginal_shift": float(np.round(rng.uniform(0.0, 0.8), 3)),
                "posterior_flip": float(np.round(rng.uniform(0.0, 0.4), 3)),
                "sample_sizes": [40, 10],
                "seed": int(rng.integers(2**31)),
            }
            if i >= len(small_grids) or _balanced_truth(spec):
                break
        specs.append(spec)
    root_seed = str(sub_seed("cli-docs.analyze", seed) % 1000)
    Path("reports").mkdir()

    ops: list[Op] = []
    for i, spec in enumerate(specs):
        tag = f"{i:02d}"
        large = i >= len(small_grids)
        spec_path = f"inputs/spec_{tag}.json"
        _write_json(spec_path, {"version": 1, "scenario": spec})
        if _quiet_main(["scenario", spec_path, "--emit", f"docs/{tag}", "--out", "setup.json"]):
            raise RuntimeError(f"set-up could not emit document {tag}")
        doc_path = f"docs/{tag}/pair_00.json"
        doc = json.loads(Path(doc_path).read_text(encoding="utf-8"))
        grid = spec["grid_size"]
        doc["analysis"].update(
            transfer={"system": "tr", "data": "target_data"},
            bound={"system": "tr", "source": "source", "target": "target"},
            negative={"system": "tr", "source": "source", "target": "target", "seeds": 3},
            transferability={
                "pack": "target", "universe": ["source", "target"], "role": "target",
                "seeds": 2, "epsilon_star": 0.5,
                "mode": "structural" if i % 2 and grid <= 5 else "empirical",
            },
            structures={
                "source": "source", "target": "target", "epsilon_star": 0.5,
                "size_bound": 4 if grid <= 5 else 3,
            },
            generalist={
                "pack": "source", "universe": ["source", "target"], "shots": 5,
                "required": 1, "epsilon_star": 0.5,
            },
        )
        _write_json(doc_path, doc, indent=2)

        out = f"reports/scenario_{tag}.json"
        ops.append(
            Op(
                f"cli.scenario.{tag}",
                lambda spec_path=spec_path, tag=tag, out=out: cli.main(
                    ["scenario", spec_path, "--emit", f"emit/{tag}", "--out", out]
                ),
                view=_emission_view(out),
                expect="exit 0",
                check=_revalidates,
            )
        )
        out = f"reports/validate_{tag}.json"
        ops.append(
            Op(
                f"cli.validate.{tag}",
                lambda doc_path=doc_path, out=out: cli.main(["validate", doc_path, "--out", out]),
                view=_report_view(out),
                expect="exit 0",
                check=_validate_check,
            )
        )
        for kind in LARGE_ANALYSES if large else SMALL_ANALYSES:
            out = f"reports/{kind}_{tag}.json"
            ops.append(
                Op(
                    f"cli.analyze.{kind}.{tag}",
                    lambda doc_path=doc_path, kind=kind, out=out: cli.main(
                        ["analyze", doc_path, "--kind", kind, "--seed", root_seed, "--out", out]
                    ),
                    view=_report_view(out),
                    expect="exit 0",
                    check=_distance_check(spec) if kind == "distance" else None,
                )
            )

    # Reproduced defects, run with the outcome the CLI contract requires.
    doc = json.loads(Path("docs/00/pair_00.json").read_text(encoding="utf-8"))
    doc["analysis"]["transferability"]["epsilon_star"] = "target-alone"
    _write_json("docs/target_alone.json", doc, indent=2)
    out = "reports/target_alone.json"
    ops.append(
        Op(
            "cli.analyze.transferability.target-alone",
            lambda out=out: cli.main(
                ["analyze", "docs/target_alone.json", "--kind", "transferability", "--out", out]
            ),
            view=_report_view(out),
            expect="exit 0",
            defect="outcome ValueError, not exit 0",
        )
    )
    _write_json(
        "inputs/cap_above_4096.json",
        {
            "version": 1,
            "scenario": {
                "grid_size": 8, "label_count": 3, "hypothesis_cap": 6561,
                "sample_sizes": [40, 10], "seed": int(rng.integers(2**31)),
            },
        },
    )
    out = "reports/cap_above_4096.json"
    ops.append(
        Op(
            "cli.scenario.cap-above-4096",
            lambda out=out: cli.main(
                ["scenario", "inputs/cap_above_4096.json", "--emit", "emit/cap", "--out", out]
            ),
            view=_emission_view(out),
            expect="exit 0",
            check=_revalidates,
            defect="emit/cap/pair_00.json re-validates with exit 4, not exit 0",
        )
    )
    return ops


BUILDERS = {
    "fit-ladder": build_fit_ladder,
    "cli-docs": build_cli_docs,
}
