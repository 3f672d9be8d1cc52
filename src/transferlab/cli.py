"""Command-line front end: validate documents, run analyses, emit scenarios.

Exit codes are part of the contract: 0 clean, 2 parse failure, 3 broken
reference, 4 construction-invariant violation, 5 analysis-time failure.
An input that cannot be read and an output that cannot be written (a
report's ``--out``, an emitted document under ``--emit``) also exit 2,
with one ``cannot read <path>: …`` or ``cannot write <path>: …`` line.
``analyze --kind <kind>`` runs the document's ``analysis.<kind>`` block;
each kind's keys, their defaults and how each is read are the table
:data:`transferlab.specio.ANALYSES`.  Unknown keys, there as in any
block, print a warning on every verb, and ``--strict`` rejects them.
Reports are JSON with sorted keys and a 2-space indent, written by the
same writer as emitted documents (:func:`transferlab.specio.json_text`);
with a fixed ``--seed`` the results section is byte-identical across runs.
An ``analyze`` report's provenance records that seed and the fixed
measure-equality tolerance of ``classify``,
:data:`transferlab.transfer.MEASURE_EQUALITY_TOL`; no flag changes the
tolerance, and an unknown flag, as any argument argparse refuses, exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path
from typing import Any

from . import __version__
from .behavioral import bound_check, transfer_distance
from .errors import (
    AnalysisError,
    InvariantViolation,
    ParseError,
    ResolutionError,
    TransferLabError,
)
from .evaluation import detect_negative_transfer, is_generalist, transferability
from .learning import EvaluationContext
from .relations import FiniteSet
from .scenarios import ScenarioSpec, generate_pair
from .specio import (
    ANALYSES,
    SpecDocument,
    analysis_config,
    document_digest,
    dump_document,
    json_text,
    load_document,
)
from .structural import search_structures, transfer_roughness
from .transfer import (
    MEASURE_EQUALITY_TOL, Knowledge, TransferSystem, classify_setting, run_transfer,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RESOLUTION = 3
EXIT_INVARIANT = 4
EXIT_ANALYSIS = 5


def _jsonable(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, FiniteSet):
        return {"name": obj.name, "elements": [_jsonable(e) for e in obj.elements]}
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj):
            return {k: _jsonable(v) for k, v in obj.items()}
        return [[_jsonable(k), _jsonable(v)] for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (frozenset, set)):
        return sorted((_jsonable(v) for v in obj), key=repr)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def _run_analysis(doc: SpecDocument, kind: str, seed: int) -> dict:
    config = analysis_config(doc, kind)
    if kind == "classify":
        result = classify_setting(config["source"], config["target"])
    elif kind == "distance":
        value = transfer_distance(
            config["source"],
            config["target"],
            on=config["on"],
            kind=config["kind"],
            align=config["align"],
        )
        result = {"on": config["on"], "kind": config["kind"], "value": value}
    elif kind == "roughness":
        report = transfer_roughness(config["source"], config["target"], config["morphism"])
        result = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
        result.update(direction="source->target", tags=["ratio=quotient-cardinality-summary"])
    elif kind == "transfer":
        theta, trace = run_transfer(config["system"], config["data"])
        result = {
            "selected": theta,
            "approach": trace.approach,
            "n_target": trace.n_target,
            "zero_shot": trace.zero_shot,
            "objective": dict(trace.objective),
        }
    elif kind == "negative":
        result = detect_negative_transfer(
            config["source"],
            config["target"],
            config["system"],
            seeds=config["seeds"],
            root_key=(seed,),
            resample=config["resample"],
        )
    elif kind == "transferability":
        result = transferability(
            config["pack"],
            config["universe"],
            role=config["role"],
            epsilon_star=config["epsilon_star"],
            mode=config["mode"],
            approach=config["approach"],
            seeds=config["seeds"],
            root_seed=seed,
            equivalence_mode=config["equivalence_mode"],
        )
    elif kind == "generalist":
        result = is_generalist(
            config["pack"],
            config["universe"],
            n=config["shots"],
            t=config["required"],
            epsilon_star=config["epsilon_star"],
            approach=config["approach"],
        )
    elif kind == "bound":
        source, target = config["source"], config["target"]
        if source.truth is None or target.truth is None:
            raise AnalysisError("bound needs declared truth tables on both packs")
        result = bound_check(
            config["system"],
            source.dataset,
            target.dataset,
            EvaluationContext(source.truth),
            EvaluationContext(target.truth),
            kind=config["kind"],
            source_weight=source.marginal,
            target_weight=target.marginal,
        )
    else:  # structures
        report = search_structures(
            config["source"], config["target"], config["size_bound"], config["epsilon_star"]
        )
        result = {
            "candidates": len(report.candidates),
            "structures": [
                {
                    "x_size": len(c.x_set),
                    "y_size": len(c.y_set),
                    "relation": c.system.tuples,
                    "function_type": c.function_type,
                }
                for c in report.candidates
            ],
            "valid": list(report.valid_indices),
            "useful": [
                {"index": u.candidate_index, "error": u.error} for u in report.useful
            ],
        }
    return _jsonable(result)


def _cannot_write(path: object, exc: OSError) -> int:
    print(f"cannot write {path}: {exc}", file=sys.stderr)
    return EXIT_PARSE


def _write_report(report: dict, out: str | None) -> int:
    """Write the report to ``out``, or to stdout; the exit code of the write."""
    text = json_text(report) + "\n"
    try:
        if out:
            Path(out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except OSError as exc:
        return _cannot_write(out or "standard output", exc)
    return EXIT_OK


def _scenario_documents(doc: SpecDocument, seed: int | None):
    if doc.scenario is None:
        raise AnalysisError("the document carries no scenario block")
    spec = doc.scenario
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    for alpha in doc.ladder or [spec.marginal_shift]:
        yield float(alpha), dataclasses.replace(spec, marginal_shift=float(alpha))


def _pair_document(spec: ScenarioSpec) -> SpecDocument:
    source, target, facts = generate_pair(spec)
    doc = SpecDocument()
    for role, pack in (("source", source), ("target", target)):
        doc.sets[pack.system.x_set.name] = pack.system.x_set
        doc.sets[pack.system.y_set.name] = pack.system.y_set
        refs = doc.refs[f"packs.{role}"] = {
            "learning": f"{role}_system",
            "dataset": f"{role}_data",
            "marginal": f"{role}_marginal",
            "posterior": f"{role}_posterior",
        }
        doc.learning[refs["learning"]] = pack.system
        doc.datasets[refs["dataset"]] = pack.dataset
        doc.measures[refs["marginal"]] = pack.marginal
        doc.conditionals[refs["posterior"]] = pack.posterior
        doc.packs[role] = pack

    if facts.input_spaces_equal and facts.output_spaces_equal:
        doc.transfer["tr"] = TransferSystem(
            source.system,
            target.system,
            Knowledge(instances=source.dataset),
            "instance",
        )
        doc.refs["transfer.tr"] = {
            "source": "source_system", "target": "target_system", "instances": "source_data"
        }
        doc.analysis = {
            "classify": {"source": "source", "target": "target"},
            "distance": {"source": "source", "target": "target", "on": "x", "kind": "tv"},
            "negative": {"source": "source", "target": "target", "system": "tr", "seeds": 20},
        }
    else:
        doc.analysis = {"classify": {"source": "source", "target": "target"}}
    doc.scenario = spec
    return doc


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, as seeding a generator needs."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"the seed must be non-negative, not {seed}")
    return seed


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser; built once, since it depends on nothing a call passes."""
    parser = argparse.ArgumentParser(
        prog="transferlab",
        description="Model learning and transfer between finite learning systems.",
    )
    parser.add_argument("--version", action="version", version=f"transferlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("path", help="document to read")
    common.add_argument("--strict", action="store_true", help="reject unknown fields")
    common.add_argument("--seed", type=_seed, help="root seed (default: 0, or the scenario's own)")
    common.add_argument("--out", default=None, help="write the report here instead of stdout")

    sub.add_parser("validate", parents=[common], help="parse, resolve and check a document")
    analyze = sub.add_parser("analyze", parents=[common], help="run one analysis")
    analyze.add_argument("--kind", required=True, choices=list(ANALYSES))
    scenario = sub.add_parser("scenario", parents=[common], help="materialize generated pairs")
    scenario.add_argument("--emit", default=".", help="directory for emitted documents")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        doc = load_document(args.path, strict=args.strict)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResolutionError as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_PARSE

    for warning in doc.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    if args.command == "validate":
        counts = {
            "sets": len(doc.sets),
            "relations": len(doc.relations),
            "datasets": len(doc.datasets),
            "learning": len(doc.learning),
            "packs": len(doc.packs),
            "transfer": len(doc.transfer),
        }
        return _write_report(
            {"ok": True, "inputs_digest": document_digest(doc), "blocks": counts},
            args.out,
        )

    if args.command == "analyze":
        try:
            results = _run_analysis(doc, args.kind, args.seed or 0)
        except TransferLabError as exc:
            print(f"analysis error ({args.kind}): {exc}", file=sys.stderr)
            return EXIT_ANALYSIS
        report = {
            "command": {"verb": "analyze", "kind": args.kind, "path": args.path},
            "inputs_digest": document_digest(doc),
            "results": results,
            "provenance": {
                "seed": args.seed or 0,
                "tolerance": MEASURE_EQUALITY_TOL,
                "version": __version__,
                "tags": ["probabilities=declared-or-estimated", "order=canonical"],
            },
        }
        return _write_report(report, args.out)

    # scenario
    try:
        emitted = []
        out_dir = Path(args.emit)
        out_dir.mkdir(parents=True, exist_ok=True)
        for index, (alpha, spec) in enumerate(_scenario_documents(doc, args.seed)):
            pair_doc = _pair_document(spec)
            path = out_dir / f"pair_{index:02d}.json"
            path.write_text(dump_document(pair_doc), encoding="utf-8")
            emitted.append({"path": str(path), "marginal_shift": alpha})
    except TransferLabError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except OSError as exc:
        return _cannot_write(exc.filename, exc)
    return _write_report({"emitted": emitted}, args.out)


if __name__ == "__main__":
    sys.exit(main())
