"""Command-line front end: validate documents, run analyses, emit scenarios.

Exit codes are part of the contract: 0 clean, 2 parse failure, 3 broken
reference, 4 construction-invariant violation, 5 analysis-time failure.
Reports are JSON with sorted keys and a 2-space indent, written by the
same writer as emitted documents (:func:`transferlab.specio.json_text`);
with a fixed ``--seed`` the results section is byte-identical across runs.
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
    SpecDocument,
    document_digest,
    dump_document,
    json_text,
    load_document,
)
from .structural import (
    feature_runner,
    homomorphic_structures,
    transfer_roughness,
    truth_graph,
    useful_structures,
    valid_structures,
)
from .transfer import classify_setting, run_transfer

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


def _resolve(blocks: dict, name: Any) -> Any:
    """The block a reference names; ``None`` unless ``name`` is a string key of ``blocks``."""
    return blocks.get(name) if isinstance(name, str) else None


def _pack(doc: SpecDocument, config: dict, key: str):
    pack = _resolve(doc.packs, config.get(key))
    if pack is None:
        raise AnalysisError(f"analysis needs a resolvable pack reference {key!r}")
    return pack


def _number(config: dict, key: str, kind: type, default: Any = None) -> Any:
    """``kind(config[key])``, ``default`` when absent; a value it rejects exits 5."""
    value = config.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise AnalysisError(f"analysis config {key!r}: {value!r} is not {kind.__name__}") from None


def _universe(doc: SpecDocument, config: dict):
    names = config.get("universe")
    if not isinstance(names, list) or not names:
        raise AnalysisError("analysis needs a non-empty list of pack references")
    missing = [n for n in names if _resolve(doc.packs, n) is None]
    if missing:
        raise AnalysisError(f"universe member {missing[0]!r} does not resolve")
    return [doc.packs[n] for n in names]


def _run_analysis(doc: SpecDocument, kind: str, seed: int, tolerance: float) -> dict:
    config = doc.analysis.get(kind)
    if config is None:
        raise AnalysisError(f"the document carries no analysis.{kind} block")
    if not isinstance(config, dict):
        raise AnalysisError(f"analysis.{kind} must be an object, not {type(config).__name__}")

    if kind == "classify":
        result = classify_setting(
            _pack(doc, config, "source"), _pack(doc, config, "target"), tolerance
        )
        return _jsonable(result)

    if kind == "distance":
        align = None
        if config.get("align"):
            ts = _resolve(doc.transfer, config["align"])
            if ts is None or ts.latent is None:
                raise AnalysisError("align must reference a transfer block with latent maps")
            align = ts.latent
        value = transfer_distance(
            _pack(doc, config, "source"),
            _pack(doc, config, "target"),
            on=config.get("on", "x"),
            kind=config.get("kind", "tv"),
            align=align,
        )
        return {"on": config.get("on", "x"), "kind": config.get("kind", "tv"), "value": value}

    if kind == "roughness":
        relations = [_resolve(doc.relations, config.get(key)) for key in ("source", "target")]
        for key, relation in zip(("source", "target"), relations):
            if relation is None:
                raise AnalysisError(f"roughness needs relation reference {key!r}")
        morphism = _resolve(doc.morphisms, config.get("morphism"))
        if morphism is None:
            raise AnalysisError("roughness needs a morphism reference")
        report = transfer_roughness(*relations, morphism)
        out = _jsonable(report)
        out["tags"] = ["ratio=quotient-cardinality-summary"]
        return out

    if kind == "transfer":
        ts = _resolve(doc.transfer, config.get("system"))
        data = _resolve(doc.datasets, config.get("data"))
        if ts is None or data is None:
            raise AnalysisError("transfer needs system and data references")
        theta, trace = run_transfer(ts, data)
        return {
            "selected": _jsonable(theta),
            "approach": trace.approach,
            "n_target": trace.n_target,
            "zero_shot": trace.zero_shot,
            "objective": _jsonable(dict(trace.objective)),
        }

    if kind == "negative":
        ts = _resolve(doc.transfer, config.get("system"))
        if ts is None:
            raise AnalysisError("negative needs a transfer system reference")
        outcome = detect_negative_transfer(
            _pack(doc, config, "source"),
            _pack(doc, config, "target"),
            ts,
            seeds=_number(config, "seeds", int, 1),
            root_key=(seed,),
            resample=bool(config.get("resample", True)),
        )
        return _jsonable(outcome)

    if kind == "transferability":
        pack = _pack(doc, config, "pack")
        epsilon_star = config.get("epsilon_star", 0.0)
        numeric = isinstance(epsilon_star, (int, float))
        if not numeric and epsilon_star != "target-alone":
            raise AnalysisError(f"epsilon_star {epsilon_star!r} is not a number or 'target-alone'")
        report = transferability(
            pack,
            _universe(doc, config),
            role=config.get("role", "source"),
            ctx=EvaluationContext(pack.truth or {}, float(epsilon_star) if numeric else 0.0),
            mode=config.get("mode", "empirical"),
            approach=config.get("approach", "instance"),
            seeds=_number(config, "seeds", int, 10),
            root_seed=seed,
            epsilon_star=config.get("epsilon_star"),
            equivalence_mode=config.get("equivalence_mode", "raw"),
        )
        if isinstance(report, dict):
            return {k: _jsonable(v) for k, v in report.items()}
        return _jsonable(report)

    if kind == "generalist":
        pack = _pack(doc, config, "pack")
        report = is_generalist(
            pack,
            _universe(doc, config),
            n=_number(config, "shots", int, 1),
            t=_number(config, "required", int, 1),
            ctx=EvaluationContext(pack.truth or {}, _number(config, "epsilon_star", float, 0.5)),
            approach=config.get("approach", "instance"),
        )
        return _jsonable(report)

    if kind == "bound":
        ts = _resolve(doc.transfer, config.get("system"))
        if ts is None:
            raise AnalysisError("bound needs a transfer system reference")
        source = _pack(doc, config, "source")
        target = _pack(doc, config, "target")
        if source.truth is None or target.truth is None:
            raise AnalysisError("bound needs declared truth tables on both packs")
        report = bound_check(
            ts,
            source.dataset,
            target.dataset,
            EvaluationContext(source.truth),
            EvaluationContext(target.truth),
            kind=config.get("kind", "tv"),
            source_weight=source.marginal,
            target_weight=target.marginal,
        )
        return _jsonable(report)

    if kind == "structures":
        source = _pack(doc, config, "source")
        target = _pack(doc, config, "target")
        report = homomorphic_structures(
            truth_graph(source),
            truth_graph(target),
            size_bound=_number(config, "size_bound", int, 3),
        )
        report = valid_structures(report, target.system.y_set)
        if config.get("epsilon_star") is not None and target.truth is not None:
            report = useful_structures(
                report,
                feature_runner(source, target),
                EvaluationContext(target.truth, _number(config, "epsilon_star", float)),
            )
        return {
            "candidates": len(report.candidates),
            "structures": [
                {
                    "x_size": len(c.x_set),
                    "y_size": len(c.y_set),
                    "relation": _jsonable(c.system.tuples),
                    "function_type": c.function_type,
                }
                for c in report.candidates
            ],
            "valid": list(report.valid_indices),
            "useful": [
                {"index": u.candidate_index, "error": u.error} for u in report.useful
            ],
        }

    raise AnalysisError(f"unknown analysis kind {kind!r}")


def _write_report(report: dict, out: str | None) -> None:
    text = json_text(report) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _scenario_documents(doc: SpecDocument, seed: int | None):
    if doc.scenario is None:
        raise AnalysisError("the document carries no scenario block")
    spec = doc.scenario
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    ladder = (doc.raw.get("scenario") or {}).get("ladder")
    alphas = ladder if ladder else [spec.marginal_shift]
    for alpha in alphas:
        yield float(alpha), dataclasses.replace(spec, marginal_shift=float(alpha))


def _pair_document(spec: ScenarioSpec) -> SpecDocument:
    source, target, facts = generate_pair(spec)
    doc = SpecDocument(raw={})
    for s in (
        source.system.x_set,
        source.system.y_set,
        target.system.x_set,
        target.system.y_set,
    ):
        doc.sets[s.name] = s
    doc.learning["source_system"] = source.system
    doc.learning["target_system"] = target.system
    doc.datasets["source_data"] = source.dataset
    doc.datasets["target_data"] = target.dataset
    doc.measures["source_marginal"] = source.marginal
    doc.measures["target_marginal"] = target.marginal
    doc.conditionals["source_posterior"] = source.posterior
    doc.conditionals["target_posterior"] = target.posterior
    doc.packs["source"] = source
    doc.packs["target"] = target
    from .transfer import Knowledge, TransferSystem  # local to avoid cycle at import

    if facts.input_spaces_equal and facts.output_spaces_equal:
        doc.transfer["tr"] = TransferSystem(
            source.system,
            target.system,
            Knowledge(instances=source.dataset),
            "instance",
        )
        doc.analysis = {
            "classify": {"source": "source", "target": "target"},
            "distance": {"source": "source", "target": "target", "on": "x", "kind": "tv"},
            "negative": {"source": "source", "target": "target", "system": "tr", "seeds": 20},
        }
    else:
        doc.analysis = {"classify": {"source": "source", "target": "target"}}
    doc.scenario = spec
    return doc


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
    common.add_argument("--seed", type=int, help="root seed (default: 0, or the scenario's own)")
    common.add_argument("--out", default=None, help="write the report here instead of stdout")
    common.add_argument(
        "--tolerance", type=float, default=1e-9, help="measure-equality tolerance"
    )

    sub.add_parser("validate", parents=[common], help="parse, resolve and check a document")
    analyze = sub.add_parser("analyze", parents=[common], help="run one analysis")
    analyze.add_argument(
        "--kind",
        required=True,
        choices=[
            "classify",
            "distance",
            "roughness",
            "transfer",
            "negative",
            "transferability",
            "generalist",
            "bound",
            "structures",
        ],
    )
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

    if args.command == "validate":
        for warning in doc.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        counts = {
            "sets": len(doc.sets),
            "relations": len(doc.relations),
            "datasets": len(doc.datasets),
            "learning": len(doc.learning),
            "packs": len(doc.packs),
            "transfer": len(doc.transfer),
        }
        _write_report(
            {"ok": True, "inputs_digest": document_digest(doc), "blocks": counts},
            args.out,
        )
        return EXIT_OK

    if args.command == "analyze":
        try:
            results = _run_analysis(doc, args.kind, args.seed or 0, args.tolerance)
        except TransferLabError as exc:
            print(f"analysis error ({args.kind}): {exc}", file=sys.stderr)
            return EXIT_ANALYSIS
        report = {
            "command": {"verb": "analyze", "kind": args.kind, "path": args.path},
            "inputs_digest": document_digest(doc),
            "results": results,
            "provenance": {
                "seed": args.seed or 0,
                "tolerance": args.tolerance,
                "version": __version__,
                "tags": ["probabilities=declared-or-estimated", "order=canonical"],
            },
        }
        _write_report(report, args.out)
        return EXIT_OK

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
    _write_report({"emitted": emitted}, args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
