"""On-disk document format: parse, resolve, validate, emit.

Documents are versioned JSON with one named block per object kind
(sets, relations, morphisms, measures, conditionals, datasets, learning
systems, packs, transfer systems, a scenario, and analysis configs).
Probabilities travel as decimal strings so fixtures stay diffable and
bit-stable; vectors are aligned to the canonical order of the set they
refer to, which keeps atom types (including integer labels) intact.

Failures are staged: malformed structure raises :class:`ParseError`,
dangling or unknown references raise :class:`ResolutionError`, and
construction invariants of the resolved objects raise
:class:`InvariantViolation`.  Unknown keys warn, or raise
:class:`ParseError` when strict.  The keys of each ``analysis.<kind>``
block, with the reader and default of each, are the table
:data:`ANALYSES`, which :func:`analysis_config` reads a block through.
Reference names travel on the document: each pack, transfer and morphism
block keeps the names it was built with, and emission writes them back.

Emission has one form: keys sorted, a 2-space indent, non-ASCII and
control characters as ``\\u`` escapes -- byte for byte the text
``json.dumps(obj, sort_keys=True, indent=2)`` writes, here produced by
:func:`json_text` at the speed of the stdlib's C encoder.  Reports of the
CLI use the same writer.  :func:`document_digest` hashes the compact
form (``separators=(",", ":")``, keys sorted), so the digest does not
depend on layout.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from .errors import (
    AnalysisError,
    InvariantViolation,
    ParseError,
    ResolutionError,
    TransferLabError,
    UnknownElement,
)
from .learning import (
    AlgorithmSpec,
    Dataset,
    HypothesisClass,
    LearningSystem,
    LossSpec,
    SystemPack,
)
from .measures import ConditionalMeasure, EmpiricalMeasure
from .relations import FiniteSet, FiniteSystem, Morphism, as_input_output, make_system
from .scenarios import ScenarioSpec
from .transfer import FeatureRepSpec, Knowledge, TransferSystem

SCHEMA_VERSION = 1

_TOP_LEVEL_KEYS = {
    "version",
    "sets",
    "relations",
    "morphisms",
    "measures",
    "conditionals",
    "datasets",
    "learning",
    "packs",
    "transfer",
    "scenario",
    "analysis",
}

#: The keys of each section's named blocks, of the blocks nested in a
#: transfer block, and of the scenario block.
_KEYS = {
    "sets": {"elements"},
    "relations": {"components", "tuples", "inputs"},
    "morphisms": {"source", "target", "x_map", "y_map"},
    "measures": {"support", "probs"},
    "conditionals": {"given", "over", "rows"},
    "datasets": {"pairs", "tag"},
    "learning": {"inputs", "outputs", "thetas", "table", "loss", "algorithm"},
    "packs": {"learning", "dataset", "marginal", "posterior", "truth", "tag"},
    "transfer": {
        "source", "target", "approach", "knowledge", "penalty_weight", "pool_weight", "latent"
    },
    "knowledge": {"instances", "parameters"},
    "latent": {"learning", "pair_map_target", "pair_map_source", "input_map", "output_map"},
    "scenario": {
        "grid_size", "grid_arity", "label_count", "marginal_shift", "posterior_flip",
        "structural_edit", "sample_sizes", "seed", "hypothesis_cap", "ladder",
    },
}


@dataclass
class SpecDocument:
    """A parsed document: resolved objects by block name."""

    sets: dict[str, FiniteSet] = field(default_factory=dict)
    relations: dict[str, FiniteSystem] = field(default_factory=dict)
    morphisms: dict[str, Morphism] = field(default_factory=dict)
    measures: dict[str, EmpiricalMeasure] = field(default_factory=dict)
    conditionals: dict[str, ConditionalMeasure] = field(default_factory=dict)
    datasets: dict[str, Dataset] = field(default_factory=dict)
    learning: dict[str, LearningSystem] = field(default_factory=dict)
    packs: dict[str, SystemPack] = field(default_factory=dict)
    transfer: dict[str, TransferSystem] = field(default_factory=dict)
    scenario: ScenarioSpec | None = None
    analysis: dict[str, dict] = field(default_factory=dict)
    # What emission writes back: the names each pack, transfer and morphism block
    # references, by "<section>.<name>", and scenario.ladder as written (False if absent).
    refs: dict[str, dict[str, Any]] = field(default_factory=dict)
    ladder: list | None | bool = False
    warnings: list[str] = field(default_factory=list)


def _check_keys(
    block: Mapping, allowed: Iterable[str], where: str, strict: bool, warnings: list[str]
) -> None:
    unknown = set(block).difference(allowed)
    if unknown:
        msg = f"unknown field(s) {sorted(unknown)} in {where}"
        if strict:
            raise ParseError(msg)
        warnings.append(msg)


def _object(value, where: str) -> dict:
    """A block that must be a JSON object; ``null`` reads as an absent (empty) one."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be an object, not {type(value).__name__}")
    return value


def _blocks(raw: dict, kind: str, strict: bool, warnings: list[str]):
    """``(name, where, block)`` for each named block of a section, all objects, keys checked."""
    for name, block in _object(raw.get(kind), kind).items():
        where = f"{kind}.{name}"
        block = _object(block, where)
        _check_keys(block, _KEYS[kind], where, strict, warnings)
        yield name, where, block


def _prob(value) -> float:
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ParseError(f"bad probability literal {value!r}") from None
    if isinstance(value, (int, float)):
        return float(value)
    raise ParseError(f"bad probability value {value!r}")


def _ref(block: Mapping[str, Any], name, where: str):
    if name not in block:
        raise ResolutionError(f"{where}: reference {name!r} does not resolve")
    return block[name]


def _pair_list_to_map(entries, where: str) -> dict:
    mapping = {}
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"{where}: map entries must be [key, value] pairs")
        key, value = entry
        key = tuple(key) if isinstance(key, list) else key
        value = tuple(value) if isinstance(value, list) else value
        mapping[key] = value
    return mapping


def parse_document(text: str, strict: bool = False) -> SpecDocument:
    """Parse and resolve a document from JSON text."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a too long integer, or too deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("the document root must be an object")

    doc = SpecDocument()
    _check_keys(raw, _TOP_LEVEL_KEYS, "document root", strict, doc.warnings)
    version = raw.get("version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema version {version!r}")

    def construct(builder, where: str):
        try:
            return builder()
        except (ParseError, ResolutionError, InvariantViolation):
            raise
        except UnknownElement as exc:
            raise ResolutionError(f"{where}: {exc}") from exc
        except TransferLabError as exc:
            raise InvariantViolation(f"{where}: {exc}") from exc
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{where}: malformed block ({exc})") from exc

    for name, where, block in _blocks(raw, "sets", strict, doc.warnings):
        doc.sets[name] = construct(
            lambda: FiniteSet(name, tuple(block["elements"])), where
        )

    for name, where, block in _blocks(raw, "relations", strict, doc.warnings):
        def build_relation(block=block, where=where):
            comps = [_ref(doc.sets, ref, where) for ref in block["components"]]
            system = make_system(comps, [tuple(t) for t in block["tuples"]])
            if "inputs" in block and block["inputs"] is not None:
                system = as_input_output(system, tuple(block["inputs"]))
            return system

        doc.relations[name] = construct(build_relation, where)

    for name, where, block in _blocks(raw, "morphisms", strict, doc.warnings):
        def build_morphism(block=block, where=where):
            src = _ref(doc.relations, block["source"], where)
            tgt = _ref(doc.relations, block["target"], where)
            doc.refs[where] = {"source": block["source"], "target": block["target"]}
            return Morphism(
                _pair_list_to_map(block["x_map"], where),
                _pair_list_to_map(block["y_map"], where),
                src.x_values(),
                src.y_values(),
                tgt.x_values(),
                tgt.y_values(),
            )

        doc.morphisms[name] = construct(build_morphism, where)

    for name, where, block in _blocks(raw, "measures", strict, doc.warnings):
        def build_measure(block=block, where=where):
            support = _ref(doc.sets, block["support"], where)
            return EmpiricalMeasure(support, tuple(_prob(p) for p in block["probs"]))

        doc.measures[name] = construct(build_measure, where)

    for name, where, block in _blocks(raw, "conditionals", strict, doc.warnings):
        def build_conditional(block=block, where=where):
            given = _ref(doc.sets, block["given"], where)
            over = _ref(doc.sets, block["over"], where)
            rows_raw = block["rows"]
            if len(rows_raw) != len(given):
                raise InvariantViolation(f"{where}: one row per conditioning element")
            rows = {
                x: EmpiricalMeasure(over, tuple(_prob(p) for p in row))
                for x, row in zip(given.elements, rows_raw)
            }
            return ConditionalMeasure(given, rows)

        doc.conditionals[name] = construct(build_conditional, where)

    for name, where, block in _blocks(raw, "datasets", strict, doc.warnings):
        doc.datasets[name] = construct(
            lambda block=block: Dataset(
                tuple(tuple(p) for p in block["pairs"]), block.get("tag", "data")
            ),
            where,
        )

    for name, where, block in _blocks(raw, "learning", strict, doc.warnings):
        def build_learning(block=block, where=where):
            x_set = _ref(doc.sets, block["inputs"], where)
            y_set = _ref(doc.sets, block["outputs"], where)
            thetas = FiniteSet(f"{where}.thetas", tuple(block["thetas"]))
            table = block["table"]
            for theta in thetas.elements:
                if theta not in table:
                    raise InvariantViolation(f"{where}: no table row for {theta!r}")
            rows = {theta: table[theta] for theta in thetas.elements}
            algo_block = _object(block.get("algorithm"), f"{where}.algorithm")
            algorithm = AlgorithmSpec(
                algo_block.get("kind", "erm"),
                algo_block.get("anchor"),
                float(algo_block.get("weight", 0.1)),
            )
            return LearningSystem(
                x_set,
                y_set,
                HypothesisClass(thetas, columns=x_set.elements, rows=rows),
                LossSpec(block.get("loss", "zero_one")),
                algorithm,
            )

        doc.learning[name] = construct(build_learning, where)

    for name, where, block in _blocks(raw, "packs", strict, doc.warnings):
        def build_pack(block=block, where=where, name=name):
            system = _ref(doc.learning, block["learning"], where)
            dataset = _ref(doc.datasets, block["dataset"], where)
            refs = doc.refs[where] = {
                "learning": block["learning"],
                "dataset": block["dataset"],
                "marginal": block["marginal"] if block.get("marginal") else None,
                "posterior": block["posterior"] if block.get("posterior") else None,
            }
            marginal = refs["marginal"] and _ref(doc.measures, refs["marginal"], where)
            posterior = refs["posterior"] and _ref(doc.conditionals, refs["posterior"], where)
            truth = None
            if block.get("truth") is not None:
                row = block["truth"]
                if len(row) != len(system.x_set):
                    raise InvariantViolation(
                        f"{where}: truth must align with the input set"
                    )
                truth = dict(zip(system.x_set.elements, row))
            return SystemPack(
                system, dataset, marginal, posterior, truth, block.get("tag", name)
            )

        doc.packs[name] = construct(build_pack, where)

    for name, where, block in _blocks(raw, "transfer", strict, doc.warnings):
        def build_transfer(block=block, where=where):
            source = _ref(doc.learning, block["source"], where)
            target = _ref(doc.learning, block["target"], where)
            know_block = _object(block.get("knowledge"), f"{where}.knowledge")
            _check_keys(know_block, _KEYS["knowledge"], f"{where}.knowledge", strict, doc.warnings)
            refs = doc.refs[where] = {
                "source": block["source"],
                "target": block["target"],
                "instances": know_block["instances"] if know_block.get("instances") else None,
            }
            knowledge = Knowledge(
                instances=refs["instances"] and _ref(doc.datasets, refs["instances"], where),
                parameters=(
                    tuple(know_block["parameters"])
                    if know_block.get("parameters")
                    else None
                ),
            )
            latent = None
            if block.get("latent") is not None:
                lat = _object(block["latent"], f"{where}.latent")
                _check_keys(lat, _KEYS["latent"], f"{where}.latent", strict, doc.warnings)
                refs["latent"] = lat["learning"]
                latent = FeatureRepSpec(
                    _ref(doc.learning, lat["learning"], where),
                    _pair_list_to_map(lat["pair_map_target"], where),
                    _pair_list_to_map(lat["pair_map_source"], where),
                    _pair_list_to_map(lat["input_map"], where),
                    _pair_list_to_map(lat["output_map"], where),
                )
            return TransferSystem(
                source,
                target,
                knowledge,
                block.get("approach", "instance"),
                latent=latent,
                penalty_weight=float(block.get("penalty_weight", 0.1)),
                pool_weight=float(block.get("pool_weight", 1.0)),
            )

        doc.transfer[name] = construct(build_transfer, where)

    if raw.get("scenario") is not None:
        block = _object(raw["scenario"], "scenario")
        where = "scenario"
        _check_keys(block, _KEYS["scenario"], where, strict, doc.warnings)
        ladder = block.get("ladder")
        if ladder is not None and not isinstance(ladder, list):
            raise ParseError(
                f"scenario.ladder must be a list of numbers, not {type(ladder).__name__}"
            )
        for alpha in ladder or ():
            if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
                raise ParseError(f"scenario.ladder entry {alpha!r} is not a number")
            construct(lambda: float(alpha), "scenario.ladder")
        doc.ladder = block.get("ladder", False)
        doc.scenario = construct(
            lambda: ScenarioSpec(
                grid_size=int(block.get("grid_size", 4)),
                grid_arity=int(block.get("grid_arity", 1)),
                label_count=int(block.get("label_count", 2)),
                marginal_shift=float(block.get("marginal_shift", 0.0)),
                posterior_flip=float(block.get("posterior_flip", 0.0)),
                structural_edit=block.get("structural_edit"),
                sample_sizes=tuple(block.get("sample_sizes", (40, 10))),
                seed=int(block.get("seed", 0)),
                hypothesis_cap=int(block.get("hypothesis_cap", ScenarioSpec.hypothesis_cap)),
            ),
            where,
        )

    doc.analysis = _object(raw.get("analysis"), "analysis")
    _check_keys(doc.analysis, ANALYSES, "analysis", strict, doc.warnings)
    for kind, config in doc.analysis.items():
        if kind in ANALYSES and isinstance(config, dict):
            _check_keys(config, ANALYSES[kind], f"analysis.{kind}", strict, doc.warnings)
    return doc


def load_document(path: str, strict: bool = False) -> SpecDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_document(handle.read(), strict)


# -- analysis configs ---------------------------------------------------------------

def _coerce(kind: type, accepts: Callable[[Any], bool] = lambda value: True):
    """A reader of ``kind(value)`` for the values ``accepts``; others raise, naming the key."""

    def read(doc: SpecDocument, key: str, value: Any) -> Any:
        if accepts(value):
            try:
                return kind(value)
            except (TypeError, ValueError, OverflowError):
                pass
        raise AnalysisError(f"analysis config {key!r}: {value!r} is not {kind.__name__}")

    return read


_FLOAT = _coerce(float)
# A count is a JSON integer or an integral float (2.0 reads as 2), never a bool.
_COUNT = _coerce(int, lambda v: type(v) is int or isinstance(v, float) and v.is_integer())
_FLAG = _coerce(bool, lambda v: isinstance(v, bool))


def _reference(section: str, message: str):
    """A reader of a block name in ``doc.<section>``; ``message`` when it names none."""

    def read(doc: SpecDocument, key: str, value: Any) -> Any:
        block = getattr(doc, section).get(value) if isinstance(value, str) else None
        if block is None:
            raise AnalysisError(message.format(key=key))
        return block

    return read


def _as_written(doc: SpecDocument, key: str, value: Any) -> Any:
    return value


def _optional_float(doc: SpecDocument, key: str, value: Any) -> float | None:
    return None if value is None else _FLOAT(doc, key, value)


def _threshold(doc: SpecDocument, key: str, value: Any) -> float | str:
    """A number, or ``"target-alone"``; returned as written."""
    if value != "target-alone":
        if not isinstance(value, (int, float)):
            raise AnalysisError(f"epsilon_star {value!r} is not a number or 'target-alone'")
        _FLOAT(doc, key, value)  # refuses a number no float holds, as other config values
    return value


def _universe(doc: SpecDocument, key: str, value: Any) -> list[SystemPack]:
    if not isinstance(value, list) or not value:
        raise AnalysisError("analysis needs a non-empty list of pack references")
    missing = [n for n in value if not isinstance(n, str) or n not in doc.packs]
    if missing:
        raise AnalysisError(f"universe member {missing[0]!r} does not resolve")
    return [doc.packs[n] for n in value]


def _align(doc: SpecDocument, key: str, value: Any) -> FeatureRepSpec | None:
    if not value:
        return None
    ts = doc.transfer.get(value) if isinstance(value, str) else None
    if ts is None or ts.latent is None:
        raise AnalysisError("align must reference a transfer block with latent maps")
    return ts.latent


_PACK = _reference("packs", "analysis needs a resolvable pack reference {key!r}")
_PACKS = {"source": (_PACK, None), "target": (_PACK, None)}
_RELATION = _reference("relations", "roughness needs relation reference {key!r}")
_SYSTEM_AND_DATA = "transfer needs system and data references"


#: Each analysis kind's config keys, in the order they are read, with the
#: reader of each value and the default an absent key reads as.
ANALYSES: dict[str, dict[str, tuple]] = {
    "classify": _PACKS,
    "distance": {
        "align": (_align, None),
        **_PACKS,
        "on": (_as_written, "x"),
        "kind": (_as_written, "tv"),
    },
    "roughness": {
        "source": (_RELATION, None),
        "target": (_RELATION, None),
        "morphism": (_reference("morphisms", "roughness needs a morphism reference"), None),
    },
    "transfer": {
        "system": (_reference("transfer", _SYSTEM_AND_DATA), None),
        "data": (_reference("datasets", _SYSTEM_AND_DATA), None),
    },
    "negative": {
        "system": (_reference("transfer", "negative needs a transfer system reference"), None),
        **_PACKS,
        "seeds": (_COUNT, 1),
        "resample": (_FLAG, True),
    },
    "transferability": {
        "pack": (_PACK, None),
        "epsilon_star": (_threshold, 0.0),
        "universe": (_universe, None),
        "role": (_as_written, "source"),
        "mode": (_as_written, "empirical"),
        "approach": (_as_written, "instance"),
        "seeds": (_COUNT, 10),
        "equivalence_mode": (_as_written, "raw"),
    },
    "generalist": {
        "pack": (_PACK, None),
        "universe": (_universe, None),
        "shots": (_COUNT, 1),
        "required": (_COUNT, 1),
        "epsilon_star": (_FLOAT, 0.5),
        "approach": (_as_written, "instance"),
    },
    "bound": {
        "system": (_reference("transfer", "bound needs a transfer system reference"), None),
        **_PACKS,
        "kind": (_as_written, "tv"),
    },
    "structures": {
        **_PACKS,
        "size_bound": (_COUNT, 3),
        "epsilon_star": (_optional_float, None),
    },
}


def analysis_config(doc: SpecDocument, kind: str) -> dict[str, Any]:
    """``analysis.<kind>`` read through :data:`ANALYSES`, key by key in table order."""
    config = doc.analysis.get(kind)
    if config is None:
        raise AnalysisError(f"the document carries no analysis.{kind} block")
    if not isinstance(config, dict):
        raise AnalysisError(f"analysis.{kind} must be an object, not {type(config).__name__}")
    return {
        key: read(doc, key, config.get(key, default))
        for key, (read, default) in ANALYSES[kind].items()
    }


# -- emission -----------------------------------------------------------------------

def _prob_str(p: float) -> str:
    return repr(float(p))


def _map_to_pair_list(mapping: Mapping) -> list:
    return [
        [list(k) if isinstance(k, tuple) else k, list(v) if isinstance(v, tuple) else v]
        for k, v in mapping.items()
    ]


def document_dict(doc: SpecDocument) -> dict:
    """Serialize resolved objects back to a normalized document dict."""
    out: dict[str, Any] = {"version": SCHEMA_VERSION}
    if doc.sets:
        out["sets"] = {
            name: {"elements": list(s.elements)} for name, s in doc.sets.items()
        }
    if doc.relations:
        out["relations"] = {
            name: {
                "components": [c.name for c in rel.components],
                "tuples": [list(t) for t in rel.tuples],
                **(
                    {"inputs": list(rel.io_partition[0])}
                    if rel.io_partition is not None
                    else {}
                ),
            }
            for name, rel in doc.relations.items()
        }
    if doc.morphisms:
        out["morphisms"] = {
            name: {
                **doc.refs[f"morphisms.{name}"],
                "x_map": _map_to_pair_list(m.x_map),
                "y_map": _map_to_pair_list(m.y_map),
            }
            for name, m in doc.morphisms.items()
        }
    if doc.measures:
        out["measures"] = {
            name: {
                "support": m.support.name,
                "probs": [_prob_str(p) for p in m.probs],
            }
            for name, m in doc.measures.items()
        }
    if doc.conditionals:
        out["conditionals"] = {
            name: {
                "given": c.given.name,
                "over": c.output_support.name,
                "rows": [
                    [_prob_str(p) for p in c.row(x).probs] for x in c.given.elements
                ],
            }
            for name, c in doc.conditionals.items()
        }
    if doc.datasets:
        out["datasets"] = {
            name: {"pairs": d.pairs, "tag": d.source_tag}
            for name, d in doc.datasets.items()
        }
    if doc.learning:
        out["learning"] = {}
        for name, sys_ in doc.learning.items():
            algo: dict[str, Any] = {"kind": sys_.algorithm.kind}
            if sys_.algorithm.kind == "penalized":
                algo["anchor"] = sys_.algorithm.anchor
                algo["weight"] = sys_.algorithm.weight
            out["learning"][name] = {
                "inputs": sys_.x_set.name,
                "outputs": sys_.y_set.name,
                "thetas": sys_.theta_set.elements,
                "table": dict(
                    zip(sys_.theta_set.elements, sys_.hypotheses.rows_over(sys_.x_set.elements))
                ),
                "loss": sys_.loss.kind,
                "algorithm": algo,
            }
    if doc.packs:
        out["packs"] = {
            name: {
                **doc.refs[f"packs.{name}"],
                "truth": (
                    [pack.truth[x] for x in pack.system.x_set.elements]
                    if pack.truth is not None
                    else None
                ),
                "tag": pack.tag,
            }
            for name, pack in doc.packs.items()
        }
    if doc.transfer:
        out["transfer"] = {}
        for name, ts in doc.transfer.items():
            refs = doc.refs[f"transfer.{name}"]
            block: dict[str, Any] = {
                "source": refs["source"],
                "target": refs["target"],
                "approach": ts.approach,
                "knowledge": {
                    "instances": refs["instances"],
                    "parameters": (
                        list(ts.knowledge.parameters)
                        if ts.knowledge.parameters is not None
                        else None
                    ),
                },
                "penalty_weight": ts.penalty_weight,
                "pool_weight": ts.pool_weight,
            }
            if ts.latent is not None:
                block["latent"] = {
                    "learning": refs["latent"],
                    "pair_map_target": _map_to_pair_list(ts.latent.pair_map_target),
                    "pair_map_source": _map_to_pair_list(ts.latent.pair_map_source),
                    "input_map": _map_to_pair_list(ts.latent.input_map),
                    "output_map": _map_to_pair_list(ts.latent.output_map),
                }
            out["transfer"][name] = block
    if doc.scenario is not None:
        sc = doc.scenario
        out["scenario"] = {
            "grid_size": sc.grid_size,
            "grid_arity": sc.grid_arity,
            "label_count": sc.label_count,
            "marginal_shift": sc.marginal_shift,
            "posterior_flip": sc.posterior_flip,
            "structural_edit": sc.structural_edit,
            "sample_sizes": list(sc.sample_sizes),
            "seed": sc.seed,
        }
        if sc.hypothesis_cap != ScenarioSpec.hypothesis_cap:  # the default stays implicit
            out["scenario"]["hypothesis_cap"] = sc.hypothesis_cap
        if doc.ladder is not False:
            out["scenario"]["ladder"] = doc.ladder
    if doc.analysis:
        out["analysis"] = doc.analysis
    return out


_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _encoder(separator: str, key_separator: str = ": ") -> json.JSONEncoder:
    return json.JSONEncoder(sort_keys=True, separators=(separator, key_separator))


def json_text(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    Any indent sends the stdlib to its pure-Python encoder, so this lays
    out only the lines and leaves the values to the compact C encoder.
    A container of non-empty scalar rows (table rows, probability rows,
    dataset pairs) is one call, with the cells' separator; its rows are
    then re-laid at each ``],`` + newline, which only a row's end writes,
    since encoded text holds no raw newline and no scalar's text ends in
    ``]``.  A string key or member is one call of its own, which the
    encoder answers without set-up.  One more call, with a newline as the
    item separator, encodes every other scalar and every container of
    scalars; splitting its text at the newlines gives each scalar's text
    and each member line of a container of scalars.
    """
    chunks: list = []
    slots: list[tuple] = []
    leaves: list = []
    _lay_out(value, 0, chunks, slots, leaves)
    lines = iter(_encoder("\n").encode(leaves)[1:-1].split("\n") if leaves else ())
    for slot, count, inner, outer in slots:
        if count:  # a container of scalars, its brackets on its first and last line
            text = ("," + inner).join(itertools.islice(lines, count))
            chunks[slot] = "".join((text[0], inner, text[1:-1], outer, text[-1]))
        else:
            chunks[slot] = next(lines)
    return "".join(chunks)


def _lay_out(value: Any, level: int, chunks: list, slots: list[tuple], leaves: list) -> None:
    """Append ``value``'s text, ``level`` indents deep, to ``chunks``.

    What the shared call encodes is queued in ``leaves``, and where its
    text goes in ``slots``: the chunk's index, the container's member
    count (0 for a scalar) and its inner and outer indent.
    """
    if isinstance(value, dict):
        values, opening, closing = list(value.values()), "{", "}"
    elif isinstance(value, (list, tuple)):
        values, opening, closing = value, "[", "]"
    else:
        slots.append((len(chunks), 0, None, None))
        chunks.append(None)
        leaves.append(value)
        return
    if not values:
        chunks.append(opening + closing)
        return
    inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
    types = set(map(type, values))
    if types <= _SCALARS:
        slots.append((len(chunks), len(values), inner, outer))
        chunks.append(None)
        leaves.append(value)
        return
    cells = itertools.chain.from_iterable(values)
    if types <= {list, tuple} and all(values) and set(map(type, cells)) <= _SCALARS:
        cell = inner + "  "
        text = _encoder("," + cell, ":\n").encode(value)
        if opening == "{":  # the key separator is the other raw newline; keys open with '"'
            text = text.replace(":\n[", ": [" + cell)
            text = text.replace("]," + cell + '"', inner + "]," + inner + '"')
            chunks += (opening, inner, text[1:-2])
        else:
            text = text.replace("]," + cell + "[", inner + "]," + inner + "[" + cell)
            chunks += (opening, inner, "[", cell, text[2:-2])
        chunks += (inner, "]", outer, closing)
        return
    separator = opening + inner
    members = sorted(value.items()) if opening == "{" else enumerate(value)
    encode = _encoder("\n").encode
    for key, member in members:
        chunks.append(separator)
        separator = "," + inner
        if opening == "{":  # a non-string key converted as the encoder converts it
            chunks += (encode(key) if isinstance(key, str) else encode({key: 0})[1:-4], ": ")
        if type(member) is str:
            chunks.append(encode(member))
        elif type(member) in _SCALARS:  # inlined: small reports are mostly scalar members
            slots.append((len(chunks), 0, None, None))
            chunks.append(None)
            leaves.append(member)
        else:
            _lay_out(member, level + 1, chunks, slots, leaves)
    chunks += (outer, closing)


def dump_document(doc: SpecDocument) -> str:
    return json_text(document_dict(doc)) + "\n"


def document_digest(doc: SpecDocument) -> str:
    canonical = json.dumps(document_dict(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
