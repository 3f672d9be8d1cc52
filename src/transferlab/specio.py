"""On-disk document format: parse, resolve, validate, emit.

Documents are versioned JSON with one named block per object kind
(sets, relations, morphisms, measures, conditionals, datasets, learning
systems, packs, transfer systems, a scenario, and analysis configs).
Each block's format is stated in one place: the table :data:`_SECTIONS`
holds each section's block keys with the reader and the writer of its
blocks, in resolution order, and :data:`_SCENARIO` holds the scenario
block's fields with the reader of each.  A number is a JSON number,
never a bool or a string; probabilities may also travel as decimal
strings, so fixtures stay diffable and bit-stable.  Vectors are aligned
to the canonical order of the set they refer to, which keeps atom types
(including integer labels) intact.  A dataset pair's coordinates are
JSON scalars: a list or an object, which no set can hold, is malformed.

Failures are staged: malformed structure raises :class:`ParseError`,
dangling or unknown references raise :class:`ResolutionError`, and
construction invariants of the resolved objects raise
:class:`InvariantViolation`.  A list is a JSON list: a string or an
object where a list belongs is malformed, never read by its characters
or keys.  Unknown keys warn, or raise :class:`ParseError` when strict;
so does a table row for a name outside the block's ``thetas``.  The
keys of each ``analysis.<kind>`` block, with the reader and default of
each, are the table :data:`ANALYSES`, which :func:`analysis_config`
reads a block through.
Reference names travel on the document: each pack, transfer and morphism
block keeps the names it was built with, and emission writes them back.

Emission has one form: keys sorted, a 2-space indent, non-ASCII and
control characters as ``\\u`` escapes -- byte for byte the text
``json.dumps(obj, sort_keys=True, indent=2)`` writes, here produced by
:func:`json_text` at the speed of the stdlib's C encoder, for reports of
the CLI too.  :func:`document_digest` hashes the compact form, so the
digest does not depend on layout.  Both lay a hypothesis table's text
out from its codes, with one encode per distinct atom.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

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
from .relations import Atom, FiniteSet, FiniteSystem, Morphism, as_input_output, make_system
from .scenarios import ScenarioSpec
from .transfer import FeatureRepSpec, Knowledge, TransferSystem

SCHEMA_VERSION = 1


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


def _list(value, where: str) -> list:
    """A value that must be a JSON list: a string or an object is not read by its members."""
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a list, not {type(value).__name__}")
    return value


def _blocks(raw: dict, section: str, keys: Iterable[str], strict: bool, warnings: list[str]):
    """``(name, where, block)`` for each named block of a section, all objects, keys checked."""
    for name, block in _object(raw.get(section), section).items():
        where = f"{section}.{name}"
        block = _object(block, where)
        _check_keys(block, keys, where, strict, warnings)
        yield name, where, block


def _construct(build: Callable[[], Any], where: str):
    """``build()``, its failures raised as the stage they belong to, located at ``where``."""
    try:
        return build()
    except (ParseError, ResolutionError, InvariantViolation):
        raise
    except UnknownElement as exc:
        raise ResolutionError(f"{where}: {exc}") from exc
    except TransferLabError as exc:
        raise InvariantViolation(f"{where}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: malformed block ({exc})") from exc


def _number(value) -> bool:
    """A JSON number: an int or a float, never a bool (converting it may still overflow)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value) -> bool:
    """A JSON integer, or a float of integral value (2.0 reads as 2); ``int`` raises on inf."""
    return _number(value) and int(value) == value


def _field(accepts: Callable[[Any], bool], convert: Callable, what: str):
    """A reader of ``convert(value)`` for the values ``accepts``; others raise, naming the key."""

    def read(value: Any, where: str) -> Any:
        if not accepts(value):
            raise ParseError(f"{where} must be {what}, not {value!r}")
        return convert(value)

    return read


_NUMBER = _field(_number, float, "a number")
_INTEGER = _field(_integer, int, "an integer")
_STRING = _field(lambda value: isinstance(value, str), str, "a string")


def _prob(value) -> float:
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ParseError(f"bad probability literal {value!r}") from None
    if _number(value):
        return float(value)
    raise ParseError(f"bad probability value {value!r}")


def _ref(block: Mapping[str, Any], name, where: str):
    if name not in block:
        raise ResolutionError(f"{where}: reference {name!r} does not resolve")
    return block[name]


def _pair_list_to_map(entries, where: str) -> dict:
    mapping = {}
    for entry in _list(entries, where):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"{where}: map entries must be [key, value] pairs")
        key, value = entry
        key = tuple(key) if isinstance(key, list) else key
        value = tuple(value) if isinstance(value, list) else value
        mapping[key] = value
    return mapping


def _map_to_pair_list(mapping: Mapping) -> list:
    return [[k, v] for k, v in mapping.items()]  # a tuple atom is written as a list


# -- sections: each block kind's reader and writer, side by side --------------------
# A reader builds a block's object from the document resolved so far; a writer
# emits the block back from the object and the reference names it was read with.

def _read_set(doc: SpecDocument, name: str, where: str, block: dict, strict: bool):
    return FiniteSet(name, _list(block["elements"], f"{where}.elements"))


def _write_set(s: FiniteSet, refs) -> dict:
    return {"elements": s.elements}


def _read_relation(doc: SpecDocument, name: str, where: str, block: dict, strict: bool):
    comps = [_ref(doc.sets, c, where) for c in _list(block["components"], f"{where}.components")]
    tuples = _list(block["tuples"], f"{where}.tuples")
    system = make_system(comps, [_list(t, f"{where}.tuples") for t in tuples])
    if block.get("inputs") is not None:
        system = as_input_output(system, _list(block["inputs"], f"{where}.inputs"))
    return system


def _write_relation(rel: FiniteSystem, refs) -> dict:
    inputs = {} if rel.io_partition is None else {"inputs": rel.io_partition[0]}
    return {"components": [c.name for c in rel.components], "tuples": rel.tuples, **inputs}


def _read_morphism(doc: SpecDocument, name: str, where: str, block: dict, strict: bool):
    src = _ref(doc.relations, block["source"], where)
    tgt = _ref(doc.relations, block["target"], where)
    doc.refs[where] = {"source": block["source"], "target": block["target"]}
    maps = [_pair_list_to_map(block[key], f"{where}.{key}") for key in ("x_map", "y_map")]
    return Morphism(*maps, src.x_values(), src.y_values(), tgt.x_values(), tgt.y_values())


def _write_morphism(m: Morphism, refs) -> dict:
    return {**refs, "x_map": _map_to_pair_list(m.x_map), "y_map": _map_to_pair_list(m.y_map)}


def _read_measure(doc: SpecDocument, name: str, where: str, block: dict, strict: bool):
    support = _ref(doc.sets, block["support"], where)
    return EmpiricalMeasure(support, tuple(map(_prob, _list(block["probs"], f"{where}.probs"))))


def _write_measure(m: EmpiricalMeasure, refs) -> dict:
    return {"support": m.support.name, "probs": [repr(float(p)) for p in m.probs]}


def _read_conditional(doc: SpecDocument, name: str, where: str, block: dict, strict: bool):
    given = _ref(doc.sets, block["given"], where)
    over = _ref(doc.sets, block["over"], where)
    rows_raw = _list(block["rows"], f"{where}.rows")
    if len(rows_raw) != len(given):
        raise InvariantViolation(f"{where}: one row per conditioning element")
    rows = {
        x: EmpiricalMeasure(over, tuple(map(_prob, _list(row, f"{where}.rows"))))
        for x, row in zip(given.elements, rows_raw)
    }
    return ConditionalMeasure(given, rows)


def _write_conditional(c: ConditionalMeasure, refs) -> dict:
    return {
        "given": c.given.name,
        "over": c.output_support.name,
        "rows": [[repr(float(p)) for p in c.row(x).probs] for x in c.given.elements],
    }


def _read_dataset(doc: SpecDocument, name: str, where: str, block: dict, strict: bool):
    pairs = [_list(p, f"{where}.pairs") for p in _list(block["pairs"], f"{where}.pairs")]
    for i, pair in enumerate(pairs):
        if any(isinstance(value, (list, dict)) for value in pair):  # no set holds one
            raise ParseError(f"{where}.pairs[{i}]: {pair!r} has an unhashable coordinate")
    return Dataset(pairs, _STRING(block.get("tag", "data"), f"{where}.tag"))


def _write_dataset(d: Dataset, refs) -> dict:
    return {"pairs": d.pairs, "tag": d.source_tag}


def _read_learning(doc: SpecDocument, name: str, where: str, block: dict, strict: bool):
    x_set = _ref(doc.sets, block["inputs"], where)
    y_set = _ref(doc.sets, block["outputs"], where)
    thetas = FiniteSet(f"{where}.thetas", _list(block["thetas"], f"{where}.thetas"))
    table = block["table"]
    if not isinstance(table, dict):  # null too: a learning block has no default table
        raise ParseError(f"{where}.table must be an object, not {type(table).__name__}")
    algo = _object(block.get("algorithm"), f"{where}.algorithm")
    weight = _NUMBER(algo.get("weight", 0.1), f"{where}.algorithm.weight")
    algorithm = AlgorithmSpec(algo.get("kind", "erm"), algo.get("anchor"), weight)
    rows = table
    # An emitted table holds Θ's rows alone, each under its θ's key text; string
    # names are their own key texts, so a table that fits them is read as it is.
    if len(table) > len(thetas) or set(map(type, thetas.elements)) != {str}:
        rows = _rows_by_key_text(table, thetas.elements, where, strict, doc.warnings)
    hypotheses = HypothesisClass(thetas, columns=x_set.elements, rows=rows)
    loss = LossSpec(block.get("loss", "zero_one"))
    return LearningSystem(x_set, y_set, hypotheses, loss, algorithm)


def _rows_by_key_text(
    table: dict, thetas: Sequence[Atom], where: str, strict: bool, warnings: list[str]
) -> dict:
    """Each θ's row of a table object, found under the θ's key text (see :func:`_key_text`).

    Two θ names with one key text are a :class:`ParseError`, and so are
    names that cannot be sorted, such as ``1`` and ``"a"``: a table is
    written in key order.  Keys that name no θ are unknown fields.
    """
    texts = list(map(_key_text, thetas))
    last = dict(zip(texts, thetas))
    if len(last) < len(texts):
        theta, text = next((t, x) for t, x in zip(thetas, texts) if last[x] != t)
        raise ParseError(
            f"{where}.thetas: {theta!r} and {last[text]!r} share the table key {text!r}"
        )
    try:
        sorted(thetas)
    except TypeError as exc:
        raise ParseError(f"{where}.thetas cannot be put in table key order ({exc})") from None
    if len(table) > len(texts):
        _check_keys(table, texts, f"{where}.table", strict, warnings)
    return {theta: table[text] for theta, text in zip(thetas, texts) if text in table}


def _write_learning(sys_: LearningSystem, refs) -> dict:
    algo: dict[str, Any] = {"kind": sys_.algorithm.kind}
    if sys_.algorithm.kind == "penalized":
        algo.update(anchor=sys_.algorithm.anchor, weight=sys_.algorithm.weight)
    codes = sys_.hypotheses.codes_over(sys_.x_set.elements)
    return {
        "inputs": sys_.x_set.name,
        "outputs": sys_.y_set.name,
        "thetas": sys_.theta_set.elements,
        "table": _Table(sys_.theta_set.elements, codes, sys_.hypotheses.outputs),
        "loss": sys_.loss.kind,
        "algorithm": algo,
    }


def _read_pack(doc: SpecDocument, name: str, where: str, block: dict, strict: bool):
    system = _ref(doc.learning, block["learning"], where)
    dataset = _ref(doc.datasets, block["dataset"], where)
    refs = doc.refs[where] = {
        "learning": block["learning"],
        "dataset": block["dataset"],
        "marginal": block.get("marginal") or None,
        "posterior": block.get("posterior") or None,
    }
    marginal = refs["marginal"] and _ref(doc.measures, refs["marginal"], where)
    posterior = refs["posterior"] and _ref(doc.conditionals, refs["posterior"], where)
    truth = None
    if block.get("truth") is not None:
        row = _list(block["truth"], f"{where}.truth")
        if len(row) != len(system.x_set):
            raise InvariantViolation(f"{where}: truth must align with the input set")
        truth = dict(zip(system.x_set.elements, row))
    tag = _STRING(block.get("tag", name), f"{where}.tag")
    return SystemPack(system, dataset, marginal, posterior, truth, tag)


def _write_pack(pack: SystemPack, refs) -> dict:
    truth = None if pack.truth is None else [pack.truth[x] for x in pack.system.x_set.elements]
    return {**refs, "truth": truth, "tag": pack.tag}


_KNOWLEDGE_KEYS = ("instances", "parameters")
_LATENT_MAPS = ("pair_map_target", "pair_map_source", "input_map", "output_map")


def _read_transfer(doc: SpecDocument, name: str, where: str, block: dict, strict: bool):
    source = _ref(doc.learning, block["source"], where)
    target = _ref(doc.learning, block["target"], where)
    know = _object(block.get("knowledge"), f"{where}.knowledge")
    _check_keys(know, _KNOWLEDGE_KEYS, f"{where}.knowledge", strict, doc.warnings)
    refs = doc.refs[where] = {"source": block["source"], "target": block["target"]}
    refs["instances"] = know.get("instances") or None
    parameters = know.get("parameters")
    if parameters is not None:
        parameters = _list(parameters, f"{where}.knowledge.parameters") or None
    knowledge = Knowledge(
        instances=refs["instances"] and _ref(doc.datasets, refs["instances"], where),
        parameters=parameters,
    )
    latent = None
    if block.get("latent") is not None:
        lat = _object(block["latent"], f"{where}.latent")
        _check_keys(lat, ("learning", *_LATENT_MAPS), f"{where}.latent", strict, doc.warnings)
        refs["latent"] = lat["learning"]
        latent = FeatureRepSpec(
            _ref(doc.learning, lat["learning"], where),
            *(_pair_list_to_map(lat[key], f"{where}.latent.{key}") for key in _LATENT_MAPS),
        )
    approach = block.get("approach", "instance")
    penalty = _NUMBER(block.get("penalty_weight", 0.1), f"{where}.penalty_weight")
    pool = _NUMBER(block.get("pool_weight", 1.0), f"{where}.pool_weight")
    return TransferSystem(
        source, target, knowledge, approach,
        latent=latent, penalty_weight=penalty, pool_weight=pool,
    )


def _write_transfer(ts: TransferSystem, refs) -> dict:
    block: dict[str, Any] = {
        "source": refs["source"],
        "target": refs["target"],
        "approach": ts.approach,
        "knowledge": {"instances": refs["instances"], "parameters": ts.knowledge.parameters},
        "penalty_weight": ts.penalty_weight,
        "pool_weight": ts.pool_weight,
    }
    if ts.latent is not None:
        block["latent"] = {"learning": refs["latent"]}
        for key in _LATENT_MAPS:
            block["latent"][key] = _map_to_pair_list(getattr(ts.latent, key))
    return block


#: Each section of a document, in resolution order (a block may reference the
#: blocks of earlier sections): the keys of its named blocks, their reader and
#: their writer.  This is the one place each block kind's format is stated.
_SECTIONS: dict[str, tuple[tuple[str, ...], Callable, Callable]] = {
    "sets": (("elements",), _read_set, _write_set),
    "relations": (("components", "tuples", "inputs"), _read_relation, _write_relation),
    "morphisms": (("source", "target", "x_map", "y_map"), _read_morphism, _write_morphism),
    "measures": (("support", "probs"), _read_measure, _write_measure),
    "conditionals": (("given", "over", "rows"), _read_conditional, _write_conditional),
    "datasets": (("pairs", "tag"), _read_dataset, _write_dataset),
    "learning": (
        ("inputs", "outputs", "thetas", "table", "loss", "algorithm"),
        _read_learning,
        _write_learning,
    ),
    "packs": (
        ("learning", "dataset", "marginal", "posterior", "truth", "tag"), _read_pack, _write_pack
    ),
    "transfer": (
        ("source", "target", "approach", "knowledge", "penalty_weight", "pool_weight", "latent"),
        _read_transfer,
        _write_transfer,
    ),
}


def _sample_sizes(value: Any, where: str) -> tuple[int, int]:
    if isinstance(value, list) and len(value) == 2 and all(map(_integer, value)):
        return tuple(map(int, value))
    raise ParseError(f"{where} must be a list of two integers, not {value!r}")


#: The scenario block's fields, in :class:`ScenarioSpec`'s order, with the reader
#: of each; an absent field keeps the dataclass default.  ``ladder`` rides along.
_SCENARIO: dict[str, Callable[[Any, str], Any]] = {
    "grid_size": _INTEGER,
    "grid_arity": _INTEGER,
    "label_count": _INTEGER,
    "marginal_shift": _NUMBER,
    "posterior_flip": _NUMBER,
    "structural_edit": lambda value, where: value,
    "sample_sizes": _sample_sizes,
    "seed": _INTEGER,
    "hypothesis_cap": _INTEGER,
}


def _read_scenario(doc: SpecDocument, block: dict) -> ScenarioSpec:
    ladder = block.get("ladder")
    if ladder is not None and not isinstance(ladder, list):
        raise ParseError(f"scenario.ladder must be a list of numbers, not {type(ladder).__name__}")
    for alpha in ladder or ():
        if not _number(alpha):
            raise ParseError(f"scenario.ladder entry {alpha!r} is not a number")
    doc.ladder = block.get("ladder", False)
    fields = {
        key: read(block[key], f"scenario.{key}") for key, read in _SCENARIO.items() if key in block
    }
    spec = ScenarioSpec(**fields)
    for alpha in ladder or ():  # each rung is the spec at that shift, so generation can run it
        _construct(lambda: replace(spec, marginal_shift=float(alpha)), "scenario.ladder")
    return spec


def _write_scenario(doc: SpecDocument) -> dict:
    block = {key: getattr(doc.scenario, key) for key in _SCENARIO}
    if doc.scenario.hypothesis_cap == ScenarioSpec.hypothesis_cap:  # the default stays implicit
        del block["hypothesis_cap"]
    if doc.ladder is not False:
        block["ladder"] = doc.ladder
    return block


def _not_json(constant: str):
    """``json.loads``'s ``parse_constant``: ``NaN`` and ``Infinity`` are not JSON."""
    raise ParseError(f"invalid JSON: {constant} is not a JSON value")


def parse_document(text: str, strict: bool = False) -> SpecDocument:
    """Parse and resolve a document from JSON text."""
    try:
        raw = json.loads(text, parse_constant=_not_json)
    except (ValueError, RecursionError) as exc:  # also a too long integer, or too deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("the document root must be an object")

    doc = SpecDocument()
    root_keys = ("version", *_SECTIONS, "scenario", "analysis")
    _check_keys(raw, root_keys, "document root", strict, doc.warnings)
    version = raw.get("version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema version {version!r}")

    for section, (keys, read, _) in _SECTIONS.items():
        objects = getattr(doc, section)
        for name, where, block in _blocks(raw, section, keys, strict, doc.warnings):
            objects[name] = _construct(lambda: read(doc, name, where, block, strict), where)

    if raw.get("scenario") is not None:
        block = _object(raw["scenario"], "scenario")
        _check_keys(block, (*_SCENARIO, "ladder"), "scenario", strict, doc.warnings)
        doc.scenario = _construct(lambda: _read_scenario(doc, block), "scenario")

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

def _coerce(kind: type, accepts: Callable[[Any], bool]):
    """A reader of ``kind(value)`` for the values ``accepts``; others raise, naming the key."""

    def read(doc: SpecDocument, key: str, value: Any) -> Any:
        try:
            if accepts(value):
                return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
        raise AnalysisError(f"analysis config {key!r}: {value!r} is not {kind.__name__}")

    return read


_FLOAT = _coerce(float, _number)
_COUNT = _coerce(int, _integer)
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


def _finite_float(doc: SpecDocument, key: str, value: Any) -> float:
    """A number finite as a float: JSON reads 1e400 as inf, which no threshold may be."""
    number = _FLOAT(doc, key, value)  # refuses what no float holds
    if not math.isfinite(number):
        raise AnalysisError(f"{key} {value!r} is not finite")
    return number


def _optional_finite_float(doc: SpecDocument, key: str, value: Any) -> float | None:
    return None if value is None else _finite_float(doc, key, value)


def _threshold(doc: SpecDocument, key: str, value: Any) -> float | str:
    """A finite number or ``"target-alone"``, returned as written."""
    if value != "target-alone":
        if not _number(value):
            raise AnalysisError(f"epsilon_star {value!r} is not a number or 'target-alone'")
        _finite_float(doc, key, value)
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
        "epsilon_star": (_finite_float, 0.5),
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
        "epsilon_star": (_optional_finite_float, None),
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

def document_dict(doc: SpecDocument) -> dict:
    """Serialize resolved objects back to a normalized document dict, each table as a ``_Table``."""
    out: dict[str, Any] = {"version": SCHEMA_VERSION}
    for section, (_, _, write) in _SECTIONS.items():
        if objects := getattr(doc, section):
            out[section] = {
                name: write(obj, doc.refs.get(f"{section}.{name}"))
                for name, obj in objects.items()
            }
    if doc.scenario is not None:
        out["scenario"] = _write_scenario(doc)
    if doc.analysis:
        out["analysis"] = doc.analysis
    return out


_SCALARS = frozenset({str, int, float, bool, type(None)})


#: A hypothesis table as emission takes it: θ names, ``codes[θ, x]`` over X, output atoms.
_Table = namedtuple("_Table", "thetas codes outputs")


def _table_text(table: _Table, level: int | None) -> str:
    """``json.dumps`` of ``{θ: [outputs]}``, compact (``level`` None) or indent-2 at ``level``.

    Each atom in use is encoded once, the sorted keys in one call.  A row is
    its key's text and its atoms' (the last closes it), each NUL-padded to the
    longest of its kind: one byte matrix, one ``take`` per column block.
    Encoder text is ASCII without raw NUL, so one ``translate`` unpads it.
    """
    (n, k), thetas = table.codes.shape, table.thetas
    if not n:
        return "{}"
    inner = "" if level is None else "\n" + "  " * (level + 1)
    cell, close, encode = inner and inner + "  ", "]," + inner, _encoder(",", ":").encode
    atom = encode if level is None else lambda y: json_text(y).replace("\n", cell)
    keys, codes = sorted(thetas), table.codes
    if keys != list(thetas):
        codes = codes[sorted(range(n), key=thetas.__getitem__)]
    if set(map(type, keys)) != {str}:
        keys = list(map(_key_text, keys))
    head = (":[" if level is None else ": [") + ("" if k else close)
    heads = _encoder(head + "\0").encode(keys)[1:-1] + head + "\0"  # key + head, NUL after each
    flat = np.frombuffer(heads.encode("ascii"), np.uint8)
    lengths = np.diff((flat == 0).nonzero()[0], prepend=-1) - 1
    blocks = [np.zeros((n, lengths.max()), np.uint8)]
    blocks[0][np.arange(blocks[0].shape[1]) < lengths[:, None]] = flat[flat != 0]
    if k:
        used = np.bincount(codes.reshape(-1), minlength=len(table.outputs)) > 0
        texts = [atom(y) if u else "" for y, u in zip(table.outputs, used)]
        for picks, end in ((codes[:, :-1], ","), (codes[:, -1:], inner + close)):
            lut = np.array([(cell + text + end).encode("ascii") for text in texts])
            blocks.append(np.take(lut, picks).view(np.uint8).reshape(n, -1))
    rows = np.hstack(blocks).reshape(-1)
    body = memoryview(rows) if rows.all() else rows.tobytes().translate(None, b"\0")
    return "".join(("{", inner, str(body[: 1 - len(close)], "ascii"), inner[:-2], "}"))


def _key_text(theta: Atom) -> str:
    """A JSON object key's text: a string as itself, else as the encoder converts it.

    JSON keys are strings, so the table row of θ ``1`` is written and read under ``"1"``.
    Every writer encodes a key through this text.
    """
    return theta if isinstance(theta, str) else _encoder(",", ":").encode({theta: 0})[2:-4]


@functools.cache
def _encoder(separator: str, key_separator: str = ": ") -> json.JSONEncoder:
    return json.JSONEncoder(sort_keys=True, separators=(separator, key_separator))


def json_text(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    Any indent sends the stdlib to its pure-Python encoder, so this lays
    out only the lines and leaves the values to the compact C encoder: a
    table from its codes (:func:`_table_text`), a string key or member in
    a call of its own, which the encoder answers without set-up, and every
    other scalar and container of scalars in one call with a newline as
    the item separator, whose text splits at the newlines into each
    scalar's text and each member line of a container of scalars.
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
    if isinstance(value, _Table):
        chunks.append(_table_text(value, level))
        return
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
    if set(map(type, values)) <= _SCALARS:
        slots.append((len(chunks), len(values), inner, outer))
        chunks.append(None)
        leaves.append(value)
        return
    separator = opening + inner
    members = sorted(value.items()) if opening == "{" else enumerate(value)
    encode = _encoder("\n").encode
    for key, member in members:
        chunks.append(separator)
        separator = "," + inner
        if opening == "{":
            chunks += (encode(key if isinstance(key, str) else _key_text(key)), ": ")
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


def _holds_table(value: Any) -> bool:
    holds = isinstance(value, dict) and any(map(_holds_table, value.values()))
    return holds or isinstance(value, _Table)


def _compact(value: Any, pieces: list[str]) -> None:
    """Append ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` to ``pieces``."""
    encode = _encoder(",", ":").encode
    if isinstance(value, dict) and _holds_table(value):
        for i, (key, member) in enumerate(sorted(value.items())):
            text = encode(key if isinstance(key, str) else _key_text(key))
            pieces += ("," if i else "{", text, ":")
            _compact(member, pieces)
        pieces.append("}")
    else:
        pieces.append(_table_text(value, None) if isinstance(value, _Table) else encode(value))


def document_digest(doc: SpecDocument) -> str:
    pieces: list[str] = []
    _compact(document_dict(doc), pieces)
    return hashlib.sha256("".join(pieces).encode("utf-8")).hexdigest()
