"""The document format: emitted documents round-trip, malformed tables refuse.

Emission goes through the ``scenario`` verb, as a user's does.  A table
row is parsed as a whole, so the exit code of each malformed table (and
the single ``learning.<name>:`` prefix of its message) is pinned here.
The writer's oracle is the stdlib: ``json_text`` must equal
``json.dumps(value, sort_keys=True, indent=2)`` for every JSON value.  A
hypothesis table is laid out from its codes; its oracle is
``helpers.scalar_table_json``, the writer that decoded the table first,
in both the compact (digest) and the indent-2 layout.
"""

import contextlib
import gc
import hashlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import rows_over, scalar_table_json
from transferlab import cli
from transferlab.errors import ParseError, ResolutionError
from transferlab.learning import HypothesisClass
from transferlab.relations import FiniteSet
from transferlab.specio import (
    _compact,
    _Table,
    _table_text,
    document_dict,
    document_digest,
    dump_document,
    json_text,
    load_document,
    parse_document,
)

scenario_blocks = st.fixed_dictionaries(
    {
        "grid_size": st.integers(2, 5),
        "label_count": st.integers(2, 3),
        "marginal_shift": st.sampled_from((0.0, 0.25, 1.0)),
        "posterior_flip": st.sampled_from((0.0, 0.1, 0.5)),
        "structural_edit": st.sampled_from((None, "truncate_output")),
        "seed": st.integers(0, 2**31),
    }
)


def emit(directory, scenario, *flags):
    """Run the scenario verb on ``scenario``; return the emitted documents' paths."""
    spec = Path(directory) / "spec.json"
    spec.write_text(json.dumps({"version": 1, "scenario": scenario}), encoding="utf-8")
    out_dir = Path(directory) / "emit"
    argv = ["scenario", str(spec), "--emit", str(out_dir), "--out", str(Path(directory) / "s.json")]
    assert cli.main(argv + list(flags)) == cli.EXIT_OK
    return sorted(out_dir.glob("pair_*.json"))


@settings(max_examples=25)
@given(scenario_blocks)
def test_emitted_document_round_trips_byte_for_byte(scenario):
    with tempfile.TemporaryDirectory() as directory:
        (path,) = emit(directory, scenario)
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        doc = load_document(str(path))
        assert dump_document(doc) == text
        digest = document_digest(doc)
        assert document_digest(load_document(str(path))) == digest
        assert document_digest(parse_document(dump_document(doc))) == digest


def test_outputs_equal_to_labels_are_emitted_as_written(tmp_path):
    (path,) = emit(tmp_path, {"grid_size": 3, "label_count": 2, "seed": 1})
    doc = json.loads(path.read_text(encoding="utf-8"))
    table = doc["learning"]["source_system"]["table"]
    theta = doc["learning"]["source_system"]["thetas"][0]
    table[theta] = [True, 1.0, 0.0]
    path.write_text(json.dumps(doc), encoding="utf-8")
    dumped = json.loads(dump_document(load_document(str(path))))
    assert repr(dumped["learning"]["source_system"]["table"][theta]) == "[True, 1.0, 0.0]"


def break_missing_row(table, theta):
    del table[theta]


def break_short_row(table, theta):
    table[theta].pop()


def break_output_outside_y(table, theta):
    table[theta][0] = 7


def break_unhashable_output(table, theta):
    table[theta][0] = [1]


@pytest.mark.parametrize(
    "corrupt, code",
    [
        (break_missing_row, cli.EXIT_INVARIANT),
        (break_short_row, cli.EXIT_INVARIANT),
        (break_output_outside_y, cli.EXIT_RESOLUTION),
        (break_unhashable_output, cli.EXIT_PARSE),
    ],
)
def test_malformed_table_exit_codes(tmp_path, capsys, corrupt, code):
    (path,) = emit(tmp_path, {"grid_size": 3, "label_count": 2, "seed": 1})
    doc = json.loads(path.read_text(encoding="utf-8"))
    block = doc["learning"]["source_system"]
    corrupt(block["table"], block["thetas"][1])
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["validate", str(path), "--out", str(tmp_path / "v.json")]) == code
    assert capsys.readouterr().err.count("learning.source_system:") == 1


def set_section(name, value):
    return lambda doc: doc.__setitem__(name, value)


def set_field(section, block, name, value):
    return lambda doc: doc[section][block].__setitem__(name, value)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (set_section("sets", [1]), "sets must be an object, not list"),
        (set_section("sets", []), "sets must be an object, not list"),
        (set_section("learning", 5), "learning must be an object, not int"),
        (set_section("datasets", {"x": 7}), "datasets.x must be an object, not int"),
        (set_section("scenario", [1]), "scenario must be an object, not list"),
        (set_field("transfer", "tr", "knowledge", ["a"]),
         "transfer.tr.knowledge must be an object, not list"),
        (set_field("learning", "source_system", "algorithm", [1]),
         "learning.source_system.algorithm must be an object, not list"),
    ],
)
def test_non_object_block_is_a_parse_error(tmp_path, capsys, corrupt, message):
    (path,) = emit(tmp_path, {"grid_size": 3, "label_count": 2, "seed": 1})
    doc = json.loads(path.read_text(encoding="utf-8"))
    corrupt(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    report = tmp_path / "v.json"
    assert cli.main(["validate", str(path), "--out", str(report)]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"parse error: {message}\n"
    assert not report.exists()


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (set_field("sets", "source_x", "elements", "ab"),
         "parse error: sets.source_x.elements must be a list, not str"),
        (set_field("learning", "source_system", "thetas", "hk"),
         "parse error: learning.source_system.thetas must be a list, not str"),
        (set_field("packs", "source", "truth", "ab"),
         "parse error: packs.source.truth must be a list, not str"),
        (set_field("datasets", "source_data", "pairs", {}),
         "parse error: datasets.source_data.pairs must be a list, not dict"),
        (lambda doc: doc["learning"]["source_system"]["table"].__setitem__("h1", "01"),
         "parse error: learning.source_system: malformed block "
         "(table row for 'h1' must be a list, not str)"),
        (lambda doc: doc["learning"]["source_system"]["table"].pop("h1"),
         "invariant violation: learning.source_system: no table row for 'h1'"),
    ],
    ids=["elements", "thetas", "truth", "pairs", "table-row", "missing-row"],
)
def test_a_list_field_is_a_json_list_and_every_theta_has_a_row(tmp_path, capsys, corrupt, message):
    (path,) = emit(tmp_path, {"grid_size": 3, "label_count": 2, "seed": 1})
    doc = json.loads(path.read_text(encoding="utf-8"))
    corrupt(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    code = cli.EXIT_INVARIANT if message.startswith("invariant") else cli.EXIT_PARSE
    assert cli.main(["validate", "--strict", str(path), "--out", str(tmp_path / "v.json")]) == code
    assert capsys.readouterr().err == message + "\n"


def test_null_blocks_read_as_absent(tmp_path):
    (path,) = emit(tmp_path, {"grid_size": 3, "label_count": 2, "seed": 1})
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.update(relations=None, morphisms=None, scenario=None)
    doc["learning"]["source_system"]["algorithm"] = None
    doc["transfer"]["tr"]["latent"] = None
    path.write_text(json.dumps(doc), encoding="utf-8")
    parsed = load_document(str(path))
    assert parsed.relations == {} and parsed.scenario is None
    assert parsed.learning["source_system"].algorithm.kind == "erm"


# Text built from the pieces the writer's layout cuts at, plus quotes,
# backslashes, control and non-ASCII characters, which all travel escaped.
texts = st.lists(
    st.sampled_from(
        ["a", "]", "],", "],\n  ", ":\n[", ": [", '"', "\\", "\n", ",", "é", "☃", "\x00"]
    ),
    max_size=4,
).map("".join)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1.0, 2**70, True]),
    texts,
)
rows = st.lists(scalars, min_size=1, max_size=4)
json_values = st.recursive(
    st.one_of(scalars, rows),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(texts, inner, max_size=4),
        st.lists(st.one_of(rows, rows.map(tuple)), max_size=4),
        st.dictionaries(texts, st.one_of(rows, rows.map(tuple)), max_size=4),
        st.dictionaries(st.integers(-3, 3) | st.sampled_from([0.5, -0.0]), inner, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=400)
@given(json_values)
@example({"a": [1, "]"], "b": ("],\n      x", -0.0)})
@example([[float("nan")], ("x",), [[]], [True, 1.0]])
@example({'k": [': [1], "k": [2, 3], "": (float("-inf"),)})
def test_json_text_equals_the_stdlib_indent_2_form(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def emitted_bytes(directory, scenario):
    directory.mkdir()
    return [path.read_bytes() for path in emit(directory, scenario)]


LADDER_BASE = {"grid_size": 3, "label_count": 2, "seed": 1}


@pytest.mark.parametrize(
    "ladder, message",
    [
        (5, "scenario.ladder must be a list of numbers, not int"),
        ("0.5", "scenario.ladder must be a list of numbers, not str"),
        ({"a": 0.5}, "scenario.ladder must be a list of numbers, not dict"),
        (["a"], "scenario.ladder entry 'a' is not a number"),
        ([0.5, True], "scenario.ladder entry True is not a number"),
        ([[0.5]], "scenario.ladder entry [0.5] is not a number"),
    ],
)
@pytest.mark.parametrize("verb", ["validate", "scenario"])
def test_malformed_ladder_is_a_parse_error(tmp_path, capsys, verb, ladder, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"version": 1, "scenario": {**LADDER_BASE, "ladder": ladder}}))
    report = tmp_path / "r.json"
    argv = [verb, str(spec), "--out", str(report)]
    if verb == "scenario":
        argv += ["--emit", str(tmp_path / "emit")]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"parse error: {message}\n"
    assert not report.exists()


@pytest.mark.parametrize("ladder", [None, []])
def test_empty_ladder_emits_the_marginal_shift(tmp_path, ladder):
    scenario = {**LADDER_BASE, "marginal_shift": 0.25}
    assert emitted_bytes(tmp_path / "a", {**scenario, "ladder": ladder}) == emitted_bytes(
        tmp_path / "b", scenario
    )


def test_ladder_emits_one_document_per_shift(tmp_path):
    emitted = emitted_bytes(tmp_path / "ladder", {**LADDER_BASE, "ladder": [0, 0.5]})
    assert emitted == [
        *emitted_bytes(tmp_path / "a", {**LADDER_BASE, "marginal_shift": 0.0}),
        *emitted_bytes(tmp_path / "b", {**LADDER_BASE, "marginal_shift": 0.5}),
    ]


BIG = "1" + "0" * 399  # an integer literal no float holds


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"version": 1, "sets": {"s": {"elements": [%s]}}}' % ("7" * 4301),
         "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
        ('{"version": 1, "x": %s}' % ("[" * 100_000 + "]" * 100_000),
         "invalid JSON: maximum recursion depth exceeded"),
        ('{"version": 1, "scenario": {"grid_size": 2, "marginal_shift": %s}}' % BIG,
         "scenario: malformed block (int too large to convert to float)"),
        ('{"version": 1, "scenario": {"grid_size": 1e400}}',
         "scenario: malformed block (cannot convert float infinity to integer)"),
        ('{"version": 1, "scenario": {"grid_size": 2, "ladder": [0.5, %s]}}' % BIG,
         "scenario.ladder: malformed block (int too large to convert to float)"),
    ],
    ids=["4301-digit-int", "deep-nesting", "marginal-shift", "grid-size", "ladder-entry"],
)
@pytest.mark.parametrize("verb", ["validate", "scenario"])
def test_unreadable_input_is_a_parse_error(tmp_path, capsys, verb, text, message):
    spec = tmp_path / "spec.json"
    spec.write_text(text, encoding="utf-8")
    report = tmp_path / "r.json"
    argv = [verb, str(spec), "--out", str(report)]
    if verb == "scenario":
        argv += ["--emit", str(tmp_path / "emit")]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"parse error: {message}")
    assert not report.exists()


def morphism_document(relation):
    """Two relations on the same carriers, and a morphism from ``relation`` to itself."""
    return {
        "version": 1,
        "sets": {"X": {"elements": [0, 1]}, "Y": {"elements": ["a", "b"]}},
        "relations": {
            "r1": {"components": ["X", "Y"], "tuples": [[0, "a"], [1, "b"]], "inputs": [0]},
            "r2": {"components": ["X", "Y"], "tuples": [[0, "b"], [1, "a"]], "inputs": [0]},
        },
        "morphisms": {
            "m": {
                "source": relation,
                "target": relation,
                "x_map": [[0, 0], [1, 1]],
                "y_map": [["a", "a"], ["b", "b"]],
            }
        },
    }


def test_morphism_dumps_with_its_own_relation_names(tmp_path):
    digests = []
    for relation in ("r1", "r2"):
        text = json.dumps(morphism_document(relation))
        morphism = json.loads(dump_document(parse_document(text)))["morphisms"]["m"]
        assert (morphism["source"], morphism["target"]) == (relation, relation)
        path, report = tmp_path / f"{relation}.json", tmp_path / "v.json"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["validate", str(path), "--strict", "--out", str(report)]) == cli.EXIT_OK
        digests.append(json.loads(report.read_text(encoding="utf-8"))["inputs_digest"])
    assert digests[0] != digests[1]


@pytest.mark.parametrize("ladder", [None, [], [0, 0.5]], ids=["null", "empty", "shifts"])
def test_ladder_dumps_as_written(ladder):
    doc = parse_document(json.dumps({"version": 1, "scenario": {**LADDER_BASE, "ladder": ladder}}))
    assert repr(json.loads(dump_document(doc))["scenario"]["ladder"]) == repr(ladder)
    absent = parse_document(json.dumps({"version": 1, "scenario": LADDER_BASE}))
    assert "ladder" not in json.loads(dump_document(absent))["scenario"]


@settings(max_examples=10)
@given(scenario_blocks)
def test_emitted_documents_validate_strictly_without_warnings(scenario):
    with tempfile.TemporaryDirectory() as directory:
        for path in emit(directory, {**scenario, "ladder": [0.0, 0.5]}):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                argv = ["validate", str(path), "--strict", "--out", str(Path(directory) / "v.json")]
                assert cli.main(argv) == cli.EXIT_OK
            assert err.getvalue() == ""


# -- every block kind -----------------------------------------------------------------

XY = [[x, y] for x in ("x0", "x1", "x2") for y in (0, 1)]
EVERY_BLOCK = {
    "version": 1,
    "sets": {
        "X": {"elements": ["x0", "x1", "x2"]},
        "Y": {"elements": [0, 1]},
        "U": {"elements": ["u0", "u1"]},
    },
    "relations": {
        "io": {"components": ["X", "Y"], "tuples": [["x0", 0], ["x1", 1]], "inputs": [0]},
        "onto": {"components": ["X", "Y"], "tuples": [["x2", 1]], "inputs": [0]},
        "plain": {"components": ["Y", "X"], "tuples": [[1, "x2"]]},
    },
    "morphisms": {
        "m": {
            "source": "io",
            "target": "onto",
            "x_map": [["x0", "x2"], ["x1", "x2"]],
            "y_map": [[0, 1], [1, 1]],
        }
    },
    "measures": {"mx": {"support": "X", "probs": ["0.5", "0.25", "0.25"]}},
    "conditionals": {
        "post": {"given": "X", "over": "Y", "rows": [["1.0", "0.0"], ["0.0", "1.0"], ["0.5", "0.5"]]}
    },
    "datasets": {
        "source_data": {"pairs": [["x0", 0], ["x1", 1], ["x2", 1]], "tag": "src"},
        "target_data": {"pairs": [["x2", 1]]},
    },
    "learning": {
        "src": {
            "inputs": "X",
            "outputs": "Y",
            "thetas": ["a", "b"],
            "table": {"a": [0, 1, 1], "b": [1, 1, 0]},
        },
        "tgt": {
            "inputs": "X",
            "outputs": "Y",
            "thetas": ["a", "b", "c"],
            "table": {"a": [0, 1, 1], "b": [1, 1, 0], "c": [0, 0, 0]},
            "loss": "squared",
            "algorithm": {"kind": "penalized", "anchor": "a", "weight": 0.25},
        },
        "lat": {
            "inputs": "U",
            "outputs": "Y",
            "thetas": ["p", "q"],
            "table": {"p": [0, 1], "q": [1, 1]},
            "algorithm": {"kind": "erm"},
        },
    },
    "packs": {
        "source": {
            "learning": "src",
            "dataset": "source_data",
            "marginal": "mx",
            "posterior": "post",
            "truth": [0, 1, 1],
            "tag": "the source",
        },
        "target": {"learning": "tgt", "dataset": "target_data"},
    },
    "transfer": {
        "inst": {
            "source": "src",
            "target": "tgt",
            "approach": "instance",
            "knowledge": {"instances": "source_data"},
            "pool_weight": 2.0,
        },
        "param": {
            "source": "src",
            "target": "tgt",
            "approach": "parameter",
            "knowledge": {"parameters": ["a"]},
            "penalty_weight": 0.3,
        },
        "feat": {
            "source": "src",
            "target": "tgt",
            "approach": "feature_representation",
            "knowledge": {"instances": "source_data"},
            "latent": {
                "learning": "lat",
                "pair_map_target": [[p, ["u0" if p[0] == "x0" else "u1", p[1]]] for p in XY],
                "pair_map_source": [[p, ["u0", p[1]]] for p in XY],
                "input_map": [["x0", "u0"], ["x1", "u1"], ["x2", "u1"]],
                "output_map": [[0, 0], [1, 1]],
            },
        },
    },
    "scenario": {
        "grid_size": 3,
        "label_count": 2,
        "marginal_shift": 0.25,
        "posterior_flip": 0.1,
        "sample_sizes": [20, 5],
        "seed": 3,
        "hypothesis_cap": 100,
        "ladder": [0.0, 0.5],
    },
    "analysis": {
        "classify": {"source": "source", "target": "target"},
        "negative": {"system": "inst", "source": "source", "target": "target", "seeds": 2},
    },
}
GOLDEN = Path(__file__).parent / "golden" / "every_block.json"
EVERY_BLOCK_DIGEST = "11081c90117b6ca4cb7e3dc0bce7ddbcfd672811dafe10bf7d26c00ef8fe79ac"


def test_every_block_kind_dumps_to_its_golden():
    doc = parse_document(json.dumps(EVERY_BLOCK), strict=True)
    assert doc.warnings == []
    text = dump_document(doc)
    assert text == GOLDEN.read_text(encoding="utf-8")
    again = parse_document(text, strict=True)
    assert again.warnings == []
    assert dump_document(again) == text
    assert document_digest(doc) == document_digest(again) == EVERY_BLOCK_DIGEST


def with_block(section, name, block):
    return json.dumps({**EVERY_BLOCK, section: {**EVERY_BLOCK[section], name: block}})


def test_the_earlier_section_fails_first():
    bad_measure = {"support": "X", "probs": ["0.5", "half", "0.5"]}
    bad_transfer = {**EVERY_BLOCK["transfer"]["inst"], "source": "nowhere"}
    text = with_block("measures", "bad", bad_measure)
    both = json.loads(text)
    both["transfer"]["bad"] = bad_transfer
    with pytest.raises(ParseError, match="bad probability literal 'half'"):
        parse_document(json.dumps(both))
    with pytest.raises(ResolutionError, match="transfer.bad: reference 'nowhere'"):
        parse_document(with_block("transfer", "bad", bad_transfer))


def test_unknown_keys_warn_in_section_order():
    doc = json.loads(json.dumps(EVERY_BLOCK))
    doc["zz"] = doc["analysis"]["classify"]["zz"] = doc["scenario"]["zz"] = 1
    for section, name in [("transfer", "feat"), ("sets", "X"), ("packs", "target"),
                          ("relations", "io"), ("learning", "lat")]:
        doc[section][name]["zz"] = 1
    doc["transfer"]["feat"]["latent"]["zz"] = doc["transfer"]["param"]["knowledge"]["zz"] = 1
    warnings = parse_document(json.dumps(doc)).warnings
    assert warnings == [
        f"unknown field(s) ['zz'] in {where}"
        for where in [
            "document root", "sets.X", "relations.io", "learning.lat", "packs.target",
            "transfer.param.knowledge", "transfer.feat", "transfer.feat.latent",
            "scenario", "analysis.classify",
        ]
    ]
    with pytest.raises(ParseError, match=r"in document root"):
        parse_document(json.dumps(doc), strict=True)


# -- numbers are JSON numbers -----------------------------------------------------------

@pytest.mark.parametrize(
    "key, value, message",
    [
        ("sample_sizes", [40.5, 10], "a list of two integers, not [40.5, 10]"),
        ("sample_sizes", [True, 10], "a list of two integers, not [True, 10]"),
        ("sample_sizes", [40, 10, 5], "a list of two integers, not [40, 10, 5]"),
        ("sample_sizes", [40], "a list of two integers, not [40]"),
        ("sample_sizes", "40", "a list of two integers, not '40'"),
        ("grid_size", 4.7, "an integer, not 4.7"),
        ("grid_arity", True, "an integer, not True"),
        ("label_count", "2", "an integer, not '2'"),
        ("seed", "12", "an integer, not '12'"),
        ("seed", None, "an integer, not None"),
        ("hypothesis_cap", 4096.9, "an integer, not 4096.9"),
        ("marginal_shift", True, "a number, not True"),
        ("posterior_flip", "0.1", "a number, not '0.1'"),
    ],
)
@pytest.mark.parametrize("verb", ["validate", "scenario"])
def test_scenario_values_are_read_as_written(tmp_path, capsys, verb, key, value, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"version": 1, "scenario": {**LADDER_BASE, key: value}}))
    report = tmp_path / "r.json"
    argv = [verb, str(spec), "--out", str(report)]
    if verb == "scenario":
        argv += ["--emit", str(tmp_path / "emit")]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"parse error: scenario.{key} must be {message}\n"
    assert not report.exists()


def test_integral_floats_read_as_their_integers(tmp_path):
    floats = {"grid_size": 3.0, "label_count": 2.0, "seed": 1.0, "sample_sizes": [40.0, 10.0],
              "hypothesis_cap": 4096.0, "marginal_shift": 0}
    as_ints = {**LADDER_BASE, "sample_sizes": [40, 10], "marginal_shift": 0.0}
    assert emitted_bytes(tmp_path / "a", floats) == emitted_bytes(tmp_path / "b", as_ints)


def set_weight(section, name, *path):
    def corrupt(doc, value):
        block = doc[section][name]
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value

    return corrupt


@pytest.mark.parametrize("value", ["0.3", True], ids=["string", "bool"])
@pytest.mark.parametrize(
    "corrupt, where",
    [
        (set_weight("learning", "tgt", "algorithm", "weight"), "learning.tgt.algorithm.weight"),
        (set_weight("transfer", "param", "penalty_weight"), "transfer.param.penalty_weight"),
        (set_weight("transfer", "inst", "pool_weight"), "transfer.inst.pool_weight"),
    ],
)
def test_a_weight_is_a_json_number(corrupt, where, value):
    doc = json.loads(json.dumps(EVERY_BLOCK))
    corrupt(doc, value)
    with pytest.raises(ParseError) as info:
        parse_document(json.dumps(doc))
    assert str(info.value) == f"{where} must be a number, not {value!r}"


@pytest.mark.parametrize("value", [True, False])
def test_a_bool_probability_is_refused(value):
    measure, conditional = (json.loads(json.dumps(EVERY_BLOCK)) for _ in range(2))
    measure["measures"]["mx"]["probs"][1] = value
    conditional["conditionals"]["post"]["rows"][0][0] = value
    for doc in (measure, conditional):
        with pytest.raises(ParseError) as info:
            parse_document(json.dumps(doc))
        assert str(info.value) == f"bad probability value {value!r}"


def test_numbers_and_decimal_strings_stay_probabilities():
    doc = json.loads(json.dumps(EVERY_BLOCK))
    doc["measures"]["mx"]["probs"] = [0.5, "0.25", 0.25]
    parsed = parse_document(json.dumps(doc))
    assert parsed.measures["mx"].probs == (0.5, 0.25, 0.25)


@pytest.mark.parametrize(
    "literal", ["null", "true", "false", "0", "-1", "1.5", "1e400", "[]", "[1]", "{}", '{"a": [1]}']
)
@pytest.mark.parametrize("section, name", [("datasets", "source_data"), ("packs", "source")])
def test_a_tag_is_a_json_string(section, name, literal):
    """Any other value is refused, ``1e400`` too, which reads as inf and would dump as Infinity."""
    doc = json.loads(json.dumps(EVERY_BLOCK))
    doc[section][name]["tag"] = "@tag@"
    with pytest.raises(ParseError) as info:
        parse_document(json.dumps(doc).replace('"@tag@"', literal))
    assert str(info.value) == f"{section}.{name}.tag must be a string, not {json.loads(literal)!r}"


@pytest.mark.parametrize(
    "thetas", [(1, 2), (10, 9, 2), (0.5, 2.0), (True, False), (None,)], ids=repr
)
def test_theta_names_that_are_not_strings_round_trip(thetas):
    """JSON keys are strings: each θ's row is written and read under its key text."""

    def key(theta):  # θ as the stdlib writes it as an object key
        return next(iter(json.loads(json.dumps({theta: 0}))))

    rows = {theta: [1, 1] if i == 0 else [0, 1] for i, theta in enumerate(thetas)}
    doc = json.loads(json.dumps(EVERY_BLOCK))
    doc["learning"]["lat"].update(thetas=list(thetas), table={key(t): r for t, r in rows.items()})
    parsed = parse_document(json.dumps(doc))
    assert parsed.learning["lat"].theta_set.elements == thetas
    assert parsed.learning["lat"].hypotheses.rows == rows
    text = dump_document(parsed)
    again = parse_document(text)
    assert again.learning["lat"].hypotheses.rows == rows
    assert dump_document(again) == text


@pytest.mark.parametrize(
    "thetas, message",
    [
        (["p", 1, "1"], "learning.lat.thetas: 1 and '1' share the table key '1'"),
        (
            ["p", 1],
            "learning.lat.thetas cannot be put in table key order "
            "('<' not supported between instances of 'int' and 'str')",
        ),
    ],
    ids=["one-key-text", "unordered"],
)
def test_theta_names_a_table_cannot_hold_are_a_parse_error(tmp_path, capsys, thetas, message):
    """Two names with one key text, or names the writer could not sort, exit 2."""
    doc = json.loads(json.dumps(EVERY_BLOCK))
    table = {json.dumps(theta).strip('"'): [0, 1] for theta in thetas}
    doc["learning"]["lat"].update(thetas=thetas, table=table)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path), "--out", str(tmp_path / "v.json")]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"parse error: {message}\n"


# -- hypothesis tables, laid out from their codes ----------------------------------

#: Output atoms: equal across types, strings that need escapes, tuples (empty and
#: nested) and one no encoder takes.
TABLE_ATOMS = (
    True, 1, 1.0, None, 0, 10, 'say "a"', "tab\there\\", "é☃\x00", (), (1, "a"), ((2,), ()),
    frozenset({1}),
)
#: θ names: unsorted, of unequal lengths, needing escapes; numbers, which the encoder
#: converts as keys, and which cannot be sorted with strings.
THETA_NAMES = ("b", "a", "h10", "h9", 'q"', "\\", "ü", 12, 3, 2.5)


def finite_set(name, elements):
    """A ``FiniteSet``, also an empty one, which its constructor refuses but a table may have."""
    if elements:
        return FiniteSet(name, tuple(elements))
    empty = object.__new__(FiniteSet)
    object.__setattr__(empty, "name", name)
    object.__setattr__(empty, "elements", ())
    return empty


def outcome(fn):
    """What ``fn`` returns, or the class of the error it raises."""
    try:
        return fn()
    except Exception as exc:  # the error class is what the writers must agree on
        return type(exc)


@settings(max_examples=400)
@given(st.data())
def test_a_table_is_laid_out_as_the_decode_then_encode_writer_wrote_it(data):
    columns = data.draw(st.permutations(("x0", "x1", "x2")))[: data.draw(st.integers(0, 3))]
    xs = data.draw(st.permutations(columns))[: data.draw(st.integers(0, len(columns)))]
    thetas = data.draw(st.lists(st.sampled_from(THETA_NAMES), max_size=4, unique=True))
    atoms = st.sampled_from(TABLE_ATOMS[: data.draw(st.sampled_from((6, len(TABLE_ATOMS))))])
    hc = HypothesisClass(
        finite_set("T", thetas), columns, {t: [data.draw(atoms) for _ in columns] for t in thetas}
    )
    system = SimpleNamespace(theta_set=hc.theta_set, x_set=finite_set("X", xs), hypotheses=hc)
    table = lambda: _Table(hc.theta_set.elements, hc.codes_over(xs), hc.outputs)

    compact = outcome(lambda: scalar_table_json(system, None))
    assert outcome(lambda: _table_text(table(), None)) == compact
    pieces = []
    assert outcome(lambda: _compact({"t": table(), "n": 1}, pieces) or "".join(pieces)) == (
        compact if isinstance(compact, type) else '{"n":1,"t":' + compact + "}"
    )
    indented = outcome(lambda: scalar_table_json(system, 2))
    assert outcome(lambda: _table_text(table(), 0)) == indented
    nested = outcome(lambda: json_text({"learning": {"s": {"table": table(), "z": 0}}}))
    if isinstance(indented, type):
        assert nested == indented
    else:
        inner = indented.replace("\n", "\n      ")
        assert nested == '{\n  "learning": {\n    "s": {\n      "table": ' + inner + (
            ',\n      "z": 0\n    }\n  }\n}'
        )


def test_codes_over_refuses_what_rows_over_refused():
    theta_set = FiniteSet("T", ("t0", "t1", "t2"))
    hc = HypothesisClass(theta_set, ("a", "b"), {"t0": [0, 1], "t1": [1, 1], "t2": ["z", 0]})
    for xs in (("a", "b"), ("b",), ("b", "a"), ()):
        decoded = [[hc.outputs[c] for c in row] for row in hc.codes_over(xs).tolist()]
        assert decoded == rows_over(hc, xs)
    for xs in (("c",), ("b", "c")):
        with pytest.raises(KeyError, match="'c'"):
            rows_over(hc, xs)
        with pytest.raises(KeyError, match="'c'"):
            hc.codes_over(xs)


def decoded(value):
    """``value`` with each table decoded into ``{θ: outputs}``, as the writer used to hand it on."""
    if isinstance(value, _Table):
        outputs = [[value.outputs[c] for c in row] for row in value.codes.tolist()]
        return dict(zip(value.thetas, outputs))
    if isinstance(value, dict):
        return {key: decoded(member) for key, member in value.items()}
    return value


def test_digest_and_dump_are_the_stdlib_texts_of_the_decoded_document():
    """A string that reads like a table's text is only ever a string: nothing is spliced."""
    block = {**EVERY_BLOCK, "analysis": {**EVERY_BLOCK["analysis"], "note": {"t": '{"a":[0,1,1]}'}}}
    block["sets"] = {**block["sets"], "T": {"elements": ['"table"', '{"a":[0,1,1]}', "\x00"]}}
    doc = parse_document(json.dumps(block))
    plain = decoded(document_dict(doc))
    canonical = json.dumps(plain, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert document_digest(doc) == hashlib.sha256(canonical).hexdigest()
    assert dump_document(doc) == json.dumps(plain, sort_keys=True, indent=2) + "\n"


@pytest.fixture(scope="module")
def grid_12_document():
    with tempfile.TemporaryDirectory() as directory:
        (path,) = emit(directory, {"grid_size": 12, "seed": 0})
        yield load_document(str(path))


def test_a_grid_12_document_is_digested_and_dumped_without_decoding_a_table(
    grid_12_document, monkeypatch
):
    """No table is decoded: no call reads a cell, and no per-row list is made.

    ``document_dict`` holds each 4,096 × 12 table as its codes (a decoded
    table was about 0.7 MB of row lists), and the digest's peak stays far
    below the 5 MB the decode-then-encode writer took.
    """
    doc = grid_12_document
    expected = document_digest(doc), dump_document(doc)
    for name in ("rows", "output"):
        monkeypatch.setattr(HypothesisClass, name, property(lambda hc: pytest.fail("decoded")))
    assert (document_digest(doc), dump_document(doc)) == expected
    peaks = {}
    for f in (document_dict, document_digest):
        gc.collect()
        tracemalloc.start()
        try:
            f(doc)
            peaks[f.__name__] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["document_dict"] <= 0.1e6 and peaks["document_digest"] <= 2e6, peaks
