"""Golden tests of the command-line front end, run in-process."""

import argparse
import contextlib
import copy
import io
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferlab import cli, specio
from transferlab.errors import InvalidSpec
from transferlab.evaluation import SEED_CAP, transferability
from transferlab.scenarios import MAX_HYPOTHESIS_CAP, ScenarioSpec
from transferlab.specio import load_document


def write_json(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return str(path)


def emit(tmp_path, scenario):
    """Emit one pair document from a scenario block; return its path and JSON."""
    spec = write_json(tmp_path / "spec.json", {"version": 1, "scenario": scenario})
    out_dir = tmp_path / "emit"
    rc = cli.main(["scenario", spec, "--emit", str(out_dir), "--out", str(tmp_path / "s.json")])
    assert rc == cli.EXIT_OK
    path = out_dir / "pair_00.json"
    return path, json.loads(path.read_text(encoding="utf-8"))


SMALL = {"grid_size": 3, "label_count": 2, "posterior_flip": 0.2, "seed": 4}


@pytest.mark.parametrize("epsilon_star", ["target-alone", 0.5])
def test_transferability_report_passes_threshold_through(tmp_path, epsilon_star):
    path, doc = emit(tmp_path, SMALL)
    doc["analysis"]["transferability"] = {
        "pack": "target", "universe": ["source", "target"], "role": "target",
        "seeds": 2, "epsilon_star": epsilon_star,
    }
    write_json(path, doc)
    out = tmp_path / "report.json"
    rc = cli.main(["analyze", str(path), "--kind", "transferability", "--seed", "3",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    results = json.loads(out.read_text(encoding="utf-8"))["results"]
    assert results["criterion"]["epsilon_star"] == epsilon_star

    loaded = load_document(str(path))
    target = loaded.packs["target"]
    direct = transferability(
        target, [loaded.packs["source"], target], role="target", epsilon_star=epsilon_star,
        seeds=2, root_seed=3,
    )
    assert results == cli._jsonable(direct)


def test_behavior_signature_reads_packs_with_different_output_sets(tmp_path):
    path, doc = emit(tmp_path, {**SMALL, "label_count": 3, "structural_edit": "truncate_output"})
    results = {}
    for mode in ("raw", "behavior-signature"):
        doc["analysis"]["transferability"] = {
            "pack": "target", "universe": ["source", "target"], "role": "target",
            "seeds": 2, "epsilon_star": 0.5, "equivalence_mode": mode,
        }
        write_json(path, doc)
        out = tmp_path / f"{mode}.json"
        rc = cli.main(["analyze", str(path), "--kind", "transferability", "--out", str(out)])
        assert rc == cli.EXIT_OK
        results[mode] = json.loads(out.read_text(encoding="utf-8"))["results"]
    raw, signature = results["raw"], results["behavior-signature"]
    assert (raw["members"], raw["skipped"]) == ([1], [0])
    assert (signature["members"], signature["skipped"], signature["cardinality"]) == ([1], [0], 1)


@pytest.mark.parametrize("epsilon_star", ["half", None])
def test_transferability_rejects_non_numeric_threshold(tmp_path, epsilon_star):
    path, doc = emit(tmp_path, SMALL)
    doc["analysis"]["transferability"] = {
        "pack": "target", "universe": ["target"], "epsilon_star": epsilon_star,
    }
    write_json(path, doc)
    rc = cli.main(["analyze", str(path), "--kind", "transferability",
                   "--out", str(tmp_path / "report.json")])
    assert rc == cli.EXIT_ANALYSIS


def test_emission_above_default_cap_revalidates(tmp_path):
    # 17^3 = 4913 hypotheses: above the parser's default cap of 4096.
    path, doc = emit(tmp_path, {"grid_size": 3, "label_count": 17, "hypothesis_cap": 4913})
    assert doc["scenario"]["hypothesis_cap"] == 4913
    rc = cli.main(["validate", str(path), "--out", str(tmp_path / "v.json")])
    assert rc == cli.EXIT_OK


def report_into_a_directory(tmp_path, path):
    (tmp_path / "out").mkdir()
    return ["validate", str(path), "--out", str(tmp_path / "out")], tmp_path / "out"


def emit_into_a_file(tmp_path, path):
    (tmp_path / "taken").write_text("", encoding="utf-8")
    spec = write_json(tmp_path / "spec2.json", {"version": 1, "scenario": SMALL})
    argv = ["scenario", spec, "--emit", str(tmp_path / "taken"), "--out", str(tmp_path / "s2.json")]
    return argv, tmp_path / "taken"


def emit_onto_a_directory(tmp_path, path):
    (tmp_path / "emit2" / "pair_00.json").mkdir(parents=True)
    spec = write_json(tmp_path / "spec2.json", {"version": 1, "scenario": SMALL})
    argv = ["scenario", spec, "--emit", str(tmp_path / "emit2"), "--out", str(tmp_path / "s2.json")]
    return argv, tmp_path / "emit2" / "pair_00.json"


@pytest.mark.parametrize(
    "case", [report_into_a_directory, emit_into_a_file, emit_onto_a_directory]
)
def test_an_output_that_cannot_be_written_exits_parse_error(tmp_path, capsys, case):
    path, _ = emit(tmp_path, SMALL)
    argv, target = case(tmp_path, path)
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {target}: ") and err.count("\n") == 1
    assert not (tmp_path / "s2.json").exists()


def test_default_cap_emission_has_no_cap_key(tmp_path):
    path, doc = emit(tmp_path, SMALL)
    assert "hypothesis_cap" not in doc["scenario"]
    rc = cli.main(["validate", str(path), "--out", str(tmp_path / "v.json")])
    assert rc == cli.EXIT_OK


@pytest.mark.parametrize("flags, seed", [(["--seed", "0"], 0), (["--seed", "3"], 3), ([], 7)])
def test_scenario_seed_flag_overrides_the_document_seed(tmp_path, flags, seed):
    spec = write_json(tmp_path / "spec.json", {"version": 1, "scenario": {**SMALL, "seed": 7}})
    out_dir = tmp_path / "emit"
    argv = ["scenario", spec, "--emit", str(out_dir), "--out", str(tmp_path / "s.json")]
    assert cli.main(argv + flags) == cli.EXIT_OK
    doc = json.loads((out_dir / "pair_00.json").read_text(encoding="utf-8"))
    assert doc["scenario"]["seed"] == seed


def test_analyze_without_seed_flag_runs_with_seed_zero(tmp_path):
    path, _ = emit(tmp_path, SMALL)
    reports = []
    for flags in ([], ["--seed", "0"]):
        out = tmp_path / f"report{len(reports)}.json"
        argv = ["analyze", str(path), "--kind", "negative", "--out", str(out)]
        assert cli.main(argv + flags) == cli.EXIT_OK
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["provenance"]["seed"] == 0


PACKS = {"source": "source", "target": "target"}
UNIVERSE = {"pack": "target", "universe": ["source", "target"]}


@pytest.mark.parametrize(
    "kind, config, key",
    [
        ("negative", {**PACKS, "system": "tr"}, "seeds"),
        ("transferability", UNIVERSE, "seeds"),
        ("generalist", UNIVERSE, "shots"),
        ("generalist", UNIVERSE, "required"),
        ("generalist", UNIVERSE, "epsilon_star"),
        ("structures", PACKS, "size_bound"),
        ("structures", PACKS, "epsilon_star"),
    ],
)
def test_unreadable_config_number_exits_analysis_error(tmp_path, capsys, kind, config, key):
    path, doc = emit(tmp_path, SMALL)
    doc["analysis"][kind] = {**config, key: "many"}
    write_json(path, doc)
    rc = cli.main(["analyze", str(path), "--kind", kind, "--out", str(tmp_path / "r.json")])
    assert rc == cli.EXIT_ANALYSIS
    assert f"analysis config {key!r}: 'many'" in capsys.readouterr().err


@pytest.mark.parametrize("config, type_name", [(["tr"], "list"), ("tr", "str"), (3, "int")])
def test_config_that_is_not_an_object_exits_analysis_error(tmp_path, capsys, config, type_name):
    path, doc = emit(tmp_path, SMALL)
    doc["analysis"]["negative"] = config
    write_json(path, doc)
    rc = cli.main(["analyze", str(path), "--kind", "negative", "--out", str(tmp_path / "r.json")])
    assert rc == cli.EXIT_ANALYSIS
    assert capsys.readouterr().err == (
        f"analysis error (negative): analysis.negative must be an object, not {type_name}\n"
    )
    assert not (tmp_path / "r.json").exists()


NEGATIVE = {**PACKS, "system": "tr"}


@pytest.mark.parametrize(
    "kind, config, message",
    [
        ("negative", {**NEGATIVE, "source": ["a"]},
         "analysis needs a resolvable pack reference 'source'"),
        ("distance", {**PACKS, "source": {}},
         "analysis needs a resolvable pack reference 'source'"),
        ("negative", {**NEGATIVE, "system": {}}, "negative needs a transfer system reference"),
        ("bound", {**NEGATIVE, "system": ["tr"]}, "bound needs a transfer system reference"),
        ("transfer", {"system": ["tr"], "data": "target_data"},
         "transfer needs system and data references"),
        ("transfer", {"system": "tr", "data": {"target_data": 1}},
         "transfer needs system and data references"),
        ("distance", {**PACKS, "align": ["tr"]},
         "align must reference a transfer block with latent maps"),
        ("transferability", {**UNIVERSE, "universe": [["source"]]},
         "universe member ['source'] does not resolve"),
        ("transferability", {**UNIVERSE, "universe": 5},
         "analysis needs a non-empty list of pack references"),
        ("generalist", {**UNIVERSE, "pack": {}},
         "analysis needs a resolvable pack reference 'pack'"),
        ("roughness", {"source": ["r"], "target": "r", "morphism": "m"},
         "roughness needs relation reference 'source'"),
        ("roughness", {"source": "r", "target": "r", "morphism": {}},
         "roughness needs a morphism reference"),
    ],
)
def test_unhashable_reference_exits_analysis_error(tmp_path, capsys, kind, config, message):
    path, doc = emit(tmp_path, SMALL)
    inputs, outputs = (doc["learning"]["source_system"][k] for k in ("inputs", "outputs"))
    doc["relations"] = {"r": {"components": [inputs, outputs], "tuples": [], "inputs": [0]}}
    doc["analysis"][kind] = config
    write_json(path, doc)
    capsys.readouterr()
    rc = cli.main(["analyze", str(path), "--kind", kind, "--out", str(tmp_path / "r.json")])
    assert rc == cli.EXIT_ANALYSIS
    assert capsys.readouterr().err == f"analysis error ({kind}): {message}\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("pair", [[["a0"], 0], ["a0", [1]]])
@pytest.mark.parametrize("argv", [["validate"], ["analyze", "--kind", "negative"]])
def test_a_dataset_pair_with_a_list_coordinate_exits_parse_error(tmp_path, capsys, argv, pair):
    """JSON reads a coordinate written as a list as a list, which no set holds: the pack that
    holds the pair refuses it as malformed before anything is fitted."""
    path, doc = emit(tmp_path, SMALL)
    doc["datasets"]["target_data"]["pairs"][0] = pair
    write_json(path, doc)
    capsys.readouterr()
    rc = cli.main([argv[0], str(path), *argv[1:], "--out", str(tmp_path / "r.json")])
    assert rc == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert "unhashable" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("universe", ["source", {"source": 1, "target": 2}, []])
@pytest.mark.parametrize("kind", ["transferability", "generalist"])
def test_universe_must_be_a_list_of_pack_names(tmp_path, capsys, kind, universe):
    path, doc = emit(tmp_path, SMALL)
    doc["analysis"][kind] = {**UNIVERSE, "universe": universe}
    write_json(path, doc)
    capsys.readouterr()
    rc = cli.main(["analyze", str(path), "--kind", kind, "--out", str(tmp_path / "r.json")])
    assert rc == cli.EXIT_ANALYSIS
    assert capsys.readouterr().err == (
        f"analysis error ({kind}): analysis needs a non-empty list of pack references\n"
    )
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "value", [5, None, ["tv"], {"tv": 1}], ids=["int", "null", "list", "object"]
)
@pytest.mark.parametrize("kind, config", [("distance", PACKS), ("bound", NEGATIVE)])
def test_non_string_divergence_kind_exits_analysis_error(tmp_path, capsys, kind, config, value):
    path, doc = emit(tmp_path, SMALL)
    doc["analysis"][kind] = {**config, "kind": value}
    write_json(path, doc)
    capsys.readouterr()
    rc = cli.main(["analyze", str(path), "--kind", kind, "--out", str(tmp_path / "r.json")])
    assert rc == cli.EXIT_ANALYSIS
    assert capsys.readouterr().err == (
        f"analysis error ({kind}): unknown divergence kind {value!r}\n"
    )
    assert not (tmp_path / "r.json").exists()


ANALYSES = {
    "classify": PACKS,
    "distance": {**PACKS, "kind": "hellinger"},
    "transfer": {"system": "tr", "data": "target_data"},
    "negative": {**NEGATIVE, "seeds": 2},
    "bound": NEGATIVE,
    "transferability": {**UNIVERSE, "role": "target", "seeds": 2, "epsilon_star": 0.5},
    "generalist": {**UNIVERSE, "shots": 2, "epsilon_star": 0.5},
    "structures": {**PACKS, "size_bound": 3, "epsilon_star": 0.5},
}


@pytest.mark.parametrize("kind", ["transferability", "generalist"])
def test_a_scan_refuses_feature_representation_transfer(tmp_path, capsys, kind):
    path, doc = emit(tmp_path, SMALL)
    doc["analysis"][kind] = {**ANALYSES[kind], "approach": "feature_representation"}
    write_json(path, doc)
    capsys.readouterr()
    rc = cli.main(["analyze", str(path), "--kind", kind, "--out", str(tmp_path / "r.json")])
    assert rc == cli.EXIT_ANALYSIS
    assert capsys.readouterr().err == (
        f"analysis error ({kind}): a scan cannot build feature_representation transfer: "
        "no pack declares latent maps\n"
    )
    assert not (tmp_path / "r.json").exists()


def test_generalist_skips_a_member_without_a_truth_table(tmp_path):
    path, doc = emit(tmp_path, SMALL)
    doc["analysis"]["generalist"] = ANALYSES["generalist"]
    results = {}
    for name, truth in (("all", doc["packs"]["source"]["truth"]), ("untruthful", None)):
        doc["packs"]["source"]["truth"] = truth
        write_json(path, doc)
        out = tmp_path / f"{name}.json"
        rc = cli.main(["analyze", str(path), "--kind", "generalist", "--out", str(out)])
        assert rc == cli.EXIT_OK
        results[name] = json.loads(out.read_text(encoding="utf-8"))["results"]
    assert [index for index, _ in results["all"]["evidence"]] == [0, 1]
    assert results["untruthful"]["evidence"] == results["all"]["evidence"][1:]
    assert results["untruthful"]["qualifying"] == [1]


def test_every_report_is_the_stdlib_indent_2_form(tmp_path):
    path, doc = emit(tmp_path, {**SMALL, "ladder": [0.0, 0.5]})
    doc["analysis"].update(ANALYSES)
    write_json(path, doc)
    reports = [tmp_path / "s.json"]
    argvs = [["validate", str(path)]]
    argvs += [["analyze", str(path), "--kind", kind, "--seed", "2"] for kind in ANALYSES]
    for index, argv in enumerate(argvs):
        reports.append(tmp_path / f"report{index}.json")
        assert cli.main(argv + ["--out", str(reports[-1])]) == cli.EXIT_OK
    for report in reports:
        text = report.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_in_process_calls_do_not_share_flags(tmp_path, capsys):
    path, doc = emit(tmp_path, SMALL)
    doc["unknown"] = 1
    write_json(path, doc)
    strict_out = tmp_path / "strict.json"
    assert cli.main(["validate", str(path), "--strict", "--out", str(strict_out)]) == cli.EXIT_PARSE
    assert not strict_out.exists()
    capsys.readouterr()
    assert cli.main(["validate", str(path)]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ok"] is True
    assert captured.err == "warning: unknown field(s) ['unknown'] in document root\n"
    assert not strict_out.exists()

    seeded = tmp_path / "seeded.json"
    argv = ["analyze", str(path), "--kind", "negative"]
    assert cli.main(argv + ["--seed", "3", "--out", str(seeded)]) == cli.EXIT_OK
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["provenance"]["seed"] == 0
    assert json.loads(seeded.read_text(encoding="utf-8"))["provenance"]["seed"] == 3


def test_unknown_config_key_warns_and_strict_rejects_it(tmp_path, capsys):
    path, doc = emit(tmp_path, SMALL)
    doc["analysis"]["negative"]["seed"] = 3
    write_json(path, doc)
    report = tmp_path / "r.json"
    warning = "unknown field(s) ['seed'] in analysis.negative"
    capsys.readouterr()
    assert cli.main(["validate", str(path), "--out", str(report)]) == cli.EXIT_OK
    assert capsys.readouterr().err == f"warning: {warning}\n"
    report.unlink()
    for argv in (["validate"], ["analyze", "--kind", "negative"]):
        assert cli.main(argv + [str(path), "--strict", "--out", str(report)]) == cli.EXIT_PARSE
        assert capsys.readouterr().err == f"parse error: {warning}\n"
        assert not report.exists()
    argv = ["analyze", str(path), "--kind", "negative", "--out", str(report)]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().err == f"warning: {warning}\n"


def test_a_table_row_outside_thetas_warns_and_strict_rejects_it(tmp_path, capsys):
    path, doc = emit(tmp_path, SMALL)
    emitted = specio.dump_document(load_document(str(path)))
    table = doc["learning"]["source_system"]["table"]
    table["zz"] = next(iter(table.values()))
    write_json(path, doc)
    warning = "unknown field(s) ['zz'] in learning.source_system.table"
    capsys.readouterr()
    assert specio.dump_document(load_document(str(path))) == emitted
    report = tmp_path / "r.json"
    assert cli.main(["validate", str(path), "--out", str(report)]) == cli.EXIT_OK
    assert capsys.readouterr().err == f"warning: {warning}\n"
    report.unlink()
    assert cli.main(["validate", str(path), "--strict", "--out", str(report)]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"parse error: {warning}\n"
    assert not report.exists()


def test_unknown_analysis_kind_warns(tmp_path, capsys):
    path, doc = emit(tmp_path, SMALL)
    doc["analysis"]["negativ"] = {}
    write_json(path, doc)
    capsys.readouterr()
    assert cli.main(["validate", str(path), "--out", str(tmp_path / "r.json")]) == cli.EXIT_OK
    assert capsys.readouterr().err == "warning: unknown field(s) ['negativ'] in analysis\n"
    assert cli.main(["validate", str(path), "--strict"]) == cli.EXIT_PARSE


@pytest.mark.parametrize("kind, config", [("negative", NEGATIVE), ("transferability", UNIVERSE)])
def test_seeds_above_the_cap_exit_analysis_error(tmp_path, capsys, kind, config):
    path, doc = emit(tmp_path, SMALL)
    doc["analysis"][kind] = {**config, "seeds": SEED_CAP + 1}
    write_json(path, doc)
    capsys.readouterr()
    rc = cli.main(["analyze", str(path), "--kind", kind, "--out", str(tmp_path / "r.json")])
    assert rc == cli.EXIT_ANALYSIS
    assert capsys.readouterr().err == (
        f"analysis error ({kind}): {SEED_CAP + 1} seeds exceed the cap of {SEED_CAP}\n"
    )


@pytest.mark.parametrize(
    "kind, config, message",
    [
        ("transferability", {**UNIVERSE, "seeds": 0},
         "analysis error (transferability): at least one seed is required"),
        ("transferability", {**UNIVERSE, "seeds": -1},
         "analysis error (transferability): at least one seed is required"),
        ("generalist", {**UNIVERSE, "shots": -1},
         "analysis error (generalist): shot budget and required count must be non-negative"),
        ("generalist", {**UNIVERSE, "required": -1},
         "analysis error (generalist): shot budget and required count must be non-negative"),
        ("negative", {**NEGATIVE, "seeds": 2.7},
         "analysis error (negative): analysis config 'seeds': 2.7 is not int"),
        ("negative", {**NEGATIVE, "seeds": True},
         "analysis error (negative): analysis config 'seeds': True is not int"),
        ("structures", {**PACKS, "size_bound": 1.5},
         "analysis error (structures): analysis config 'size_bound': 1.5 is not int"),
        ("negative", {**NEGATIVE, "resample": "false"},
         "analysis error (negative): analysis config 'resample': 'false' is not bool"),
        ("negative", {**NEGATIVE, "resample": 0},
         "analysis error (negative): analysis config 'resample': 0 is not bool"),
    ],
)
def test_counts_and_flags_out_of_range_exit_analysis_error(tmp_path, capsys, kind, config, message):
    path, doc = emit(tmp_path, SMALL)
    doc["analysis"][kind] = config
    write_json(path, doc)
    capsys.readouterr()
    rc = cli.main(["analyze", str(path), "--kind", kind, "--out", str(tmp_path / "r.json")])
    assert rc == cli.EXIT_ANALYSIS
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "kind, config, key",
    [("negative", NEGATIVE, "seeds"), ("transferability", UNIVERSE, "seeds"),
     ("generalist", UNIVERSE, "shots"), ("structures", PACKS, "size_bound")],
)
def test_an_integral_float_count_reads_as_its_integer(tmp_path, kind, config, key):
    path, doc = emit(tmp_path, SMALL)
    results = []
    for value in (2, 2.0):
        doc["analysis"][kind] = {**config, key: value}
        write_json(path, doc)
        out = tmp_path / f"r{len(results)}.json"
        assert cli.main(["analyze", str(path), "--kind", kind, "--out", str(out)]) == cli.EXIT_OK
        results.append(json.loads(out.read_text(encoding="utf-8"))["results"])
    assert results[0] == results[1]


# A config of every analysis kind that runs on the fuzz document; roughness
# runs on the relation and morphism the fixture adds to it.
RUNNING = {**ANALYSES, "roughness": {"source": "r", "target": "r", "morphism": "m"}}
# JSON texts: 1e400 reads as inf, and the 400-digit integer fits no float.
FUZZ_VALUES = [
    "null", "true", "-1", "0", "2", "1.5", "1e400", "1" + "0" * 399, '"x"', "[]", '["source"]', "{}"
]


def with_identity_morphism(doc):
    """``doc`` with the source truth as relation ``r`` and its identity morphism ``m``."""
    system = doc["learning"]["source_system"]
    xs, ys = (doc["sets"][system[key]]["elements"] for key in ("inputs", "outputs"))
    tuples = [[x, y] for x, y in zip(xs, doc["packs"]["source"]["truth"])]
    doc["relations"] = {
        "r": {"components": [system["inputs"], system["outputs"]], "tuples": tuples, "inputs": [0]}
    }
    doc["morphisms"] = {
        "m": {
            "source": "r",
            "target": "r",
            "x_map": [[x, x] for x in xs],
            "y_map": [[y, y] for y in ys],
        }
    }
    return doc


@pytest.fixture(scope="module")
def fuzz_document(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    _, doc = emit(directory, SMALL)
    return directory, with_identity_morphism(doc)


def refuse_constant(name):
    """A ``json.loads`` hook: a report is JSON, so it holds no NaN or Infinity."""
    raise AssertionError(f"the report holds {name}, which is not JSON")


def exit_by_contract(directory, text, verb, *flags):
    """Run ``verb`` on the document ``text``; check the exit contract and return the code."""
    path, report = directory / "fuzz.json", directory / "fuzz-report.json"
    path.write_text(text, encoding="utf-8")
    report.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([verb, str(path), *flags, "--out", str(report)])
    assert rc in (0, 2, 3, 4, 5) and "Traceback" not in err.getvalue()
    assert report.exists() == (rc == cli.EXIT_OK)
    if rc == cli.EXIT_OK:
        json.loads(report.read_text(encoding="utf-8"), parse_constant=refuse_constant)
    return rc


def analyze_with(directory, doc, kind, changes, *flags):
    """Run analyze with ``changes`` (key to JSON text) in the config; check the exit contract."""
    config = {**RUNNING[kind], **{key: f"@{key}@" for key in changes}}
    text = json.dumps({**doc, "analysis": {kind: config}})
    for key, value in changes.items():
        text = text.replace(f'"@{key}@"', value)
    rc = exit_by_contract(directory, text, "analyze", "--kind", kind, *flags)
    if "unknown" in changes and not flags:
        assert analyze_with(directory, doc, kind, changes, "--strict") == cli.EXIT_PARSE
    return rc


#: The fields of each section that hold a list: a string or an object there is
#: malformed, and exits 2, as a non-list table row does.
LIST_FIELDS = {
    "sets": {"elements"},
    "relations": {"components", "tuples", "inputs"},
    "morphisms": {"x_map", "y_map"},
    "measures": {"probs"},
    "conditionals": {"rows"},
    "datasets": {"pairs"},
    "learning": {"thetas"},
    "packs": {"truth"},
}


def test_every_block_field_and_table_row_exits_by_contract(tmp_path):
    _, doc = emit(tmp_path, {**SMALL, "grid_size": 2})
    doc = with_identity_morphism(doc)
    theta = doc["learning"]["source_system"]["thetas"][0]
    fields = [
        (section, name, (key,), key in LIST_FIELDS.get(section, ()))
        for section, (keys, _, _) in specio._SECTIONS.items()
        for name in doc[section]
        for key in keys
    ]
    fields += [("learning", "source_system", ("table", theta), True)]
    fields += [("learning", "source_system", ("algorithm", key), False)
               for key in ("kind", "anchor", "weight")]
    fields += [("transfer", "tr", ("knowledge", key), key == "parameters")
               for key in specio._KNOWLEDGE_KEYS]
    for section, name, (*outer, key), holds_list in fields:
        for value in [*FUZZ_VALUES, '"ab"']:
            changed = copy.deepcopy(doc[section][name])
            (changed[outer[0]] if outer else changed)[key] = "@fuzz@"
            document = {**doc, section: {**doc[section], name: changed}}
            text = json.dumps(document).replace('"@fuzz@"', value)
            rc = exit_by_contract(tmp_path, text, "validate")
            assert rc != cli.EXIT_ANALYSIS, (section, name, outer, key, value)
            if holds_list and value[0] in '"{':
                assert rc == cli.EXIT_PARSE, (section, name, outer, key, value)


# -- pair order -------------------------------------------------------------------------
# A dataset is a multiset, so shuffling the pairs of every dataset in a document leaves
# the results of every analysis byte-equal.  Generalist is exempt: it truncates each
# member's dataset to its first ``shots`` pairs on purpose, so that shot budgets nest,
# which makes the order of the pairs part of its question.

PAIR_ORDER_CASES = [
    *((kind, config) for kind, config in RUNNING.items() if kind != "generalist"),
    *(("transferability", {**ANALYSES["transferability"], "mode": mode})
      for mode in ("structural", "behavioral", "all")),
    ("negative", {**NEGATIVE, "resample": False}),
]


def results_text(directory, doc, kind, config) -> str:
    """The results section of ``analyze --kind <kind>`` on ``doc`` with ``config``."""
    path, out = directory / "doc.json", directory / "report.json"
    write_json(path, {**doc, "analysis": {kind: config}})
    assert cli.main(["analyze", str(path), "--kind", kind, "--out", str(out)]) == cli.EXIT_OK
    return specio.json_text(json.loads(out.read_text(encoding="utf-8"))["results"])


def shuffled_pairs(doc, rng):
    """``doc`` with the pairs of each dataset in a seeded random order."""
    datasets = {
        name: {**block, "pairs": rng.sample(block["pairs"], len(block["pairs"]))}
        for name, block in doc["datasets"].items()
    }
    return {**doc, "datasets": datasets}


@pytest.mark.parametrize("seed", [4, 11, 23])
def test_results_do_not_depend_on_the_order_of_pairs(tmp_path, seed):
    _, doc = emit(tmp_path, {**SMALL, "seed": seed, "label_count": 2 + seed % 2})
    doc = with_identity_morphism(doc)
    # No target truth table: negative transfer holds out half the target data.
    holdout = {**doc, "packs": {**doc["packs"], "target": dict(doc["packs"]["target"])}}
    del holdout["packs"]["target"]["truth"]
    cases = [(doc, *case) for case in PAIR_ORDER_CASES]
    cases.append((holdout, "negative", {**NEGATIVE, "resample": False}))
    rng = random.Random(seed)
    for base, kind, config in cases:
        expected = results_text(tmp_path, base, kind, config)
        if base is holdout:
            assert json.loads(expected)["error_mode"] == "holdout"
        for _ in range(2):
            shuffled = shuffled_pairs(base, rng)
            assert results_text(tmp_path, shuffled, kind, config) == expected, (kind, config)


def test_every_config_key_and_value_exits_by_contract(fuzz_document):
    for kind, keys in specio.ANALYSES.items():
        assert analyze_with(*fuzz_document, kind, {}) == cli.EXIT_OK
        for key in [*keys, "unknown"]:
            for value in FUZZ_VALUES:
                analyze_with(*fuzz_document, kind, {key: value})


config_changes = st.sampled_from(list(specio.ANALYSES)).flatmap(
    lambda kind: st.tuples(
        st.just(kind),
        st.dictionaries(
            st.sampled_from([*specio.ANALYSES[kind], "unknown"]),
            st.sampled_from(FUZZ_VALUES),
            min_size=2,
            max_size=4,
        ),
    )
)


@settings(max_examples=150)
@given(config_changes)
def test_fuzzed_configs_exit_by_contract(fuzz_document, case):
    analyze_with(*fuzz_document, *case)


# -- scenario blocks and seeds ----------------------------------------------------------

SCENARIO_KEYS = [*specio._SCENARIO, "ladder"]


def scenario_exits(directory, changes):
    """Exit codes of validate and scenario on SMALL with ``changes`` (key to JSON text)."""
    text = json.dumps({"version": 1, "scenario": {**SMALL, **{k: f"@{k}@" for k in changes}}})
    for key, value in changes.items():
        text = text.replace(f'"@{key}@"', value)
    path = directory / "scenario-fuzz.json"
    path.write_text(text, encoding="utf-8")
    codes = []
    for verb, flags in (("validate", []), ("scenario", ["--emit", str(directory / "emit")])):
        report = directory / f"{verb}-report.json"
        report.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([verb, str(path), "--out", str(report), *flags])
        assert rc in (0, 2, 3, 4, 5) and "Traceback" not in err.getvalue()
        assert report.exists() == (rc == cli.EXIT_OK)
        codes.append(rc)
    if codes[0] == cli.EXIT_OK:
        assert codes[1] == cli.EXIT_OK
    return codes


def test_every_scenario_key_and_value_exits_by_contract(tmp_path):
    for key in SCENARIO_KEYS:
        for value in FUZZ_VALUES:
            scenario_exits(tmp_path, {key: value})


@settings(max_examples=60)
@given(st.dictionaries(st.sampled_from(SCENARIO_KEYS), st.sampled_from(FUZZ_VALUES),
                       min_size=2, max_size=4))
def test_fuzzed_scenarios_exit_by_contract(tmp_path_factory, changes):
    scenario_exits(tmp_path_factory.mktemp("scenario"), changes)


@pytest.mark.parametrize(
    "changes, code",
    [
        ({"sample_sizes": "[1" + "0" * 399 + ", 10]"}, cli.EXIT_INVARIANT),
        ({"sample_sizes": "[100001, 10]"}, cli.EXIT_INVARIANT),
        ({"seed": "-1"}, cli.EXIT_INVARIANT),
        # Building 3^(3000^2) to compare it with the cap takes seconds.
        ({"grid_size": "3000", "grid_arity": "2", "label_count": "3"}, cli.EXIT_INVARIANT),
    ],
    ids=["400-digit-sample", "sample-above-cap", "negative-seed", "grid-3000-arity-2"],
)
def test_scenario_refusals_are_quick(tmp_path, changes, code):
    started = time.perf_counter()
    assert scenario_exits(tmp_path, changes) == [code, code]
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({"grid_size": 3, "ladder": [0.5, 2]},
         "scenario.ladder: marginal_shift must lie in [0, 1]"),
        # Generation would build 2^29 rows.
        ({"grid_size": 29, "hypothesis_cap": 10**9},
         f"scenario: hypothesis_cap is capped at {MAX_HYPOTHESIS_CAP}"),
    ],
    ids=["ladder-rung-above-1", "cap-above-ceiling"],
)
def test_a_scenario_generation_cannot_run_is_refused_before_writing(
    tmp_path, capsys, scenario, message
):
    spec = write_json(tmp_path / "spec.json", {"version": 1, "scenario": scenario})
    for verb, flags in (("validate", []), ("scenario", ["--emit", str(tmp_path / "emit")])):
        started = time.perf_counter()
        rc = cli.main([verb, spec, "--out", str(tmp_path / "r.json"), *flags])
        assert time.perf_counter() - started < 1.0
        assert rc == cli.EXIT_INVARIANT
        assert capsys.readouterr().err == f"invariant violation: {message}\n"
    assert not (tmp_path / "r.json").exists()
    assert not list(tmp_path.glob("**/pair_*.json"))


def test_the_hypothesis_cap_ceiling_and_the_caps_in_use_are_accepted():
    ScenarioSpec(grid_size=16, hypothesis_cap=MAX_HYPOTHESIS_CAP)
    ScenarioSpec(grid_size=8, label_count=3, hypothesis_cap=6561)
    with pytest.raises(InvalidSpec, match="hypothesis_cap is capped at 65536"):
        ScenarioSpec(grid_size=2, hypothesis_cap=MAX_HYPOTHESIS_CAP + 1)


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["scenario", "--emit", "emit"], ["analyze", "--kind", "negative"]],
    ids=["validate", "scenario", "analyze"],
)
@pytest.mark.parametrize(
    "seed, message",
    [("-5", "the seed must be non-negative, not -5"), ("abc", "invalid int value: 'abc'")],
)
def test_seed_flag_takes_a_non_negative_integer(tmp_path, capsys, argv, seed, message):
    path, _ = emit(tmp_path, SMALL)
    verb, *flags = argv
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        cli.main([verb, str(path), *flags, "--seed", seed, "--out", str(tmp_path / "r.json")])
    assert exit_info.value.code == cli.EXIT_PARSE
    assert capsys.readouterr().err.endswith(f"error: argument --seed: {message}\n")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "kind, config, value, message",
    [
        ("generalist", UNIVERSE, '"0.9"', "analysis config 'epsilon_star': '0.9' is not float"),
        ("generalist", UNIVERSE, "true", "analysis config 'epsilon_star': True is not float"),
        ("structures", PACKS, '"0.5"', "analysis config 'epsilon_star': '0.5' is not float"),
        ("structures", PACKS, "false", "analysis config 'epsilon_star': False is not float"),
        ("transferability", UNIVERSE, "true",
         "epsilon_star True is not a number or 'target-alone'"),
        ("transferability", UNIVERSE, '"0.5"',
         "epsilon_star '0.5' is not a number or 'target-alone'"),
    ],
)
def test_string_or_bool_threshold_exits_analysis_error(tmp_path, capsys, kind, config, value,
                                                       message):
    path, doc = emit(tmp_path, SMALL)
    doc["analysis"][kind] = {**config, "epsilon_star": "@value@"}
    path.write_text(json.dumps(doc).replace('"@value@"', value), encoding="utf-8")
    capsys.readouterr()
    rc = cli.main(["analyze", str(path), "--kind", kind, "--out", str(tmp_path / "r.json")])
    assert rc == cli.EXIT_ANALYSIS
    assert capsys.readouterr().err == f"analysis error ({kind}): {message}\n"
    assert not (tmp_path / "r.json").exists()


def test_a_nan_probability_exits_invariant_violation(tmp_path, capsys):
    path, doc = emit(tmp_path, SMALL)
    doc["measures"]["source_marginal"]["probs"][0] = "nan"
    write_json(path, doc)
    capsys.readouterr()
    assert cli.main(["validate", str(path), "--out", str(tmp_path / "r.json")]) == cli.EXIT_INVARIANT
    assert capsys.readouterr().err == (
        "invariant violation: measures.source_marginal: probabilities must be non-negative numbers\n"
    )


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_a_non_json_constant_exits_parse_error(tmp_path, capsys, constant):
    path, doc = emit(tmp_path, SMALL)
    doc["analysis"]["generalist"] = {**UNIVERSE, "epsilon_star": "@value@"}
    path.write_text(json.dumps(doc).replace('"@value@"', constant), encoding="utf-8")
    capsys.readouterr()
    rc = cli.main(["analyze", str(path), "--kind", "generalist", "--out", str(tmp_path / "r.json")])
    assert rc == cli.EXIT_PARSE
    assert capsys.readouterr().err == (
        f"parse error: invalid JSON: {constant} is not a JSON value\n"
    )


#: Every optional flag of the parser, each with the reason it is there.  A setting
#: that no caller varies is a constant instead, as the tolerance of ``classify`` is.
FLAGS = {
    "--version": "prints the version, as any console script does",
    "--strict": "unknown fields warn by default; a pipeline rejects them",
    "--seed": "reruns a report or a scenario under another root seed",
    "--out": "writes the report to a file instead of stdout",
    "--kind": "picks which analysis block of the document runs",
    "--emit": "names the directory scenario documents are written to",
}


def test_every_flag_is_on_the_allowlist_with_its_reason():
    parsers, flags = [cli._parser()], set()
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
            elif not isinstance(action, argparse._HelpAction):
                flags.update(o for o in action.option_strings if o.startswith("--"))
    assert flags == FLAGS.keys()


def test_the_tolerance_flag_is_unknown(tmp_path, capsys):
    path, _ = emit(tmp_path, SMALL)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["analyze", str(path), "--kind", "classify", "--tolerance", "0.1",
                  "--out", str(tmp_path / "r.json")])
    assert exit_info.value.code == cli.EXIT_PARSE
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --tolerance 0.1\n")
    assert not (tmp_path / "r.json").exists()


# -- transfer reports ------------------------------------------------------------------
# A hand-written document with every approach; each case runs `analyze --kind
# transfer` on one system and one dataset, and the reports are pinned in one golden.

def table_block(thetas, rows, inputs="X", loss="zero_one"):
    return {
        "inputs": inputs, "outputs": "Y", "thetas": thetas, "loss": loss,
        "table": dict(zip(thetas, rows)),
    }


XS, YS = ["x0", "x1", "x2", "x3"], [0, 1]
TO_LATENT = {"x0": "u0", "x1": "u0", "x2": "u1", "x3": "u1"}
SOURCE_TO_LATENT = {"x0": "u1", "x1": "u0", "x2": "u0", "x3": "u0"}
TRANSFER_DOC = {
    "version": 1,
    "sets": {"X": {"elements": XS}, "Y": {"elements": YS}, "U": {"elements": ["u0", "u1"]}},
    "datasets": {
        "source_data": {"pairs": [["x0", 0], ["x1", 1], ["x2", 1], ["x3", 0], ["x1", 1]]},
        "target_data": {"pairs": [["x0", 1], ["x3", 0], ["x0", 1]], "tag": "tgt"},
        "tie_data": {"pairs": [["x0", 0], ["x0", 1]]},
        "empty": {"pairs": []},
    },
    "learning": {
        "src": table_block(["a", "b", "c"], [[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1]]),
        "tgt": table_block(
            ["a", "b", "c", "d", "e"],
            [[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1], [1, 0, 1, 0], [1, 1, 1, 1]],
        ),
        "sq": table_block(
            ["a", "b", "c"], [[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1]], loss="squared"
        ),
        "lat": table_block(["p", "q", "r"], [[0, 1], [1, 1], [1, 0]], inputs="U"),
    },
    "transfer": {
        "inst": {
            "source": "src", "target": "tgt", "approach": "instance",
            "knowledge": {"instances": "source_data"}, "pool_weight": 0.5,
        },
        "param": {
            "source": "src", "target": "tgt", "approach": "parameter",
            "knowledge": {"parameters": ["c"]}, "penalty_weight": 0.3,
        },
        "both": {
            "source": "src", "target": "sq", "approach": "instance_parameter",
            "knowledge": {"instances": "source_data", "parameters": ["b"]},
            "penalty_weight": 0.7, "pool_weight": 2.5,
        },
        "feat": {
            "source": "src", "target": "tgt", "approach": "feature_representation",
            "knowledge": {"instances": "source_data"},
            "latent": {
                "learning": "lat",
                "pair_map_target": [[[x, y], [TO_LATENT[x], y]] for x in XS for y in YS],
                "pair_map_source": [[[x, y], [SOURCE_TO_LATENT[x], y]] for x in XS for y in YS],
                "input_map": list(TO_LATENT.items()),
                "output_map": [[0, 1], [1, 0]],
            },
        },
    },
}
TRANSFER_CASES = [
    (system, data)
    for system in TRANSFER_DOC["transfer"]
    for data in TRANSFER_DOC["datasets"]
    if data != "source_data"
]
TRANSFER_GOLDEN = Path(__file__).parent / "golden" / "transfer_reports.json"


def transfer_reports(directory) -> dict:
    """Each case's ``analyze --kind transfer`` report, keyed ``system.data``, without its path."""
    reports = {}
    for system, data in TRANSFER_CASES:
        doc = {**TRANSFER_DOC, "analysis": {"transfer": {"system": system, "data": data}}}
        path, out = directory / f"{system}.{data}.json", directory / "report.json"
        write_json(path, doc)
        assert cli.main(["analyze", str(path), "--kind", "transfer", "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        del report["command"]["path"]
        reports[f"{system}.{data}"] = report
    return reports


def test_every_approach_reports_its_transfer_golden(tmp_path):
    reports = transfer_reports(tmp_path)
    assert reports["param.empty"]["results"]["objective"] == {}
    assert reports["param.empty"]["results"]["zero_shot"] is True
    assert reports["both.empty"]["results"]["n_target"] == 0
    assert specio.json_text(reports) + "\n" == TRANSFER_GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "verb, block, key, value, message",
    [
        ("analyze", "inst", "pool_weight", "1e400",
         "transfer.inst: pool weight inf is not finite and positive"),
        ("analyze", "inst", "pool_weight", "0",
         "transfer.inst: pool weight 0.0 is not finite and positive"),
        ("validate", "param", "penalty_weight", "-1",
         "transfer.param: penalty weight -1.0 is not finite and non-negative"),
        ("validate", "param", "penalty_weight", "1e400",
         "transfer.param: penalty weight inf is not finite and non-negative"),
    ],
)
def test_a_weight_out_of_range_exits_invariant_violation(tmp_path, capsys, verb, block, key,
                                                         value, message):
    doc = {**TRANSFER_DOC, "analysis": {"transfer": {"system": "inst", "data": "target_data"}}}
    doc["transfer"] = {**doc["transfer"], block: {**doc["transfer"][block], key: "@weight@"}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace('"@weight@"', value), encoding="utf-8")
    capsys.readouterr()
    flags = ["--kind", "transfer"] if verb == "analyze" else []
    rc = cli.main([verb, str(path), *flags, "--out", str(tmp_path / "r.json")])
    assert rc == cli.EXIT_INVARIANT
    assert capsys.readouterr().err == f"invariant violation: {message}\n"


@pytest.mark.parametrize(
    "block, piece, message",
    [
        ("inst", {"parameters": ["a"]}, "instance transfer does not consume a source parameter"),
        ("param", {"instances": "source_data"},
         "parameter transfer does not consume source instances"),
        ("feat", {"parameters": ["a"]},
         "feature_representation transfer does not consume a source parameter"),
    ],
)
def test_a_knowledge_piece_the_rule_does_not_consume_exits_invariant_violation(
    tmp_path, capsys, block, piece, message
):
    assert_knowledge_refused(tmp_path, capsys, block, piece, message)


@pytest.mark.parametrize("block", ["param", "both"])
def test_knowledge_with_two_parameters_exits_invariant_violation(tmp_path, capsys, block):
    message = "knowledge parameters hold one source parameter, not 2"
    assert_knowledge_refused(tmp_path, capsys, block, {"parameters": ["a", "c"]}, message)


def assert_knowledge_refused(tmp_path, capsys, block, piece, message):
    """Both verbs exit 4 with ``message`` once ``piece`` joins the knowledge of ``block``."""
    transfer = TRANSFER_DOC["transfer"][block]
    knowledge = {**transfer["knowledge"], **piece}
    doc = {**TRANSFER_DOC, "analysis": {"transfer": {"system": block, "data": "target_data"}}}
    doc["transfer"] = {**doc["transfer"], block: {**transfer, "knowledge": knowledge}}
    path = write_json(tmp_path / "doc.json", doc)
    for verb, flags in (("validate", []), ("analyze", ["--kind", "transfer"])):
        capsys.readouterr()
        rc = cli.main([verb, path, *flags, "--out", str(tmp_path / "r.json")])
        assert rc == cli.EXIT_INVARIANT
        assert capsys.readouterr().err == f"invariant violation: transfer.{block}: {message}\n"
        assert not (tmp_path / "r.json").exists()


def analyze_with_an_infinite_threshold(tmp_path, capsys, kind, config):
    """Exit code and stderr of ``analyze`` with the kind's ``epsilon_star`` 1e400, inf in JSON."""
    path, doc = emit(tmp_path, SMALL)
    doc["analysis"][kind] = {**config, "epsilon_star": "@eps@"}
    path.write_text(json.dumps(doc).replace('"@eps@"', "1e400"), encoding="utf-8")
    capsys.readouterr()
    rc = cli.main(["analyze", str(path), "--kind", kind, "--out", str(tmp_path / "r.json")])
    return rc, capsys.readouterr().err


def test_an_infinite_transferability_threshold_exits_analysis_error(tmp_path, capsys):
    assert analyze_with_an_infinite_threshold(tmp_path, capsys, "transferability", UNIVERSE) == (
        cli.EXIT_ANALYSIS, "analysis error (transferability): epsilon_star inf is not finite\n"
    )


@pytest.mark.parametrize(
    "kind, config",
    [
        pytest.param("generalist", UNIVERSE, id="generalist"),
        pytest.param("structures", PACKS, id="structures"),
    ],
)
def test_an_infinite_generalist_or_structures_threshold_exits_analysis_error(
    tmp_path, capsys, kind, config
):
    # A plain and an optional number, read through the finiteness test of transferability's.
    assert analyze_with_an_infinite_threshold(tmp_path, capsys, kind, config) == (
        cli.EXIT_ANALYSIS, f"analysis error ({kind}): epsilon_star inf is not finite\n"
    )


# -- roughness reports -------------------------------------------------------------------
# A three-input relation collapsed onto a two-input one; the report, with its
# constant ``direction`` key, is pinned byte for byte.

ROUGHNESS_DOC = {
    "version": 1,
    "sets": {
        "X": {"elements": ["a", "b", "c"]}, "Y": {"elements": [0, 1]},
        "Z": {"elements": ["u", "v"]},
    },
    "relations": {
        "r": {"components": ["X", "Y"], "tuples": [["a", 0], ["b", 1], ["c", 1]], "inputs": [0]},
        "q": {"components": ["Z", "Y"], "tuples": [["u", 0], ["v", 1]], "inputs": [0]},
    },
    "morphisms": {
        "m": {
            "source": "r", "target": "q", "x_map": [["a", "u"], ["b", "v"], ["c", "v"]],
            "y_map": [[0, 0], [1, 1]],
        },
    },
    "analysis": {"roughness": {"source": "r", "target": "q", "morphism": "m"}},
}
ROUGHNESS_GOLDEN = Path(__file__).parent / "golden" / "roughness_report.json"


def test_a_roughness_report_keeps_its_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report names the document by the path it was given
    write_json(tmp_path / "roughness.json", ROUGHNESS_DOC)
    argv = ["analyze", "roughness.json", "--kind", "roughness", "--out", "report.json"]
    assert cli.main(argv) == cli.EXIT_OK
    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert json.loads(text)["results"]["direction"] == "source->target"
    assert text == ROUGHNESS_GOLDEN.read_text(encoding="utf-8")
