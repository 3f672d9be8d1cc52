"""Transferability and negative-transfer reports: reproducible, indices that follow the universe.

Permutation-equivariance is checked in structural mode only: empirical
mode keys each member's randomness by its index, so permuting the
universe reseeds the members.
"""

import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import binary_pack
from transferlab import cli
from transferlab.behavioral import behavioral_transferability
from transferlab.errors import CapExceeded, MissingMeasure, ValidationError
from transferlab.evaluation import (
    SEED_CAP,
    SIGNATURE_TAU,
    NeighborhoodReport,
    _signature_clusters,
    build_transfer_system,
    detect_negative_transfer,
    is_generalist,
    transferability,
)
from transferlab.measures import ConditionalMeasure
from transferlab.relations import FiniteSet
from transferlab.specio import json_text
from transferlab.structural import structural_transferability

TRUTH = {"a": 0, "b": 1, "c": 0, "d": 1}
# The pack's data disagrees with its truth on c and d, so the shared
# structures generalize with different, mostly non-zero, target errors.
PACK = binary_pack(TRUTH, data=[("a", 0), ("b", 1), ("c", 1), ("d", 0), ("c", 1)], tag="p")
UNIVERSE = (
    binary_pack(TRUTH, data=[("a", 0)], tag="m0"),
    binary_pack(
        {"a": 0, "b": 1, "c": 1, "d": 1}, marginal=(0.1, 0.2, 0.3, 0.4), data=[("b", 1)],
        tag="m1",
    ),
    binary_pack({"a": 0, "b": 0, "c": 0, "d": 1}, tag="m2"),
    binary_pack({"u": 0, "v": 1, "w": 1}, marginal=(0.5, 0.25, 0.25), data=[("u", 0)], tag="m3"),
    binary_pack(
        {"u": 0, "v": 1, "w": 2}, data=[("u", 0), ("v", 1), ("w", 2)], tag="m4",
        y_elements=(0, 1, 2),
    ),
)
CASES = [("source", 0.5), ("target", 0.3)]
STRIPPED = dataclasses.replace(UNIVERSE[0], marginal=None, posterior=None)  # declares no measures
TWIN = dataclasses.replace(UNIVERSE[1], tag="m1-twin")


def structural(universe, role, epsilon_star):
    return transferability(
        PACK, universe, role, epsilon_star, mode="structural", size_bound=3
    )


@pytest.mark.parametrize("role, epsilon_star", CASES)
def test_best_errors_differ(role, epsilon_star):
    report = structural(UNIVERSE, role, epsilon_star)
    assert isinstance(report, NeighborhoodReport)
    assert 0 < report.cardinality < len(UNIVERSE)
    assert len(set(report.values.values())) > 1
    assert any(error > 0 for error in report.values.values())


@pytest.mark.parametrize("role, epsilon_star", CASES)
def test_rerun_gives_an_identical_report(role, epsilon_star):
    first = structural(UNIVERSE, role, epsilon_star)
    again = structural(UNIVERSE, role, epsilon_star)
    assert again == first
    assert repr(again) == repr(first)

    direct = structural_transferability(PACK, UNIVERSE, role, epsilon_star, size_bound=3)
    assert structural_transferability(PACK, UNIVERSE, role, epsilon_star, size_bound=3) == direct
    assert (direct.members, dict(direct.values)) == (first.members, first.values)


@settings(max_examples=8, deadline=None)
@given(st.permutations(range(len(UNIVERSE))), st.sampled_from(CASES))
def test_permuting_the_universe_permutes_members_and_errors(order, case):
    role, epsilon_star = case
    base = structural(UNIVERSE, role, epsilon_star)
    permuted = structural([UNIVERSE[i] for i in order], role, epsilon_star)
    # Position j of the permuted universe holds member order[j].
    assert permuted.members == tuple(j for j, i in enumerate(order) if i in base.members)
    assert permuted.values == {j: base.values[i] for j, i in enumerate(order) if i in base.values}
    assert permuted.cardinality == base.cardinality


MODES = ("empirical", "structural", "behavioral")
GOLDEN = Path(__file__).parent / "golden" / "transferability.json"


def every_mode(role, epsilon_star, mode):
    # Role target keeps the distance mode the golden was recorded with: bound
    # mode skips member m2, which has no data to train as a source (next test).
    return transferability(
        PACK, UNIVERSE, role, epsilon_star, mode=mode, seeds=3, root_seed=11, size_bound=3,
        behavioral_mode="bound" if role == "source" else "distance",
    )


def test_every_mode_and_role_reports_its_golden():
    reports = {
        f"{role}.{mode}": cli._jsonable(every_mode(role, epsilon_star, mode))
        for role, epsilon_star in CASES
        for mode in (*MODES, "all")
    }
    assert json_text(reports) + "\n" == GOLDEN.read_text(encoding="utf-8")


def test_bound_mode_skips_a_source_it_cannot_train():
    report = behavioral_transferability(PACK, UNIVERSE, "target", 10.0, "bound")
    assert report.skipped == (2, 3, 4)  # m2 has no data; m3 and m4 are heterogeneous
    assert report.members == (0, 1) and set(report.values) == {0, 1}


@pytest.mark.parametrize("behavioral_mode", ["distance", "bound"])
def test_behavioral_modes_skip_a_member_without_measures(behavioral_mode):
    report = transferability(
        PACK, (STRIPPED, *UNIVERSE[1:]), "source", 0.5,
        mode="behavioral", behavioral_mode=behavioral_mode,
    )
    assert report.skipped == (0, 3, 4)  # m3 and m4 are heterogeneous
    assert set(report.values) == {1, 2}


def test_structural_mode_skips_a_member_without_a_truth_table():
    universe = (dataclasses.replace(UNIVERSE[1], truth=None), *UNIVERSE[1:3])
    report = structural_transferability(PACK, universe, "source", 0.5)
    assert report.skipped == (0,)
    assert report.members == (1, 2) and set(report.values) == {1, 2}


class Unread(list):
    """A universe that fails the test when a scan starts reading its members."""

    def __iter__(self):
        raise AssertionError("a member was judged before the arguments were checked")


@pytest.mark.parametrize(
    "arguments, error, message",
    [
        ({"equivalence_mode": "classes"}, ValidationError, "unknown equivalence mode 'classes'"),
        ({"mode": "structural", "size_bound": 5}, CapExceeded, "capped at 4-element carriers"),
        ({"size_bound": 5}, CapExceeded, "capped at 4-element carriers"),
        ({"mode": "all", "epsilon_star": "target-alone"}, ValidationError,
         "all mode cannot take the threshold 'target-alone'"),
        ({"epsilon_star": "half"}, ValidationError, "empirical mode cannot take the threshold 'half'"),
        ({"mode": "all", "behavioral_mode": "sideways"}, ValidationError,
         "mode must be distance or bound, got 'sideways'"),
        ({"mode": "all", "seeds": SEED_CAP + 1}, CapExceeded, "seeds exceed the cap"),
        ({"approach": "osmosis"}, ValidationError, "unknown transfer approach 'osmosis'"),
        *(
            ({"mode": mode, "approach": "feature_representation"}, ValidationError,
             "a scan cannot build feature_representation transfer")
            for mode in (*MODES, "all")
        ),
    ],
)
def test_arguments_are_refused_before_any_member_is_judged(arguments, error, message):
    with pytest.raises(error, match=message):
        transferability(PACK, Unread(UNIVERSE), "source", **{"epsilon_star": 0.5, **arguments})


@pytest.mark.parametrize(
    "approach, message",
    [
        ("osmosis", "unknown transfer approach 'osmosis'"),
        ("feature_representation", "a scan cannot build feature_representation transfer"),
    ],
)
def test_generalist_refuses_an_approach_before_any_member_is_judged(approach, message):
    with pytest.raises(ValidationError, match=message):
        is_generalist(PACK, Unread(UNIVERSE), 2, 1, 0.5, approach=approach)


def test_behavior_signature_counts_identical_packs_as_one_class():
    raw, signature = (
        transferability(
            PACK, (UNIVERSE[1], TWIN), "target", math.inf, seeds=2,
            equivalence_mode=equivalence_mode,
        )
        for equivalence_mode in ("raw", "behavior-signature")
    )
    assert signature.members == raw.members == (0, 1)
    assert (raw.cardinality, signature.cardinality) == (2, 1)
    assert (raw.criterion["tau"], signature.criterion["tau"]) == (None, SIGNATURE_TAU)


def test_behavior_signature_puts_a_member_without_measures_in_a_class_of_its_own():
    report = transferability(
        PACK, (STRIPPED, UNIVERSE[1], TWIN), "target", math.inf, seeds=2,
        equivalence_mode="behavior-signature",
    )
    assert report.skipped == (0,)  # resampling it needs the measures it lacks
    assert report.members == (1, 2) and report.cardinality == 1
    # Never a representative: neither the twin nor a second copy joins its class.
    assert _signature_clusters((STRIPPED, UNIVERSE[1], STRIPPED, TWIN), SIGNATURE_TAU) == [
        0, 1, 2, 1
    ]


def test_behavior_signature_never_matches_packs_declared_over_other_sets():
    wider = binary_pack(TRUTH, tag="m0-wider", y_elements=(0, 1, 2))  # one more output
    rows = {x: UNIVERSE[0].posterior.row(x) for x in "abc"}
    narrower = dataclasses.replace(  # a posterior given on fewer inputs than its marginal
        UNIVERSE[0], posterior=ConditionalMeasure(FiniteSet("abc", tuple("abc")), rows)
    )
    assert _signature_clusters((UNIVERSE[0], wider), SIGNATURE_TAU) == [0, 1]
    assert _signature_clusters((UNIVERSE[0], narrower), SIGNATURE_TAU) == [0, 1]
    assert _signature_clusters((narrower, UNIVERSE[0]), SIGNATURE_TAU) == [0, 1]
    raw, signature = (
        transferability(
            PACK, (UNIVERSE[0], wider), "target", math.inf, seeds=2,
            equivalence_mode=equivalence_mode,
        )
        for equivalence_mode in ("raw", "behavior-signature")
    )
    assert signature.members == raw.members == (0, 1)
    assert signature.cardinality == raw.cardinality == 2


@pytest.mark.parametrize("role, epsilon_star", CASES)
def test_all_mode_is_the_three_single_mode_reports(role, epsilon_star):
    assert every_mode(role, epsilon_star, "all") == {
        mode: every_mode(role, epsilon_star, mode) for mode in MODES
    }


def test_structural_mode_scores_against_an_explicit_threshold():
    report = transferability(PACK, UNIVERSE, "source", 0, mode="structural")
    assert report.members == ()
    assert repr(report.criterion) == repr({"epsilon_star": 0.0, "size_bound": 3})


def assert_rerun_identical(run):
    first, again = run(), run()
    assert again == first
    assert repr(again) == repr(first)
    return first


@pytest.mark.parametrize("role, epsilon_star", CASES + [("source", "target-alone")])
def test_empirical_transferability_rerun_is_identical(role, epsilon_star):
    report = assert_rerun_identical(lambda: transferability(
        PACK, UNIVERSE, role, epsilon_star, mode="empirical", seeds=3, root_seed=11,
    ))
    assert report.mode == "empirical" and report.values


@pytest.mark.parametrize("holdout", [False, True])
def test_negative_transfer_rerun_is_identical(holdout):
    source = UNIVERSE[1]
    target = dataclasses.replace(PACK, truth=None) if holdout else PACK  # held out: half the data
    ts = build_transfer_system(source, target, "instance")
    outcome = assert_rerun_identical(
        lambda: detect_negative_transfer(source, target, ts, seeds=4, root_key=(11,))
    )
    assert outcome.error_mode == ("holdout" if holdout else "truth-table")
    assert len(outcome.per_seed_with) == 4


def test_generalist_rerun_is_identical():
    report = assert_rerun_identical(
        lambda: is_generalist(PACK, UNIVERSE[:3], 2, 1, 0.5)
    )
    assert set(report.evidence) == {0, 1, 2}


def test_generalist_leaves_out_skipped_members_and_refuses_one_without_a_truth_table():
    report = is_generalist(PACK, UNIVERSE, 2, 1, 0.5)
    assert set(report.evidence) == {0, 1, 2}  # m3 and m4 are heterogeneous
    untruthful = (UNIVERSE[0], dataclasses.replace(UNIVERSE[1], truth=None))
    with pytest.raises(MissingMeasure, match="universe member 1 declares no truth table"):
        is_generalist(PACK, untruthful, 2, 1, 0.5)


def test_seeds_above_the_cap_are_refused():
    target = UNIVERSE[0]
    ts = build_transfer_system(PACK, target)
    with pytest.raises(CapExceeded):
        detect_negative_transfer(PACK, target, ts, seeds=SEED_CAP + 1)
    with pytest.raises(CapExceeded):
        transferability(PACK, UNIVERSE, "source", 0.5, seeds=10**400)


@pytest.mark.parametrize(
    "scan",
    [
        lambda role: transferability(PACK, [], role, 0.5),
        lambda role: structural_transferability(PACK, [], role, 0.5),
        lambda role: behavioral_transferability(PACK, [], role, 0.5),
    ],
    ids=["transferability", "structural", "behavioral"],
)
def test_a_bad_role_is_refused_even_on_an_empty_universe(scan):
    assert scan("source").members == ()
    with pytest.raises(ValidationError, match="role must be source or target, got 'both'"):
        scan("both")


@pytest.mark.parametrize("seeds", [0, -1])
def test_seeds_below_one_are_refused_not_skipped(seeds):
    with pytest.raises(ValidationError, match="at least one seed is required"):
        transferability(PACK, UNIVERSE, "source", 0.5, seeds=seeds)


@pytest.mark.parametrize("n, t", [(-1, 1), (1, -1)])
def test_negative_shot_budget_or_required_count_is_refused(n, t):
    with pytest.raises(ValidationError, match="must be non-negative"):
        is_generalist(PACK, UNIVERSE[:1], n, t, 0.5)


def test_zero_shots_and_zero_required_still_run():
    report = is_generalist(PACK, UNIVERSE[:2], 0, 0, 0.5)
    assert report.is_generalist and report.shot_budget == 0 and report.required == 0
