import math

import pytest

from transferlab.behavioral import (
    behavioral_transferability,
    bound_check,
    finite_class_complexity,
    transfer_distance,
)
from transferlab.errors import HeterogeneousSetting, SupportMismatch
from transferlab.learning import (
    Dataset,
    EvaluationContext,
    HypothesisClass,
    LearningSystem,
    SystemPack,
    full_function_class,
)
from transferlab.measures import ConditionalMeasure, EmpiricalMeasure, total_variation
from transferlab.relations import FiniteSet
from transferlab.scenarios import ScenarioSpec, generate_pair, shift_ladder
from transferlab.transfer import FeatureRepSpec, Knowledge, TransferSystem


def pack_from(truths, marginal, tag, data=(), y_elements=(0, 1), x_name=None):
    xs = tuple(truths.keys())
    x_set = FiniteSet(x_name or f"{tag}_x", xs)
    y_set = FiniteSet(f"{tag}_y", y_elements)
    system = LearningSystem(x_set, y_set, full_function_class(x_set, y_set))
    rows = {}
    for x in xs:
        probs = [0.0] * len(y_set)
        probs[y_set.index(truths[x])] = 1.0
        rows[x] = EmpiricalMeasure(y_set, tuple(probs))
    return SystemPack(
        system,
        Dataset(tuple(data), tag),
        EmpiricalMeasure(x_set, tuple(marginal)),
        ConditionalMeasure(x_set, rows),
        truths,
        tag,
    )


class TestTransferDistance:
    def test_identical_packs_are_zero(self):
        truths = {"a": 0, "b": 1}
        p = pack_from(truths, (0.5, 0.5), "s")
        q = pack_from(truths, (0.5, 0.5), "t")
        for on in ("x", "xy", "y_given_x"):
            for kind in ("tv", "kl", "hellinger", "mmd"):
                assert transfer_distance(p, q, on, kind) <= 1e-12
        assert transfer_distance(p, q, "y", "w1") <= 1e-12  # labels are numeric

    def test_scenario_shift_matches_analytic(self):
        source, target, facts = generate_pair(
            ScenarioSpec(grid_size=5, marginal_shift=0.5, sample_sizes=(10, 5), seed=3)
        )
        assert transfer_distance(source, target, "x", "tv") == pytest.approx(
            facts.analytic_tv_x, abs=1e-9
        )

    def test_disjoint_supports_raise(self):
        p = pack_from({"a": 0, "b": 1}, (0.5, 0.5), "s")
        q = pack_from({"u": 0, "v": 1}, (0.5, 0.5), "t")
        with pytest.raises(SupportMismatch):
            transfer_distance(p, q, "x", "tv")

    def test_conditional_distance_mixes_under_target_marginal(self):
        xs = ("a", "b")
        p = pack_from({"a": 0, "b": 1}, (0.5, 0.5), "s", x_name="X")
        q = pack_from({"a": 1, "b": 1}, (0.25, 0.75), "t", x_name="X")
        # rows differ only at "a" (point mass at 0 vs at 1): TV = 1 there
        expected = 0.25 * 1.0 + 0.75 * 0.0
        assert transfer_distance(p, q, "y_given_x", "tv") == pytest.approx(expected)

    def test_alignment_reconciles_supports(self):
        p = pack_from({"a": 0, "b": 1}, (0.5, 0.5), "s")
        q = pack_from({"u": 0, "v": 1}, (0.5, 0.5), "t")
        latent = LearningSystem(
            FiniteSet("L", ("l0", "l1")),
            FiniteSet("LY", (0, 1)),
            full_function_class(FiniteSet("L", ("l0", "l1")), FiniteSet("LY", (0, 1))),
        )
        spec = FeatureRepSpec(
            latent,
            pair_map_target={
                ("u", 0): ("l0", 0), ("u", 1): ("l0", 1),
                ("v", 0): ("l1", 0), ("v", 1): ("l1", 1),
            },
            pair_map_source={
                ("a", 0): ("l0", 0), ("a", 1): ("l0", 1),
                ("b", 0): ("l1", 0), ("b", 1): ("l1", 1),
            },
            input_map={"u": "l0", "v": "l1"},
            output_map={0: 0, 1: 1},
        )
        assert transfer_distance(p, q, "xy", "tv", align=spec) <= 1e-12


class TestBoundCheck:
    def _fixture(self, seed=5):
        source, target, _ = generate_pair(
            ScenarioSpec(grid_size=6, sample_sizes=(40, 10), seed=seed)
        )
        ts = TransferSystem(
            source.system, target.system,
            Knowledge(instances=source.dataset), "instance",
        )
        return source, target, ts

    def test_identical_pair_bound_holds(self):
        source, target, ts = self._fixture()
        report = bound_check(
            ts, source.dataset, target.dataset,
            EvaluationContext(source.truth), EvaluationContext(target.truth),
            source_weight=source.marginal, target_weight=target.marginal,
        )
        assert report.holds
        assert report.delta_t == pytest.approx(
            total_variation(
                # estimated marginals, not declared ones
                *(
                    __import__("transferlab.measures", fromlist=["estimate_measure"]).estimate_measure(
                        d, "x", 1e-9, source.system.x_set
                    )
                    for d in (source.dataset, target.dataset)
                )
            ),
            abs=1e-12,
        )
        assert report.epsilon_s >= 0 and report.epsilon_t >= 0 and report.complexity_c > 0

    def test_single_hypothesis_complexity_formula(self):
        x = FiniteSet("X", ("a",))
        y = FiniteSet("Y", (0, 1))
        hc = HypothesisClass(FiniteSet("T", ("t0",)), ("a",), {"t0": (0,)})
        sys = LearningSystem(x, y, hc)
        ts = TransferSystem(
            sys, sys, Knowledge(instances=Dataset((("a", 0),), "s")), "instance"
        )
        report = bound_check(
            ts, Dataset((("a", 0),) * 3, "s"), Dataset((("a", 0),) * 2, "t"),
            EvaluationContext({"a": 0}), EvaluationContext({"a": 0}),
        )
        n = 5
        assert report.complexity_c == pytest.approx(
            math.sqrt(math.log(1 / 0.05) / (2 * n))
        )
        assert "ln(1" in report.complexity_formula

    def test_heterogeneous_raises(self):
        source, target, _ = generate_pair(
            ScenarioSpec(
                grid_size=2, grid_arity=2, structural_edit="drop_input",
                sample_sizes=(10, 5), seed=2,
            )
        )
        ts = TransferSystem(
            source.system, target.system,
            Knowledge(instances=source.dataset), "instance",
        )
        with pytest.raises(HeterogeneousSetting):
            bound_check(
                ts, source.dataset, target.dataset,
                EvaluationContext(source.truth), EvaluationContext(target.truth),
            )

    def test_violations_reported_not_raised(self):
        # an adversarial source can break the decomposition; the report
        # records it instead of failing
        source, target, _ = generate_pair(
            ScenarioSpec(grid_size=4, posterior_flip=1.0, sample_sizes=(60, 2), seed=9)
        )
        ts = TransferSystem(
            source.system, target.system,
            Knowledge(instances=source.dataset), "instance",
        )
        report = bound_check(
            ts, source.dataset, target.dataset,
            EvaluationContext(source.truth), EvaluationContext(target.truth),
            source_weight=source.marginal, target_weight=target.marginal,
        )
        assert report.holds is (
            report.epsilon_t <= report.epsilon_s + report.delta_t + report.complexity_c
        )


class TestBehavioralTransferability:
    def test_identical_copy_counts(self):
        truths = {"a": 0, "b": 1}
        pack = pack_from(truths, (0.5, 0.5), "p", x_name="X")
        copy = pack_from(truths, (0.5, 0.5), "c", x_name="X")
        report = behavioral_transferability(pack, [copy], "source", 0.5, "distance")
        assert report.cardinality == 1

    def test_ladder_threshold_counts_match_direct_deltas(self):
        alphas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        ladder = shift_ladder(
            ScenarioSpec(grid_size=6, sample_sizes=(10, 5), seed=21), alphas
        )
        base_target = ladder[0][1]
        sources = [entry[0] for entry in ladder]
        delta_star = transfer_distance(sources[3], base_target, "x", "tv")
        report = behavioral_transferability(
            base_target, sources, "target", delta_star, "distance"
        )
        direct = [
            i
            for i, src in enumerate(sources)
            if transfer_distance(src, base_target, "x", "tv") < delta_star
        ]
        assert list(report.members) == direct
        assert report.cardinality == len(direct) == 3

    def test_empty_universe(self):
        pack = pack_from({"a": 0, "b": 1}, (0.5, 0.5), "p")
        report = behavioral_transferability(pack, [], "source", 1.0)
        assert report.cardinality == 0

    def test_heterogeneous_members_skipped(self):
        pack = pack_from({"a": 0, "b": 1}, (0.5, 0.5), "p")
        alien = pack_from({"u": 0, "v": 1, "w": 0}, (0.4, 0.3, 0.3), "alien")
        report = behavioral_transferability(pack, [alien], "source", 10.0)
        assert report.skipped == (0,)
        assert report.cardinality == 0

    def test_bound_mode_uses_source_error_and_complexity(self):
        source, target, _ = generate_pair(
            ScenarioSpec(grid_size=4, sample_sizes=(30, 10), seed=6)
        )
        report = behavioral_transferability(source, [target], "source", 10.0, "bound")
        assert report.cardinality == 1
        assert report.values[0] > 0  # complexity term alone is positive


def test_complexity_term_decreases_with_samples():
    assert finite_class_complexity(16, 100) < finite_class_complexity(16, 10)
