import dataclasses

import numpy as np
import pytest

from helpers import binary_pack, latent_path_prediction, random_dataset, random_learning_system
from transferlab.errors import (
    IncompatibleSupport,
    MissingMeasure,
    MissingSourceArtifact,
    UnknownElement,
    ValidationError,
)
from transferlab.evaluation import build_transfer_system
from transferlab.learning import (
    Dataset,
    EvaluationContext,
    HypothesisClass,
    LearningSystem,
    SystemPack,
    full_function_class,
    prediction_error,
    run_algorithm,
)
from transferlab.measures import ConditionalMeasure, EmpiricalMeasure
from transferlab.relations import FiniteSet, FiniteSystem
from transferlab.transfer import (
    APPROACHES,
    CONSUMES,
    FeatureRepSpec,
    Knowledge,
    TransferSystem,
    classify_approach,
    classify_setting,
    n_shot,
    pool_data,
    run_transfer,
    select_knowledge,
    transfer_error,
    verify_transfer_is_learning_system,
)


@pytest.fixture
def spaces():
    x = FiniteSet("X", ("x0", "x1", "x2", "x3"))
    y = FiniteSet("Y", (0, 1))
    return x, y


@pytest.fixture
def systems(spaces):
    x, y = spaces
    hc = full_function_class(x, y)
    return LearningSystem(x, y, hc), LearningSystem(x, y, hc)


@pytest.fixture
def source_data():
    return Dataset((("x0", 0), ("x1", 1), ("x2", 0)), "src")


@pytest.fixture
def target_data():
    return Dataset((("x3", 1), ("x0", 0)), "tgt")


class TestSelectKnowledge:
    def test_instance(self, systems, source_data):
        k = select_knowledge(systems[0], source_data, None, "instance")
        assert len(k.instances) == 3 and k.parameters is None

    def test_parameter(self, systems, source_data):
        theta = run_algorithm(source_data, systems[0])
        k = select_knowledge(systems[0], None, theta, "parameter")
        assert k.instances is None and k.parameters == (theta,)

    def test_both(self, systems, source_data):
        theta = run_algorithm(source_data, systems[0])
        k = select_knowledge(systems[0], source_data, theta, "instance_parameter")
        assert k.instances is not None and k.parameters is not None

    def test_missing_artifact(self, systems):
        with pytest.raises(MissingSourceArtifact):
            select_knowledge(systems[0], None, None, "instance")


class TestPoolData:
    def test_cardinality_additivity(self, systems, source_data, target_data):
        k = Knowledge(instances=source_data)
        pooled = pool_data(k, target_data, systems[1])
        assert len(pooled) == len(target_data) + len(source_data) == 5

    def test_zero_shot_pool(self, systems, source_data):
        pooled = pool_data(Knowledge(instances=source_data), Dataset(()), systems[1])
        assert pooled.pairs == source_data.pairs

    def test_disjoint_alphabets(self, source_data):
        other_x = FiniteSet("Z", ("z0", "z1"))
        other_y = FiniteSet("Y", (0, 1))
        target = LearningSystem(other_x, other_y, full_function_class(other_x, other_y))
        with pytest.raises(IncompatibleSupport):
            pool_data(Knowledge(instances=source_data), Dataset(()), target)

    def test_provenance_tag(self, systems, source_data, target_data):
        pooled = pool_data(Knowledge(instances=source_data), target_data)
        assert "tgt" in pooled.source_tag and "src" in pooled.source_tag

    def test_additivity_random(self, systems):
        rng = np.random.default_rng(12)
        for _ in range(10):
            d_s = random_dataset(rng, systems[0], int(rng.integers(0, 6)))
            d_t = random_dataset(rng, systems[1], int(rng.integers(0, 6)))
            pooled = pool_data(Knowledge(instances=d_s), d_t, systems[1])
            assert len(pooled) == len(d_s) + len(d_t)


class TestRunTransfer:
    def test_parameter_zero_shot_returns_anchor(self, systems, source_data):
        theta_s = run_algorithm(source_data, systems[0])
        ts = TransferSystem(
            systems[0], systems[1],
            Knowledge(parameters=(theta_s,)), "parameter",
        )
        theta, trace = run_transfer(ts, Dataset(()))
        assert theta == theta_s
        assert trace.zero_shot

    def test_identity_feature_matches_pooled_erm(self, systems, source_data, target_data, spaces):
        x, y = spaces
        identity_pairs = {(a, b): (a, b) for a in x.elements for b in y.elements}
        spec = FeatureRepSpec(
            systems[1], identity_pairs, identity_pairs,
            {a: a for a in x.elements}, {b: b for b in y.elements},
        )
        ts_feature = TransferSystem(
            systems[0], systems[1], Knowledge(instances=source_data),
            "feature_representation", latent=spec,
        )
        ts_instance = TransferSystem(
            systems[0], systems[1], Knowledge(instances=source_data), "instance",
        )
        theta_f, _ = run_transfer(ts_feature, target_data)
        theta_i, _ = run_transfer(ts_instance, target_data)
        assert theta_f == theta_i

    def test_instance_trace_records_pool(self, systems, source_data, target_data):
        ts = TransferSystem(
            systems[0], systems[1], Knowledge(instances=source_data), "instance"
        )
        theta, trace = run_transfer(ts, target_data)
        assert trace.pooled is not None and len(trace.pooled) == 5
        assert trace.objective[theta] == min(trace.objective.values())

    def test_penalized_pooled_approach(self, systems, source_data, target_data):
        theta_s = run_algorithm(source_data, systems[0])
        ts = TransferSystem(
            systems[0], systems[1],
            Knowledge(instances=source_data, parameters=(theta_s,)),
            "instance_parameter",
        )
        theta, trace = run_transfer(ts, target_data)
        assert theta in systems[1].theta_set


class TestClassifyApproach:
    def test_table_rows(self, systems, source_data, spaces):
        x, y = spaces
        theta_s = run_algorithm(source_data, systems[0])
        instance = TransferSystem(
            systems[0], systems[1], Knowledge(instances=source_data), "instance"
        )
        parameter = TransferSystem(
            systems[0], systems[1], Knowledge(parameters=(theta_s,)), "parameter"
        )
        both = TransferSystem(
            systems[0], systems[1],
            Knowledge(instances=source_data, parameters=(theta_s,)),
            "instance_parameter",
        )
        identity_pairs = {(a, b): (a, b) for a in x.elements for b in y.elements}
        feature = TransferSystem(
            systems[0], systems[1], Knowledge(instances=source_data),
            "feature_representation",
            latent=FeatureRepSpec(
                systems[1], identity_pairs, identity_pairs,
                {a: a for a in x.elements}, {b: b for b in y.elements},
            ),
        )
        assert classify_approach(instance) == "instance"
        assert classify_approach(parameter) == "parameter"
        assert classify_approach(both) == "instance_parameter"
        assert classify_approach(feature) == "feature_representation"

    def test_label_matches_declared_approach(self, systems, source_data):
        ts = TransferSystem(
            systems[0], systems[1], Knowledge(instances=source_data), "instance"
        )
        assert classify_approach(ts) == ts.approach


def make_pack(system, marginal_probs, truths, tag):
    marginal = EmpiricalMeasure(system.x_set, marginal_probs)
    rows = {}
    for x in system.x_set.elements:
        probs = [0.0] * len(system.y_set)
        probs[system.y_set.index(truths[x])] = 1.0
        rows[x] = EmpiricalMeasure(system.y_set, tuple(probs))
    posterior = ConditionalMeasure(system.x_set, rows)
    return SystemPack(system, Dataset(()), marginal, posterior, truths, tag)


class TestClassifySetting:
    def test_identical_is_trivial(self, systems):
        truths = {x: 0 for x in systems[0].x_set.elements}
        probs = (0.25, 0.25, 0.25, 0.25)
        a = make_pack(systems[0], probs, truths, "a")
        b = make_pack(systems[1], probs, truths, "b")
        report = classify_setting(a, b)
        assert report.label == "trivial"
        assert report.structural == "homogeneous"

    def test_marginal_shift_is_transductive(self, systems):
        truths = {x: 0 for x in systems[0].x_set.elements}
        a = make_pack(systems[0], (0.25, 0.25, 0.25, 0.25), truths, "a")
        b = make_pack(systems[1], (0.7, 0.1, 0.1, 0.1), truths, "b")
        report = classify_setting(a, b)
        assert report.structural == "homogeneous"
        assert report.label == "transductive"

    def test_different_outputs_is_inductive(self, spaces):
        x, _ = spaces
        y1 = FiniteSet("Y", (0, 1))
        y2 = FiniteSet("Y2", (0, 1, 2))
        sys1 = LearningSystem(x, y1, full_function_class(x, y1))
        sys2 = LearningSystem(x, y2, full_function_class(x, y2))
        truths = {xx: 0 for xx in x.elements}
        a = make_pack(sys1, (0.25,) * 4, truths, "a")
        b = make_pack(sys2, (0.25,) * 4, truths, "b")
        report = classify_setting(a, b)
        assert report.structural == "heterogeneous"
        assert report.label == "inductive"

    def test_self_pair_is_trivial(self, systems):
        truths = {x: 1 for x in systems[0].x_set.elements}
        a = make_pack(systems[0], (0.4, 0.3, 0.2, 0.1), truths, "a")
        assert classify_setting(a, a).label == "trivial"

    def test_missing_measure(self, systems):
        truths = {x: 0 for x in systems[0].x_set.elements}
        bare = SystemPack(systems[0], Dataset(()), None, None, truths)
        full = make_pack(systems[1], (0.25,) * 4, truths, "b")
        with pytest.raises(MissingMeasure):
            classify_setting(bare, full)


class TestNShot:
    def test_counts_multiset(self, systems, source_data):
        ts = TransferSystem(
            systems[0], systems[1], Knowledge(instances=source_data), "instance"
        )
        d = Dataset((("x0", 0),) * 5)
        assert n_shot(ts, d) == (5, False)

    def test_zero_shot_parameter(self, systems, source_data):
        theta_s = run_algorithm(source_data, systems[0])
        ts = TransferSystem(
            systems[0], systems[1], Knowledge(parameters=(theta_s,)), "parameter"
        )
        assert n_shot(ts, Dataset(())) == (0, True)

    def test_zero_shot_instance_pool(self, systems, source_data):
        ts = TransferSystem(
            systems[0], systems[1], Knowledge(instances=source_data), "instance"
        )
        assert n_shot(ts, Dataset(())) == (0, True)


class TestVerifyTransfer:
    def test_all_approaches_pass(self, systems, source_data, target_data, spaces):
        x, y = spaces
        theta_s = run_algorithm(source_data, systems[0])
        identity_pairs = {(a, b): (a, b) for a in x.elements for b in y.elements}
        variants = [
            TransferSystem(systems[0], systems[1], Knowledge(instances=source_data), "instance"),
            TransferSystem(systems[0], systems[1], Knowledge(parameters=(theta_s,)), "parameter"),
            TransferSystem(
                systems[0], systems[1],
                Knowledge(instances=source_data, parameters=(theta_s,)),
                "instance_parameter",
            ),
            TransferSystem(
                systems[0], systems[1], Knowledge(instances=source_data),
                "feature_representation",
                latent=FeatureRepSpec(
                    systems[1], identity_pairs, identity_pairs,
                    {a: a for a in x.elements}, {b: b for b in y.elements},
                ),
            ),
        ]
        datasets = [target_data, Dataset((("x1", 1),))]
        for ts in variants:
            assert verify_transfer_is_learning_system(ts, datasets, cap=16).passed

    def test_output_space_mismatch_fails_at_construction(self, systems, source_data, spaces):
        x, _ = spaces
        wrong_y = FiniteSet("Y3", (7, 8))
        wrong = full_function_class(x, wrong_y)
        with pytest.raises(Exception):
            TransferSystem(
                systems[0], systems[1], Knowledge(instances=source_data),
                "instance", hypotheses_tr=wrong,
            )

    def test_corrupted_selection_fails_with_witness(self, systems, source_data, target_data):
        ts = TransferSystem(
            systems[0], systems[1], Knowledge(instances=source_data), "instance"
        )
        selected, _ = run_transfer(ts, target_data)
        wrong = next(t for t in ts.theta_tr_set.elements if t != selected)
        corrupt = FiniteSystem(
            (FiniteSet("datasets", ("d0",)), ts.theta_tr_set),
            (("d0", wrong),),
            ((0,), (1,)),
        )
        report = verify_transfer_is_learning_system(
            ts, [target_data], cap=16, inductive_system=corrupt
        )
        assert not report.passed


class TestFeatureRepresentation:
    def build_relabeled(self, spaces):
        """Target with a bijectively renamed input alphabet; latent = source."""
        x, y = spaces
        x_t = FiniteSet("XT", ("f0", "f1", "f2", "f3"))
        hc = full_function_class(x, y)
        source = LearningSystem(x, y, hc)
        target = LearningSystem(x_t, y, full_function_class(x_t, y))
        to_latent = dict(zip(x_t.elements, x.elements))
        spec = FeatureRepSpec(
            source,
            pair_map_target={
                (a, b): (to_latent[a], b) for a in x_t.elements for b in y.elements
            },
            pair_map_source={(a, b): (a, b) for a in x.elements for b in y.elements},
            input_map=to_latent,
            output_map={b: b for b in y.elements},
        )
        return source, target, spec

    def test_biconditional_everywhere(self, spaces):
        source, target, spec = self.build_relabeled(spaces)
        d_s = Dataset((("x0", 0), ("x1", 1), ("x2", 0), ("x3", 1)), "src")
        d_t = Dataset((("f0", 0), ("f3", 1)), "tgt")
        ts = TransferSystem(
            source, target, Knowledge(instances=d_s),
            "feature_representation", latent=spec,
        )
        theta, _ = run_transfer(ts, d_t)
        for x in target.x_set.elements:
            assert ts.predict(theta, x) == latent_path_prediction(ts, theta, x)

    def test_latent_cases(self, spaces):
        """An identity pair map puts the latent space on that side's sample space."""
        x, y = spaces
        source, target, spec = self.build_relabeled(spaces)
        d_s = Dataset((("x0", 0),), "src")

        def case(ts):
            """Target and source pair maps are identities; latent space is target's, source's."""
            maps = (ts.latent.pair_map_target, ts.latent.pair_map_source)
            latent = ts.latent.latent_system
            identities = tuple(all(k == v for k, v in m.items()) for m in maps)
            return identities + (latent.same_space(ts.target), latent.same_space(ts.source))

        # source map is the identity: latent space is the source space
        ts = TransferSystem(
            source, target, Knowledge(instances=d_s),
            "feature_representation", latent=spec,
        )
        assert case(ts) == (False, True, False, True)
        assert not ts.source.same_space(ts.target)

        # both identities: homogeneous, latent space equals both
        identity_pairs = {(a, b): (a, b) for a in x.elements for b in y.elements}
        hom = TransferSystem(
            source,
            LearningSystem(x, y, full_function_class(x, y)),
            Knowledge(instances=d_s),
            "feature_representation",
            latent=FeatureRepSpec(
                source, identity_pairs, identity_pairs,
                {a: a for a in x.elements}, {b: b for b in y.elements},
            ),
        )
        assert case(hom) == (True, True, True, True)
        assert hom.source.same_space(hom.target)

        # target map is the identity: latent space is the target space
        rev = TransferSystem(
            LearningSystem(
                target.x_set, y, full_function_class(target.x_set, y)
            ),
            LearningSystem(
                target.x_set, y, full_function_class(target.x_set, y)
            ),
            Knowledge(
                instances=Dataset((("f0", 0),), "src2")
            ),
            "feature_representation",
            latent=FeatureRepSpec(
                LearningSystem(target.x_set, y, full_function_class(target.x_set, y)),
                {(a, b): (a, b) for a in target.x_set.elements for b in y.elements},
                {(a, b): (a, b) for a in target.x_set.elements for b in y.elements},
                {a: a for a in target.x_set.elements},
                {b: b for b in y.elements},
            ),
        )
        assert case(rev) == (True, True, True, True)

    @pytest.mark.parametrize("thetas", [("only",), ("t1", "t0"), ("t0", "t1", "t2")])
    def test_explicit_hypotheses_must_have_the_latent_parameters(self, thetas):
        """The rule selects in the latent system, by position in its parameter set."""
        x, y = FiniteSet("X", ("a",)), FiniteSet("Y", (0, 1))
        latent = LearningSystem(
            x, y, HypothesisClass(FiniteSet("T", ("t0", "t1")), columns=("a",),
                                  rows={"t0": (0,), "t1": (1,)}),
        )
        identity = {("a", 0): ("a", 0), ("a", 1): ("a", 1)}
        spec = FeatureRepSpec(latent, identity, identity, {"a": "a"}, {0: 0, 1: 1})

        def build(hypotheses_tr):
            return TransferSystem(
                latent, latent, Knowledge(instances=Dataset(())), "feature_representation",
                hypotheses_tr=hypotheses_tr, latent=spec,
            )

        rows = {theta: (0,) for theta in thetas}
        with pytest.raises(ValidationError, match="indexed by the latent parameters"):
            build(HypothesisClass(FiniteSet("TR", thetas), columns=("a",), rows=rows))
        ts = build(HypothesisClass(FiniteSet("TR", ("t0", "t1")), columns=("a",),
                                   rows={"t0": (1,), "t1": (0,)}))
        theta, trace = run_transfer(ts, Dataset((("a", 1),)))
        assert theta == "t1" and list(trace.objective) == ["t0", "t1"]
        assert ts.predict(theta, "a") == 0

    def test_feature_requires_latent(self, systems, source_data):
        with pytest.raises(ValidationError):
            TransferSystem(
                systems[0], systems[1], Knowledge(instances=source_data),
                "feature_representation",
            )


# -- one table of what each rule consumes, one check of it -----------------------------


def knowledge_refusals(systems, source_data):
    """(approach, source data, source θ, error): one piece the approach consumes is spoiled."""
    theta = run_algorithm(source_data, systems[0])
    outside = Dataset((("x0", 0), ("zz", 1)), "outside")
    for approach, (takes_instances, takes_parameters) in CONSUMES.items():
        if takes_instances:
            yield approach, None, theta, MissingSourceArtifact
            yield approach, outside, theta, UnknownElement
        if takes_parameters:
            yield approach, source_data, None, MissingSourceArtifact
            yield approach, source_data, "not-a-theta", UnknownElement
    for approach in ("bogus", ["instance"]):
        yield approach, source_data, theta, ValidationError


def test_consumes_lists_every_approach_once():
    assert APPROACHES == tuple(CONSUMES) == (
        "instance", "parameter", "instance_parameter", "feature_representation"
    )
    assert all(any(pieces) for pieces in CONSUMES.values())


def test_select_knowledge_and_transfer_system_refuse_alike(systems, source_data):
    cases = list(knowledge_refusals(systems, source_data))
    assert {approach for approach, *_ in cases if isinstance(approach, str)} >= set(APPROACHES)
    for approach, data, theta, error in cases:
        with pytest.raises(error):
            select_knowledge(systems[0], data, theta, approach)
        knowledge = Knowledge(data, None if theta is None else (theta,))
        with pytest.raises(error):
            TransferSystem(systems[0], systems[1], knowledge, approach)


@pytest.mark.parametrize("approach", APPROACHES)
def test_select_knowledge_keeps_only_what_the_approach_consumes(systems, source_data, approach):
    theta = run_algorithm(source_data, systems[0])
    knowledge = select_knowledge(systems[0], source_data, theta, approach)
    takes_instances, takes_parameters = CONSUMES[approach]
    assert (knowledge.instances is not None, knowledge.parameters is not None) == (
        takes_instances, takes_parameters
    )


@pytest.mark.parametrize("approach", APPROACHES)
def test_classify_approach_recovers_the_built_approach(approach):
    truth = {"a": 0, "b": 1, "c": 1}
    source = binary_pack(truth, data=[("a", 0), ("b", 1)], tag="s")
    target = binary_pack(truth, data=[("c", 1)], tag="t")
    if approach == "feature_representation":  # no pack declares latent maps: build it by hand
        x, y = target.system.x_set, target.system.y_set
        pairs = {(a, b): (a, b) for a in x.elements for b in y.elements}
        latent = FeatureRepSpec(
            target.system, pairs, pairs, {a: a for a in x.elements}, {b: b for b in y.elements}
        )
        knowledge = Knowledge(instances=source.dataset)
        ts = TransferSystem(source.system, target.system, knowledge, approach, latent=latent)
    else:
        ts = build_transfer_system(source, target, approach)
    assert classify_approach(ts) == approach


@pytest.mark.parametrize("holdout", [False, True])
@pytest.mark.parametrize("approach", ["instance", "parameter"])
def test_transfer_error_is_the_prediction_error_of_the_transferred_hypothesis(
    systems, source_data, target_data, approach, holdout
):
    theta_s = run_algorithm(source_data, systems[0])
    knowledge = select_knowledge(systems[0], source_data, theta_s, approach)
    ts = TransferSystem(systems[0], systems[1], knowledge, approach)
    theta, _ = run_transfer(ts, target_data)
    if holdout:
        ctx, weight = EvaluationContext(Dataset((("x1", 1), ("x2", 1), ("x1", 0)))), None
    else:
        ctx = EvaluationContext({"x0": 0, "x1": 1, "x2": 1, "x3": 0})
        weight = EmpiricalMeasure(systems[1].x_set, (0.1, 0.2, 0.3, 0.4))
    by_hand = prediction_error(
        lambda x: ts.predict(theta, x), ctx, ts.target.loss, weight=weight,
        x_set=ts.target.x_set,
    )
    assert transfer_error(ts, theta, ctx, weight) == by_hand
    assert 0 < by_hand < 1
