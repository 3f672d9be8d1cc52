import dataclasses
import itertools
import math
import re
from functools import partial

import numpy as np
import pytest

from helpers import (
    binary_pack,
    latent_path_prediction,
    random_dataset,
    random_learning_system,
    scalar_prediction_error,
    transfer_fit,
)
from transferlab import transfer
from transferlab.errors import (
    IncompatibleSupport,
    MissingMeasure,
    MissingSourceArtifact,
    UnknownElement,
    ValidationError,
)
from transferlab.evaluation import build_transfer_system
from transferlab.learning import (
    AlgorithmSpec,
    Dataset,
    EvaluationContext,
    LearningSystem,
    SystemPack,
    empirical_risk,
    evaluate,
    fit_stack,
    full_function_class,
    generalization_error,
    run_algorithm,
    verify_learning_axioms,
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
    pool_data,
    run_transfer,
    select_knowledge,
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


def test_a_string_is_refused_as_the_parameters_of_knowledge():
    with pytest.raises(ValidationError, match="^knowledge parameters must be a sequence, not a string$"):
        Knowledge(parameters="h1")
    assert Knowledge(parameters=("h1",)).parameters == ("h1",)


@pytest.mark.parametrize("parameters", [(), ("h0", "h3"), ("h0", "h0")])
def test_parameter_knowledge_holds_exactly_one_parameter(parameters):
    # Every rule that takes a parameter penalizes toward one anchor; a second one
    # would be validated against the source and then never read.
    message = f"^knowledge parameters hold one source parameter, not {len(parameters)}$"
    with pytest.raises(ValidationError, match=message):
        Knowledge(parameters=parameters)


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
        pooled = pool_data(Knowledge(instances=source_data), target_data, systems[1])
        assert "tgt" in pooled.source_tag and "src" in pooled.source_tag

    def test_additivity_random(self, systems):
        rng = np.random.default_rng(12)
        for _ in range(10):
            d_s = random_dataset(rng, systems[0], int(rng.integers(0, 6)))
            d_t = random_dataset(rng, systems[1], int(rng.integers(0, 6)))
            pooled = pool_data(Knowledge(instances=d_s), d_t, systems[1])
            assert len(pooled) == len(d_s) + len(d_t)


def identity_transfer(systems, source_data, spaces, approach):
    """An ``approach`` transfer from ``systems[0]`` to ``systems[1]``; latent maps are identities."""
    x, y = spaces
    theta_s = run_algorithm(source_data, systems[0])
    instances, parameters = CONSUMES[approach]
    knowledge = Knowledge(
        source_data if instances else None, (theta_s,) if parameters else None
    )
    latent = None
    if approach == "feature_representation":
        identity_pairs = {(a, b): (a, b) for a in x.elements for b in y.elements}
        latent = FeatureRepSpec(
            systems[1], identity_pairs, identity_pairs,
            {a: a for a in x.elements}, {b: b for b in y.elements},
        )
    return TransferSystem(systems[0], systems[1], knowledge, approach, latent=latent)


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
        pooled = pool_data(ts.knowledge, target_data, ts.target)
        assert len(pooled) == 5
        assert trace.objective == {
            t: empirical_risk(pooled, t, ts.target) for t in ts.theta_tr_set.elements
        }
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

    @pytest.mark.parametrize("approach", APPROACHES)
    @pytest.mark.parametrize("shots", [0, 2])
    def test_objective_is_empty_exactly_without_a_data_term(
        self, systems, source_data, target_data, spaces, approach, shots, monkeypatch
    ):
        """Only a zero-shot parameter run has no data term; reading it pools no data."""
        ts = identity_transfer(systems, source_data, spaces, approach)
        theta, trace = run_transfer(ts, Dataset(target_data.pairs[:shots]))
        monkeypatch.setattr(transfer, "pool_data", None)  # a call would raise TypeError
        if approach == "parameter" and shots == 0:
            assert trace.objective == {}
        else:
            assert trace.objective == dict(zip(ts.theta_tr_set.elements, trace.values.tolist()))
            assert trace.objective[theta] == min(trace.objective.values())

    @pytest.mark.parametrize("approach", APPROACHES)
    def test_the_transfer_table_is_derived_from_the_rule(
        self, systems, source_data, spaces, approach
    ):
        """The target itself, or for the feature rule its space with the latent class's table."""
        ts = identity_transfer(systems, source_data, spaces, approach)
        if approach != "feature_representation":
            assert ts.system_tr is ts.target
            return
        system, target = ts.system_tr, ts.target
        assert (system.x_set, system.y_set) == (target.x_set, target.y_set)
        assert system.loss == target.loss
        assert ts.theta_tr_set.elements == ts.latent.latent_system.theta_set.elements
        assert system.hypotheses.columns == target.x_set.elements
        for theta in ts.theta_tr_set.elements:
            for x in target.x_set.elements:
                assert evaluate(system, theta, x) == latent_path_prediction(ts, theta, x)


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

    def test_only_what_the_rule_consumes_builds_a_transfer_system(
        self, systems, source_data, spaces
    ):
        """Every approach × knowledge pieces × latent maps: exactly ``CONSUMES[approach]``,
        with latent maps for the feature rule alone, is accepted, so what a transfer
        system carries names its rule and ``classify_approach`` has only it to return.
        """
        theta = run_algorithm(source_data, systems[0])
        maps = identity_transfer(systems, source_data, spaces, "feature_representation").latent
        accepted = []
        for approach, pieces, latent in itertools.product(
            APPROACHES, [(True, False), (False, True), (True, True)], [None, maps]
        ):
            knowledge = Knowledge(
                source_data if pieces[0] else None, (theta,) if pieces[1] else None
            )
            try:
                ts = TransferSystem(systems[0], systems[1], knowledge, approach, latent=latent)
            except (MissingSourceArtifact, ValidationError):
                continue
            assert classify_approach(ts) == approach
            accepted.append((approach, pieces, latent is not None))
        assert accepted == [
            (approach, pieces, approach == "feature_representation")
            for approach, pieces in CONSUMES.items()
        ]


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
    """A run's shot count and zero-shot flag, as its trace reports them."""

    def test_counts_multiset(self, systems, source_data):
        ts = TransferSystem(
            systems[0], systems[1], Knowledge(instances=source_data), "instance"
        )
        _, trace = run_transfer(ts, Dataset((("x0", 0),) * 5))
        assert (trace.n_target, trace.zero_shot) == (5, False)

    def test_zero_shot_parameter(self, systems, source_data):
        theta_s = run_algorithm(source_data, systems[0])
        ts = TransferSystem(
            systems[0], systems[1], Knowledge(parameters=(theta_s,)), "parameter"
        )
        _, trace = run_transfer(ts, Dataset(()))
        assert (trace.n_target, trace.zero_shot) == (0, True)

    def test_zero_shot_instance_pool(self, systems, source_data):
        ts = TransferSystem(
            systems[0], systems[1], Knowledge(instances=source_data), "instance"
        )
        _, trace = run_transfer(ts, Dataset(()))
        assert (trace.n_target, trace.zero_shot) == (0, True)


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
            assert verify_transfer_is_learning_system(ts, datasets).passed

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
        report = verify_transfer_is_learning_system(ts, [target_data], inductive_system=corrupt)
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
            assert evaluate(ts.system_tr, theta, x) == latent_path_prediction(ts, theta, x)

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
def test_a_transfer_system_refuses_knowledge_its_rule_does_not_consume(
    systems, source_data, spaces, approach
):
    """Offered both pieces, a rule refuses the one it leaves unread, after the other checks."""
    ts = identity_transfer(systems, source_data, spaces, approach)
    assert classify_approach(ts) == ts.approach == approach
    both = Knowledge(source_data, (run_algorithm(source_data, systems[0]),))
    if approach == "instance_parameter":
        assert dataclasses.replace(ts, knowledge=both).knowledge == both
        return
    piece = "a source parameter" if CONSUMES[approach][0] else "source instances"
    with pytest.raises(ValidationError, match=f"^{approach} transfer does not consume {piece}$"):
        dataclasses.replace(ts, knowledge=both)
    # select_knowledge keeps only the consumed pieces, so it never meets the refusal.
    kept = select_knowledge(systems[0], both.instances, both.parameters[0], approach)
    assert dataclasses.replace(ts, knowledge=kept).knowledge == ts.knowledge


def test_transfer_fit_returns_what_fit_returns_and_the_trace_keeps_the_rest(
    systems, source_data, target_data, spaces
):
    for approach in APPROACHES:
        ts = identity_transfer(systems, source_data, spaces, approach)
        selected, values = transfer_fit(ts, target_data)
        theta, trace = run_transfer(ts, target_data)
        assert [f.name for f in dataclasses.fields(trace)] == ["system", "target_data", "values"]
        assert (trace.system, trace.target_data) == (ts, target_data)
        assert theta == selected and trace.values.tolist() == values.tolist()
        assert values.shape == (len(ts.system_tr.theta_set),)


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


def merging_transfer(systems, source_data, spaces, approach):
    """An ``approach`` transfer; the feature rule merges inputs in pairs and flips the labels."""
    if approach != "feature_representation":
        return identity_transfer(systems, source_data, spaces, approach)
    u, y = FiniteSet("U", ("u0", "u1")), systems[1].y_set
    to_latent = {"x0": "u0", "x1": "u0", "x2": "u1", "x3": "u1"}
    pairs = {(x, b): (to_latent[x], b) for x in to_latent for b in y.elements}
    latent = FeatureRepSpec(
        LearningSystem(u, y, full_function_class(u, y)), pairs, pairs, to_latent, {0: 1, 1: 0}
    )
    knowledge = Knowledge(instances=source_data)
    return TransferSystem(systems[0], systems[1], knowledge, approach, latent=latent)


@pytest.mark.parametrize("holdout", [False, True])
@pytest.mark.parametrize("approach", APPROACHES)
def test_transfer_error_is_the_prediction_error_of_the_transferred_hypothesis(
    systems, source_data, target_data, spaces, approach, holdout
):
    """``generalization_error`` in ``system_tr`` equals the scalar oracle, bit for bit."""
    ts = merging_transfer(systems, source_data, spaces, approach)
    theta, _ = run_transfer(ts, target_data)
    if holdout:
        ctx, weight = EvaluationContext(Dataset((("x1", 1), ("x2", 1), ("x1", 0)))), None
    else:
        ctx = EvaluationContext({"x0": 0, "x1": 1, "x2": 1, "x3": 0})
        weight = EmpiricalMeasure(systems[1].x_set, (0.1, 0.2, 0.3, 0.4))
    if approach == "feature_representation":
        predict = lambda x: latent_path_prediction(ts, theta, x)
    else:
        predict = lambda x: ts.target.hypotheses.output(theta, x)
    by_hand = scalar_prediction_error(
        predict, ctx, ts.target.loss, ts.target.x_set, ts.target.y_set, weight
    )
    error = generalization_error(ts.system_tr, theta, ctx, weight)
    assert error.hex() == by_hand.hex()
    assert 0 < by_hand < 1


@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_a_penalty_weight_must_be_finite_and_non_negative(systems, value):
    message = f"penalty weight {value!r} is not finite and non-negative"
    with pytest.raises(ValidationError, match=message):
        AlgorithmSpec("penalized", anchor="h00", weight=value)
    with pytest.raises(ValidationError, match=message):
        TransferSystem(*systems, Knowledge(parameters=("h00",)), "parameter", penalty_weight=value)


@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, 0.0])
def test_a_pool_weight_must_be_finite_and_positive(systems, source_data, value):
    with pytest.raises(ValidationError, match=f"pool weight {value!r} is not finite and positive"):
        TransferSystem(*systems, Knowledge(instances=source_data), pool_weight=value)


def test_a_zero_penalty_weight_is_accepted(systems):
    assert AlgorithmSpec("penalized", anchor="h00", weight=0.0).weight == 0.0
    ts = TransferSystem(*systems, Knowledge(parameters=("h00",)), "parameter", penalty_weight=0.0)
    assert ts.penalty_weight == 0.0


#: One bad pair of each kind, with what its refusal says of it.
BAD_PAIRS = {
    "input outside X": (("x9", 0), "'x9' is not an element of set 'X'"),
    "label outside Y": (("x0", 7), "7 is not an element of set 'Y'"),
    "unhashable": ((["x0"], 0), "dataset pair (['x0'], 0) is not hashable"),
}
def entry_points(systems, source_data, spaces):
    """Each library entry point that reads data pairs, as a call on one dataset."""
    source, target = systems
    transfer_system = partial(identity_transfer, systems, source_data, spaces)
    return {
        "run_algorithm": lambda d: run_algorithm(d, target),
        "empirical_risk": lambda d: empirical_risk(d, "h00", target),
        "fit_stack": lambda d: fit_stack([source_data, d], target),
        "verify_learning_axioms": lambda d: verify_learning_axioms(target, [source_data, d]),
        "SystemPack": lambda d: SystemPack(target, d),
        "select_knowledge": lambda d: select_knowledge(source, d, None, "instance"),
        "TransferSystem": lambda d: TransferSystem(source, target, Knowledge(instances=d)),
        **{
            f"run_transfer[{approach}]": partial(
                lambda approach, d: run_transfer(transfer_system(approach), d), approach
            )
            for approach in APPROACHES
        },
        "verify_transfer_is_learning_system": lambda d: verify_transfer_is_learning_system(
            transfer_system("instance"), [source_data, d]
        ),
        "pool_data": lambda d: pool_data(Knowledge(instances=d), source_data, target),
        "holdout generalization_error": lambda d: generalization_error(
            target, "h00", EvaluationContext(d)
        ),
    }


ENTRY_POINTS = [
    "run_algorithm", "empirical_risk", "fit_stack", "verify_learning_axioms", "SystemPack",
    "select_knowledge", "TransferSystem", *(f"run_transfer[{a}]" for a in APPROACHES),
    "verify_transfer_is_learning_system", "pool_data", "holdout generalization_error",
]


@pytest.mark.parametrize("bad", BAD_PAIRS.values(), ids=list(BAD_PAIRS))
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_refuses_a_bad_pair_by_name(systems, source_data, spaces, entry, bad):
    """A pair outside X × Y, an unhashable one too, is refused by ``count_tables`` wherever it
    enters: an ``UnknownElement`` naming it, or, for source instances pooled into a target,
    an ``IncompatibleSupport``; never a bare ``TypeError``, and never scored."""
    pair, named = bad
    call = entry_points(systems, source_data, spaces)[entry]
    error = IncompatibleSupport if entry == "pool_data" else UnknownElement
    with pytest.raises(error, match=re.escape(named)):
        call(Dataset((("x1", 1), pair)))
