import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    as_goal_seeking,
    hypothesis_table,
    random_dataset,
    random_learning_system,
    scalar_count_table,
    scalar_prediction_error,
    selection_objective,
)
from transferlab.errors import EmptyDataset, UnknownElement, ValidationError
from transferlab.learning import (
    AlgorithmSpec,
    Dataset,
    EvaluationContext,
    HypothesisClass,
    LearningSystem,
    LossSpec,
    count_tables,
    empirical_risk,
    evaluate,
    fit_stack,
    full_function_class,
    generalization_error,
    run_algorithm,
    verify_learning_axioms,
)
from transferlab.measures import EmpiricalMeasure
from transferlab.relations import (
    FiniteSet,
    FiniteSystem,
    GoalSeekingSpec,
    check_goal_seeking,
)


XS = ("x0", "x1", "x2")


def two_theta_system():
    x = FiniteSet("X", XS)
    y = FiniteSet("Y", (0, 1))
    thetas = FiniteSet("T", ("t0", "t1"))
    rows = {"t0": (0, 1, 0), "t1": (1, 0, 0)}
    return LearningSystem(x, y, HypothesisClass(thetas, x.elements, rows))


def test_a_string_is_refused_as_a_dataset_pair():
    with pytest.raises(ValidationError, match="^a dataset pair must be a sequence, not a string$"):
        Dataset([("x", "y"), "ab"])
    assert Dataset([("x", "y"), ["a", "b"]]).pairs == (("x", "y"), ("a", "b"))


class TestEmpiricalRisk:
    def test_perfect_hypothesis(self):
        sys = two_theta_system()
        d = Dataset((("x0", 0), ("x1", 1), ("x2", 0)))
        assert empirical_risk(d, "t0", sys) == 0.0

    def test_one_error_in_four(self):
        sys = two_theta_system()
        d = Dataset((("x0", 0), ("x1", 1), ("x2", 0), ("x0", 1)))
        assert empirical_risk(d, "t0", sys) == 0.25

    def test_squared_loss_matches_direct_sum(self):
        x = FiniteSet("X", ("x0", "x1", "x2"))
        y = FiniteSet("Y", (0, 1, 2, 3))
        thetas = FiniteSet("T", ("t0",))
        hc = HypothesisClass(thetas, x.elements, {"t0": (1, 3, 0)})
        sys = LearningSystem(x, y, hc, LossSpec("squared"))
        d = Dataset((("x0", 3), ("x1", 0), ("x2", 2)))
        expected = ((3 - 1) ** 2 + (0 - 3) ** 2 + (2 - 0) ** 2) / 3
        assert empirical_risk(d, "t0", sys) == pytest.approx(expected)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            empirical_risk(Dataset(()), "t0", two_theta_system())


class TestRunAlgorithm:
    def test_lower_risk_wins(self):
        sys = two_theta_system()
        d = Dataset((("x0", 0), ("x1", 0), ("x0", 0)))
        risks = {t: empirical_risk(d, t, sys) for t in ("t0", "t1")}
        assert risks["t0"] == pytest.approx(1 / 3)
        assert risks["t1"] == pytest.approx(2 / 3)
        assert run_algorithm(d, sys) == "t0"

    def test_tie_breaks_to_first_parameter(self):
        sys = two_theta_system()
        d = Dataset((("x2", 0),))  # both hypotheses agree here
        assert run_algorithm(d, sys) == "t0"

    def test_penalized_empty_data_returns_anchor(self):
        base = two_theta_system()
        sys = LearningSystem(
            base.x_set, base.y_set, base.hypotheses,
            base.loss, AlgorithmSpec("penalized", anchor="t1"),
        )
        assert run_algorithm(Dataset(()), sys) == "t1"

    def test_erm_empty_data_raises(self):
        with pytest.raises(EmptyDataset):
            run_algorithm(Dataset(()), two_theta_system())

    @pytest.mark.parametrize("pair", [("x0", 5), ("zz", 0)])
    def test_pair_outside_sample_space_raises(self, pair):
        message = {"x0": "5 is not an element of set 'Y'", "zz": "'zz' is not an element of set 'X'"}
        with pytest.raises(UnknownElement, match=f"^{re.escape(message[pair[0]])}$"):
            run_algorithm(Dataset((("x1", 0), pair, ("zz", 5))), two_theta_system())

    def test_penalized_pulls_toward_anchor(self):
        base = two_theta_system()
        sys = LearningSystem(
            base.x_set, base.y_set, base.hypotheses,
            base.loss, AlgorithmSpec("penalized", anchor="t1", weight=10.0),
        )
        d = Dataset((("x0", 0),))  # plain risk prefers t0, heavy penalty overrides
        assert run_algorithm(d, base) != run_algorithm(d, sys)
        assert run_algorithm(d, sys) == "t1"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.sampled_from(XS + ("zz",)), st.sampled_from((0, 1, True, 5)))),
        max_size=4,
    ),
    st.booleans(),
)
def test_count_tables_are_the_pair_count_tables_and_refuse_as_index_does(stack, inside):
    """One bincount gives each dataset's ``pair_counts`` table; the first pair in order
    outside X × Y raises the class and message of the look-up that refuses it."""
    x_set, y_set = FiniteSet("X", XS), FiniteSet("Y", (0, 1))
    if inside:
        stack = [[(x, y) for x, y in pairs if x in x_set and y in y_set] for pairs in stack]
    datasets = [Dataset(tuple(pairs)) for pairs in stack]
    try:
        expected = [scalar_count_table(d.pairs, x_set, y_set) for d in datasets]
    except UnknownElement as exc:
        with pytest.raises(UnknownElement, match=f"^{re.escape(str(exc))}$"):
            count_tables(datasets, x_set, y_set)
        return
    tables = count_tables(datasets, x_set, y_set)
    assert tables.dtype == np.int64 and tables.shape == (len(datasets), 3, 2)
    assert [t.tolist() for t in tables] == [t.tolist() for t in expected]


UNHASHABLE_PAIRS = [(["x0"], 0), ("x0", [1]), ({"x": 0}, 1)]
FITS_OF_DATA = {
    "run_algorithm": run_algorithm,
    "fit_stack": lambda d, s: fit_stack([Dataset((("x1", 0),)), d], s),
    "empirical_risk": lambda d, s: empirical_risk(d, "t0", s),
    "verify_learning_axioms": lambda d, s: verify_learning_axioms(s, [d]),
}


@pytest.mark.parametrize("pair", UNHASHABLE_PAIRS, ids=repr)
@pytest.mark.parametrize("call", FITS_OF_DATA.values(), ids=list(FITS_OF_DATA))
def test_a_pair_with_an_unhashable_coordinate_is_an_unknown_element(call, pair):
    """No set holds an unhashable atom: the fit refuses the pair by name, as the run_algorithm
    docstring promises, not with a bare ``TypeError``."""
    data = Dataset((("x0", 1), pair))
    message = f"^dataset pair {re.escape(repr(pair))} is not hashable$"
    with pytest.raises(UnknownElement, match=message):
        call(data, two_theta_system())


class TestEncoding:
    def test_codes_index_outputs(self):
        assert two_theta_system().codes.tolist() == [[0, 1, 0], [1, 0, 0]]

    @pytest.mark.parametrize(
        "entry, error",
        [
            # (t1, x1) holds 7, outside Y; the 9 at (t1, x2) comes later
            ((XS, {"t0": (0, 1, 0), "t1": (1, 7, 9)}, "output 7 not in"), UnknownElement),
            # t0 has no row, refused as the class is built; t1's 7 at x0 is never read
            ((XS, {"t1": (7, 0, 0)}, "no table row for 't0'"), ValidationError),
            # x1 is not a column; t0's 7 at x2 comes later
            ((("x0", "x2"), {"t0": (0, 7), "t1": (1, 0)}, "missing ('t0', 'x1')"),
             ValidationError),
        ],
    )
    def test_first_defect_in_canonical_order_raises(self, entry, error):
        columns, rows, message = entry
        base = two_theta_system()
        with pytest.raises(error, match=re.escape(message)):
            LearningSystem(base.x_set, base.y_set, HypothesisClass(base.theta_set, columns, rows))


class TestEvaluate:
    def test_lookup(self):
        assert evaluate(two_theta_system(), "t0", "x1") == 1

    def test_unknown_input(self):
        with pytest.raises(UnknownElement):
            evaluate(two_theta_system(), "t0", "zz")

    def test_full_sweep_covers_table_once(self):
        sys = two_theta_system()
        seen = {
            (t, x): evaluate(sys, t, x)
            for t in sys.theta_set.elements
            for x in sys.x_set.elements
        }
        assert seen == hypothesis_table(sys.hypotheses)


class TestGeneralizationError:
    def test_exact_match_is_zero(self):
        sys = two_theta_system()
        ctx = EvaluationContext({"x0": 0, "x1": 1, "x2": 0})
        assert generalization_error(sys, "t0", ctx) == 0.0

    def test_quarter_error_uniform(self):
        x = FiniteSet("X", ("a", "b", "c", "d"))
        y = FiniteSet("Y", (0, 1))
        hc = full_function_class(x, y)
        sys = LearningSystem(x, y, hc)
        truth = {"a": 0, "b": 0, "c": 0, "d": 0}
        theta = next(
            t for t in hc.theta_set.elements
            if tuple(hc.output(t, el) for el in x.elements) == (0, 0, 0, 1)
        )
        assert generalization_error(sys, theta, EvaluationContext(truth)) == 0.25

    def test_weighted_expectation(self):
        sys = two_theta_system()
        ctx = EvaluationContext({"x0": 0, "x1": 0, "x2": 0})
        weight = EmpiricalMeasure(sys.x_set, (0.1, 0.6, 0.3))
        # t0 errs only on x1 under this truth
        assert generalization_error(sys, "t0", ctx, weight) == pytest.approx(0.6)

    def test_holdout_mode(self):
        sys = two_theta_system()
        held = Dataset((("x0", 0), ("x1", 0)))
        ctx = EvaluationContext(held)
        assert ctx.mode == "holdout"
        assert generalization_error(sys, "t0", ctx) == pytest.approx(0.5)

    def test_zero_one_error_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sys = random_learning_system(rng)
            theta = sys.theta_set.elements[0]
            truth = {x: sys.y_set.elements[0] for x in sys.x_set.elements}
            err = generalization_error(sys, theta, EvaluationContext(truth))
            assert 0.0 <= err <= 1.0

    def test_reads_each_row_once_and_refuses_as_evaluate_does(self, monkeypatch):
        """Equal, bit for bit, to the oracle that looks every cell up with ``evaluate``; a θ
        outside Θ and an input outside X raise what ``evaluate`` raises, with its message,
        and a θ of Θ is scored without a single cell look-up.
        """

        def outcome(fn):
            try:
                return repr(fn())
            except Exception as exc:  # the error class and message are compared
                return type(exc), str(exc)

        rng = np.random.default_rng(5)
        for loss_kind in ("zero_one", "squared") * 10:
            sys = random_learning_system(rng, loss_kind=loss_kind)
            xs, ys = sys.x_set.elements, sys.y_set.elements
            truth = {x: ys[int(rng.integers(len(ys)))] for x in xs}
            weight = EmpiricalMeasure(sys.x_set, tuple(rng.dirichlet(np.ones(len(xs)))))
            held = random_dataset(rng, sys, 5)
            contexts = [
                (EvaluationContext(truth), None),
                (EvaluationContext(truth), weight),
                (EvaluationContext(held), None),
                (EvaluationContext(Dataset(held.pairs + (("nowhere", ys[0]),))), None),
            ]
            for theta in sys.theta_set.elements + ("not-a-theta",):
                for ctx, w in contexts:
                    predict = lambda x: evaluate(sys, theta, x)
                    expected = outcome(
                        lambda: scalar_prediction_error(predict, ctx, sys.loss, sys.x_set, w)
                    )
                    assert outcome(lambda: generalization_error(sys, theta, ctx, w)) == expected
        monkeypatch.setattr(HypothesisClass, "output", None)  # a cell look-up would raise
        assert generalization_error(sys, sys.theta_set.elements[0], EvaluationContext(truth)) >= 0


class TestAxioms:
    def test_random_exact_erm_systems_pass(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            sys = random_learning_system(rng)
            datasets = [
                random_dataset(rng, sys, int(rng.integers(1, 8)), f"d{j}")
                for j in range(3)
            ]
            assert verify_learning_axioms(sys, datasets).passed

    def test_corrupted_functional_system_fails_with_witness(self):
        rng = np.random.default_rng(23)
        sys = random_learning_system(rng)
        d = random_dataset(rng, sys, 5)
        selected = run_algorithm(d, sys)
        x0 = sys.x_set.elements[0]
        wrong = next(
            y for y in sys.y_set.elements if y != sys.hypotheses.output(selected, x0)
        )
        tuples = [
            (t, x, wrong if (t, x) == (selected, x0) else sys.hypotheses.output(t, x))
            for t in sys.theta_set.elements
            for x in sys.x_set.elements
        ]
        corrupt = FiniteSystem(
            (sys.theta_set, sys.x_set, sys.y_set), tuple(tuples), ((0, 1), (2,))
        )
        report = verify_learning_axioms(sys, [d], functional_system=corrupt)
        assert not report.passed
        assert any(w[0] == "d0" and w[1] == x0 for w in report.cascade_violations)

    def test_argmax_seeking_fails(self):
        sys = two_theta_system()
        d = Dataset((("x0", 0), ("x1", 1), ("x2", 1)))
        inductive, gs = as_goal_seeking(sys, [d])
        worst = max(
            sys.theta_set.elements, key=lambda t: selection_objective(d, t, sys)
        )
        argmax_version = GoalSeekingSpec(
            gs.value_set,
            gs.goal,
            frozenset({("d0", gs.goal[("d0", worst)], worst)}),
        )
        assert check_goal_seeking(None, inductive, gs).passed
        assert not check_goal_seeking(None, inductive, argmax_version).passed

    def test_goal_seek_export_passes_relations_check(self):
        rng = np.random.default_rng(31)
        sys = random_learning_system(rng)
        datasets = [random_dataset(rng, sys, 4, f"d{j}") for j in range(2)]
        inductive, gs = as_goal_seeking(sys, datasets)
        assert check_goal_seeking(None, inductive, gs).passed


class TestAlgorithmProperties:
    def test_argmin_optimality_exhaustive(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            sys = random_learning_system(rng)
            d = random_dataset(rng, sys, int(rng.integers(1, 10)))
            best = run_algorithm(d, sys)
            best_risk = empirical_risk(d, best, sys)
            for theta in sys.theta_set.elements:
                assert best_risk <= empirical_risk(d, theta, sys) + 1e-12

    def test_determinism(self):
        rng = np.random.default_rng(43)
        sys = random_learning_system(rng)
        d = random_dataset(rng, sys, 6)
        assert run_algorithm(d, sys) == run_algorithm(d, sys)

    def test_permutation_invariance_up_to_ties(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            sys = random_learning_system(rng)
            d = random_dataset(rng, sys, 5)
            hc = sys.hypotheses
            perm = list(sys.theta_set.elements)
            rng.shuffle(perm)
            permuted = LearningSystem(
                sys.x_set,
                sys.y_set,
                HypothesisClass(FiniteSet("T", tuple(perm)), hc.columns, hc.rows),
                sys.loss,
                sys.algorithm,
            )
            risk_a = empirical_risk(d, run_algorithm(d, sys), sys)
            risk_b = empirical_risk(d, run_algorithm(d, permuted), permuted)
            assert risk_a == pytest.approx(risk_b, abs=1e-12)
