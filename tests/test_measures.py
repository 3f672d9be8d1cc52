import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from helpers import DIVERGENCE_IS_METRIC, scalar_estimate_measure, scalar_mmd
from transferlab import cli
from transferlab.errors import (
    EmptyDataset,
    EstimationError,
    MissingOrder,
    SupportMismatch,
)
from transferlab.measures import (
    _DIVERGENCES,
    ConditionalMeasure,
    EmpiricalMeasure,
    divergence,
    estimate_measure,
    hellinger_distance,
    joint_measure,
    kl_divergence,
    output_marginal,
    pushforward,
    total_variation,
    wasserstein1,
)
from transferlab.relations import FiniteSet
from transferlab.specio import json_text


def measure(probs, elements=None, name="s"):
    elements = tuple(elements or range(len(probs)))
    return EmpiricalMeasure(FiniteSet(name, elements), tuple(probs))


def lp_transport_cost(p: EmpiricalMeasure, q: EmpiricalMeasure) -> float:
    """Minimum-cost transport between two measures on the numeric line."""
    coords = [float(e) for e in p.support.elements]
    n = len(coords)
    cost = [abs(coords[i] - coords[j]) for i in range(n) for j in range(n)]
    a_eq, b_eq = [], []
    for i in range(n):
        row = [0.0] * (n * n)
        for j in range(n):
            row[i * n + j] = 1.0
        a_eq.append(row)
        b_eq.append(p.probs[i])
    for j in range(n):
        row = [0.0] * (n * n)
        for i in range(n):
            row[i * n + j] = 1.0
        a_eq.append(row)
        b_eq.append(q.prob(p.support.elements[j]))
    result = linprog(cost, A_eq=a_eq[:-1], b_eq=b_eq[:-1], bounds=(0, None))
    assert result.success
    return result.fun


ESTIMATE_GOLDEN = Path(__file__).parent / "golden" / "estimate_measure.json"


def test_marginal_estimates_match_their_golden():
    pairs = [("b", 1), ("a", 0), ("b", 0), ("c", 1), ("a", 0)]
    sup_x = FiniteSet("sx", ("a", "b", "c", "d"))
    sup_y = FiniteSet("sy", (0, 1, 2))
    supports = {"x": sup_x, "y": sup_y, "xy": (sup_x, sup_y)}
    estimates = {
        f"{over}.{'declared' if declared else 'observed'}.{smoothing!r}": cli._jsonable(
            estimate_measure(pairs, over, smoothing, supports[over] if declared else None)
        )
        for over, declared, smoothing in itertools.product(supports, (False, True), (0.0, 1e-9))
    }
    assert json_text(estimates) + "\n" == ESTIMATE_GOLDEN.read_text(encoding="utf-8")


@settings(max_examples=80)
@given(
    st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 2)), min_size=1, max_size=12),
    st.sampled_from(["x", "y", "xy"]),
    st.booleans(),
    st.sampled_from([0.0, 1e-9, 0.5]),
)
def test_marginal_estimates_match_the_counter_oracle(pairs, over, declared, smoothing):
    sup_x, sup_y = FiniteSet("sx", ("a", "b", "c", "d")), FiniteSet("sy", (0, 1, 2))
    support = {"x": sup_x, "y": sup_y, "xy": (sup_x, sup_y)}[over] if declared else None
    estimate = estimate_measure(pairs, over, smoothing, support)
    assert estimate == scalar_estimate_measure(pairs, over, smoothing, support)


class TestEstimation:
    def test_marginal_symmetry(self):
        m = estimate_measure([("a", 0), ("a", 0), ("b", 1), ("b", 1)], "x")
        assert m.as_dict() == {"a": 0.5, "b": 0.5}

    def test_conditional_rows(self):
        c = estimate_measure([("a", 0), ("a", 0), ("b", 1), ("b", 1)], "y_given_x")
        assert c.row("a").prob(0) == 1.0
        assert c.row("b").prob(1) == 1.0

    def test_smoothing_formula(self):
        sup = FiniteSet("s", ("u", "v"))
        m = EmpiricalMeasure.from_counts(sup, {"u": 4}, smoothing=0.01)
        assert m.prob("u") == pytest.approx((4 + 0.01) / (4 + 2 * 0.01), abs=1e-15)
        assert m.prob("v") == pytest.approx(0.01 / (4 + 2 * 0.01), abs=1e-15)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            estimate_measure([], "x")

    def test_unobserved_row_needs_smoothing(self):
        sup_x = FiniteSet("X", ("a", "b"))
        sup_y = FiniteSet("Y", (0, 1))
        with pytest.raises(EstimationError):
            estimate_measure([("a", 0)], "y_given_x", support=(sup_x, sup_y))
        c = estimate_measure([("a", 0)], "y_given_x", smoothing=1.0, support=(sup_x, sup_y))
        assert c.row("b").probs == (0.5, 0.5)

    def test_joint_estimate(self):
        m = estimate_measure([("a", 0), ("b", 1)], "xy")
        assert m.prob(("a", 0)) == 0.5


class TestDivergenceExamples:
    @pytest.mark.parametrize("kind", ["kl", "hellinger", "tv", "w1", "mmd"])
    def test_identity_of_indiscernibles(self, kind):
        p = measure([0.2, 0.5, 0.3])
        assert divergence(p, p, kind) <= 1e-12

    def test_tv_bernoulli(self):
        assert divergence(measure([0.8, 0.2]), measure([0.3, 0.7]), "tv") == pytest.approx(0.5)

    def test_w1_point_masses(self):
        p = measure([1, 0, 0, 0], elements=(0, 1, 2, 3))
        q = measure([0, 0, 0, 1], elements=(0, 1, 2, 3))
        assert divergence(p, q, "w1") == pytest.approx(3.0)

    def test_hellinger_disjoint_masses(self):
        p = measure([1.0, 0.0])
        q = measure([0.0, 1.0])
        assert divergence(p, q, "hellinger") == pytest.approx(1.0)

    def test_kl_zero_mass_sentinel(self):
        p = measure([1.0, 0.0])
        q = measure([0.0, 1.0])
        assert divergence(p, q, "kl") == math.inf

    def test_support_mismatch(self):
        p = measure([1.0], elements=("a",))
        q = measure([1.0], elements=("b",))
        with pytest.raises(SupportMismatch):
            divergence(p, q, "tv")

    def test_w1_missing_order(self):
        p = measure([0.5, 0.5], elements=("a", "b"))
        with pytest.raises(MissingOrder, match="'a' is not a number"):
            divergence(p, p, "w1")

    def test_mmd_match_kernel_is_l2(self):
        p = measure([0.2, 0.8])
        q = measure([0.7, 0.3])
        expected = math.sqrt(0.5**2 + 0.5**2)
        assert divergence(p, q, "mmd") == pytest.approx(expected)


@st.composite
def measure_pairs(draw):
    """Two measures on one symbolic or numeric support, with cells empty in one or both."""
    n = draw(st.integers(1, 6))
    elements = draw(st.sampled_from([tuple("abcdef"[:n]), tuple(range(n)), (-1, *range(1, n))]))
    counts = st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=n, max_size=n).filter(any)
    p_counts = draw(counts)
    agree = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    q_counts = [pc if same else qc for pc, qc, same in zip(p_counts, draw(counts), agree)]
    if not any(q_counts):
        q_counts = p_counts
    return tuple(measure([c / sum(cs) for c in cs], elements) for cs in (p_counts, q_counts))


@settings(max_examples=200)
@given(measure_pairs())
def test_mmd_equals_the_match_kernel_double_sum_exactly(pair):
    p, q = pair
    assert divergence(p, q, "mmd") == scalar_mmd(p, q)


def random_measure(rng, support):
    w = rng.random(len(support)) + 1e-3
    return EmpiricalMeasure(support, tuple(w / w.sum()))


class TestDivergenceAxioms:
    def test_axioms_on_random_pairs(self):
        rng = np.random.default_rng(21)
        kl_asymmetric_witnessed = False
        for _ in range(60):
            n = int(rng.integers(2, 11))
            support = FiniteSet("s", tuple(range(n)))
            p, q, r = (random_measure(rng, support) for _ in range(3))
            for kind in DIVERGENCE_IS_METRIC:
                d_pq = divergence(p, q, kind)
                assert d_pq >= 0
                assert divergence(p, p, kind) <= 1e-12
            assert divergence(p, q, "tv") <= 1 + 1e-12
            assert divergence(p, q, "hellinger") <= 1 + 1e-12
            for kind in (k for k, is_metric in DIVERGENCE_IS_METRIC.items() if is_metric):
                assert divergence(p, q, kind) == pytest.approx(
                    divergence(q, p, kind), abs=1e-12
                )
                assert divergence(p, r, kind) <= divergence(p, q, kind) + divergence(
                    q, r, kind
                ) + 1e-12
            if abs(kl_divergence(p, q) - kl_divergence(q, p)) > 1e-9:
                kl_asymmetric_witnessed = True
        assert kl_asymmetric_witnessed

    def test_w1_equals_lp_transport(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            support = FiniteSet("s", tuple(sorted(rng.choice(50, n, replace=False).tolist())))
            p = random_measure(rng, support)
            q = random_measure(rng, support)
            assert wasserstein1(p, q) == pytest.approx(lp_transport_cost(p, q), abs=1e-9)

    def test_metric_tags(self):
        assert DIVERGENCE_IS_METRIC.keys() == _DIVERGENCES.keys()
        assert DIVERGENCE_IS_METRIC["kl"] is False
        assert all(DIVERGENCE_IS_METRIC[k] for k in ("tv", "hellinger", "w1", "mmd"))


class TestFactorization:
    def test_joint_equals_marginal_times_conditional(self):
        rng = np.random.default_rng(4)
        pairs = [
            (f"x{rng.integers(3)}", int(rng.integers(2))) for _ in range(50)
        ]
        sup_x = FiniteSet("X", ("x0", "x1", "x2"))
        sup_y = FiniteSet("Y", (0, 1))
        marginal = estimate_measure(pairs, "x", support=sup_x)
        conditional = estimate_measure(pairs, "y_given_x", support=(sup_x, sup_y))
        joint_est = estimate_measure(pairs, "xy", support=(sup_x, sup_y))
        joint_fac = joint_measure(marginal, conditional)
        for el in joint_fac.support.elements:
            assert joint_fac.prob(el) == pytest.approx(joint_est.prob(el), abs=1e-12)

    def test_output_marginal(self):
        sup_x = FiniteSet("X", ("a", "b"))
        sup_y = FiniteSet("Y", (0, 1))
        marginal = EmpiricalMeasure(sup_x, (0.25, 0.75))
        conditional = ConditionalMeasure(
            sup_x,
            {
                "a": EmpiricalMeasure(sup_y, (1.0, 0.0)),
                "b": EmpiricalMeasure(sup_y, (0.0, 1.0)),
            },
        )
        out = output_marginal(marginal, conditional)
        assert out.prob(0) == pytest.approx(0.25)

    def test_pushforward_masses(self):
        p = measure([0.25, 0.25, 0.5], elements=("a", "b", "c"))
        image = pushforward(p, {"a": "u", "b": "u", "c": "v"}, FiniteSet("img", ("v", "w", "u")))
        assert image.probs == (0.5, 0.0, 0.5)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
)
def test_tv_hellinger_bounds_property(w1, w2):
    n = min(len(w1), len(w2))
    support = FiniteSet("s", tuple(range(n)))

    def normalized(weights):
        return EmpiricalMeasure(support, tuple(w / math.fsum(weights) for w in weights))

    p, q = normalized(w1[:n]), normalized(w2[:n])
    assert 0 <= total_variation(p, q) <= 1 + 1e-12
    assert 0 <= hellinger_distance(p, q) <= 1 + 1e-12
    assert kl_divergence(p, q) >= 0
