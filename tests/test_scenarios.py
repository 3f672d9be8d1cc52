"""Seeded dataset draws against the per-pair oracle in ``helpers``.

``sample_dataset`` draws every label's uniform at once; it must give the
pairs, and leave the generator in the state, of one ``rng.choice`` per
label.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import scalar_sample_dataset
from transferlab.measures import ConditionalMeasure, EmpiricalMeasure
from transferlab.relations import FiniteSet
from transferlab.scenarios import ScenarioSpec, generate_pair, sample_dataset


def same_draws(marginal, posterior, size, seed):
    """Both samplers from one seed: equal datasets, and equal next draws after them."""
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_dataset(marginal, posterior, size, rng, "d")
    expected = scalar_sample_dataset(marginal, posterior, size, oracle_rng, "d")
    assert got == expected
    assert rng.random() == oracle_rng.random()


@pytest.mark.parametrize("size", [0, 1, 10, 40])
@pytest.mark.parametrize("seed", range(25))
def test_scenario_packs_draw_as_the_oracle_does(seed, size):
    spec = ScenarioSpec(
        grid_size=3 + seed % 4, label_count=2 + seed % 3, marginal_shift=0.3,
        posterior_flip=(0.0, 0.2, 0.5)[seed % 3], sample_sizes=(4, 4), seed=seed,
    )
    for pack in generate_pair(spec)[:2]:
        same_draws(*pack.measures(), size, seed)


def normalized(support, weights):
    """The measure proportional to ``weights``; all zero: the point mass on the first element."""
    if not any(weights):
        weights = [1.0] + [0.0] * (len(weights) - 1)
    return EmpiricalMeasure(support, tuple(w / sum(weights) for w in weights))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 5), st.sampled_from((0, 1, 10, 40)), st.integers(0, 2**32 - 1))
def test_rows_with_zero_probability_labels_draw_as_the_oracle_does(data, n_x, size, seed):
    """Random rows, many with zero-probability labels; with one label, one-label rows."""
    n_y = data.draw(st.integers(1, 4))
    xs, ys = FiniteSet("X", tuple(f"x{i}" for i in range(n_x))), FiniteSet("Y", tuple(range(n_y)))

    def weights(n):
        return data.draw(st.lists(st.sampled_from((0.0, 0.0, 1.0, 2.0, 7.0)), min_size=n, max_size=n))

    posterior = ConditionalMeasure(xs, {x: normalized(ys, weights(n_y)) for x in xs})
    same_draws(normalized(xs, weights(n_x)), posterior, size, seed)


@pytest.mark.parametrize(
    "edit, arity, shared",
    [(None, 1, True), (None, 2, True), ("drop_input", 2, False), ("truncate_output", 1, False)],
)
def test_packs_share_one_system_exactly_when_no_edit_sets_them_apart(edit, arity, shared):
    """Without an edit both packs hold one system, so its operands are built once for both;
    an edit gives the target a system over its own sets."""
    spec = ScenarioSpec(
        grid_size=3 if arity == 1 else 2, grid_arity=arity, label_count=3, structural_edit=edit,
        seed=2,
    )
    source, target, facts = generate_pair(spec)
    assert (source.system is target.system) == shared
    assert (facts.input_spaces_equal and facts.output_spaces_equal) == shared
    for pack in (source, target):
        system = pack.system
        measures = (pack.marginal.support, pack.posterior.output_support)
        assert (system.x_set, system.y_set) == measures
        assert len(system.theta_set) == len(system.y_set) ** len(system.x_set)
