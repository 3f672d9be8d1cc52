"""The dense objective core against the scalar oracle in ``helpers``.

On random small systems (non-full tables, |X| <= 4, |Y| <= 3, data with
repeats, zero-one and squared loss) the vector of objective values must
be repr-equal to the oracle's per-θ values, the selected parameter must
be the oracle's first minimizer, and both must raise the same errors.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import as_goal_seeking, scalar_argmin, selection_objective, transfer_objective
from transferlab.learning import (
    AlgorithmSpec,
    Dataset,
    HypothesisClass,
    LearningSystem,
    LossSpec,
    run_algorithm,
    selection_values,
)
from transferlab.relations import FiniteSet
from transferlab.transfer import (
    APPROACHES,
    FeatureRepSpec,
    Knowledge,
    TransferSystem,
    run_transfer,
    transfer_values,
)

LABELS = (0, 1, 2.5, -0.3, 7.1)
SETTINGS = settings(max_examples=150, deadline=None)


def outcome(fn):
    """The value ``fn`` returns, or the class of the error it raises."""
    try:
        return fn()
    except Exception as exc:  # the error class is what gets compared
        return type(exc)


def reprs(values):
    return values if isinstance(values, type) else [repr(v) for v in values]


@st.composite
def tables(draw, thetas, xs, ys):
    return {(t, x): draw(st.sampled_from(ys)) for t in thetas for x in xs}


@st.composite
def datasets(draw, xs, ys, max_size=8):
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(xs), st.sampled_from(ys)), max_size=max_size)
    )
    return Dataset(tuple(pairs), "d")


@st.composite
def systems(draw, prefix, xs=None, ys=None, loss="zero_one", algorithm=AlgorithmSpec()):
    if xs is None:
        xs = tuple(f"{prefix}x{i}" for i in range(draw(st.integers(1, 4))))
    if ys is None:
        ys = tuple(draw(st.permutations(LABELS))[: draw(st.integers(1, 3))])
    thetas = tuple(f"t{i}" for i in range(draw(st.integers(1, 6))))
    return LearningSystem(
        FiniteSet(f"{prefix}X", xs),
        FiniteSet(f"{prefix}Y", ys),
        HypothesisClass(FiniteSet(f"{prefix}T", thetas), draw(tables(thetas, xs, ys))),
        LossSpec(loss),
        algorithm,
    )


losses = st.sampled_from(("zero_one", "squared"))
penalty_weights = st.sampled_from((0.0, 0.1, 0.7, 3))


@SETTINGS
@given(st.data(), losses, st.booleans(), penalty_weights)
def test_learning_matches_oracle(data, loss, penalized, weight):
    system = data.draw(systems("", loss=loss))
    if penalized:
        anchor = data.draw(st.sampled_from(system.theta_set.elements))
        system = LearningSystem(
            system.x_set, system.y_set, system.hypotheses, system.loss,
            AlgorithmSpec("penalized", anchor=anchor, weight=weight),
        )
    d = data.draw(datasets(system.x_set.elements, system.y_set.elements))
    thetas = system.theta_set.elements

    expected = outcome(lambda: [selection_objective(d, t, system) for t in thetas])
    assert reprs(outcome(lambda: selection_values(d, system).tolist())) == reprs(expected)

    if penalized and len(d) == 0:
        chosen = system.algorithm.anchor
    else:
        chosen = outcome(
            lambda: scalar_argmin(thetas, lambda t: selection_objective(d, t, system))
        )
    assert outcome(lambda: run_algorithm(d, system)) == chosen

    if not isinstance(expected, type) and not isinstance(chosen, type):
        _, gs = as_goal_seeking(system, [d])
        assert [repr(gs.goal[("d0", t)]) for t in thetas] == reprs(expected)


@st.composite
def transfer_systems(draw, loss):
    target = draw(systems("t", loss=loss))
    ys = target.y_set.elements
    source_xs = target.x_set.elements + (("sx",) if draw(st.booleans()) else ())
    source = draw(systems("s", xs=source_xs, ys=ys, loss=loss))
    approach = draw(st.sampled_from(APPROACHES))
    instances = draw(datasets(source_xs, ys))
    shared = min(len(source.theta_set), len(target.theta_set))
    anchor = draw(st.sampled_from(target.theta_set.elements[:shared]))
    knowledge = Knowledge(
        instances=instances if approach != "parameter" else None,
        parameters=(anchor,) if approach in ("parameter", "instance_parameter") else None,
    )
    latent = None
    if approach == "feature_representation":
        lat = draw(systems("z", ys=ys, loss=loss))
        lat_pairs = st.tuples(
            st.sampled_from(lat.x_set.elements), st.sampled_from(lat.y_set.elements)
        )

        def pair_map(xs):
            return {(x, y): draw(lat_pairs) for x in xs for y in ys}

        latent = FeatureRepSpec(
            lat,
            pair_map(target.x_set.elements),
            pair_map(source_xs),
            {x: draw(st.sampled_from(lat.x_set.elements)) for x in target.x_set.elements},
            {y: draw(st.sampled_from(ys)) for y in lat.y_set.elements},
        )
    return TransferSystem(
        source, target, knowledge, approach, latent=latent,
        penalty_weight=draw(penalty_weights),
        pool_weight=draw(st.sampled_from((0.5, 1.0, 2.5))),
    )


@SETTINGS
@given(st.data(), losses)
def test_transfer_matches_oracle(data, loss):
    ts = data.draw(transfer_systems(loss))
    d = data.draw(datasets(ts.target.x_set.elements, ts.target.y_set.elements))
    thetas = ts.theta_tr_set.elements

    expected = outcome(lambda: [transfer_objective(ts, d, t) for t in thetas])
    assert reprs(outcome(lambda: transfer_values(ts, d)[0].tolist())) == reprs(expected)

    if ts.approach == "parameter" and len(d) == 0:
        chosen, objective = ts.knowledge.parameters[0], []
    else:
        chosen = outcome(lambda: scalar_argmin(thetas, lambda t: transfer_objective(ts, d, t)))
        objective = expected
    result = outcome(lambda: run_transfer(ts, d))
    if isinstance(result, type):
        assert result == chosen
    else:
        selected, trace = result
        assert selected == chosen
        assert list(trace.objective) == list(thetas)[: len(objective)]
        assert reprs(list(trace.objective.values())) == reprs(objective)
