"""The dense objective core against the oracles in ``helpers``.

On random small systems (non-full tables, |X| <= 6, |Y| <= 5, data with
repeats, zero-one and squared loss) the vector of objective values, and
each θ's empirical risk, must be repr-equal to the scalar oracle's
per-θ values, the selected parameter must be the oracle's first
minimizer, and both must raise the same errors.  On count tables with
all-zero rows, and on the full class at |X| = 12 with up to 2**40 pairs
per cell, the zero-one totals and anchor distances must be repr-equal to
the gather oracle's.  A stack of count tables must give each table the
rows and values a one-table call and the oracles give it, and a stack
over the cap is refused before any value is made.  The zero-one operand
is the scalar indicator whatever the order of a table's columns and
outputs, each owner builds its operand and its anchor distances once,
and the feature rule's mapped count tables are those of the mapped
datasets.
"""

import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    as_goal_seeking,
    gather_anchor_distance,
    gather_loss_totals,
    latent_dataset,
    scalar_argmin,
    scalar_count_table,
    scalar_loss_totals,
    scalar_risk,
    selection_objective,
    table_class,
    transfer_objective,
)
from transferlab import learning, transfer
from transferlab.errors import CapExceeded, EmptyDataset
from transferlab.evaluation import build_transfer_system, detect_negative_transfer
from transferlab.learning import (
    VALUE_CELL_CAP,
    AlgorithmSpec,
    Dataset,
    HypothesisClass,
    LearningSystem,
    LossSpec,
    _anchor_term,
    _loss_totals,
    empirical_risk,
    fit,
    full_function_class,
    minimize,
    run_algorithm,
    score_table,
    verify_learning_axioms,
)
from transferlab.relations import FiniteSet
from transferlab.scenarios import ScenarioSpec, generate_pair
from transferlab.transfer import (
    APPROACHES,
    FeatureRepSpec,
    Knowledge,
    TransferSystem,
    run_transfer,
    transfer_fit,
    transfer_fit_stack,
    verify_transfer_is_learning_system,
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
        xs = tuple(f"{prefix}x{i}" for i in range(draw(st.integers(1, 6))))
    if ys is None:
        ys = tuple(draw(st.permutations(LABELS))[: draw(st.integers(1, len(LABELS)))])
    thetas = tuple(f"t{i}" for i in range(draw(st.integers(1, 6))))
    return LearningSystem(
        FiniteSet(f"{prefix}X", xs),
        FiniteSet(f"{prefix}Y", ys),
        table_class(FiniteSet(f"{prefix}T", thetas), draw(tables(thetas, xs, ys))),
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
    assert reprs(outcome(lambda: fit(d, system)[1].tolist())) == reprs(expected)
    risks = outcome(lambda: [scalar_risk(d, t, system) for t in thetas])
    assert reprs(outcome(lambda: [empirical_risk(d, t, system) for t in thetas])) == reprs(risks)

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
    assert reprs(outcome(lambda: transfer_fit(ts, d)[1].tolist())) == reprs(expected)

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


@st.composite
def count_tables(draw, shape, cells=st.integers(0, 5)):
    """``C[x, y]`` with counts drawn from ``cells``, where some inputs have an all-zero row."""
    n_x, n_y = shape
    row = st.lists(cells, min_size=n_y, max_size=n_y)
    return np.array(
        [draw(row) if draw(st.booleans()) else [0] * n_y for _ in range(n_x)], dtype=np.int64
    )


def oracle_objective(totals, codes, counts, pooled, pool_weight, anchor, penalty_weight):
    """Every θ's objective from the oracle ``totals(C)``, in the core's float order.

    ``pooled`` and ``anchor`` may be ``None``; a table that, pooled, counts
    no pair gives the penalty alone (``None`` without an anchor).
    """
    numerator, denominator = totals(counts), int(counts.sum())
    if pooled is not None:
        numerator = numerator + pool_weight * totals(pooled)
        denominator = denominator + pool_weight * int(pooled.sum())
    risk = numerator / denominator if denominator else None
    if anchor is None:
        return risk
    penalty = penalty_weight * (gather_anchor_distance(codes, anchor) / codes.shape[1])
    return penalty if risk is None else risk + penalty


def gather_objective(codes, counts, pooled, pool_weight, anchor, penalty_weight):
    """The zero-one objective of every θ from the gather oracle."""
    totals = partial(gather_loss_totals, codes)
    return oracle_objective(totals, codes, counts, pooled, pool_weight, anchor, penalty_weight)


@SETTINGS
@given(st.data(), penalty_weights, st.sampled_from((0.5, 1.0, 2.5)))
def test_target_pool_and_anchor_match_gather_oracle(data, penalty_weight, pool_weight):
    system = data.draw(systems(""))
    codes, shape = system.codes, (len(system.x_set), len(system.y_set))
    counts, pooled = data.draw(count_tables(shape)), data.draw(count_tables(shape))
    assume(counts.sum() + pooled.sum() > 0)
    anchor = data.draw(st.integers(0, len(codes) - 1))

    scored = score_table(system, pooled)
    _, values = minimize(
        system, counts[None], scored, pool_weight, _anchor_term(codes, anchor), penalty_weight
    )
    expected = gather_objective(codes, counts, pooled, pool_weight, anchor, penalty_weight)
    assert reprs(values[0].tolist()) == reprs(expected.tolist())


@SETTINGS
@given(st.data(), losses, st.integers(1, 5), st.integers(1, 4), st.booleans(), st.booleans())
def test_a_stack_scores_each_table_as_it_alone_and_the_oracles_do(
    data, loss, m, n_y, pooled_in, anchored
):
    """m tables in one call: the rows and values of m one-table calls and of the oracles."""
    system = data.draw(systems("", ys=LABELS[:n_y], loss=loss))
    codes, shape = system.codes, (len(system.x_set), n_y)
    cells = st.sampled_from((0, 1, 3, 2**40))  # zero-one totals stay exact up to 2**53
    tables = np.array([data.draw(count_tables(shape, cells)) for _ in range(m)])
    pooled = data.draw(count_tables(shape, cells)) if pooled_in else None
    anchor = data.draw(st.integers(0, len(codes) - 1)) if anchored else None
    # A weight of -0.0 gives an empty table the penalty -0.0, as written, not 0.0 + -0.0.
    terms = (pooled, 2.5, anchor, data.draw(st.sampled_from((0.7, -0.0))))
    scored = None if pooled is None else score_table(system, pooled)
    anchored = None if anchor is None else _anchor_term(codes, anchor)
    args = (scored, terms[1], anchored, terms[3])

    singles = outcome(lambda: [minimize(system, t[None], *args) for t in tables])
    got = outcome(lambda: minimize(system, tables, *args))
    if isinstance(singles, type):
        assert got is singles is EmptyDataset  # a table without pairs and no anchor
        return
    rows, values = got
    assert values.shape == (m, len(codes))
    assert rows.tolist() == [int(row[0]) for row, _ in singles]
    assert reprs(values.ravel().tolist()) == reprs([v for _, vs in singles for v in vs[0].tolist()])

    if loss == "zero_one":
        totals = partial(gather_loss_totals, codes)
    else:
        totals = partial(scalar_loss_totals, system)
    for table, row, objective in zip(tables, rows.tolist(), values):
        expected = oracle_objective(totals, codes, table, *terms)
        assert reprs(objective.tolist()) == reprs(expected.tolist())
        data_term = table.sum() + (0 if pooled is None else pooled.sum()) > 0
        chosen = scalar_argmin(range(len(codes)), expected.__getitem__) if data_term else anchor
        assert row == chosen


def test_a_stack_over_the_cap_is_refused_before_any_value_is_made():
    """The cap is checked first: a broadcast stack one table over it allocates nothing."""
    x_set, y_set = FiniteSet("X", ("a", "b")), FiniteSet("Y", (0, 1))
    system = LearningSystem(x_set, y_set, full_function_class(x_set, y_set))
    m = VALUE_CELL_CAP // len(system.codes) + 1
    tables = np.broadcast_to(np.ones((2, 2), np.int64), (m, 2, 2))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=f"^{m} count tables × 4 parameters exceed the cap"):
            minimize(system, tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    rows, values = minimize(system, tables[:64])
    assert values.shape == (64, 4) and set(rows.tolist()) == {0}


def test_full_class_at_the_cap_matches_gather_oracle():
    """All 4096 θ of |X| = 12, |Y| = 2, with up to 2**40 pairs per cell."""
    x_set = FiniteSet("X", tuple(f"x{i}" for i in range(12)))
    y_set = FiniteSet("Y", (0, 1))
    system = LearningSystem(x_set, y_set, full_function_class(x_set, y_set))
    codes = system.codes
    assert codes.shape == (4096, 12)
    counts = np.random.default_rng(13).integers(0, 2**40, (12, 2), np.int64, endpoint=True)
    counts[[3, 7]] = 0
    pooled = np.full((12, 2), 2**40, dtype=np.int64)

    totals = _loss_totals(system, np.array([counts, pooled]))
    for table, row in zip((counts, pooled), totals):
        assert reprs(row.tolist()) == reprs(gather_loss_totals(codes, table).tolist())
    empty = np.zeros((1, 12, 2), dtype=np.int64)
    for anchor in (0, 1234, 4095):
        anchored = _anchor_term(codes, anchor)
        rows, distances = minimize(system, empty, anchor=anchored, penalty_weight=1.0)
        assert rows.tolist() == [anchor]
        expected = gather_anchor_distance(codes, anchor) / 12
        assert reprs(distances[0].tolist()) == reprs(expected.tolist())
        scored = score_table(system, pooled)
        _, values = minimize(system, counts[None], scored, 2.5, anchored, 0.7)
        expected = gather_objective(codes, counts, pooled, 2.5, anchor, 0.7)
        assert reprs(values[0].tolist()) == reprs(expected.tolist())


# -- the operands each owner builds once ------------------------------------------------

def scalar_operand(system):
    """The zero-one operand cell by cell: row (x, y ≥ 1), column θ, 1.0 where ``H[θ](x) == y``."""
    h, ys = system.hypotheses.output, system.y_set.elements[1:]
    return [
        [1.0 if h(t, x) == y else 0.0 for t in system.theta_set]
        for x in system.x_set
        for y in ys
    ]


@st.composite
def shuffled_systems(draw, n_y, anchored):
    """A system whose table holds its columns and outputs in an order other than X's and Y's;
    penalized toward a drawn anchor if ``anchored``."""
    xs = tuple(f"x{i}" for i in range(draw(st.integers(1, 5))))
    ys = ("a", 1, 2.5, "d")[:n_y]
    columns = draw(st.permutations(xs).filter(lambda p: len(xs) == 1 or list(p) != list(xs)))
    outputs = draw(st.permutations(ys).filter(lambda p: n_y == 1 or list(p) != list(ys)))
    n_theta = draw(st.integers(1, 6))
    codes = np.array(
        [[draw(st.integers(0, n_y - 1)) for _ in xs] for _ in range(n_theta)], dtype=np.uint8
    )
    thetas = FiniteSet("T", tuple(f"t{i}" for i in range(n_theta)))
    algorithm = AlgorithmSpec()
    if anchored:
        anchor = draw(st.sampled_from(thetas.elements))
        algorithm = AlgorithmSpec("penalized", anchor, draw(penalty_weights))
    table = HypothesisClass.of_codes(thetas, columns, codes, outputs)
    return LearningSystem(FiniteSet("X", xs), FiniteSet("Y", ys), table, LossSpec(), algorithm)


@pytest.mark.parametrize("n_y", [1, 2, 3, 4])
@SETTINGS
@given(data=st.data(), m=st.integers(1, 4), pooled_in=st.booleans(), anchored=st.booleans())
def test_the_operand_and_its_stacks_match_the_scalar_objective(n_y, data, m, pooled_in, anchored):
    """Over columns and outputs out of X's and Y's order, the operand is the scalar indicator,
    and a stack of tables, pooled or anchored, scores as the scalar loss totals give it."""
    system = data.draw(shuffled_systems(n_y, anchored))
    operand = system.zero_one_operand
    assert operand.dtype == np.float64 and operand.flags.c_contiguous
    assert not operand.flags.writeable
    assert operand.shape == (len(system.x_set) * (n_y - 1), len(system.theta_set))
    assert operand.tolist() == scalar_operand(system)

    shape, cells = (len(system.x_set), n_y), st.sampled_from((0, 1, 3, 2**40))
    tables = np.array([data.draw(count_tables(shape, cells)) for _ in range(m)])
    pooled = data.draw(count_tables(shape, cells)) if pooled_in else None
    scored = None if pooled is None else score_table(system, pooled)
    algo = system.algorithm
    anchor = system.theta_set.index(algo.anchor) if anchored else None
    got = outcome(lambda: minimize(system, tables, scored, 2.5, system.anchor_term, algo.weight))
    totals = partial(scalar_loss_totals, system)
    terms = (pooled, 2.5, anchor, algo.weight)
    expected = [oracle_objective(totals, system.codes, t, *terms) for t in tables]
    if any(e is None for e in expected):
        assert got is EmptyDataset  # a table without pairs and no anchor
        return
    rows, values = got
    for table, row, objective, exp in zip(tables, rows.tolist(), values, expected):
        assert reprs(objective.tolist()) == reprs(exp.tolist())
        data_term = table.sum() + (0 if pooled is None else pooled.sum()) > 0
        assert row == (scalar_argmin(range(len(exp)), exp.__getitem__) if data_term else anchor)


@pytest.fixture
def builds(monkeypatch):
    """The calls of each operand builder, by name, for every module that holds one."""
    calls = {"operand": [], "anchor": []}

    def counting(name, fn):
        def build(*args):
            calls[name].append(args)
            return fn(*args)
        return build

    operand = counting("operand", learning._zero_one_operand)
    monkeypatch.setattr(learning, "_zero_one_operand", operand)
    anchor_term = counting("anchor", learning._anchor_term)
    for module in (learning, transfer):
        monkeypatch.setattr(module, "_anchor_term", anchor_term)
    return calls


def fresh_system(algorithm=AlgorithmSpec()):
    x_set, y_set = FiniteSet("X", ("a", "b", "c")), FiniteSet("Y", (0, 1, 2))
    return LearningSystem(x_set, y_set, full_function_class(x_set, y_set), LossSpec(), algorithm)


DATA = [Dataset((("a", 1), ("b", 2))), Dataset((("c", 0),)), Dataset((("a", 2), ("a", 0)))]


def test_two_fits_of_one_system_build_each_operand_once(builds):
    system = fresh_system(AlgorithmSpec("penalized", anchor="h05", weight=0.5))
    fit(DATA[0], system)
    fit(DATA[1], system)
    assert len(builds["operand"]) == 1 and len(builds["anchor"]) == 1


def test_the_axiom_audit_builds_the_operand_once(builds):
    assert verify_learning_axioms(fresh_system(), DATA).passed
    assert len(builds["operand"]) == 1 and builds["anchor"] == []


def test_negative_transfer_builds_one_operand_and_one_anchor_per_transfer_system(builds):
    spec = ScenarioSpec(grid_size=3, label_count=2, sample_sizes=(8, 6), seed=3)
    source, target, _ = generate_pair(spec)
    ts = build_transfer_system(source, target, "parameter")
    detect_negative_transfer(source, target, ts, seeds=3)
    assert len(builds["operand"]) == 1  # one system serves both packs
    assert len(builds["anchor"]) == 3  # each seed trains the source anew, in a system of its own


@pytest.mark.parametrize("approach", ["parameter", "instance_parameter"])
def test_every_fit_of_a_parameter_rule_measures_its_anchor_once(builds, approach):
    target = fresh_system()
    instances = DATA[0] if approach == "instance_parameter" else None
    ts = TransferSystem(target, target, Knowledge(instances, ("h07",)), approach)
    for d in DATA:
        run_transfer(ts, d)
    assert verify_transfer_is_learning_system(ts, DATA).passed
    assert [args[1] for args in builds["anchor"]] == [7]
    assert not ts.anchor_term[1].flags.writeable
    assert len(builds["operand"]) == 1


@st.composite
def feature_systems(draw):
    """A feature-rule transfer system whose target pair map sends many pairs to one."""
    target = draw(systems("t"))
    xs, ys = target.x_set.elements, target.y_set.elements
    source = draw(systems("s", xs=xs, ys=ys))
    lat = draw(systems("z", ys=ys))
    lat_pairs = [(u, z) for u in lat.x_set.elements for z in lat.y_set.elements]
    pairs = [(x, y) for x in xs for y in ys]
    images = st.sampled_from(lat_pairs[: max(1, min(len(lat_pairs), len(pairs) - 1))])
    spec = FeatureRepSpec(
        lat,
        {p: draw(images) for p in pairs},
        {p: draw(st.sampled_from(lat_pairs)) for p in pairs},
        {x: draw(st.sampled_from(lat.x_set.elements)) for x in xs},
        {z: draw(st.sampled_from(ys)) for z in lat.y_set.elements},
    )
    instances = draw(datasets(xs, ys))
    return TransferSystem(source, target, Knowledge(instances), "feature_representation", spec)


@SETTINGS
@given(st.data())
def test_feature_rule_latent_tables_match_the_mapped_datasets(data):
    """Target tables mapped through the cell matrix, plus the source's latent table, are the
    counts of ``latent_dataset``; with two or more target pairs the pair map is many-to-one."""
    ts = data.draw(feature_systems())
    target, lat = ts.target, ts.latent.latent_system
    stack = [data.draw(datasets(target.x_set.elements, target.y_set.elements)) for _ in range(3)]
    with mock.patch.object(transfer, "minimize", side_effect=minimize) as spy:
        if outcome(lambda: transfer_fit_stack(ts, stack)) is EmptyDataset:
            return
    ((system, tables), _), = spy.call_args_list
    assert system is lat
    for d, table in zip(stack, tables):
        mapped = latent_dataset(ts, d).pairs
        assert table.tolist() == scalar_count_table(mapped, lat.x_set, lat.y_set).tolist()
