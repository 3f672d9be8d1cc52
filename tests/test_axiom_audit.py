"""The axiom audit against the scalar oracle in ``helpers``.

``verify_learning_axioms`` and ``verify_transfer_is_learning_system``
build the functional relation only from the parameters the inductive
relation couples, and decide goal-seeking without building the goal:
it is the objective, total on datasets × Θ and sought exactly at the
selections, so only carrier points off datasets × Θ and the tuples of
the inductive relation and the selections are visited.
``check_goal_seeking``, given an explicit goal, visits only the carrier
points that can fail.  On random small systems, corrupted and foreign
overrides, and random goal/seeking specs, each must return the oracle's
report (equal and repr-equal) or raise the oracle's exception with the
oracle's message.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    rows_over,
    scalar_check_goal_seeking,
    scalar_verify_decomposition,
    scalar_learning_axioms,
    scalar_transfer_axioms,
)
from test_objective_core import datasets, losses, penalty_weights, systems, transfer_systems
from transferlab import learning, transfer
from transferlab.errors import CouplingMismatch, TransferLabError
from transferlab.learning import (
    AlgorithmSpec,
    Dataset,
    HypothesisClass,
    LearningSystem,
    fit,
    fit_stack,
    full_function_class,
    verify_decomposition,
    verify_learning_axioms,
)
from transferlab.relations import FiniteSet, FiniteSystem, GoalSeekingSpec, check_goal_seeking
from transferlab.scenarios import ScenarioSpec, generate_pair
from transferlab.transfer import Knowledge, TransferSystem, verify_transfer_is_learning_system

SETTINGS = settings(max_examples=100, deadline=None)


def assert_same_outcome(fast, oracle):
    """``fast()`` returns what ``oracle()`` returns, or raises its error class and message."""
    try:
        expected = oracle()
    except Exception as exc:  # the oracle's error is the expected outcome
        with pytest.raises(Exception) as info:
            fast()
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        return
    got = fast()
    assert got == expected
    assert repr(got) == repr(expected)


def integer_parameters(system):
    """``system`` with its parameters renamed 0, 1, 2, ... in order."""
    thetas = FiniteSet("T", tuple(range(len(system.theta_set))))
    xs = system.x_set.elements
    rows = dict(zip(thetas.elements, rows_over(system.hypotheses, xs)))
    hypotheses = HypothesisClass(thetas, columns=xs, rows=rows)
    return LearningSystem(system.x_set, system.y_set, hypotheses, system.loss)


@st.composite
def learning_systems(draw):
    system = draw(systems("", loss=draw(losses)))
    if draw(st.booleans()):  # parameters that atoms of other types equal
        system = integer_parameters(system)
    if draw(st.booleans()):
        anchor = draw(st.sampled_from(system.theta_set.elements))
        system = LearningSystem(
            system.x_set, system.y_set, system.hypotheses, system.loss,
            AlgorithmSpec("penalized", anchor=anchor, weight=draw(penalty_weights)),
        )
    return system


def sample_datasets(draw, system):
    xs, ys = system.x_set.elements, system.y_set.elements
    return [draw(datasets(xs, ys)) for _ in range(draw(st.integers(1, 4)))]


@st.composite
def functional_overrides(draw, system, thetas=None):
    """The system's functional relation with cells dropped, changed and added.

    Over the parameter carrier ``thetas`` when one is given: the cells of
    its atoms that Θ holds, with the carrier's own atoms.
    """
    xs, ys = system.x_set, system.y_set
    cells = []
    carrier = system.theta_set if thetas is None else thetas
    known = [theta for theta in carrier.elements if theta in system.theta_set]
    for theta, x in itertools.product(known, xs.elements):
        fate = draw(st.sampled_from(("keep", "keep", "keep", "drop", "change")))
        if fate != "drop":
            y = system.hypotheses.output(theta, x)
            cells.append((theta, x, draw(st.sampled_from(ys.elements)) if fate == "change" else y))
    extra = st.tuples(*(st.sampled_from(c.elements) for c in (carrier, xs, ys)))
    cells += draw(st.lists(extra, max_size=3))
    if thetas is None and draw(st.integers(0, 5)) == 0:  # a coupling set with other elements
        carrier = FiniteSet("T+", carrier.elements + ("foreign",))
    return FiniteSystem((carrier, xs, ys), tuple(cells), ((0, 1), (2,)))


#: Atoms of other types equal to the integer parameters 0, 1 and 2.
EQUAL_ATOMS = {0: (0.0, False), 1: (1.0, True), 2: (2.0,)}


@st.composite
def parameter_carriers(draw, thetas):
    """Θ, or Θ with a foreign element added, reordered, cut down or with equal atoms swapped in."""
    fate = draw(st.sampled_from(("same", "same", "foreign", "reorder", "subset", "retype")))
    elements = list(thetas.elements)
    if fate == "same":
        return thetas
    if fate == "foreign":
        elements.append("foreign")
    elif fate == "reorder":
        elements = draw(st.permutations(elements))
    elif fate == "subset":  # drops elements, and may reorder the rest
        elements = draw(st.lists(st.sampled_from(elements), min_size=1, unique=True))
    else:
        elements = [draw(st.sampled_from(EQUAL_ATOMS.get(t, (t,)))) for t in elements]
    return FiniteSet("T+", tuple(elements))


@st.composite
def inductive_overrides(draw, thetas, n_datasets, carrier=None):
    """Sparse selections over a dataset carrier and a parameter carrier unlike the audit's.

    The dataset carrier holds fewer, as many or more names ``d<i>`` than
    there are samples, one time in four with names of other forms too,
    in any order.  The parameter carrier is ``carrier``, or one drawn by
    :func:`parameter_carriers`.  One relation in six has a third
    component.
    """
    names = [f"d{i}" for i in range(draw(st.integers(1, n_datasets + 2)))]
    if draw(st.integers(0, 3)) == 0:
        others = st.sampled_from(("e0", "d", "D1", 0))
        names += draw(st.lists(others, min_size=1, max_size=2, unique=True))
    components = [FiniteSet("datasets", tuple(draw(st.permutations(names))))]
    components.append(draw(parameter_carriers(thetas)) if carrier is None else carrier)
    if draw(st.integers(0, 5)) == 0:
        components.append(FiniteSet("E", ("e", 1.0)[: draw(st.integers(1, 2))]))
        # Θ on the output side with E among the inputs, or with E as a second output
        partition = draw(st.sampled_from((((0, 2), (1,)), ((2, 0), (1,)), ((0,), (1, 2)))))
    else:
        # one in three has Θ on the input side, which the cascade refuses
        partition = draw(st.sampled_from((((0,), (1,)), ((0,), (1,)), ((1,), (0,)))))
    tuples = st.tuples(*(st.sampled_from(c.elements) for c in components))
    chosen = draw(st.lists(tuples, max_size=2 * len(names)))
    return FiniteSystem(tuple(components), tuple(chosen), partition)


@SETTINGS
@given(st.data())
def test_learning_axioms_match_oracle(data):
    system = data.draw(learning_systems())
    samples = sample_datasets(data.draw, system)
    assert_same_outcome(
        lambda: verify_learning_axioms(system, samples),
        lambda: scalar_learning_axioms(system, samples),
    )


@SETTINGS
@given(st.data())
def test_corrupted_functional_override_matches_oracle(data):
    system = data.draw(learning_systems())
    samples = sample_datasets(data.draw, system)
    override = data.draw(functional_overrides(system))
    assert_same_outcome(
        lambda: verify_learning_axioms(system, samples, functional_system=override),
        lambda: scalar_learning_axioms(system, samples, functional_system=override),
    )


@SETTINGS
@given(st.data())
def test_inductive_override_matches_oracle(data):
    system = data.draw(learning_systems())
    samples = sample_datasets(data.draw, system)
    override = data.draw(inductive_overrides(system.theta_set, len(samples)))
    assert_same_outcome(
        lambda: verify_learning_axioms(system, samples, inductive_system=override),
        lambda: scalar_learning_axioms(system, samples, inductive_system=override),
    )


@SETTINGS
@given(st.data())
def test_overrides_on_one_parameter_carrier_match_oracle(data):
    # The cascade accepts any pair of coupling sets with equal elements, so the
    # goal-seeking check runs on foreign, cut-down, reordered and retyped carriers.
    system = data.draw(learning_systems())
    samples = sample_datasets(data.draw, system)
    carrier = data.draw(parameter_carriers(system.theta_set))
    inductive = inductive_overrides(system.theta_set, len(samples), carrier)
    overrides = {
        "functional_system": data.draw(functional_overrides(system, carrier)),
        "inductive_system": data.draw(inductive),
    }
    assert_same_outcome(
        lambda: verify_learning_axioms(system, samples, **overrides),
        lambda: scalar_learning_axioms(system, samples, **overrides),
    )


def test_overrides_reach_every_seeking_violation_kind():
    kinds = set()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def collect(data):
        system = data.draw(learning_systems())
        samples = sample_datasets(data.draw, system)
        carrier = data.draw(parameter_carriers(system.theta_set))
        try:
            report = verify_learning_axioms(
                system, samples,
                functional_system=data.draw(functional_overrides(system, carrier)),
                inductive_system=data.draw(inductive_overrides(system.theta_set, 4, carrier)),
            )
        except TransferLabError:
            return
        kinds.update(v.kind for v in report.seeking.violations)

    collect()
    assert kinds == {"goal_not_total", "seek_missing", "seek_extra"}


def test_foreign_coupling_set_is_refused_by_the_cascade():
    x, y = FiniteSet("X", ("x0", "x1")), FiniteSet("Y", (0, 1))
    thetas = FiniteSet("T", ("t0", "t1"))
    rows = {"t0": (0, 0), "t1": (0, 1)}
    system = LearningSystem(x, y, HypothesisClass(thetas, columns=x.elements, rows=rows))
    samples = [Dataset((("x1", 1),))]
    foreign = FiniteSet("T+", ("t0", "t1", "foreign"))
    override = FiniteSystem(
        (FiniteSet("datasets", ("d0",)), foreign), (("d0", "foreign"),), ((0,), (1,))
    )
    with pytest.raises(CouplingMismatch):
        verify_learning_axioms(system, samples, inductive_system=override)
    assert_same_outcome(
        lambda: verify_learning_axioms(system, samples, inductive_system=override),
        lambda: scalar_learning_axioms(system, samples, inductive_system=override),
    )


def test_witnesses_keep_the_tables_own_atoms():
    # True and 1.0 encode as the labels 1 and 0, but a witness shows the table's atom.
    x, y = FiniteSet("X", ("x0", "x1")), FiniteSet("Y", (0, 1))
    thetas = FiniteSet("T", ("t0", "t1"))
    rows = {"t0": (True, 0.0), "t1": (0, 1)}
    system = LearningSystem(x, y, HypothesisClass(thetas, columns=x.elements, rows=rows))
    samples = [Dataset((("x0", 1), ("x1", 0)))]
    override = FiniteSystem(
        (FiniteSet("datasets", ("d0",)), thetas), (("d0", "t1"),), ((0,), (1,))
    )
    report = verify_learning_axioms(system, samples, inductive_system=override)
    assert "('d0', 'x0', True)" in repr(report.cascade_violations)
    expected = scalar_learning_axioms(system, samples, inductive_system=override)
    assert repr(report) == repr(expected)


@SETTINGS
@given(st.data())
def test_transfer_axioms_match_oracle(data):
    ts = data.draw(transfer_systems(data.draw(losses)))
    samples = [
        data.draw(datasets(ts.target.x_set.elements, ts.target.y_set.elements))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    overrides = {}
    if data.draw(st.booleans()):
        override = inductive_overrides(ts.theta_tr_set, len(samples))
        overrides["inductive_system"] = data.draw(override)
    assert_same_outcome(
        lambda: verify_transfer_is_learning_system(ts, samples, **overrides),
        lambda: scalar_transfer_axioms(ts, samples, **overrides),
    )


# -- one stacked fit of every dataset, one more for determinism ----------------------------

def counted(fn, calls):
    """``fn``, appending the arguments of each call to ``calls``."""
    def call(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return call


X2, Y2 = FiniteSet("X", ("x0", "x1")), FiniteSet("Y", (0, 1))
ERM = LearningSystem(X2, Y2, full_function_class(X2, Y2))
SAMPLES = [Dataset((("x0", 1),)), Dataset((("x0", 0), ("x1", 1), ("x0", 0))), Dataset((("x1", 0),))]


def test_the_audit_fits_its_datasets_in_one_call_and_refits_them_in_one_more():
    calls = []
    fit_fn = counted(lambda ds: fit_stack(ds, ERM), calls)
    assert verify_decomposition(ERM, SAMPLES, fit_fn).passed
    assert calls == [(SAMPLES,), (SAMPLES,)]


def test_a_stack_over_the_cap_is_fed_in_chunks_under_it(monkeypatch):
    # Two datasets × 4 parameters fit under a cap of 8 values: SAMPLES goes as 2 + 1.
    monkeypatch.setattr(learning, "VALUE_CELL_CAP", 2 * len(ERM.theta_set))
    calls = []
    fit_fn = counted(lambda ds: fit_stack(ds, ERM), calls)
    report = verify_decomposition(ERM, SAMPLES, fit_fn)
    assert calls == [(SAMPLES[:2],), (SAMPLES[2:],)] * 2
    assert report == scalar_learning_axioms(ERM, SAMPLES)
    ts = TransferSystem(ERM, ERM, Knowledge(instances=SAMPLES[0]), "instance")
    assert verify_transfer_is_learning_system(ts, SAMPLES) == scalar_transfer_axioms(ts, SAMPLES)


def test_a_choice_a_hair_above_the_minimum_is_flagged():
    # The scan compares the very vector the fit chose from, so it needs no slack:
    # a choice 1e-13 above the minimum is not optimal.
    values = np.array([0.5, 0.5 + 1e-13, 0.7, 0.9])
    report = verify_decomposition(ERM, SAMPLES, lambda ds: (["h1"] * len(ds), [values] * len(ds)))
    assert report.optimality_violations == (("d0", "h0"), ("d1", "h0"), ("d2", "h0"))
    oracle = scalar_verify_decomposition(ERM, SAMPLES, lambda d: "h1", lambda d: values)
    assert report == oracle


# ERM selects h2 for d0, h1 for d1 and h0 for d2 on SAMPLES.
DATASETS = FiniteSet("datasets", ("d0", "d1", "d2"))
FOREIGN = FiniteSet("T+", ("h3", "h2", "h1", "h0", "foreign"))  # reordered, one element added


def functional_over(thetas):
    """ERM's functional relation over the parameter carrier ``thetas``."""
    cells = [
        (theta, x, ERM.hypotheses.output(theta, x))
        for theta in thetas.elements if theta in ERM.theta_set for x in X2.elements
    ]
    return FiniteSystem((thetas, X2, Y2), tuple(cells), ((0, 1), (2,)))


@pytest.mark.parametrize(
    "inductive, functional, violations, checked",
    [
        pytest.param(
            FiniteSystem(
                (DATASETS, ERM.theta_set),
                (("d0", "h2"), ("d0", "h3"), ("d2", "h0")),
                ((0,), (1,)),
            ),
            None,
            [("seek_missing", ("d0", "h3")), ("seek_extra", ("d1", "h1"))],
            12,
            id="seek_missing-and-seek_extra",
        ),
        pytest.param(
            FiniteSystem(
                (FiniteSet("datasets", ("d1", "e0", "d0")), FOREIGN),
                (("d1", "h1"), ("e0", "h0"), ("d0", "h2")),
                ((0,), (1,)),
            ),
            functional_over(FOREIGN),
            [("goal_not_total", ("d1", "foreign"))]
            + [("goal_not_total", ("e0", t)) for t in FOREIGN.elements]
            + [("goal_not_total", ("d0", "foreign"))],
            15,
            id="goal_not_total-off-datasets-and-off-theta",
        ),
        pytest.param(
            FiniteSystem(
                (DATASETS, ERM.theta_set, FiniteSet("E", ("e",))),
                (("d0", "h2", "e"),),
                ((0, 2), (1,)),
            ),
            None,
            [("goal_not_total", (d, "e", t)) for d in DATASETS for t in ERM.theta_set],
            12,
            id="goal_not_total-on-a-three-component-carrier",
        ),
    ],
)
def test_seeking_violations_are_pinned(inductive, functional, violations, checked):
    report = verify_learning_axioms(
        ERM, SAMPLES, functional_system=functional, inductive_system=inductive
    )
    assert [(v.kind, v.witness) for v in report.seeking.violations] == violations
    assert report.seeking.checked == checked
    oracle = scalar_learning_axioms(
        ERM, SAMPLES, functional_system=functional, inductive_system=inductive
    )
    assert report == oracle
    assert repr(report) == repr(oracle)


def test_both_audits_compute_each_objective_twice(monkeypatch):
    calls = []
    minimize = counted(learning.minimize, calls)
    for module in (learning, transfer):
        monkeypatch.setattr(module, "minimize", minimize)
    assert verify_learning_axioms(ERM, SAMPLES).passed
    assert [len(args[3]) for args in calls] == [len(SAMPLES)] * 2  # each call a stack of 3 tables
    calls.clear()
    ts = TransferSystem(ERM, ERM, Knowledge(instances=SAMPLES[0]), "instance")
    assert verify_transfer_is_learning_system(ts, SAMPLES).passed
    assert [len(args[3]) for args in calls] == [len(SAMPLES)] * 2


# -- every small world, and a large one ---------------------------------------------

def small_worlds(n_x, n_y):
    """Each non-empty hypothesis class on ``n_x`` inputs and ``n_y`` labels, as an ERM
    system, with every dataset of at most 2 pairs (the empty one first)."""
    xs = FiniteSet("X", tuple(f"x{i}" for i in range(n_x)))
    ys = FiniteSet("Y", tuple(range(n_y)))
    functions = rows_over(full_function_class(xs, ys), xs.elements)
    cells = list(itertools.product(xs.elements, ys.elements))
    data = [
        Dataset(pairs) for k in range(3) for pairs in itertools.combinations_with_replacement(cells, k)
    ]
    for size in range(1, len(functions) + 1):
        for rows in itertools.combinations(functions, size):
            thetas = FiniteSet("T", tuple(f"h{i}" for i in range(size)))
            hypotheses = HypothesisClass(thetas, columns=xs.elements, rows=dict(zip(thetas, rows)))
            yield LearningSystem(xs, ys, hypotheses), data


@pytest.mark.parametrize("n_x, n_y", list(itertools.product((1, 2), (1, 2))))
def test_every_small_world_passes_both_audits(n_x, n_y):
    # Learning: ERM on the non-empty datasets, penalized ERM toward each anchor on all of
    # them.  Transfer: each rule that takes instances or a parameter from each non-empty
    # source dataset, audited on every target dataset.
    audits = 0
    for system, data in small_worlds(n_x, n_y):
        assert verify_learning_axioms(system, data[1:]).passed
        for anchor in system.theta_set:
            penalized = LearningSystem(
                system.x_set, system.y_set, system.hypotheses, system.loss,
                AlgorithmSpec("penalized", anchor=anchor),
            )
            assert verify_learning_axioms(penalized, data).passed
        for source_data, approach in itertools.product(
            data[1:], ("instance", "parameter", "instance_parameter")
        ):
            instances, parameters = transfer.CONSUMES[approach]
            knowledge = Knowledge(
                source_data if instances else None,
                (fit(source_data, system)[0],) if parameters else None,
            )
            ts = TransferSystem(system, system, knowledge, approach)
            assert verify_transfer_is_learning_system(ts, data).passed
            audits += 1
    assert audits == {(1, 1): 6, (1, 2): 45, (2, 1): 15, (2, 2): 630}[n_x, n_y]


def test_the_transfer_audit_takes_a_grid_12_system_whole():
    # 12 inputs and 4,096 parameters, beyond the enumeration cap of 8: the audit
    # refuses nothing for size.
    source, target, _ = generate_pair(ScenarioSpec(grid_size=12, sample_sizes=(40, 10)))
    theta = fit(source.dataset, source.system)[0]
    datasets = [target.dataset, source.dataset, Dataset(target.dataset.pairs[:3])]
    for knowledge, approach in (
        (Knowledge(instances=source.dataset), "instance"),
        (Knowledge(parameters=(theta,)), "parameter"),
    ):
        ts = TransferSystem(source.system, target.system, knowledge, approach)
        assert len(ts.system_tr.x_set) == 12 and len(ts.theta_tr_set) == 4096
        assert verify_transfer_is_learning_system(ts, datasets).passed


def test_every_transfer_rule_is_covered():
    seen = set()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def collect(data):
        seen.add(data.draw(transfer_systems("zero_one")).approach)

    collect()
    assert seen == {"instance", "parameter", "instance_parameter", "feature_representation"}


# -- check_goal_seeking ----------------------------------------------------------

NAN = float("nan")
OTHER_NAN = float("nan")  # equal to nothing, NAN included
VALUES = (0.0, 0.5, 1, NAN, "v")
GOAL_VALUES = VALUES + ("outside", OTHER_NAN)


@st.composite
def goal_seeking_cases(draw):
    """An inductive relation (Θ at any component position) and a goal/seeking pair."""
    bases = [
        FiniteSet(f"B{i}", tuple(f"b{i}{j}" for j in range(draw(st.integers(1, 3)))))
        for i in range(draw(st.integers(1, 2)))
    ]
    thetas = FiniteSet("T", tuple(f"t{j}" for j in range(draw(st.integers(1, 3)))))
    at = draw(st.integers(0, len(bases)))
    components = tuple(bases[:at]) + (thetas,) + tuple(bases[at:])
    inputs = tuple(i for i in range(len(components)) if i != at)
    keys = list(itertools.product(*(c.elements for c in bases), thetas.elements))
    # sg tuples are in component order, goal keys are inputs then Θ
    chosen = [k for k in keys if draw(st.booleans())]
    sg = FiniteSystem(
        components, tuple(k[:at] + k[-1:] + k[at:-1] for k in chosen), (inputs, (at,))
    )
    goal = {}
    for key in keys:
        if draw(st.integers(0, 5)):
            goal[key] = draw(st.sampled_from(GOAL_VALUES))
    if draw(st.booleans()):  # keys outside the carrier are ignored
        goal[("elsewhere",) * len(bases) + (thetas.elements[0],)] = draw(st.sampled_from(VALUES))
    seek = set()
    for key in keys:
        if draw(st.integers(0, 2)) == 0:
            value = goal.get(key) if draw(st.booleans()) else draw(st.sampled_from(GOAL_VALUES))
            seek.add(key[:-1] + (value, key[-1]))
    if draw(st.booleans()):
        seek.add(("elsewhere",) * len(bases) + (0.0, thetas.elements[0]))
    declared = draw(st.lists(st.sampled_from(VALUES), min_size=1, unique=True))
    value_set = FiniteSet("V", tuple(declared))
    return sg, GoalSeekingSpec(value_set, goal, frozenset(seek))


@settings(max_examples=300, deadline=None)
@given(goal_seeking_cases())
def test_goal_seeking_matches_oracle(case):
    sg, gs = case
    assert_same_outcome(
        lambda: check_goal_seeking(None, sg, gs),
        lambda: scalar_check_goal_seeking(None, sg, gs),
    )


def test_each_point_reports_its_first_failing_condition():
    d_set, thetas = FiniteSet("D", ("d0", "d1")), FiniteSet("T", ("t0", "t1"))
    # every point is in sg, so each would also be seek_missing
    sg = FiniteSystem((d_set, thetas), tuple(itertools.product(d_set, thetas)), ((0,), (1,)))
    goal = {("d0", "t1"): "outside", ("d1", "t0"): 0.0, ("d1", "t1"): 0.0}
    gs = GoalSeekingSpec(FiniteSet("V", (0.0,)), goal, frozenset({("d1", 0.0, "t1")}))
    report = check_goal_seeking(None, sg, gs)
    assert [(v.kind, v.witness) for v in report.violations] == [
        ("goal_not_total", ("d0", "t0")),
        ("goal_value", ("d0", "t1")),
        ("seek_missing", ("d1", "t0")),
    ]
    assert report.checked == 4
    assert report == scalar_check_goal_seeking(None, sg, gs)


def test_goal_seeking_cases_reach_every_violation_kind():
    kinds = set()

    @settings(max_examples=200, deadline=None)
    @given(goal_seeking_cases())
    def collect(case):
        sg, gs = case
        kinds.update(v.kind for v in check_goal_seeking(None, sg, gs).violations)

    collect()
    assert kinds == {"goal_not_total", "goal_value", "seek_missing", "seek_extra"}


@st.composite
def decomposition_cases(draw):
    """sf over (Θ, X, Y), sg over (X, Y, Θ) and a composite system over (X, Y)."""
    x = FiniteSet("X", tuple(f"x{i}" for i in range(draw(st.integers(1, 3)))))
    y = FiniteSet("Y", tuple(range(draw(st.integers(1, 3)))))
    thetas = FiniteSet("T", tuple(f"t{j}" for j in range(draw(st.integers(1, 3)))))

    def relation(components, partition):
        cells = itertools.product(*(c.elements for c in components))
        return FiniteSystem(
            components, tuple(c for c in cells if draw(st.booleans())), partition
        )

    system = relation((x, y), ((0,), (1,)))
    sf_components = (thetas, x, y) if draw(st.integers(0, 5)) else (thetas, x)
    sf = relation(sf_components, ((0, 1), (2,)) if len(sf_components) == 3 else ((0,), (1,)))
    sg = relation((x, y, thetas), ((0, 1), (2,)))
    goal = {
        key: draw(st.sampled_from((0.0, 1.0)))
        for key in itertools.product(x.elements, y.elements, thetas.elements)
    }
    seek = frozenset(k[:-1] + (goal[k], k[-1]) for k in sg.tuples if draw(st.integers(0, 4)))
    return sf, sg, GoalSeekingSpec(FiniteSet("V", (0.0, 1.0)), goal, seek), system


@settings(max_examples=150, deadline=None)
@given(decomposition_cases())
def test_goal_seeking_with_decomposition_matches_oracle(case):
    sf, sg, gs, system = case
    assert_same_outcome(
        lambda: check_goal_seeking(sf, sg, gs, system=system),
        lambda: scalar_check_goal_seeking(sf, sg, gs, system=system),
    )
