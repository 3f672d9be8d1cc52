"""Code-matrix hypothesis classes against the dict and scalar oracles.

On random tables total on Θ (|X| <= 4, |Y| <= 3) whose columns may leave
an input of X out, add one outside X and come in an order other than
X's, and whose rows may hold outputs outside Y (one of them unhashable),
a class built from the rows and ``helpers.DictHypothesisClass``, built
from the same rows as one (θ, x) mapping, must give the same cells,
outputs (one at a time and over X) and codes, and raise the same errors.
A table with a θ of Θ without a row, or a row outside Θ, is refused.
``LearningSystem.codes`` must equal ``helpers.scalar_encode`` on rows of
equal but differently written atoms, the closed-form full classes must
equal the ``itertools.product`` enumeration, and the feature rule's
transfer table must equal ``helpers.scalar_composite_codes``.
"""

import gc
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DictHypothesisClass, hypothesis_table, scalar_composite_codes, scalar_encode
from transferlab.errors import ValidationError
from transferlab.learning import Dataset, HypothesisClass, LearningSystem, full_function_class
from transferlab.relations import FiniteSet
from transferlab.transfer import FeatureRepSpec, Knowledge, TransferSystem

XS = ("a", "b", "c", "d")
THETAS = ("t0", "t1", "t2")
EXTRA_X, EXTRA_THETA = "e", "t9"
SETTINGS = settings(max_examples=200)


def outcome(fn):
    """The repr of what ``fn`` returns, or the class and message of its error.

    Reprs keep ``True`` and ``1.0`` apart from ``1``, which compare equal.
    """
    try:
        value = fn()
    except Exception as exc:  # the error class and message are what get compared
        return type(exc), str(exc)
    if isinstance(value, np.ndarray):
        return value.dtype, value.tolist()
    return repr(value)


def behaviour(hc, x_set, y_set):
    probe_thetas = THETAS + (EXTRA_THETA,)
    probe_xs = XS + (EXTRA_X,)
    table = hc.table if isinstance(hc, DictHypothesisClass) else hypothesis_table(hc)
    return {
        "table": sorted(map(repr, table.items())),
        "output": [outcome(lambda: hc.output(t, x)) for t in probe_thetas for x in probe_xs],
        "outputs over X": [
            outcome(lambda: tuple(hc.output(t, x) for x in x_set.elements))
            for t in probe_thetas
        ],
        "encode": outcome(lambda: hc.encode(x_set, y_set)),
    }


@st.composite
def spaces(draw):
    x_set = FiniteSet("X", XS[: draw(st.integers(1, 4))])
    y_set = FiniteSet("Y", tuple(range(draw(st.integers(1, 3)))))
    theta_set = FiniteSet("T", THETAS[: draw(st.integers(1, 3))])
    return theta_set, x_set, y_set


def outputs(y_set):
    """Mostly labels of Y; sometimes an outside value, an equal float or bool, or a list."""
    return st.one_of(
        st.sampled_from(y_set.elements),
        st.sampled_from(y_set.elements),
        st.sampled_from((9, "z", True, 0.0, [0])),
    )


@SETTINGS
@given(st.data())
def test_row_built_class_matches_mapping_built(data):
    theta_set, x_set, y_set = data.draw(spaces())
    columns = data.draw(st.permutations(x_set.elements + (EXTRA_X,)))
    columns = columns[: data.draw(st.integers(0, len(columns)))]
    row_thetas = data.draw(st.permutations(theta_set.elements))  # any order of insertion
    rows = {t: [data.draw(outputs(y_set)) for _ in columns] for t in row_thetas}

    from_rows = HypothesisClass(theta_set, columns, rows)
    expected = behaviour(DictHypothesisClass(theta_set, columns, rows), x_set, y_set)
    assert behaviour(from_rows, x_set, y_set) == expected
    assert outcome(lambda: LearningSystem(x_set, y_set, from_rows).codes) == expected["encode"]


def test_rows_must_align_with_columns():
    with pytest.raises(ValidationError, match="must align"):
        HypothesisClass(FiniteSet("T", ("t0",)), ("a", "b"), {"t0": (0,)})


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ({"t1": (1,)}, ValidationError, "no table row for 't0'"),
        ({"t0": (0,), "t1": (1,), EXTRA_THETA: (0,)}, ValidationError,
         f"table row for {EXTRA_THETA!r} outside the parameter set"),
        ({"t0": (0,), "t1": "1"}, TypeError, "table row for 't1' must be a list, not str"),
    ],
    ids=["missing-row", "extra-row", "string-row"],
)
def test_a_table_is_refused_unless_each_theta_has_one_list_row(rows, error, message):
    with pytest.raises(error, match=re.escape(message)):
        HypothesisClass(FiniteSet("T", ("t0", "t1")), ("a",), rows)


#: Atoms that compare equal across types (True == 1 == 1.0, (1, True) == (1, 1),
#: -0.0 == 0.0) next to plain labels, a tuple label and an unhashable list.
ATOMS = (0, 1, 2, True, False, 1.0, 0.0, -0.0, "a", (1, 1), (1, True), None, [1])


@SETTINGS
@given(st.data())
def test_codes_equal_the_scalar_encoding_and_cells_stay_as_written(data):
    x_set = FiniteSet("X", XS[: data.draw(st.integers(1, 4))])
    labels = data.draw(st.lists(st.sampled_from((0, 1, 2, "a", (1, 1))), min_size=1, unique=True))
    y_set = FiniteSet("Y", tuple(labels))
    theta_set = FiniteSet("T", THETAS[: data.draw(st.integers(1, 3))])
    columns = data.draw(st.permutations(x_set.elements))
    pick = st.one_of(st.sampled_from(y_set.elements), st.sampled_from(ATOMS))
    rows = {t: [data.draw(pick) for _ in columns] for t in theta_set.elements}
    table = {(t, x): y for t, row in rows.items() for x, y in zip(columns, row)}

    hc = HypothesisClass(theta_set, columns, rows)
    expected = outcome(lambda: scalar_encode(theta_set, table, x_set, y_set))
    assert outcome(lambda: LearningSystem(x_set, y_set, hc).codes) == expected
    assert outcome(lambda: hc.encode(x_set, y_set)) == expected
    assert {t: repr(row) for t, row in hc.rows.items()} == {t: repr(r) for t, r in rows.items()}
    for (t, x), y in table.items():
        assert repr(hc.output(t, x)) == repr(y)


@pytest.mark.parametrize("nx, ny", [(1, 1), (3, 2), (7, 3), (12, 2), (8, 3)])
def test_full_function_class_is_the_product_enumeration(nx, ny):
    x_set = FiniteSet("X", tuple(f"x{i}" for i in range(nx)))
    y_set = FiniteSet("Y", tuple(f"y{i}" for i in range(ny)))
    hc = full_function_class(x_set, y_set, max_size=ny**nx)
    width = len(str(ny**nx - 1))
    rows = itertools.product(y_set.elements, repeat=nx)
    names = tuple(f"h{i:0{width}d}" for i in range(ny**nx))
    assert hc.theta_set.elements == names
    expected = HypothesisClass(FiniteSet("T", names), x_set.elements, dict(zip(names, rows)))
    assert hc.outputs == expected.outputs == y_set.elements
    assert hc.codes.tolist() == expected.codes.tolist()
    assert hc.codes.dtype == np.min_scalar_type(ny - 1)
    codes = LearningSystem(x_set, y_set, hc).codes
    assert np.shares_memory(codes, hc.codes) and codes.flags.c_contiguous
    assert not codes.flags.writeable


@settings(max_examples=100)
@given(st.data())
def test_feature_rule_codes_are_the_relabelled_latent_codes(data):
    x_set = FiniteSet("X", XS[: data.draw(st.integers(1, 4))])
    y_set = FiniteSet("Y", tuple(data.draw(st.permutations((0, 1, "z")))))
    target = LearningSystem(x_set, y_set, full_function_class(x_set, y_set))
    lat_x = FiniteSet("LX", ("u", "v", "w")[: data.draw(st.integers(1, 3))])
    lat_y = FiniteSet("LY", ("p", "q", "r")[: data.draw(st.integers(1, 3))])
    lat_thetas = FiniteSet("LT", THETAS)
    columns = data.draw(st.permutations(lat_x.elements))
    rows = {t: [data.draw(st.sampled_from(lat_y.elements)) for _ in columns] for t in THETAS}
    latent = LearningSystem(lat_x, lat_y, HypothesisClass(lat_thetas, columns, rows))
    lat_pairs = st.tuples(st.sampled_from(lat_x.elements), st.sampled_from(lat_y.elements))
    pair_map = {(x, y): data.draw(lat_pairs) for x in x_set.elements for y in y_set.elements}
    spec = FeatureRepSpec(
        latent, pair_map, pair_map,
        {x: data.draw(st.sampled_from(lat_x.elements)) for x in x_set.elements},
        {y: data.draw(st.sampled_from(y_set.elements)) for y in lat_y.elements},
    )
    ts = TransferSystem(
        target, target, Knowledge(instances=Dataset(())), "feature_representation", latent=spec
    )
    codes = ts.system_tr.codes
    expected = scalar_composite_codes(ts)
    assert (codes.dtype, codes.tolist()) == (expected.dtype, expected.tolist())
    assert codes.flags.c_contiguous


def test_classes_with_equal_cells_are_equal():
    x_set, y_set = FiniteSet("X", ("a", "b")), FiniteSet("Y", (0, 1))
    full = full_function_class(x_set, y_set)
    rows = dict(zip(full.theta_set.elements, itertools.product((0, 1), repeat=2)))
    assert HypothesisClass(full.theta_set, x_set.elements, rows) == full
    rows[full.theta_set.elements[0]] = (1, 1)
    assert HypothesisClass(full.theta_set, x_set.elements, rows) != full


def test_a_full_class_of_4096_rows_holds_little_more_than_its_names_and_codes():
    x_set = FiniteSet("X", tuple(f"x{i}" for i in range(12)))
    y_set = FiniteSet("Y", (0, 1))
    gc.collect()
    tracemalloc.start()
    try:
        system = LearningSystem(x_set, y_set, full_function_class(x_set, y_set))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(system.theta_set) == 4096
    assert held <= 0.5e6 and peak <= 1.03e6, (held, peak)
