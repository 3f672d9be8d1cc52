"""Row-built hypothesis classes against the dict oracle.

On random rows (|X| <= 4, |Y| <= 3) that may leave a θ without a row or
an input outside the columns, hold outputs outside Y (one of them
unhashable) and list their columns in an order other than the system's
X, a class built from the rows and ``helpers.DictHypothesisClass``, built
from the equivalent (θ, x) mapping, must give the same cells, outputs
(one at a time and over X) and codes, and raise the same errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DictHypothesisClass, hypothesis_table
from transferlab.errors import ValidationError
from transferlab.learning import HypothesisClass, LearningSystem
from transferlab.relations import FiniteSet

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
    row_thetas = data.draw(st.permutations(theta_set.elements + (EXTRA_THETA,)))
    row_thetas = row_thetas[: data.draw(st.integers(0, len(row_thetas)))]
    rows = {t: [data.draw(outputs(y_set)) for _ in columns] for t in row_thetas}
    table = {(t, x): y for t, row in rows.items() for x, y in zip(columns, row)}

    from_rows = HypothesisClass(theta_set, columns, rows)
    expected = behaviour(DictHypothesisClass(theta_set, table), x_set, y_set)
    assert behaviour(from_rows, x_set, y_set) == expected
    assert outcome(lambda: LearningSystem(x_set, y_set, from_rows).codes) == expected["encode"]


def test_rows_must_align_with_columns():
    with pytest.raises(ValidationError, match="must align"):
        HypothesisClass(FiniteSet("T", ("t0",)), ("a", "b"), {"t0": (0,)})
