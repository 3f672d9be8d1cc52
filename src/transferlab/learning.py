"""Learning systems over finite carriers.

A learning system couples a finite hypothesis table with an algorithm
that selects a parameter from data by exhaustive minimization of an
objective.  The table, the functional relation Θ × X → Y, gives every θ
of Θ one row and has no row outside Θ.  It is stored as one matrix of
codes, θ by input column, each the index of an output atom; a full
function class has its codes in closed form.  Learning and
every transfer rule minimize one formula, scored for all parameters at
once and selected from by :func:`minimize`, the one selection rule::

    (L(θ; C_t) + w·L(θ; C_s)) / (n_t + w·n_s) + λ·d(θ, a) / |X|

The selection scores a stack of count tables ``T[i, x, y]`` at once and
picks, per table, the first minimizer of its float64 objective values in
canonical order, or the anchor itself when the table has no data term.
:func:`fit` and :func:`transferlab.transfer.transfer_fit` call it with
one table, and :func:`fit_stack` and
:func:`transferlab.transfer.transfer_fit_stack`, which the audits use,
with many, for a learning and a transfer system, which is itself a
learning system: :func:`generalization_error` scores the hypotheses of
both.  Count tables come from one ``np.bincount`` per stack
(:func:`count_tables`).  Only the integer parts are exact: zero-one
totals are the pairs minus the hits, and the hits take |Y| − 1 products
of a 0/1 indicator ``codes == y`` with the difference columns
``T[:, :, y] − T[:, :, 0]``, laid side by side as one matrix product
per stack; the anchor distance is a product of an indicator with a ones
vector.  Neither depends on the data, so neither is built per fit: a
learning system holds its float64 indicator, the zero-one operand
(:attr:`LearningSystem.zero_one_operand`), and whoever owns an anchor
(a penalized system, a transfer system that consumes a parameter)
holds its one distance vector.  Every term and partial sum is an
integer whose absolute value is at most the pairs counted, below
2**53, so float64 holds them exactly and the summation order cannot
change them; a float32 operand would not.  The divisions and
weights that combine them round, so two θ whose exact objectives tie
can differ in their values.  Squared totals are summed per θ with
``math.fsum``.  Because every carrier is finite, the defining
biconditionals of the construction are checkable by enumeration, which
is what :func:`verify_learning_axioms` does.  Its goal-seeking check
needs no goal table: the goal is the objective the selection minimized,
so the biconditional can fail only off datasets × Θ or where the
inductive relation and the selections differ, and only those points
are visited.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    CapExceeded,
    EmptyDataset,
    MissingMeasure,
    SupportMismatch,
    TransferLabError,
    UnknownElement,
    ValidationError,
)
from .measures import ConditionalMeasure, EmpiricalMeasure
from .relations import (
    Atom,
    FiniteSet,
    FiniteSystem,
    GoalSeekReport,
    _inductive_carrier,
    _seek_violations,
    _sequence,
    cascade,
)


@dataclass(frozen=True)
class Dataset:
    """A finite multiset of input-output pairs with a provenance tag."""

    pairs: tuple[tuple[Atom, Atom], ...]
    source_tag: str = "data"

    def __post_init__(self) -> None:
        pairs = _sequence(self.pairs, "dataset pairs", "a dataset pair")
        object.__setattr__(self, "pairs", pairs)
        for p in pairs:
            if len(p) != 2:
                raise ValidationError(f"dataset pair {p!r} is not a 2-tuple")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def validate_against(self, x_set: FiniteSet, y_set: FiniteSet) -> None:
        xs, ys = x_set._index, y_set._index  # the look-ups of ``in x_set``, without the call
        for x, y in self.pairs:
            if x not in xs:
                raise UnknownElement(f"data input {x!r} not in set {x_set.name!r}")
            if y not in ys:
                raise UnknownElement(f"data output {y!r} not in set {y_set.name!r}")

    def counts(self, x_set: FiniteSet, y_set: FiniteSet) -> np.ndarray:
        """``C[x, y]``: how often each pair occurs; one outside X × Y raises."""
        return count_tables((self,), x_set, y_set)[0]


def count_tables(datasets: Sequence[Dataset], x_set: FiniteSet, y_set: FiniteSet) -> np.ndarray:
    """``T[i, x, y]``: how often each pair occurs in the ``i``-th dataset, in one bincount.

    A pair of dataset ``i`` counts in cell ``(i·|X| + x)·|Y| + y`` of one
    flat table.  The first pair in order outside X × Y raises the
    :class:`UnknownElement` that ``FiniteSet.index`` raises for it, its
    input looked up first; a pair with an unhashable coordinate, which
    no set holds, raises one that names the pair.
    """
    n_x, n_y = len(x_set), len(y_set)
    rows, labels = x_set._index, y_set._index
    try:
        cells = [
            (i * n_x + rows[x]) * n_y + labels[y]
            for i, d in enumerate(datasets)
            for x, y in d.pairs
        ]
    except (KeyError, TypeError):  # a look-up failed, so one of these raises
        for x, y in itertools.chain(*(d.pairs for d in datasets)):
            try:
                x_set.index(x)
                y_set.index(y)
            except TypeError:
                raise UnknownElement(f"dataset pair {(x, y)!r} is not hashable") from None
    counts = np.bincount(cells, minlength=len(datasets) * n_x * n_y)
    return counts.reshape(len(datasets), n_x, n_y)


@dataclass(frozen=True)
class LossSpec:
    """A per-pair loss: zero-one for symbolic labels, squared for numeric."""

    kind: str = "zero_one"

    def __post_init__(self) -> None:
        if self.kind not in ("zero_one", "squared"):
            raise ValidationError(f"unknown loss kind {self.kind!r}")

    def loss(self, y: Atom, prediction: Atom) -> float:
        if self.kind == "zero_one":
            return 0.0 if y == prediction else 1.0
        try:
            diff = float(y) - float(prediction)
        except (TypeError, ValueError):
            raise ValidationError(
                f"squared loss needs numeric labels, got {y!r} and {prediction!r}"
            ) from None
        return diff * diff


ZERO_ONE = LossSpec("zero_one")


class _FirstSeen(dict):
    """Key → code, where a key's code is the number of distinct keys looked up before it."""

    def __missing__(self, key: object) -> int:
        self[key] = code = len(self)
        return code


class HypothesisClass:
    """The functional relation Θ × X → Y, held as one code matrix.

    ``codes[i, j]`` is the index in ``outputs`` of what the ``i``-th θ
    of ``theta_set`` outputs at ``columns[j]``, in the smallest unsigned
    dtype; ``outputs`` holds each output atom as first written, so
    ``True``, ``1`` and ``1.0`` each keep an entry of their own.
    ``HypothesisClass(theta_set, columns, rows)`` reads ``rows[θ]``, θ's
    outputs over ``columns`` as a list or tuple, once, in canonical
    order; :meth:`of_codes` takes a code matrix as it is.  The table is
    total on Θ: a θ without a row or a row for a name outside Θ raises
    :class:`ValidationError`, and so does a row without one output per
    column.  An input outside the columns has no cells: :meth:`output`
    refuses it and :meth:`encode` refuses a system whose X holds it.
    :attr:`rows` alone decodes every row; writers lay :meth:`codes_over`
    out as text instead.
    """

    def __init__(
        self, theta_set: FiniteSet, columns: Sequence[Atom], rows: Mapping[Atom, Sequence[Atom]]
    ) -> None:
        columns = tuple(columns)
        width = len(columns)
        thetas = theta_set.elements
        if len(rows) != len(thetas) or not all(map(rows.__contains__, thetas)):
            missing = [theta for theta in thetas if theta not in rows]
            if missing:
                raise ValidationError(f"no table row for {missing[0]!r}")
            extra = next(theta for theta in rows if theta not in theta_set._index)
            raise ValidationError(f"table row for {extra!r} outside the parameter set")
        ordered = list(map(rows.__getitem__, thetas))
        if not set(map(type, ordered)) <= {list, tuple}:
            theta, row = next(p for p in zip(thetas, ordered) if type(p[1]) not in (list, tuple))
            raise TypeError(f"table row for {theta!r} must be a list, not {type(row).__name__}")
        if not set(map(len, ordered)) <= {width}:
            theta = next(theta for theta, row in zip(thetas, ordered) if len(row) != width)
            raise ValidationError(f"row for {theta!r} must align with {width} columns")
        # Equal atoms of str, int and None, or of str, bool and None, are written
        # alike; any other mix is keyed by type and repr, so 1, 1.0 and True differ.
        types = set(map(type, itertools.chain.from_iterable(ordered)))
        by_value = types <= {str, int, type(None)} or types <= {str, bool, type(None)}
        keys = itertools.chain.from_iterable(ordered)
        if not by_value:
            keys = zip(map(type, itertools.chain.from_iterable(ordered)), map(repr, keys))
        code_of = _FirstSeen()
        flat = np.fromiter(map(code_of.__getitem__, keys), np.intp, len(ordered) * width)
        outputs = tuple(code_of)
        if not by_value:  # a new code is one more than every code before it, at its first cell
            firsts = np.flatnonzero(np.diff(np.maximum.accumulate(flat), prepend=-1)).tolist()
            outputs = tuple(ordered[p // width][p % width] for p in firsts)
        dtype = np.min_scalar_type(max(len(code_of) - 1, 0))
        self._hold(theta_set, columns, flat.astype(dtype).reshape(len(ordered), width), outputs)

    @classmethod
    def of_codes(
        cls, theta_set: FiniteSet, columns: Sequence[Atom], codes: np.ndarray,
        outputs: Sequence[Atom],
    ) -> HypothesisClass:
        """The class whose ``codes[θ, j]`` index ``outputs``, θ canonical; no cell is read."""
        hc = cls.__new__(cls)
        hc._hold(theta_set, tuple(columns), np.ascontiguousarray(codes), tuple(outputs))
        return hc

    def _hold(self, theta_set, columns, codes, outputs) -> None:
        codes.setflags(write=False)
        self.theta_set, self.columns, self.codes, self.outputs = theta_set, columns, codes, outputs
        self._position = {x: i for i, x in enumerate(columns)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HypothesisClass):
            return NotImplemented
        return (self.theta_set, self.columns, self.rows) == (
            other.theta_set, other.columns, other.rows
        )

    def output(self, theta: Atom, x: Atom) -> Atom:
        try:
            i, j = self.theta_set._index[theta], self._position[x]
        except KeyError:
            raise UnknownElement(f"hypothesis table has no entry for {(theta, x)!r}") from None
        return self.outputs[self.codes.item(i, j)]

    @property
    def rows(self) -> dict[Atom, list[Atom]]:
        """θ → its outputs over ``columns``, θ canonical, decoded when read."""
        decode = self.outputs.__getitem__
        return {t: list(map(decode, row)) for t, row in zip(self.theta_set, self.codes.tolist())}

    def codes_over(self, xs: Sequence[Atom]) -> np.ndarray:
        """``codes`` over the columns ``xs``; ``KeyError`` names an ``x`` outside the columns."""
        if tuple(xs) == self.columns:
            return self.codes
        return self.codes[:, [self._position[x] for x in xs]]

    def encode(self, x_set: FiniteSet, y_set: FiniteSet) -> np.ndarray:
        """``H[θ, x]``: the index in ``y_set`` of each output, θ and x canonical, C-contiguous.

        One look-up remaps the stored codes: the column of each x, then
        each output's index in ``y_set``.  Over columns and outputs that
        are X and Y in order, the stored matrix is the answer itself.
        Every x must be a column and every output in ``y_set``; the first
        cell in canonical order that is not raises.
        """
        xs, codes = x_set.elements, self.codes
        if xs == self.columns and self.outputs == y_set.elements:
            return codes
        labels = np.array([*map(partial(_label_of, y_set), self.outputs), -1])
        # Column -1, appended, stands for every input outside the columns.
        picks = [self._position.get(x, -1) for x in xs]
        mapped = np.concatenate([labels[codes], np.full((len(codes), 1), -1)], axis=1)[:, picks]
        undefined = mapped < 0
        if undefined.any():
            i, j = divmod(int(undefined.argmax()), len(xs))
            theta, x = self.theta_set.elements[i], xs[j]
            if x not in self._position:
                raise ValidationError(f"hypothesis table is not total: missing {(theta, x)!r}")
            if (y := self.output(theta, x)) not in y_set:
                raise UnknownElement(f"hypothesis output {y!r} not in set {y_set.name!r}")
        return mapped.astype(np.min_scalar_type(len(y_set) - 1), order="C")


def _label_of(y_set: FiniteSet, y: Atom) -> int:
    """The index of ``y`` in ``y_set``; -1 if it is not a label, hashable or not."""
    try:
        return y_set._index.get(y, -1)
    except TypeError:
        return -1


def full_function_class(
    x_set: FiniteSet,
    y_set: FiniteSet,
    max_size: int = 4096,
) -> HypothesisClass:
    """Every function from the input set to the output set, canonically indexed h0, h1, ...

    Function ``i`` maps the ``j``-th input to digit ``j`` of ``i`` written
    in base |Y| with |X| digits, most significant first:
    ``codes[i, j] = (i // |Y|^(|X|-1-j)) % |Y|``, the order of
    ``itertools.product(Y, repeat=|X|)``.  Column ``j`` is filled in
    closed form, as |Y|^j blocks that each repeat every label
    |Y|^(|X|-1-j) times, so no row or cell is made in Python.
    """
    k, m = len(x_set), len(y_set)
    count = m**k
    if count > max_size:
        raise CapExceeded(
            f"{count} functions from {x_set.name} to {y_set.name} exceed cap {max_size}"
        )
    width = max(len(str(count - 1)), 1)
    names = tuple(map(f"h%0{width}d".__mod__, range(count)))
    codes = np.empty((count, k), np.min_scalar_type(m - 1))
    labels = np.arange(m, dtype=codes.dtype)[:, None]
    for j in range(k):
        codes.reshape(-1, m, m ** (k - 1 - j), k)[..., j] = labels
    return HypothesisClass.of_codes(FiniteSet("h_params", names), x_set.elements, codes, y_set.elements)


@dataclass(frozen=True)
class AlgorithmSpec:
    """How a parameter is selected from data.

    ``erm`` minimizes empirical risk exactly over the parameter set.
    ``penalized`` adds ``weight`` times the normalized Hamming distance
    between the candidate's output vector and the anchor's; with empty
    data it returns the anchor itself.
    """

    kind: str = "erm"
    anchor: Atom | None = None
    weight: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in ("erm", "penalized"):
            raise ValidationError(f"unknown algorithm kind {self.kind!r}")
        if self.kind == "penalized" and self.anchor is None:
            raise ValidationError("penalized selection needs an anchor parameter")
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValidationError(f"penalty weight {self.weight!r} is not finite and non-negative")


@dataclass(frozen=True)
class LearningSystem:
    """Finite input/output sets, a hypothesis table, a loss, an algorithm.

    What every fit reads but no data changes is derived once, when first
    read, and held: the encoded table :attr:`codes`, the zero-one operand
    :attr:`zero_one_operand`, and a penalized algorithm's
    :attr:`anchor_term`, none of them writable.  Packs over one sample
    space may share one system, and with it all three.
    """

    x_set: FiniteSet
    y_set: FiniteSet
    hypotheses: HypothesisClass
    loss: LossSpec = ZERO_ONE
    algorithm: AlgorithmSpec = AlgorithmSpec()

    def __post_init__(self) -> None:
        self.codes  # encoding validates the table
        if self.algorithm.kind == "penalized":
            if self.algorithm.anchor not in self.hypotheses.theta_set:
                raise UnknownElement(
                    f"anchor {self.algorithm.anchor!r} is not a parameter"
                )

    @property
    def theta_set(self) -> FiniteSet:
        return self.hypotheses.theta_set

    @cached_property
    def codes(self) -> np.ndarray:
        """The hypothesis table encoded as ``H[θ, x]`` over this system's sets."""
        return self.hypotheses.encode(self.x_set, self.y_set)

    @cached_property
    def zero_one_operand(self) -> np.ndarray:
        """The float64 indicator of ``codes == y`` for each label y ≥ 1, built once.

        Row ``x·(|Y| − 1) + y − 1`` holds every θ's hit of label y at
        input x, C-contiguous over (|X|·(|Y| − 1)) × |Θ|, so each zero-one
        fit is one product of its difference columns with it (see
        :func:`_loss_totals`).  It stays float64: its products sum
        integers below 2**53, which float64 holds exactly.
        """
        return _zero_one_operand(self.codes, len(self.y_set))

    @cached_property
    def anchor_term(self) -> tuple[int, np.ndarray] | None:
        """A penalized algorithm's anchor row and every θ's distance to it, the ``anchor`` of
        :func:`minimize`; ``None`` for ERM."""
        if self.algorithm.kind == "erm":
            return None
        return _anchor_term(self.codes, self.theta_set.index(self.algorithm.anchor))

    def same_space(self, other: LearningSystem) -> bool:
        """Whether both systems have the same sample space X × Y, as sets of atoms."""
        return self.x_set.same_elements(other.x_set) and self.y_set.same_elements(other.y_set)


@dataclass(frozen=True)
class EvaluationContext:
    """What to evaluate against: a declared truth table or held-out data.

    ``truth`` is either a total mapping from inputs to outputs
    (synthetic mode) or a :class:`Dataset` (hold-out mode); the mode in
    force is echoed in every report that uses the context.  A scan's
    threshold is not part of it: each scan takes its own as a number.
    """

    truth: Mapping[Atom, Atom] | Dataset

    def __post_init__(self) -> None:
        if not isinstance(self.truth, Dataset):
            object.__setattr__(self, "truth", dict(self.truth))

    @property
    def mode(self) -> str:
        return "holdout" if isinstance(self.truth, Dataset) else "truth-table"


@dataclass(frozen=True)
class SystemPack:
    """A learning system bundled with its empirical context.

    Declared measures and the truth table are optional; analyses that
    need them raise :class:`~transferlab.errors.MissingMeasure` when
    absent.
    """

    system: LearningSystem
    dataset: Dataset
    marginal: EmpiricalMeasure | None = None
    posterior: ConditionalMeasure | None = None
    truth: Mapping[Atom, Atom] | None = None
    tag: str = "pack"

    def __post_init__(self) -> None:
        self.dataset.validate_against(self.system.x_set, self.system.y_set)
        if self.truth is not None:
            truth = dict(self.truth)
            for x in self.system.x_set.elements:
                if x not in truth:
                    raise ValidationError(f"truth table undefined on {x!r}")
                if truth[x] not in self.system.y_set:
                    raise UnknownElement(f"truth value {truth[x]!r} outside outputs")
            object.__setattr__(self, "truth", truth)

    def context(self) -> EvaluationContext:
        if self.truth is None:
            raise ValidationError(f"pack {self.tag!r} declares no truth table")
        return EvaluationContext(self.truth)

    def measures(self) -> tuple[EmpiricalMeasure, ConditionalMeasure]:
        """The declared marginal and posterior; :class:`MissingMeasure` if either is absent."""
        if self.marginal is None or self.posterior is None:
            raise MissingMeasure(f"pack {self.tag!r} declares no measures")
        return self.marginal, self.posterior


@dataclass(frozen=True)
class NeighborhoodReport:
    """Members of a finite universe within reach of a system.

    The universe is an explicit argument of every scan: the counts are
    only meaningful relative to it, and the criterion block records the
    thresholds, mode and seeds needed to reproduce them.
    """

    role: str
    mode: str
    members: tuple[int, ...]
    cardinality: int
    criterion: Mapping[str, object]
    values: Mapping[int, float]
    skipped: tuple[int, ...]
    equivalence_mode: str = "raw"


def _check_threshold(value: object, name: str = "epsilon_star") -> None:
    """Refuse a NaN threshold, which every comparison fails; ``math.inf`` admits every member."""
    if isinstance(value, numbers.Real) and math.isnan(value):  # NumPy floats are Real too
        raise ValidationError(f"{name} {value} is not a number")


def scan(
    pack: SystemPack,
    universe: Sequence[SystemPack],
    role: str,
    mode: str,
    criterion: Mapping[str, object],
    judge: Callable[[int, SystemPack, SystemPack], tuple[float, bool] | None],
) -> NeighborhoodReport:
    """Judge the pack against each universe member; the one skip rule of every scan.

    ``pack`` plays ``role`` (``source`` or ``target``) and each member
    the other side; ``judge(index, source, target)`` returns the
    member's value and admission, or ``None`` for no value.  A member
    whose judging raises :class:`~transferlab.errors.TransferLabError`
    is skipped, so every argument the judge depends on must be checked
    before the scan.  Members, values and skipped members are listed in
    universe order.
    """
    if role not in ("source", "target"):
        raise ValidationError(f"role must be source or target, got {role!r}")
    members: list[int] = []
    values: dict[int, float] = {}
    skipped: list[int] = []
    for idx, member in enumerate(universe):
        source, target = (pack, member) if role == "source" else (member, pack)
        try:
            verdict = judge(idx, source, target)
        except TransferLabError:
            skipped.append(idx)
            continue
        if verdict is not None:
            values[idx], admitted = verdict
            if admitted:
                members.append(idx)
    return NeighborhoodReport(
        role, mode, tuple(members), len(members), criterion, values, tuple(skipped)
    )


# -- core operations -----------------------------------------------------------

#: The most objective values one :func:`minimize` call may hold, m tables × |Θ|:
#: 2**20 float64 values, 8 MiB, or 256 tables at the hypothesis cap of 4096.
#: The audit feeds its datasets in stacks under it.
VALUE_CELL_CAP = 2**20


def _zero_one_operand(codes: np.ndarray, n_labels: int) -> np.ndarray:
    """``codes == y`` for the labels y ≥ 1 as float64 rows (x, y) over columns θ, C-contiguous.

    Θ is the inner axis of the comparison, over a contiguous copy of
    ``codes.T``, so it writes whole rows; with the labels inner, every
    input's |Y| − 1 cells would be a short run.
    """
    # Labels as narrow as the codes, so the comparison casts no code to a wider type.
    labels = np.arange(1, n_labels, dtype=np.min_scalar_type(max(n_labels - 1, 0)))
    indicator = np.ascontiguousarray(codes.T)[:, None, :] == labels[:, None]
    operand = indicator.reshape(-1, len(codes)).astype(np.float64, order="C")
    operand.setflags(write=False)  # held by its system and read by every fit
    return operand


def _anchor_term(codes: np.ndarray, anchor: int) -> tuple[int, np.ndarray]:
    """``anchor`` and ``d(θ, anchor)``, the inputs where each row θ differs from it, in float64."""
    distances = (codes != codes[anchor]) @ np.ones(codes.shape[1])
    distances.setflags(write=False)  # held by the anchor's owner and read by every fit
    return anchor, distances


def _loss_totals(
    system: LearningSystem, tables: np.ndarray, rows: slice | list[int] = slice(None)
) -> np.ndarray:
    """Per table ``T[i]`` and θ of ``rows`` (every θ by default), the summed loss of ``H[θ]``
    on the counted pairs, exactly.

    Zero-one totals are error counts: the pairs minus the hits.  Every
    θ hits the label-0 pairs at the inputs it maps to label 0, so the
    hits are ``Σ_x T[i, x, 0] + Σ_{y≥1} (codes == y) @ (T[i, :, y] −
    T[i, :, 0])`` and the errors are the pairs not labelled 0 minus the
    |Y| − 1 indicator products, laid side by side as the stack of
    difference columns over the cells (x, y ≥ 1) times the system's
    :attr:`~LearningSystem.zero_one_operand`, which no fit rebuilds (no
    cell when |Y| = 1).  A θ selects one label per input, so every
    partial sum of a product is a sum of counts minus a sum of counts of
    the same table: an integer whose absolute value is at most the pairs
    counted in it, far below 2**53.  So float64 holds the totals exactly
    whatever order the products sum in.  Squared totals are the
    ``math.fsum`` of one ``count * loss`` term per occupied cell, per
    table and θ.
    """
    loss, codes = system.loss, system.codes[rows]
    if loss.kind == "zero_one":
        m, n_x, n_y = tables.shape
        steps = (tables[:, :, 1:] - tables[:, :, :1]).reshape(m, n_x * (n_y - 1))
        unlabelled_0 = tables[:, :, 1:].sum(axis=(1, 2))
        operand = system.zero_one_operand[:, rows]
        return unlabelled_0[:, None] - steps.astype(np.float64) @ operand
    labels = system.y_set.elements
    table = np.array([[loss.loss(y, prediction) for prediction in labels] for y in labels])
    totals = np.empty((len(tables), len(codes)))
    for i, counts in enumerate(tables):
        xs, ys = np.nonzero(counts)
        terms = counts[xs, ys] * table[ys, codes[:, xs]]
        totals[i] = [math.fsum(row) for row in terms.tolist()]
    return totals


def minimize(
    system: LearningSystem,
    tables: np.ndarray,
    pooled: tuple[np.ndarray, int] | None = None,
    pool_weight: float = 1.0,
    anchor: tuple[int, np.ndarray] | None = None,
    penalty_weight: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """The one selection rule, over a stack of count tables ``T[i, x, y]`` of ``system``.

    Returns the chosen row θ of ``H[θ, x]`` for each table, and the
    m × |Θ| objective.  ``L(θ; C)`` sums the loss of ``H[θ]`` over the
    pairs counted in ``C[x, y]``: each table ``T[i]`` and the pooled
    source counts, whose loss totals per θ and pair count ``pooled``
    holds, scored once by :func:`score_table`, and which are weighted
    by ``pool_weight`` and added to every table's.  ``anchor`` is the
    anchor's row ``a`` and the distances ``d(θ, a)``, the inputs where
    ``H[θ]`` and row ``a`` differ, as the owner of the anchor holds them
    (:attr:`LearningSystem.anchor_term`,
    :attr:`~transferlab.transfer.TransferSystem.anchor_term`); ``None``:
    no penalty term.  A table that counts no pair, with no pooled pair
    either, has no risk term: its objective is the penalty and its
    choice the anchor itself, and without an anchor it raises
    :class:`EmptyDataset`.  Any other table chooses the first minimizer
    of its row of values in canonical order.

    Nothing here depends on the data but what the tables count: the
    zero-one operand and the distances are built once by their owners.
    The zero-one error counts (|Y| − 1 indicator products per stack, see
    :func:`_loss_totals`) and the distances are exact integers in
    float64; the float operations after them follow the formula's order,
    so each value equals the one computed for its table and θ alone.  A
    stack of more than :data:`VALUE_CELL_CAP` values raises
    :class:`CapExceeded` before any is computed.
    """
    m, n_theta = len(tables), len(system.theta_set)
    if m * n_theta > VALUE_CELL_CAP:
        raise CapExceeded(
            f"{m} count tables × {n_theta} parameters exceed the cap of "
            f"{VALUE_CELL_CAP} objective values"
        )
    totals, pairs = _loss_totals(system, tables), tables.sum(axis=(1, 2))
    if pooled is not None:
        pooled_totals, pooled_pairs = pooled
        totals = totals + pool_weight * pooled_totals
        pairs = pairs + pool_weight * pooled_pairs
    empty = None
    if not pairs.all():
        if anchor is None:
            raise EmptyDataset("an objective without an anchor needs data")
        empty = pairs == 0
        pairs[empty] = 1  # so an empty table's zero totals give the risk 0
    values = totals / pairs[:, None]
    if anchor is None:
        return values.argmin(axis=1), values
    row, differing = anchor
    penalty = penalty_weight * (differing / len(system.x_set))
    values += penalty
    rows = values.argmin(axis=1)
    if empty is not None:  # no risk term: the penalty itself, as written, and the anchor
        values[empty] = penalty
        rows[empty] = row
    return rows, values


def score_table(system: LearningSystem, table: np.ndarray) -> tuple[np.ndarray, int]:
    """One count table's loss total per θ and its pair count, the ``pooled`` term of
    :func:`minimize`."""
    return _loss_totals(system, table[None])[0], int(table.sum())


def fit_stack(
    datasets: Sequence[Dataset], system: LearningSystem
) -> tuple[list[Atom], np.ndarray]:
    """The parameters the system's algorithm selects from each dataset, and the m × |Θ| objective.

    One :func:`minimize` call scores every dataset.
    """
    tables = count_tables(datasets, system.x_set, system.y_set)
    rows, values = minimize(
        system, tables, anchor=system.anchor_term, penalty_weight=system.algorithm.weight
    )
    return list(map(system.theta_set.elements.__getitem__, rows.tolist())), values


def fit(data: Dataset, system: LearningSystem) -> tuple[Atom, np.ndarray]:
    """The parameter the system's algorithm selects from the data, and its objective over Θ."""
    (theta,), values = fit_stack((data,), system)
    return theta, values[0]


def empirical_risk(data: Dataset, theta: Atom, system: LearningSystem) -> float:
    """Mean loss of the hypothesis indexed by ``theta`` on the data, the value :func:`minimize`
    gives it, from that θ's totals alone."""
    tables = count_tables((data,), system.x_set, system.y_set)
    row = system.theta_set.index(theta)
    if not len(data):
        raise EmptyDataset("empirical risk needs at least one pair")
    return float(_loss_totals(system, tables, [row])[0, 0] / len(data))


def run_algorithm(data: Dataset, system: LearningSystem) -> Atom:
    """The first minimizer of the selection objective's float64 values over the parameter set.

    The data is scored as a stack of one count table by
    :func:`minimize`.  The error counts and anchor distances behind the
    values are exact integers, but the values combine them with
    rounding, so an exact tie can be broken by it; equal values break
    toward the smallest parameter index in canonical order.
    With empty data a penalized algorithm returns its anchor; plain ERM
    raises :class:`EmptyDataset`.  Pairs outside the system's sample
    space raise :class:`UnknownElement`.
    """
    return fit(data, system)[0]


def _predictor(system: LearningSystem, theta: Atom) -> Callable[[Atom], Atom]:
    """``x`` → :func:`evaluate` of ``theta`` at ``x``, from θ's row of codes decoded once."""
    hc, row = system.hypotheses, {}
    if theta in system.theta_set:
        cells = hc.codes[system.theta_set.index(theta)].tolist()
        row = dict(zip(hc.columns, map(hc.outputs.__getitem__, cells)))
    return lambda x: row[x] if x in system.x_set and x in row else evaluate(system, theta, x)


def evaluate(system: LearningSystem, theta: Atom, x: Atom) -> Atom:
    """Look up the hypothesis output; membership is validated."""
    if theta not in system.theta_set:
        raise UnknownElement(f"{theta!r} is not a parameter of the system")
    if x not in system.x_set:
        raise UnknownElement(f"{x!r} is not an input of the system")
    return system.hypotheses.output(theta, x)


def generalization_error(
    system: LearningSystem,
    theta: Atom,
    ctx: EvaluationContext,
    weight: EmpiricalMeasure | None = None,
) -> float:
    """Expected loss of the hypothesis ``theta`` against the context.

    In truth-table mode the expectation runs over the system's inputs,
    uniformly unless ``weight`` supplies a measure on them.  In hold-out
    mode it is the mean loss over the held-out pairs and ``weight`` is
    ignored.
    """
    loss = system.loss
    if isinstance(ctx.truth, Dataset):
        pairs = ctx.truth.pairs
        if not pairs:
            raise EmptyDataset("hold-out evaluation needs at least one pair")
        predict = _predictor(system, theta)
        return math.fsum(loss.loss(y, predict(x)) for x, y in pairs) / len(pairs)

    xs = system.x_set.elements
    for x in xs:
        if x not in ctx.truth:
            raise ValidationError(f"truth table undefined on {x!r}")
    if weight is None:
        w = {x: 1.0 / len(xs) for x in xs}
    else:
        if not frozenset(weight.support.elements) == frozenset(xs):
            raise SupportMismatch("weight measure must live on the evaluated inputs")
        w = weight.as_dict()
    predict = _predictor(system, theta)
    return math.fsum(w[x] * loss.loss(ctx.truth[x], predict(x)) for x in xs)


# -- axiom verification ---------------------------------------------------------

@dataclass(frozen=True)
class AxiomReport:
    """Violations found by the decomposition / goal-seeking / optimality checks."""

    cascade_violations: tuple[tuple[Atom, ...], ...]
    seeking: GoalSeekReport
    optimality_violations: tuple[tuple[Atom, ...], ...]
    dataset_names: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return (
            not self.cascade_violations
            and self.seeking.passed
            and not self.optimality_violations
        )


def _seeking(
    sg: FiniteSystem, theta_set: FiniteSet, selected: Mapping[str, Atom]
) -> GoalSeekReport:
    """Check 2 of the audit, decided without building the goal.

    The goal is the objective: total on datasets × Θ, valued in its own
    values, and sought exactly at the pairs ``(d, selected[d])``.  A
    point of ``sg``'s carrier can therefore fail only by lying outside
    datasets × Θ (``goal_not_total``; every point when the carrier does
    not have two components) or by being in exactly one of ``sg`` and
    the selections; ``goal_value`` cannot occur.  The report is the one
    :func:`~transferlab.relations.check_goal_seeking` gives for that goal.
    """
    carrier = _inductive_carrier(sg)
    if len(carrier) != 2:
        found = dict.fromkeys(itertools.product(*(c.elements for c in carrier)), "goal_not_total")
    else:
        rows, cols = carrier
        # Θ's own parameter set has no column outside Θ to look for.
        foreign = [] if cols.elements == theta_set.elements else [
            t for t in cols.elements if t not in theta_set
        ]
        found = {}
        for row in rows.elements:
            outside = foreign if row in selected else cols.elements
            found.update(((row, t), "goal_not_total") for t in outside)
    chosen = set(selected.items())
    violations = _seek_violations(carrier, found, sg, sg.tuple_set | chosen, chosen.__contains__)
    return GoalSeekReport(tuple(violations), math.prod(map(len, carrier)))


def verify_decomposition(
    system: LearningSystem,
    datasets: Sequence[Dataset],
    fit_fn: Callable[[Sequence[Dataset]], tuple[Sequence[Atom], np.ndarray]],
    functional_system: FiniteSystem | None = None,
    inductive_system: FiniteSystem | None = None,
) -> AxiomReport:
    """Check that selection plus hypothesis lookup form one coherent relation.

    ``fit_fn`` gives, for a stack of datasets, the selected parameters
    and the m × |Θ| objective, each row in the canonical order of the
    system's parameter set, as :func:`fit_stack` does; the system's own
    algorithm is not read.  The datasets are fitted in one call, and in
    a second call for the determinism check; a stack whose objective
    would exceed :data:`VALUE_CELL_CAP` values is fed in chunks under
    it, one call per chunk.  Three checks run over the sampled datasets:

    1. the composition of the inductive relation (data -> parameter)
       with the functional relation (parameter, input -> output) through
       the shared parameter set reproduces the direct input-output
       relation, tuple for tuple;
    2. the goal/seeking pair of the objective is consistent with the
       inductive relation (both directions of the biconditional).  The
       goal is the objective the selection minimized, so it is known
       without being built: total on datasets × Θ, valued in its own
       values, and sought exactly at the selections.  The check visits
       the carrier's rows and columns, the tuples of the inductive
       relation and the selections, never each (dataset, θ) point, and
       reports what :func:`~transferlab.relations.check_goal_seeking`
       reports for that goal;
    3. the selected parameter attains the minimum objective, and
       re-selection is deterministic.

    ``functional_system`` / ``inductive_system`` override the derived
    relations so hand-built (possibly corrupted) representations can be
    audited against the system's behavior.  The derived functional
    relation holds only the rows of the parameters in Θ that the
    inductive relation's tuples couple: the cascade joins on the
    parameter, so no other row can reach the composed relation, which
    is therefore the one the full Θ × X relation gives.  Each coupled or
    selected parameter's row of codes is decoded once.
    """
    if not datasets:
        raise EmptyDataset("axiom verification needs at least one sampled dataset")
    x_set, theta_set, hc = system.x_set, system.theta_set, system.hypotheses
    chunk = max(VALUE_CELL_CAP // len(theta_set), 1)
    stacks = [datasets[i : i + chunk] for i in range(0, len(datasets), chunk)]
    fits = [fit_fn(stack) for stack in stacks]
    names = tuple(f"d{i}" for i in range(len(datasets)))
    selected = dict(zip(names, [theta for chosen, _ in fits for theta in chosen]))
    derived = FiniteSystem(
        (FiniteSet("datasets", names), theta_set), tuple(selected.items()), ((0,), (1,))
    )
    codes = hc.codes_over(x_set.elements)

    @cache
    def outputs(theta: Atom) -> list[Atom]:
        """θ's outputs over X; a θ outside Θ raises what :meth:`HypothesisClass.output`
        raises."""
        if theta not in theta_set:
            return [hc.output(theta, x) for x in x_set.elements]
        return list(map(hc.outputs.__getitem__, codes[theta_set.index(theta)].tolist()))

    if inductive_system is None:
        inductive_system = derived
    if functional_system is None:
        # t[1:2]: a relation too short to couple is refused by the cascade itself.
        coupled = {theta for t in inductive_system.tuples for theta in t[1:2] if theta in theta_set}
        functional_system = FiniteSystem(
            (theta_set, x_set, system.y_set),
            tuple(
                (theta, x, y)
                for theta in sorted(coupled, key=theta_set.index)
                for x, y in zip(x_set.elements, outputs(theta))
            ),
            ((0, 1), (2,)),
        )

    composed = cascade(inductive_system, functional_system, (1, 0))
    direct = frozenset(
        (name, x, y)
        for name, chosen in selected.items()
        for x, y in zip(x_set.elements, outputs(chosen))
    )
    cascade_violations = tuple(
        sorted(direct.symmetric_difference(composed.tuple_set), key=repr)
    )
    seeking = _seeking(inductive_system, theta_set, selected)

    objectives = [objective for _, values in fits for objective in values]
    refits = (theta for stack in stacks for theta in fit_fn(stack)[0])
    optimality: list[tuple[Atom, ...]] = []
    for (name, chosen), objective, again in zip(selected.items(), objectives, refits):
        better = np.flatnonzero(objective < objective[theta_set.index(chosen)])
        optimality.extend((name, theta_set.elements[i]) for i in better)
        if again != chosen:
            optimality.append((name, "nondeterministic"))

    return AxiomReport(cascade_violations, seeking, tuple(optimality), tuple(selected))


def verify_learning_axioms(
    system: LearningSystem,
    sample_datasets: Sequence[Dataset],
    functional_system: FiniteSystem | None = None,
    inductive_system: FiniteSystem | None = None,
) -> AxiomReport:
    """Run the decomposition checks on a learning system directly."""
    return verify_decomposition(
        system, sample_datasets, partial(fit_stack, system=system), functional_system,
        inductive_system,
    )
