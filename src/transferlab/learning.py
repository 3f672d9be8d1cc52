"""Learning systems over finite carriers.

A learning system couples a finite hypothesis table with an algorithm
that selects a parameter from data by exact exhaustive minimization of
an objective.  The table, the functional relation Θ × X → Y, is stored
as one row of outputs per θ over a column order of inputs.  Learning and
every transfer rule minimize one formula, scored for all parameters at
once and selected from by :func:`minimize`, the one selection rule::

    (L(θ; C_t) + w·L(θ; C_s)) / (n_t + w·n_s) + λ·d(θ, a) / |X|

Values are exact; the selection is the first minimizer in canonical
order, or the anchor itself when there is no data term.  :func:`fit`
and :func:`transferlab.transfer.transfer_fit` call it for a learning and
a transfer system.  Zero-one totals and the anchor distance are
matrix–vector products of per-label 0/1 indicators with count columns:
every term and partial sum is an integer below 2**53, so float64 holds
them exactly and the summation order cannot change them.  Squared
totals are still summed per θ with ``math.fsum``.  Because every
carrier is finite, the defining biconditionals of the construction are
checkable by enumeration, which is what :func:`verify_learning_axioms`
does.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
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
    GoalSeekingSpec,
    GoalSeekReport,
    cascade,
    check_goal_seeking,
)


@dataclass(frozen=True)
class Dataset:
    """A finite multiset of input-output pairs with a provenance tag."""

    pairs: tuple[tuple[Atom, Atom], ...]
    source_tag: str = "data"

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        for p in self.pairs:
            if len(p) != 2:
                raise ValidationError(f"dataset pair {p!r} is not a 2-tuple")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def validate_against(self, x_set: FiniteSet, y_set: FiniteSet) -> None:
        for x, y in self.pairs:
            if x not in x_set:
                raise UnknownElement(f"data input {x!r} not in set {x_set.name!r}")
            if y not in y_set:
                raise UnknownElement(f"data output {y!r} not in set {y_set.name!r}")

    def counts(self, x_set: FiniteSet, y_set: FiniteSet) -> np.ndarray:
        """``C[x, y]``: how often each pair occurs; one outside X × Y raises."""
        matrix = np.zeros((len(x_set), len(y_set)), dtype=np.int64)
        for (x, y), c in Counter(self.pairs).items():
            matrix[x_set.index(x), y_set.index(y)] += c
        return matrix


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
_MISSING = object()  # a cell the (θ, x) mapping a class was built from leaves out


@dataclass(frozen=True, init=False)
class HypothesisClass:
    """The functional relation Θ × X → Y: ``rows[θ]`` lists θ's outputs over ``columns``.

    Built from rows (``columns=xs, rows=...``) or from a ``(θ, x) → y``
    ``table``, converted to rows once; cells a table leaves out stay
    undefined, and :meth:`encode` refuses a table that is not total.
    """

    theta_set: FiniteSet
    columns: tuple[Atom, ...]
    rows: dict[Atom, tuple[Atom, ...]]

    def __init__(
        self, theta_set: FiniteSet, table: Mapping[tuple[Atom, Atom], Atom] | None = None, *,
        columns: Sequence[Atom] = (), rows: Mapping[Atom, Sequence[Atom]] | None = None,
    ) -> None:
        columns = tuple(dict.fromkeys(x for _, x in table) if table is not None else columns)
        position = {x: i for i, x in enumerate(columns)}
        if table is not None:
            rows = {}
            for (theta, x), y in table.items():
                rows.setdefault(theta, [_MISSING] * len(columns))[position[x]] = y
        object.__setattr__(self, "theta_set", theta_set)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", {theta: tuple(row) for theta, row in rows.items()})
        object.__setattr__(self, "_position", position)
        for theta, row in self.rows.items():
            if len(row) != len(columns):
                raise ValidationError(f"row for {theta!r} must align with {len(columns)} columns")

    def _cell(self, theta: Atom, x: Atom) -> Atom:
        try:
            return self.rows[theta][self._position[x]]
        except KeyError:
            return _MISSING

    def output(self, theta: Atom, x: Atom) -> Atom:
        if (y := self._cell(theta, x)) is _MISSING:
            raise UnknownElement(f"hypothesis table has no entry for {(theta, x)!r}")
        return y

    def rows_over(self, xs: Sequence[Atom]) -> list[tuple[Atom, ...]]:
        """Each θ's outputs over ``xs``, θ canonical, cells unchecked; ``KeyError`` if absent."""
        rows = [self.rows[theta] for theta in self.theta_set.elements]
        if tuple(xs) == self.columns:
            return rows
        picks = [self._position[x] for x in xs]
        return [tuple(row[i] for i in picks) for row in rows]

    def encode(self, x_set: FiniteSet, y_set: FiniteSet) -> np.ndarray:
        """``H[θ, x]``: the index in ``y_set`` of each output, θ and x canonical.

        The table must be total on Θ × X with every output in ``y_set``;
        the first entry in canonical order that is not raises.
        """
        thetas, xs = self.theta_set.elements, x_set.elements
        dtype = np.min_scalar_type(len(y_set) - 1)
        try:
            cells = itertools.chain.from_iterable(self.rows_over(xs))
            flat = np.fromiter(map(y_set._index.__getitem__, cells), dtype, len(thetas) * len(xs))
        except KeyError:
            for key in itertools.product(thetas, xs):
                if (y := self._cell(*key)) is _MISSING:
                    raise ValidationError(f"hypothesis table is not total: missing {key!r}")
                if y not in y_set:
                    raise UnknownElement(f"hypothesis output {y!r} not in set {y_set.name!r}")
            raise
        return flat.reshape(len(thetas), len(xs))


def full_function_class(
    x_set: FiniteSet,
    y_set: FiniteSet,
    max_size: int = 4096,
) -> HypothesisClass:
    """Every function from the input set to the output set, canonically indexed h0, h1, ..."""
    count = len(y_set) ** len(x_set)
    if count > max_size:
        raise CapExceeded(
            f"{count} functions from {x_set.name} to {y_set.name} exceed cap {max_size}"
        )
    width = max(len(str(count - 1)), 1)
    names = tuple(f"h{i:0{width}d}" for i in range(count))
    rows = dict(zip(names, itertools.product(y_set.elements, repeat=len(x_set))))
    return HypothesisClass(FiniteSet("h_params", names), columns=x_set.elements, rows=rows)


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
        if self.weight < 0:
            raise ValidationError("penalty weight must be non-negative")


@dataclass(frozen=True)
class LearningSystem:
    """Finite input/output sets, a hypothesis table, a loss, an algorithm."""

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

def _loss_totals(
    codes: np.ndarray, y_set: FiniteSet, loss: LossSpec, counts: np.ndarray
) -> np.ndarray:
    """Per θ, the summed loss of ``H[θ]`` on the counted pairs, exactly.

    Zero-one totals are error counts: the pairs minus the hits, where
    the hits are one product per label ``y`` of the indicator
    ``codes == y`` with the count column ``C[:, y]``, in float64.  Every
    count, product and partial sum is an integer no larger than the
    number of pairs, far below 2**53, so the totals are exact whatever
    order the products sum in.  Squared totals are the ``math.fsum`` of
    one ``count * loss`` term per occupied cell, per θ.
    """
    if loss.kind == "zero_one":
        hits = np.zeros(len(codes))
        for y, column in enumerate(counts.T.astype(np.float64)):
            hits += (codes == y) @ column
        return counts.sum() - hits
    labels = y_set.elements
    table = np.array([[loss.loss(y, prediction) for prediction in labels] for y in labels])
    xs, ys = np.nonzero(counts)
    terms = counts[xs, ys] * table[ys, codes[:, xs]]
    return np.array([math.fsum(row) for row in terms.tolist()])


def minimize(
    codes: np.ndarray,
    y_set: FiniteSet,
    loss: LossSpec,
    counts: np.ndarray | None,
    pooled: np.ndarray | None = None,
    pool_weight: float = 1.0,
    anchor: int | None = None,
    penalty_weight: float = 0.0,
) -> tuple[int, np.ndarray]:
    """The one selection rule: the chosen row θ of ``codes`` and every row's objective.

    The chosen row of ``H[θ, x]`` is the first minimizer in canonical
    order or, with no risk term, the ``anchor`` itself.  ``L(θ; C)``
    sums the loss of ``H[θ]`` over the pairs counted in ``C[x, y]``: the
    target ``counts`` (``None``: no risk term) and the ``pooled`` source
    counts, weighted by ``pool_weight``.  ``d(θ, a)`` counts the inputs
    where ``H[θ]`` and row ``anchor`` differ (``None``: no penalty
    term), as the product of the indicator ``codes != codes[anchor]``
    with a ones vector.  Both counts are exact integers in float64 (see
    :func:`_loss_totals`); the float operations after them follow the
    formula's order, so each value equals the one computed for its θ
    alone.
    """
    values = None
    if counts is not None:
        numerator = _loss_totals(codes, y_set, loss, counts)
        denominator = int(counts.sum())
        if pooled is not None:
            numerator = numerator + pool_weight * _loss_totals(codes, y_set, loss, pooled)
            denominator = denominator + pool_weight * int(pooled.sum())
        values = numerator / denominator
    if anchor is not None:
        differing = (codes != codes[anchor]) @ np.ones(codes.shape[1])
        penalty = penalty_weight * (differing / codes.shape[1])
        values = penalty if values is None else values + penalty
    if values is None:
        raise EmptyDataset("an objective without an anchor needs data")
    return (anchor if counts is None else int(np.argmin(values))), values


def empirical_risk(data: Dataset, theta: Atom, system: LearningSystem) -> float:
    """Mean loss of the hypothesis indexed by ``theta`` on the data."""
    counts = data.counts(system.x_set, system.y_set) if len(data) else None
    row = system.theta_set.index(theta)
    codes = system.codes[row : row + 1]
    return float(minimize(codes, system.y_set, system.loss, counts)[1][0])


def fit(data: Dataset, system: LearningSystem) -> tuple[Atom, np.ndarray]:
    """The parameter the system's algorithm selects from the data, and its objective over Θ."""
    algo = system.algorithm
    counts = data.counts(system.x_set, system.y_set) if len(data) else None
    anchor = None if algo.kind == "erm" else system.theta_set.index(algo.anchor)
    row, values = minimize(
        system.codes, system.y_set, system.loss, counts,
        anchor=anchor, penalty_weight=algo.weight,
    )
    return system.theta_set.elements[row], values


def run_algorithm(data: Dataset, system: LearningSystem) -> Atom:
    """Exact argmin of the selection objective over the parameter set.

    Ties break toward the smallest parameter index in canonical order.
    With empty data a penalized algorithm returns its anchor; plain ERM
    raises :class:`EmptyDataset`.  Pairs outside the system's sample
    space raise :class:`UnknownElement`.
    """
    return fit(data, system)[0]


def evaluate(system: LearningSystem, theta: Atom, x: Atom) -> Atom:
    """Look up the hypothesis output; membership is validated."""
    if theta not in system.theta_set:
        raise UnknownElement(f"{theta!r} is not a parameter of the system")
    if x not in system.x_set:
        raise UnknownElement(f"{x!r} is not an input of the system")
    return system.hypotheses.output(theta, x)


def prediction_error(
    predict: Callable[[Atom], Atom],
    ctx: EvaluationContext,
    loss: LossSpec,
    weight: EmpiricalMeasure | None = None,
    x_set: FiniteSet | None = None,
) -> float:
    """Expected loss of an arbitrary predictor against a context.

    In truth-table mode the expectation runs over the declared inputs,
    uniformly unless ``weight`` supplies a measure on them.  In hold-out
    mode it is the mean loss over the held-out pairs and ``weight`` is
    ignored.
    """
    if isinstance(ctx.truth, Dataset):
        pairs = ctx.truth.pairs
        if not pairs:
            raise EmptyDataset("hold-out evaluation needs at least one pair")
        return math.fsum(loss.loss(y, predict(x)) for x, y in pairs) / len(pairs)

    xs = tuple(ctx.truth.keys()) if x_set is None else x_set.elements
    for x in xs:
        if x not in ctx.truth:
            raise ValidationError(f"truth table undefined on {x!r}")
    if weight is None:
        w = {x: 1.0 / len(xs) for x in xs}
    else:
        if not frozenset(weight.support.elements) == frozenset(xs):
            raise SupportMismatch("weight measure must live on the evaluated inputs")
        w = weight.as_dict()
    return math.fsum(w[x] * loss.loss(ctx.truth[x], predict(x)) for x in xs)


def generalization_error(
    system: LearningSystem,
    theta: Atom,
    ctx: EvaluationContext,
    weight: EmpiricalMeasure | None = None,
) -> float:
    """Expected loss of the hypothesis ``theta`` against the context."""
    return prediction_error(
        lambda x: evaluate(system, theta, x), ctx, system.loss, weight, system.x_set
    )


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


def _goal_seeking(
    theta_set: FiniteSet, fits: Sequence[tuple[Atom, np.ndarray]]
) -> tuple[dict[str, Atom], FiniteSystem, GoalSeekingSpec]:
    """Selections, inductive relation and goal/seeking pair of one fit per dataset.

    Dataset ``i`` is ``d<i>``; ``fits[i]`` is its selection and objective vector.
    """
    names = tuple(f"d{i}" for i in range(len(fits)))
    selected = {name: theta for name, (theta, _) in zip(names, fits)}
    inductive = FiniteSystem(
        (FiniteSet("datasets", names), theta_set),
        tuple(selected.items()),
        ((0,), (1,)),
    )
    goal = dict(zip(
        itertools.product(names, theta_set.elements),
        itertools.chain.from_iterable(values.tolist() for _, values in fits),
    ))
    gs = GoalSeekingSpec(
        FiniteSet("objective_values", tuple(dict.fromkeys(goal.values()))),
        goal,
        frozenset((name, goal[(name, theta)], theta) for name, theta in selected.items()),
    )
    return selected, inductive, gs


def verify_decomposition(
    x_set: FiniteSet,
    y_set: FiniteSet,
    hypotheses: HypothesisClass,
    datasets: Sequence[Dataset],
    fit_fn: Callable[[Dataset], tuple[Atom, np.ndarray]],
    functional_system: FiniteSystem | None = None,
    inductive_system: FiniteSystem | None = None,
) -> AxiomReport:
    """Check that selection plus hypothesis lookup form one coherent relation.

    ``fit_fn`` gives, for one dataset, the selected parameter and the
    objective of every parameter in the canonical order of the
    hypotheses' parameter set.  Each dataset is fitted once, and once
    more for the determinism check.  Three checks run over the sampled
    datasets:

    1. the composition of the inductive relation (data -> parameter)
       with the functional relation (parameter, input -> output) through
       the shared parameter set reproduces the direct input-output
       relation, tuple for tuple;
    2. the goal/seeking pair built from the objective is consistent with
       the inductive relation (both directions of the biconditional);
    3. the selected parameter attains the minimum objective, and
       re-selection is deterministic.

    ``functional_system`` / ``inductive_system`` override the derived
    relations so hand-built (possibly corrupted) representations can be
    audited against the system's behavior.  The derived functional
    relation holds only the rows of the parameters in Θ that the
    inductive relation's tuples couple: the cascade joins on the
    parameter, so no other row can reach the composed relation, which
    is therefore the one the full Θ × X relation gives.
    """
    if not datasets:
        raise EmptyDataset("axiom verification needs at least one sampled dataset")
    theta_set, output = hypotheses.theta_set, hypotheses.output
    fits = [fit_fn(d) for d in datasets]
    selected, derived, gs = _goal_seeking(theta_set, fits)
    if inductive_system is None:
        inductive_system = derived
    if functional_system is None:
        # t[1:2]: a relation too short to couple is refused by the cascade itself.
        coupled = {theta for t in inductive_system.tuples for theta in t[1:2] if theta in theta_set}
        functional_system = FiniteSystem(
            (theta_set, x_set, y_set),
            tuple(
                (theta, x, output(theta, x))
                for theta in sorted(coupled, key=theta_set.index)
                for x in x_set.elements
            ),
            ((0, 1), (2,)),
        )

    composed = cascade(inductive_system, functional_system, (1, 0))
    direct = frozenset(
        (name, x, output(chosen, x))
        for name, chosen in selected.items()
        for x in x_set.elements
    )
    cascade_violations = tuple(
        sorted(direct.symmetric_difference(composed.tuple_set), key=repr)
    )
    seeking = check_goal_seeking(None, inductive_system, gs)

    optimality: list[tuple[Atom, ...]] = []
    for name, (chosen, objective), d in zip(selected, fits, datasets):
        better = np.flatnonzero(objective < objective[theta_set.index(chosen)] - 1e-12)
        optimality.extend((name, theta_set.elements[i]) for i in better)
        if fit_fn(d)[0] != chosen:
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
        system.x_set, system.y_set, system.hypotheses, sample_datasets,
        lambda d: fit(d, system), functional_system, inductive_system,
    )
