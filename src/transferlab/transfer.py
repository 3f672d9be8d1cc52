"""Transfer between learning systems.

A transfer system carries knowledge selected from a source system
(data instances, a trained parameter, or both) into the training of a
target-facing hypothesis.  Four composition rules are built in; each
only states its terms of the objective of :mod:`transferlab.learning`,
and :func:`transfer_fit_stack` selects with the one rule learning uses,
:func:`transferlab.learning.minimize`:

* ``instance``: risk on the target data pooled with the source
  instances, weighted ``w``: ``(L(θ; C_t) + w·L(θ; C_s)) / (n_t + w·n_s)``;
* ``parameter``: target risk plus ``λ·d(θ, a) / |X|``, the distance to
  the source-trained anchor ``a`` (with no target data, ``a`` itself);
* ``instance_parameter``: the pooled risk plus the same penalty;
* ``feature_representation``: risk in a latent learning system on the
  pairs mapped into it; answers are mapped back to the target's outputs.

What each rule takes from the source (instances, parameters or both) is
said in one place, :data:`CONSUMES`; a transfer system carries no other
knowledge.  It is itself a learning system, :attr:`TransferSystem.system_tr`,
whose hypotheses learning's own functions score.  The selection is
deterministic, the first minimizer in canonical order, so that claim is
checkable by enumeration (:func:`verify_transfer_is_learning_system`
audits ``system_tr`` with :func:`transfer_fit_stack` as its fit function).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EmptyDataset,
    IncompatibleSupport,
    MissingSourceArtifact,
    UnknownElement,
    ValidationError,
)
from .learning import (
    AxiomReport,
    Dataset,
    HypothesisClass,
    LearningSystem,
    SystemPack,
    _anchor_term,
    count_tables,
    minimize,
    score_table,
    verify_decomposition,
)
from .relations import Atom, FiniteSet, _sequence

#: What each approach consumes from the source: (instances, parameters).
CONSUMES = {
    "instance": (True, False),
    "parameter": (False, True),
    "instance_parameter": (True, True),
    "feature_representation": (True, False),
}
APPROACHES = tuple(CONSUMES)

#: Tolerance for declared-measure equality when classifying a setting.
MEASURE_EQUALITY_TOL = 1e-9


@dataclass(frozen=True)
class Knowledge:
    """What the source contributes: data instances, one trained parameter, or both."""

    instances: Dataset | None = None
    parameters: tuple[Atom, ...] | None = None

    def __post_init__(self) -> None:
        if self.parameters is not None:
            parameters = _sequence(self.parameters, "knowledge parameters")
            if len(parameters) != 1:
                raise ValidationError(
                    f"knowledge parameters hold one source parameter, not {len(parameters)}"
                )
            object.__setattr__(self, "parameters", parameters)
        if self.instances is None and self.parameters is None:
            raise ValidationError("knowledge must carry instances or parameters")


def _consumed(approach: str) -> tuple[bool, bool]:
    """``CONSUMES[approach]``; a tuple test first, so an unhashable approach is refused too."""
    if approach not in APPROACHES:
        raise ValidationError(f"unknown transfer approach {approach!r}")
    return CONSUMES[approach]


def _check_knowledge(
    source: LearningSystem,
    approach: str,
    instances: Dataset | None,
    parameters: tuple[Atom, ...] | None,
) -> None:
    """Refuse a missing consumed piece, a piece outside ``source``, then an unconsumed piece."""
    needs_instances, needs_parameters = _consumed(approach)
    if needs_instances and instances is None:
        raise MissingSourceArtifact(f"{approach} transfer needs source instances")
    if needs_parameters and parameters is None:
        raise MissingSourceArtifact(f"{approach} transfer needs a source parameter")
    if instances is not None:
        count_tables((instances,), source.x_set, source.y_set)
    for theta in parameters or ():
        if theta not in source.theta_set:
            raise UnknownElement(f"{theta!r} is not a source parameter")
    if instances is not None and not needs_instances:
        raise ValidationError(f"{approach} transfer does not consume source instances")
    if parameters is not None and not needs_parameters:
        raise ValidationError(f"{approach} transfer does not consume a source parameter")


def select_knowledge(
    source: LearningSystem,
    source_data: Dataset | None,
    source_theta: Atom | None,
    kind: str,
) -> Knowledge:
    """Pick the knowledge pieces an approach consumes from the source."""
    takes_instances, takes_parameters = _consumed(kind)
    instances = source_data if takes_instances else None
    parameters = (source_theta,) if takes_parameters and source_theta is not None else None
    _check_knowledge(source, kind, instances, parameters)
    return Knowledge(instances, parameters)


@dataclass(frozen=True)
class FeatureRepSpec:
    """Maps into and out of a latent learning system.

    ``pair_map_target`` and ``pair_map_source`` translate target/source
    data pairs into latent pairs; ``input_map`` translates target inputs
    and ``output_map`` latent outputs back to target outputs.  All maps
    are total on their declared domains.
    """

    latent_system: LearningSystem
    pair_map_target: Mapping[tuple[Atom, Atom], tuple[Atom, Atom]]
    pair_map_source: Mapping[tuple[Atom, Atom], tuple[Atom, Atom]]
    input_map: Mapping[Atom, Atom]
    output_map: Mapping[Atom, Atom]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "pair_map_target", {tuple(k): tuple(v) for k, v in self.pair_map_target.items()}
        )
        object.__setattr__(
            self, "pair_map_source", {tuple(k): tuple(v) for k, v in self.pair_map_source.items()}
        )
        object.__setattr__(self, "input_map", dict(self.input_map))
        object.__setattr__(self, "output_map", dict(self.output_map))

    def validate_against(self, source: LearningSystem, target: LearningSystem) -> None:
        latent = self.latent_system
        for x in target.x_set.elements:
            if x not in self.input_map:
                raise ValidationError(f"input map undefined on target input {x!r}")
            if self.input_map[x] not in latent.x_set:
                raise UnknownElement(f"input map image {self.input_map[x]!r} not latent")
        for y in latent.y_set.elements:
            if y not in self.output_map:
                raise ValidationError(f"output map undefined on latent output {y!r}")
            if self.output_map[y] not in target.y_set:
                raise UnknownElement(
                    f"output map image {self.output_map[y]!r} not a target output"
                )
        for x in target.x_set.elements:
            for y in target.y_set.elements:
                if (x, y) not in self.pair_map_target:
                    raise ValidationError(f"target pair map undefined on {(x, y)!r}")
        for x in source.x_set.elements:
            for y in source.y_set.elements:
                if (x, y) not in self.pair_map_source:
                    raise ValidationError(f"source pair map undefined on {(x, y)!r}")
        for image in list(self.pair_map_target.values()) + list(
            self.pair_map_source.values()
        ):
            if image[0] not in latent.x_set or image[1] not in latent.y_set:
                raise UnknownElement(f"pair map image {image!r} outside latent space")


@dataclass(frozen=True)
class TransferSystem:
    """Source and target systems plus a knowledge-consuming composition rule.

    The knowledge must hold exactly the pieces the rule consumes.  The
    transfer learning system :attr:`system_tr` is derived, never passed:
    the target itself for the instance and parameter rules, and for the
    feature rule the target's sample space and loss with the table the
    latent class induces through the input and output maps; that rule
    selects in the latent system and so has the latent parameters.
    """

    source: LearningSystem
    target: LearningSystem
    knowledge: Knowledge
    approach: str = "instance"
    latent: FeatureRepSpec | None = None
    penalty_weight: float = 0.1
    pool_weight: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.pool_weight) and self.pool_weight > 0):
            raise ValidationError(f"pool weight {self.pool_weight!r} is not finite and positive")
        if not (math.isfinite(self.penalty_weight) and self.penalty_weight >= 0):
            raise ValidationError(
                f"penalty weight {self.penalty_weight!r} is not finite and non-negative"
            )
        _check_knowledge(
            self.source, self.approach, self.knowledge.instances, self.knowledge.parameters
        )

        if self.approach == "feature_representation":
            if self.latent is None:
                raise ValidationError("feature-representation transfer needs latent maps")
            self.latent.validate_against(self.source, self.target)
        else:
            if self.latent is not None:
                raise ValidationError(
                    f"latent maps are only consumed by feature-representation transfer"
                )
            if CONSUMES[self.approach][1]:
                anchor = self.knowledge.parameters[0]
                if anchor not in self.theta_tr_set:
                    raise ValidationError(
                        f"anchor {anchor!r} does not index the transfer hypotheses"
                    )

    @cached_property
    def system_tr(self) -> LearningSystem:
        """The transfer learning system: the target, or its space with the induced latent table."""
        target, spec = self.target, self.latent
        if self.approach != "feature_representation":
            return target
        # The latent codes at each input's image, relabelled through the output map.
        lat, xs = spec.latent_system, target.x_set.elements
        picks = [lat.x_set.index(spec.input_map[x]) for x in xs]
        outputs = map(spec.output_map.__getitem__, lat.y_set.elements)
        table = HypothesisClass.of_codes(lat.theta_set, xs, lat.codes[:, picks], outputs)
        return LearningSystem(target.x_set, target.y_set, table, target.loss)

    @property
    def theta_tr_set(self) -> FiniteSet:
        return self.system_tr.theta_set

    @cached_property
    def source_scores(self) -> tuple[np.ndarray, int]:
        """The source instances' loss total per target θ and their pair count, scored once.

        Every fit of a pooling rule adds them, weighted, to its target
        totals.  Instances outside the target's sample space raise
        :class:`IncompatibleSupport` on every read, so a run that pools
        them is refused.
        """
        return score_table(self.target, _target_counts(self.knowledge.instances, self.target))

    @cached_property
    def anchor_term(self) -> tuple[int, np.ndarray] | None:
        """The source parameter's row of the target table and every target θ's distance to it,
        computed once; ``None`` when the rule consumes no parameter."""
        if not CONSUMES[self.approach][1]:
            return None
        target = self.target
        return _anchor_term(target.codes, target.theta_set.index(self.knowledge.parameters[0]))

    @cached_property
    def latent_cells(self) -> np.ndarray:
        """``M[(x, y), (u, z)]``: 1 where the target pair map sends (x, y) to (u, z), else 0.

        Rows and columns are flat cells ``x·|Y| + y`` of the target's and
        ``u·|Z| + z`` of the latent sample space, so a stack of target
        count tables times ``M`` is the stack of their latent tables.  The
        pair map is total on the target's space and maps into the latent
        one (checked at construction), so every row holds one 1 and the
        integer product is exact.
        """
        spec, target = self.latent, self.target
        lat = spec.latent_system
        n_z = len(lat.y_set)
        pairs = itertools.product(target.x_set, target.y_set)
        images = [
            lat.x_set.index(u) * n_z + lat.y_set.index(z)
            for u, z in map(spec.pair_map_target.__getitem__, pairs)
        ]
        cells = np.zeros((len(images), len(lat.x_set) * n_z), np.int64)
        cells[np.arange(len(images)), images] = 1
        return cells

    @cached_property
    def latent_source_counts(self) -> np.ndarray:
        """``C_s[u, z]`` of the source instances through the source pair map, counted once.

        The feature rule adds it to each target dataset's latent table.
        """
        spec, lat = self.latent, self.latent.latent_system
        instances = self.knowledge.instances.pairs
        mapped = Dataset(tuple(map(spec.pair_map_source.__getitem__, instances)))
        return count_tables((mapped,), lat.x_set, lat.y_set)[0]


def _target_counts(instances: Dataset, target: LearningSystem) -> np.ndarray:
    """``C[x, y]`` of the source instances in the target's sample space, or
    :class:`IncompatibleSupport` naming the first element outside it."""
    try:
        return count_tables((instances,), target.x_set, target.y_set)[0]
    except UnknownElement as exc:
        raise IncompatibleSupport(f"source pair outside the target sample space: {exc}") from None


def pool_data(knowledge: Knowledge, target_data: Dataset, target: LearningSystem) -> Dataset:
    """Multiset union of target data and source instances, target first.

    The source instances must lie in the target system's sample space
    (no latent alignment happens here).
    """
    if knowledge.instances is None:
        raise MissingSourceArtifact("pooling needs instance knowledge")
    _target_counts(knowledge.instances, target)
    tag = f"pooled({target_data.source_tag}+{knowledge.instances.source_tag})"
    return Dataset(target_data.pairs + knowledge.instances.pairs, tag)


@dataclass(frozen=True, eq=False)
class TransferTrace:
    """One transfer run: the system, the target data and the objective it selected from.

    ``values`` is the objective over ``theta_tr_set``, its row of what
    :func:`transfer_fit_stack` returns; the mapping is built when first read.
    """

    system: TransferSystem
    target_data: Dataset
    values: np.ndarray

    @property
    def approach(self) -> str:
        return self.system.approach

    @property
    def n_target(self) -> int:
        return len(self.target_data)

    @property
    def zero_shot(self) -> bool:
        return self.n_target == 0

    @cached_property
    def objective(self) -> Mapping[Atom, float]:
        """Each transfer parameter's objective, in canonical order.

        Empty when the run has no data term: the rule pools no instances
        and there are no target pairs, so a zero-shot parameter run
        selects its anchor from the penalty alone.
        """
        if not (CONSUMES[self.approach][0] or self.n_target):
            return {}
        return dict(zip(self.system.theta_tr_set.elements, self.values.tolist()))


def transfer_fit_stack(
    ts: TransferSystem, datasets: Sequence[Dataset]
) -> tuple[list[Atom], np.ndarray]:
    """The rule's selection from each target dataset and the m × ``theta_tr_set`` objective.

    One :func:`~transferlab.learning.minimize` call scores every
    dataset.  What no target dataset changes is derived once per transfer
    system: the pooling rules score the source instances once
    (:attr:`TransferSystem.source_scores`), the parameter rules measure
    the distances to their anchor once (:attr:`TransferSystem.anchor_term`),
    and the feature rule counts the source instances' latent table once
    and maps each target count table into the latent space through one
    0/1 cell matrix (:attr:`TransferSystem.latent_cells`), with no
    mapped dataset built.  The first pair of the stack outside the
    target's sample space is refused before any dataset is fitted.
    """
    target = ts.target
    tables = count_tables(datasets, target.x_set, target.y_set)
    if ts.approach == "feature_representation":
        if not (len(ts.knowledge.instances) or all(map(len, datasets))):
            raise EmptyDataset("feature-representation transfer needs mapped data")
        lat = ts.latent.latent_system
        cells = ts.latent_cells
        latent = (tables.reshape(len(tables), len(cells)) @ cells).reshape(
            len(tables), len(lat.x_set), len(lat.y_set)
        )
        rows, values = minimize(lat, latent + ts.latent_source_counts)
        return list(map(lat.theta_set.elements.__getitem__, rows.tolist())), values

    source = None
    if CONSUMES[ts.approach][0]:
        source = ts.source_scores
        if not (len(ts.knowledge.instances) or all(map(len, datasets))):
            raise EmptyDataset(f"{ts.approach} transfer needs pooled data")
    rows, values = minimize(
        target, tables, source, ts.pool_weight, ts.anchor_term, ts.penalty_weight
    )
    return list(map(target.theta_set.elements.__getitem__, rows.tolist())), values


def run_transfer(ts: TransferSystem, target_data: Dataset) -> tuple[Atom, TransferTrace]:
    """Execute the transfer rule; the selection and the trace of the run."""
    (selected,), values = transfer_fit_stack(ts, (target_data,))
    return selected, TransferTrace(ts, target_data, values[0])


# -- classification -------------------------------------------------------------

def classify_approach(ts: TransferSystem) -> str:
    """``ts.approach``, the only label that fits: a transfer system refuses a consumed piece it
    lacks, an unconsumed one it carries (:data:`CONSUMES`) and latent maps off the feature rule.
    """
    return ts.approach


@dataclass(frozen=True)
class SettingClassification:
    """Structural and behavioral equality flags plus the derived label."""

    structural: str  # homogeneous | heterogeneous
    input_structural_eq: bool
    output_structural_eq: bool
    marginal_eq: bool
    posterior_eq: bool
    label: str  # trivial | transductive | inductive | both | none


def _measures_equal(p, q, tol: float) -> bool:
    if not p.support.same_elements(q.support):
        return False
    return all(abs(p.prob(el) - q.prob(el)) <= tol for el in p.support.elements)


def _posteriors_equal(p, q, tol: float) -> bool:
    if not p.given.same_elements(q.given):
        return False
    if not p.output_support.same_elements(q.output_support):
        return False
    return all(_measures_equal(p.row(x), q.row(x), tol) for x in p.given.elements)


def classify_setting(source: SystemPack, target: SystemPack) -> SettingClassification:
    """Compare declared structure and behavior of a source/target pair.

    Structure compares the sample spaces exactly; behavior compares the
    declared marginals and posteriors within :data:`MEASURE_EQUALITY_TOL`.
    The label is ``trivial`` when everything agrees, ``transductive``
    when only the input behavior differs, ``inductive`` when the output
    set or the posterior differs, and ``both`` when the two kinds of
    difference coincide.
    """
    s_marg, s_post = source.measures()
    t_marg, t_post = target.measures()

    input_eq = source.system.x_set.same_elements(target.system.x_set)
    output_eq = source.system.y_set.same_elements(target.system.y_set)
    marginal_eq = _measures_equal(s_marg, t_marg, MEASURE_EQUALITY_TOL)
    posterior_eq = _posteriors_equal(s_post, t_post, MEASURE_EQUALITY_TOL)

    structural = "homogeneous" if (input_eq and output_eq) else "heterogeneous"
    transductive = not marginal_eq
    inductive = (not output_eq) or (not posterior_eq)
    if input_eq and output_eq and marginal_eq and posterior_eq:
        label = "trivial"
    elif transductive and not inductive:
        label = "transductive"
    elif inductive and not transductive:
        label = "inductive"
    elif transductive and inductive:
        label = "both"
    else:
        label = "none"
    return SettingClassification(
        structural, input_eq, output_eq, marginal_eq, posterior_eq, label
    )


def verify_transfer_is_learning_system(
    ts: TransferSystem,
    target_datasets: Sequence[Dataset],
    functional_system=None,
    inductive_system=None,
) -> AxiomReport:
    """Audit the transfer system as the learning system it is.

    The audited system is :attr:`TransferSystem.system_tr`, with
    :func:`transfer_fit_stack` as its fit function; the checks over the sampled
    target datasets are those of :func:`~transferlab.learning.verify_learning_axioms`,
    by the same :func:`~transferlab.learning.verify_decomposition`.  Like
    that audit it refuses no system and no dataset list for its size: it
    fits the datasets in two stacked calls, which pool the source
    instances' scores of :attr:`TransferSystem.source_scores`, and scans
    each selection's objective row, so
    its cost is linear in datasets × |Θ| × |X|.
    """
    return verify_decomposition(
        ts.system_tr, target_datasets, partial(transfer_fit_stack, ts), functional_system,
        inductive_system,
    )
