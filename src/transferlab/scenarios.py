"""Synthetic source/target pairs with controlled differences.

Generators produce pairs of learning-system packs whose structural and
behavioral differences are dialed in by four knobs: a marginal shift
(mixture interpolation toward a point mass, so the total variation
between the input marginals is exactly ``alpha * (k-1)/k``), a
posterior flip (convex mixing toward the cyclically shifted label
distribution; at 1 the posteriors are exactly flipped cell-wise), and
two structural edits (drop the last input component, truncate the label
range).  Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InvalidSpec
from .learning import (
    AlgorithmSpec,
    Dataset,
    LearningSystem,
    LossSpec,
    SystemPack,
    full_function_class,
)
from .measures import ConditionalMeasure, EmpiricalMeasure
from .relations import Atom, FiniteSet

_COMPONENT_LETTERS = "abcdefgh"
#: The most pairs a scenario draws for one side; a larger sample size is refused.
SAMPLE_CAP = 100_000
#: The largest ``hypothesis_cap`` a scenario takes: 2^16 rows, a grid of 16 with 2 labels.
MAX_HYPOTHESIS_CAP = 65_536


@dataclass(frozen=True)
class ScenarioSpec:
    """Knobs of one generated source/target pair."""

    grid_size: int = 4
    grid_arity: int = 1
    label_count: int = 2
    marginal_shift: float = 0.0
    posterior_flip: float = 0.0
    structural_edit: str | None = None  # drop_input | truncate_output
    sample_sizes: tuple[int, int] = (40, 10)
    seed: int = 0
    hypothesis_cap: int = 4096

    def __post_init__(self) -> None:
        object.__setattr__(self, "sample_sizes", tuple(self.sample_sizes))
        if self.grid_size < 1 or self.grid_arity < 1:
            raise InvalidSpec("grid size and arity must be at least 1")
        if self.grid_arity > len(_COMPONENT_LETTERS):
            raise InvalidSpec(f"arity is capped at {len(_COMPONENT_LETTERS)}")
        if self.label_count < 2:
            raise InvalidSpec("at least two labels are required")
        if not (0.0 <= self.marginal_shift <= 1.0):
            raise InvalidSpec("marginal_shift must lie in [0, 1]")
        if not (0.0 <= self.posterior_flip <= 1.0):
            raise InvalidSpec("posterior_flip must lie in [0, 1]")
        if self.structural_edit not in (None, "drop_input", "truncate_output"):
            raise InvalidSpec(f"unknown structural edit {self.structural_edit!r}")
        if self.structural_edit == "drop_input" and self.grid_arity < 2:
            raise InvalidSpec("dropping an input component needs arity >= 2")
        if any(n < 0 for n in self.sample_sizes):
            raise InvalidSpec("sample sizes must be non-negative")
        if any(n > SAMPLE_CAP for n in self.sample_sizes):
            raise InvalidSpec(f"sample sizes are capped at {SAMPLE_CAP} pairs per side")
        if self.seed < 0:
            raise InvalidSpec("the seed must be non-negative")
        if self.hypothesis_cap > MAX_HYPOTHESIS_CAP:
            raise InvalidSpec(f"hypothesis_cap is capped at {MAX_HYPOTHESIS_CAP}")
        size = self.grid_size ** self.grid_arity
        # label_count >= 2, so a size of at least the cap's bit length exceeds the cap:
        # refused before the power is built.
        cap = self.hypothesis_cap
        if size >= cap.bit_length() or self.label_count ** size > cap:
            raise InvalidSpec(
                f"{self.label_count}^{size} hypotheses exceed the cap {cap}; shrink the grid"
            )


@dataclass(frozen=True)
class ScenarioFacts:
    """Closed-form facts about a generated pair, for use as oracles."""

    analytic_tv_x: float | None
    posteriors_equal: bool
    input_spaces_equal: bool
    output_spaces_equal: bool


def _grid_atoms(size: int, arity: int) -> tuple[Atom, ...]:
    parts = [
        tuple(f"{_COMPONENT_LETTERS[c]}{i}" for i in range(size)) for c in range(arity)
    ]
    atoms = []
    for combo in np.ndindex(*(size,) * arity):
        atoms.append("|".join(parts[c][i] for c, i in enumerate(combo)))
    return tuple(atoms)


def _project_atom(atom: str) -> str:
    return "|".join(atom.split("|")[:-1])


def _flip_probs(probs: Sequence[float]) -> tuple[float, ...]:
    k = len(probs)
    return tuple(probs[(j - 1) % k] for j in range(k))


def _posterior(
    x_set: FiniteSet, y_set: FiniteSet, truth: dict, flip: float
) -> ConditionalMeasure:
    rows = {}
    for x in x_set.elements:
        base = [0.0] * len(y_set)
        base[y_set.index(truth[x])] = 1.0
        flipped = _flip_probs(base)
        rows[x] = EmpiricalMeasure(
            y_set,
            tuple((1 - flip) * b + flip * f for b, f in zip(base, flipped)),
        )
    return ConditionalMeasure(x_set, rows)


def _argmax_truth(posterior: ConditionalMeasure) -> dict:
    truth = {}
    for x in posterior.given.elements:
        row = posterior.row(x)
        best = max(range(len(row.probs)), key=lambda j: (row.probs[j], -j))
        truth[x] = row.support.elements[best]
    return truth


def _shifted_marginal(x_set: FiniteSet, alpha: float) -> EmpiricalMeasure:
    base = EmpiricalMeasure.uniform(x_set)
    relocated = EmpiricalMeasure.point_mass(x_set, x_set.elements[0])
    return base.mix(relocated, alpha)


def sample_dataset(
    marginal: EmpiricalMeasure,
    posterior: ConditionalMeasure,
    size: int,
    rng: np.random.Generator,
    tag: str = "sampled",
) -> Dataset:
    """Draw (x, y) pairs: x from the marginal, y from its conditional row.

    The inputs are one ``rng.choice`` draw and the labels one
    ``rng.random(size)`` draw, each uniform picking its label from its
    row's CDF built as ``Generator.choice`` builds it (cumulative sums
    over their last, then ``searchsorted(side="right")``).  So the pairs
    and the generator's state are those of one ``rng.choice(k, p=row)``
    per pair after the inputs.
    """
    if size <= 0:
        return Dataset((), tag)
    xs = marginal.support.elements
    idx = rng.choice(len(xs), size=size, p=marginal.probs).tolist()
    uniforms = rng.random(size)
    position = {i: k for k, i in enumerate(dict.fromkeys(idx))}  # first drawn first
    cdf = np.cumsum([posterior.row(xs[i]).probs for i in position], axis=1)
    cdf /= cdf[:, -1:]
    # On a non-decreasing row, searchsorted(side="right") counts the entries <= u.
    labels = (cdf[[position[i] for i in idx]] <= uniforms[:, None]).sum(axis=1).tolist()
    ys = posterior.output_support.elements
    return Dataset(tuple((xs[i], ys[j]) for i, j in zip(idx, labels)), tag)


def resample_pack(pack: SystemPack, size: int, rng: np.random.Generator, tag: str) -> Dataset:
    return sample_dataset(*pack.measures(), size, rng, tag)


def generate_pair(spec: ScenarioSpec) -> tuple[SystemPack, SystemPack, ScenarioFacts]:
    """Materialize one source/target pair plus its analytic facts.

    The source carries the shifted input marginal and the (possibly
    flipped) posterior; the target carries the uniform base marginal and
    the clean posterior.  Under a structural edit the target loses the
    last input component or the top label, and the source truth factors
    through the corresponding collapse.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))

    source_x = FiniteSet("source_x", _grid_atoms(spec.grid_size, spec.grid_arity))
    source_y = FiniteSet("source_y", tuple(range(spec.label_count)))

    if spec.structural_edit == "drop_input":
        target_atoms = []
        for atom in source_x.elements:
            projected = _project_atom(atom)
            if projected not in target_atoms:
                target_atoms.append(projected)
        target_x = FiniteSet("target_x", tuple(target_atoms))
        target_y = source_y
        target_truth = {
            x: int(rng.integers(spec.label_count)) for x in target_x.elements
        }
        source_truth = {x: target_truth[_project_atom(x)] for x in source_x.elements}
    elif spec.structural_edit == "truncate_output":
        target_x = source_x
        target_y = FiniteSet("target_y", tuple(range(spec.label_count - 1)))
        source_truth = {x: int(rng.integers(spec.label_count)) for x in source_x.elements}
        target_truth = {
            x: min(source_truth[x], spec.label_count - 2) for x in target_x.elements
        }
    else:
        target_x = source_x
        target_y = source_y
        target_truth = {x: int(rng.integers(spec.label_count)) for x in target_x.elements}
        source_truth = dict(target_truth)

    target_posterior = _posterior(target_x, target_y, target_truth, 0.0)
    source_posterior = _posterior(source_x, source_y, source_truth, spec.posterior_flip)
    source_truth = _argmax_truth(source_posterior)

    source_marginal = _shifted_marginal(source_x, spec.marginal_shift)
    target_marginal = EmpiricalMeasure.uniform(target_x)

    loss = LossSpec("zero_one")

    def pack(tag, x_set, y_set, marginal, posterior, truth, size) -> SystemPack:
        data = sample_dataset(marginal, posterior, size, rng, tag)
        hypotheses = full_function_class(x_set, y_set, max_size=spec.hypothesis_cap)
        system = LearningSystem(x_set, y_set, hypotheses, loss, AlgorithmSpec("erm"))
        return SystemPack(system, data, marginal, posterior, truth, tag=tag)

    n_source, n_target = spec.sample_sizes
    source_pack = pack(
        "source", source_x, source_y, source_marginal, source_posterior, source_truth, n_source
    )
    target_pack = pack(
        "target", target_x, target_y, target_marginal, target_posterior, target_truth, n_target
    )

    same_inputs = source_x.same_elements(target_x)
    k = len(source_x)
    facts = ScenarioFacts(
        analytic_tv_x=(spec.marginal_shift * (k - 1) / k) if same_inputs else None,
        posteriors_equal=(
            same_inputs
            and source_y.same_elements(target_y)
            and spec.posterior_flip == 0.0
            and spec.structural_edit is None
        ),
        input_spaces_equal=same_inputs,
        output_spaces_equal=source_y.same_elements(target_y),
    )
    return source_pack, target_pack, facts


def shift_ladder(
    spec: ScenarioSpec, alphas: Sequence[float]
) -> tuple[tuple[SystemPack, SystemPack, ScenarioFacts], ...]:
    """One pair per shift level, sharing the seed and hence the truth."""
    for a in alphas:
        if not (0.0 <= a <= 1.0):
            raise InvalidSpec(f"shift level {a!r} outside [0, 1]")
    return tuple(
        generate_pair(replace(spec, marginal_shift=float(a))) for a in alphas
    )
