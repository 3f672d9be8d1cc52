"""Negative transfer, transferability neighborhoods, generalists.

Comparative evaluation runs the same pipeline twice per seed (with and
without transferred knowledge), always against the same reference, and
aggregates per-seed outcomes.  Per-seed randomness is derived from a
root key plus the seed index (and, when scanning a universe, the member
index), so concurrent evaluation and re-runs are bit-for-bit stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .behavioral import _check_behavioral_mode, behavioral_transferability
from .errors import CapExceeded, MissingMeasure, ValidationError
from .learning import (
    Dataset,
    EvaluationContext,
    LearningSystem,
    NeighborhoodReport,
    SystemPack,
    generalization_error,
    run_algorithm,
    scan,
)
from .measures import total_variation
from .scenarios import resample_pack
from .structural import _check_size_bound, structural_transferability
from .transfer import (
    Knowledge,
    TransferSystem,
    _consumed,
    run_transfer,
    select_knowledge,
    transfer_error,
)

#: The most seeds one comparison runs; a few milliseconds each at the hypothesis cap.
SEED_CAP = 1000

#: Total-variation radius within which ``behavior-signature`` equivalence merges two packs.
SIGNATURE_TAU = 1e-6

#: The three readings of transferability, in the order mode ``all`` reports them.
_NOTIONS = ("empirical", "structural", "behavioral")


def _source_knowledge(source: LearningSystem, data: Dataset, approach: str) -> Knowledge:
    """What ``approach`` takes from the source data; parameters train the source."""
    theta_s = run_algorithm(data, source) if _consumed(approach)[1] else None
    return select_knowledge(source, data, theta_s, approach)


def build_transfer_system(
    source: SystemPack, target: SystemPack, approach: str = "instance"
) -> TransferSystem:
    """Assemble a transfer system from two packs, training the source once."""
    return TransferSystem(
        source.system,
        target.system,
        _source_knowledge(source.system, source.dataset, approach),
        approach,
    )


def _check_approach(approach: str) -> None:
    """Refuse an unknown approach, and feature_representation: no pack declares latent maps."""
    _consumed(approach)
    if approach == "feature_representation":
        raise ValidationError(
            "a scan cannot build feature_representation transfer: no pack declares latent maps"
        )


@dataclass(frozen=True)
class TransferOutcome:
    """Mean and per-seed errors of transfer versus target-alone training.

    ``negative`` follows the strict inequality on the means: training
    without the transferred knowledge did strictly better.
    """

    epsilon_with: float
    epsilon_without: float
    negative: bool
    margin: float
    per_seed_with: tuple[float, ...]
    per_seed_without: tuple[float, ...]
    per_seed_negative: tuple[bool, ...]
    seeds: int
    root_key: tuple[int, ...]
    error_mode: str


def _split_holdout(data: Dataset, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    order = rng.permutation(len(data))
    half = len(data) // 2
    train = tuple(data.pairs[i] for i in order[:half])
    held = tuple(data.pairs[i] for i in order[half:])
    return Dataset(train, data.source_tag), Dataset(held, "holdout")


def _check_seeds(seeds: int) -> None:
    if seeds > SEED_CAP:
        raise CapExceeded(f"{seeds} seeds exceed the cap of {SEED_CAP}")
    if seeds < 1:
        raise ValidationError("at least one seed is required")


def detect_negative_transfer(
    source: SystemPack,
    target: SystemPack,
    ts: TransferSystem,
    seeds: int = 1,
    root_key: tuple[int, ...] = (0,),
    resample: bool = True,
) -> TransferOutcome:
    """Train with and without the source knowledge and compare errors.

    Per seed, fresh datasets of the packs' declared sizes are drawn from
    their declared measures (``resample=False`` reuses the packs' own
    data in a single run).  Both pipelines are evaluated against the
    same reference: the target truth table under the target marginal
    when one is declared, otherwise a seeded 50% hold-out split of the
    target data.  More than :data:`SEED_CAP` seeds raise
    :class:`CapExceeded`.
    """
    _check_seeds(seeds)
    if not resample:
        seeds = 1

    reference = None if target.truth is None else EvaluationContext(target.truth)
    error_mode = "holdout" if reference is None else reference.mode
    weight = target.marginal if error_mode == "truth-table" else None

    eps_with: list[float] = []
    eps_without: list[float] = []
    for i in range(seeds):
        rng = np.random.default_rng(np.random.SeedSequence(root_key + (i,)))
        if resample:
            d_s = resample_pack(source, len(source.dataset), rng, "source")
            d_t = resample_pack(target, len(target.dataset), rng, "target")
        else:
            d_s, d_t = source.dataset, target.dataset
        train_t, eval_ctx = d_t, reference
        if reference is None:  # nothing declared: hold out half the target data
            train_t, held = _split_holdout(d_t, rng)
            eval_ctx = EvaluationContext(held)

        ts_i = replace(ts, knowledge=_source_knowledge(source.system, d_s, ts.approach))
        theta_tr, _ = run_transfer(ts_i, train_t)
        eps_with.append(transfer_error(ts_i, theta_tr, eval_ctx, weight))
        theta_alone = run_algorithm(train_t, target.system)
        eps_without.append(generalization_error(target.system, theta_alone, eval_ctx, weight))

    mean_with = math.fsum(eps_with) / seeds
    mean_without = math.fsum(eps_without) / seeds
    return TransferOutcome(
        epsilon_with=mean_with,
        epsilon_without=mean_without,
        negative=mean_without < mean_with,
        margin=mean_with - mean_without,
        per_seed_with=tuple(eps_with),
        per_seed_without=tuple(eps_without),
        per_seed_negative=tuple(w > wo for w, wo in zip(eps_with, eps_without)),
        seeds=seeds,
        root_key=tuple(root_key),
        error_mode=error_mode,
    )


# -- transferability neighborhoods ---------------------------------------------------

def _signature_clusters(packs: Sequence[SystemPack], tau: float) -> list[int]:
    """Each pack's class, named by its representative: greedy over tau-close declared measures.

    A pack that declares no measures is a class of its own and never a
    representative.  A representative whose marginal support, posterior
    inputs or posterior outputs differ from the pack's does not match it.
    """
    reps: list[int] = []
    labels: list[int] = []
    for i, pack in enumerate(packs):
        if pack.marginal is None or pack.posterior is None:
            labels.append(i)
            continue
        for rep_idx in reps:
            rep = packs[rep_idx]
            if not (
                rep.marginal.support.same_elements(pack.marginal.support)
                and rep.posterior.given.same_elements(pack.posterior.given)
                and rep.posterior.output_support.same_elements(pack.posterior.output_support)
            ):
                continue
            if total_variation(rep.marginal, pack.marginal) > tau:
                continue
            row_gap = max(
                total_variation(rep.posterior.row(x), pack.posterior.row(x))
                for x in rep.posterior.given.elements
            )
            if row_gap <= tau:
                labels.append(rep_idx)
                break
        else:
            reps.append(i)
            labels.append(i)
    return labels


def transferability(
    pack: SystemPack,
    universe: Sequence[SystemPack],
    role: str,
    epsilon_star: float | str,
    mode: str = "empirical",
    approach: str = "instance",
    seeds: int = 10,
    root_seed: int = 0,
    equivalence_mode: str = "raw",
    behavioral_mode: str = "bound",
    size_bound: int = 3,
) -> NeighborhoodReport | dict[str, NeighborhoodReport]:
    """Count universe members to or from which transfer generalizes.

    ``empirical`` mode actually runs every pairwise transfer
    (per-member randomness keyed by ``(root_seed, member_index)``) and
    admits members whose mean transferred error is at most
    ``epsilon_star``, recorded in the criterion as written; passing
    ``epsilon_star="target-alone"`` instead admits members where
    transfer was not negative, turning the neighborhood into the
    positive-transfer set.  ``structural`` and ``behavioral`` modes
    return the report of the corresponding scan, run against
    ``float(epsilon_star)`` and ``epsilon_star`` respectively, and
    ``all`` returns the three reports side by side.  Every argument is checked, whichever mode reads it, before
    any member is judged; ``feature_representation`` is refused, since
    no pack declares the latent maps it needs.  Members are then skipped
    by the one rule of :func:`~transferlab.learning.scan`.
    """
    if mode not in (*_NOTIONS, "all"):
        raise ValidationError(f"unknown transferability mode {mode!r}")
    if isinstance(epsilon_star, str) and (mode != "empirical" or epsilon_star != "target-alone"):
        raise ValidationError(f"{mode} mode cannot take the threshold {epsilon_star!r}")
    if equivalence_mode not in ("raw", "behavior-signature"):
        raise ValidationError(f"unknown equivalence mode {equivalence_mode!r}")
    _check_seeds(seeds)
    _check_size_bound(size_bound)
    _check_behavioral_mode(behavioral_mode)
    _check_approach(approach)

    if mode == "all":
        return {
            m: transferability(
                pack, universe, role, epsilon_star, m, approach, seeds, root_seed,
                equivalence_mode, behavioral_mode, size_bound,
            )
            for m in _NOTIONS
        }
    if mode == "structural":
        return structural_transferability(pack, universe, role, float(epsilon_star), size_bound)
    if mode == "behavioral":
        return behavioral_transferability(pack, universe, role, epsilon_star, behavioral_mode)

    def judge(idx: int, src: SystemPack, tgt: SystemPack) -> tuple[float, bool]:
        ts = build_transfer_system(src, tgt, approach)
        outcome = detect_negative_transfer(src, tgt, ts, seeds=seeds, root_key=(root_seed, idx))
        if epsilon_star == "target-alone":
            return outcome.epsilon_with, not outcome.negative
        return outcome.epsilon_with, outcome.epsilon_with <= epsilon_star

    signature = equivalence_mode == "behavior-signature"
    criterion = {
        "epsilon_star": epsilon_star,
        "approach": approach,
        "seeds": seeds,
        "root_seed": root_seed,
        "tau": SIGNATURE_TAU if signature else None,
    }
    report = scan(pack, universe, role, mode, criterion, judge)
    if signature:
        labels = _signature_clusters(universe, SIGNATURE_TAU)
        cardinality = len({labels[i] for i in report.members})
        report = replace(report, cardinality=cardinality, equivalence_mode=equivalence_mode)
    return report


# -- generalists -----------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralistReport:
    is_generalist: bool
    qualifying: tuple[int, ...]
    required: int
    shot_budget: int
    evidence: Mapping[int, float]


def is_generalist(
    pack: SystemPack,
    universe: Sequence[SystemPack],
    n: int,
    t: int,
    epsilon_star: float,
    approach: str = "instance",
) -> GeneralistReport:
    """Does the pack transfer to at least ``t`` targets within ``n`` shots?

    Each member's own dataset is truncated to its first ``n`` pairs (the
    nesting makes shot budgets monotone), the transfer runs once,
    deterministically, and the member qualifies when the measured target
    error is strictly below ``epsilon_star``.  An approach a scan cannot
    build (``feature_representation``, as in :func:`transferability`) and
    a member without a truth table are refused before the scan; the scan
    skips members by the one rule of :func:`~transferlab.learning.scan`,
    and the report, which has no field for them, leaves them out.
    """
    if n < 0 or t < 0:
        raise ValidationError("shot budget and required count must be non-negative")
    _check_approach(approach)
    for idx, member in enumerate(universe):
        if member.truth is None:
            raise MissingMeasure(f"universe member {idx} declares no truth table")

    def judge(idx: int, src: SystemPack, member: SystemPack) -> tuple[float, bool]:
        ts = build_transfer_system(src, member, approach)
        shots = Dataset(member.dataset.pairs[:n], f"{member.dataset.source_tag}[:{n}]")
        theta_tr, _ = run_transfer(ts, shots)
        error = transfer_error(ts, theta_tr, EvaluationContext(member.truth), member.marginal)
        return error, error < epsilon_star

    scanned = scan(pack, universe, "source", "generalist", {}, judge)
    return GeneralistReport(
        is_generalist=scanned.cardinality >= t,
        qualifying=scanned.members,
        required=t,
        shot_budget=n,
        evidence=scanned.values,
    )
