"""Behavioral similarity between systems.

Behavior is a declared or estimated probability measure; behavioral
similarity is a divergence between the source and target measures over
the inputs, outputs, the joint, or the conditional rows.  On top of the
raw distances sit the generalization-bound decomposition (target error
against source error plus distance plus a complexity term) and the
distance-thresholded transferability counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import HeterogeneousSetting, SupportMismatch, ValidationError
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
from .measures import (
    ConditionalMeasure,
    EmpiricalMeasure,
    divergence,
    estimate_measure,
    joint_measure,
    output_marginal,
    pushforward,
)
from .relations import Atom, FiniteSet
from .transfer import FeatureRepSpec, TransferSystem, run_transfer, transfer_error

#: Additive smoothing applied to estimated measures inside pipelines,
#: so ratio-based divergences never see an accidental zero cell.
PIPELINE_SMOOTHING = 1e-9

#: Confidence parameter of the finite-class complexity term.
DEFAULT_ETA = 0.05


def _pair_map_pushforward(
    marginal: EmpiricalMeasure,
    posterior: ConditionalMeasure,
    pair_map: Mapping[tuple[Atom, Atom], tuple[Atom, Atom]],
    latent: LearningSystem,
) -> tuple[EmpiricalMeasure, ConditionalMeasure]:
    """Push a joint through a pair map and refactor it over the latent space."""
    joint = joint_measure(marginal, posterior)
    latent_pairs = FiniteSet(
        "latent_xy",
        tuple((x, y) for x in latent.x_set.elements for y in latent.y_set.elements),
    )
    mapped = pushforward(joint, {p: tuple(pair_map[p]) for p in joint.support.elements}, latent_pairs)
    marg = pushforward(mapped, {(x, y): x for x, y in latent_pairs.elements}, latent.x_set)
    rows = {}
    for x in latent.x_set.elements:
        x_mass = marg.prob(x)
        if x_mass > 0:
            weights = [mapped.prob((x, y)) / x_mass for y in latent.y_set.elements]
        else:
            weights = [1.0 / len(latent.y_set)] * len(latent.y_set)
        total = math.fsum(weights)
        rows[x] = EmpiricalMeasure(latent.y_set, tuple(w / total for w in weights))
    return marg, ConditionalMeasure(latent.x_set, rows)


def transfer_distance(
    source: SystemPack,
    target: SystemPack,
    on: str = "x",
    kind: str = "tv",
    align: FeatureRepSpec | None = None,
) -> float:
    """Divergence between declared source and target measures.

    ``on`` picks the compared table: the input marginals (``x``), the
    output marginals (``y``), the joints (``xy``), or the conditional
    rows (``y_given_x``, averaged under the target input marginal).
    Measures over different supports need ``align`` (feature maps into a
    shared latent space) first; without it the comparison raises
    :class:`SupportMismatch`.
    """
    s_marg, s_post = source.measures()
    t_marg, t_post = target.measures()

    if align is not None:
        latent = align.latent_system
        s_marg, s_post = _pair_map_pushforward(
            s_marg, s_post, align.pair_map_source, latent
        )
        t_marg, t_post = _pair_map_pushforward(
            t_marg, t_post, align.pair_map_target, latent
        )

    if on == "x":
        return divergence(s_marg, t_marg, kind)
    if on == "y":
        return divergence(output_marginal(s_marg, s_post), output_marginal(t_marg, t_post), kind)
    if on == "xy":
        return divergence(joint_measure(s_marg, s_post), joint_measure(t_marg, t_post), kind)
    if on == "y_given_x":
        if not s_post.given.same_elements(t_post.given):
            raise SupportMismatch(
                "conditional rows are indexed by different input supports"
            )
        total = 0.0
        for x in t_marg.support.elements:
            weight = t_marg.prob(x)
            if weight == 0:
                continue
            total += weight * divergence(s_post.row(x), t_post.row(x), kind)
        return total
    raise ValidationError(f"unknown comparison target {on!r}")


# -- generalization bound -------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the error bound decomposition.

    ``holds`` records whether the measured target error stayed below
    source error + transfer distance + complexity; a violated bound is
    reported, never raised, because the decomposition is a trend, not a
    theorem, at this level of generality.
    """

    epsilon_s: float
    epsilon_t: float
    delta_t: float
    delta_kind: str
    complexity_c: float
    complexity_formula: str
    holds: bool
    n_source: int
    n_target: int


def finite_class_complexity(n_hypotheses: int, n_samples: int) -> float:
    """sqrt((ln |H| + ln(1/eta)) / (2 n)), eta = :data:`DEFAULT_ETA`: the finite-class bound."""
    if n_samples <= 0:
        raise ValidationError("the complexity term needs at least one sample")
    return math.sqrt((math.log(n_hypotheses) + math.log(1.0 / DEFAULT_ETA)) / (2.0 * n_samples))


def bound_check(
    ts: TransferSystem,
    source_data: Dataset,
    target_data: Dataset,
    source_ctx: EvaluationContext,
    target_ctx: EvaluationContext,
    kind: str = "tv",
    source_weight: EmpiricalMeasure | None = None,
    target_weight: EmpiricalMeasure | None = None,
) -> BoundReport:
    """Instantiate and evaluate the error-bound decomposition once.

    Requires a homogeneous pairing.  The source error is that of the
    source-trained hypothesis against the source context; the target
    error is that of the transferred hypothesis against the target
    context; the distance is measured between input marginals estimated
    from the two datasets with :data:`PIPELINE_SMOOTHING`; the complexity
    term is the closed-form finite-class expression at :data:`DEFAULT_ETA`,
    recorded in the report.
    """
    if not ts.source.same_space(ts.target):
        raise HeterogeneousSetting("the bound decomposition needs equal sample spaces")

    theta_s = run_algorithm(source_data, ts.source)
    eps_s = generalization_error(ts.source, theta_s, source_ctx, source_weight)

    theta_tr, _ = run_transfer(ts, target_data)
    eps_t = transfer_error(ts, theta_tr, target_ctx, target_weight)

    p_s = estimate_measure(source_data, "x", PIPELINE_SMOOTHING, ts.source.x_set)
    p_t = estimate_measure(target_data, "x", PIPELINE_SMOOTHING, ts.source.x_set)
    delta = divergence(p_s, p_t, kind)

    n = len(source_data) + len(target_data)
    k = len(ts.theta_tr_set)
    c = finite_class_complexity(k, n)
    formula = f"sqrt((ln({k}) + ln(1/{DEFAULT_ETA})) / (2*{n}))"
    return BoundReport(
        epsilon_s=eps_s,
        epsilon_t=eps_t,
        delta_t=delta,
        delta_kind=kind,
        complexity_c=c,
        complexity_formula=formula,
        holds=eps_t <= eps_s + delta + c,
        n_source=len(source_data),
        n_target=len(target_data),
    )


# -- behavioral transferability ---------------------------------------------------------

def _check_behavioral_mode(mode: str) -> None:
    if mode not in ("distance", "bound"):
        raise ValidationError(f"mode must be distance or bound, got {mode!r}")


def behavioral_transferability(
    pack: SystemPack,
    universe: Sequence[SystemPack],
    role: str,
    threshold: float,
    mode: str = "distance",
) -> NeighborhoodReport:
    """Count universe members within a behavioral threshold of the pack.

    ``distance`` mode admits a member when the total variation distance
    between the declared input marginals is strictly below the threshold;
    ``bound`` mode admits it when source error + distance + complexity
    is strictly below it.  The scan returns a ``behavioral``
    :class:`~transferlab.learning.NeighborhoodReport` whose criterion
    records the threshold, the mode and the divergence kind ``tv``.
    Members are skipped by the one rule of
    :func:`~transferlab.learning.scan`: a heterogeneous pairing, a member
    that declares no measures and, in ``bound`` mode, a source that
    cannot be trained or scored.
    """
    _check_behavioral_mode(mode)

    def judge(idx: int, src: SystemPack, tgt: SystemPack) -> tuple[float, bool]:
        if not src.system.same_space(tgt.system):
            raise HeterogeneousSetting("behavioral distances need equal sample spaces")
        delta = transfer_distance(src, tgt)
        if mode == "distance":
            return delta, delta < threshold
        theta_s = run_algorithm(src.dataset, src.system)
        eps_s = generalization_error(src.system, theta_s, src.context(), weight=src.marginal)
        n = len(src.dataset) + len(tgt.dataset)
        value = eps_s + delta + finite_class_complexity(len(tgt.system.theta_set), n)
        return value, value < threshold

    criterion = {"threshold": threshold, "mode": mode, "kind": "tv"}
    return scan(pack, universe, role, "behavioral", criterion, judge)
