"""Probability tables over finite supports: estimation and divergences.

Measures are plain probability vectors aligned to a named finite
support.  Divergences between two measures require a shared support;
aligning measures over different supports is the caller's job (see the
feature-representation pushforward helpers in :mod:`transferlab.behavioral`).
:func:`divergence` names each of the five by its kind: ``kl``,
``hellinger``, ``tv``, ``w1``, which orders the support by its numeric
atoms, and ``mmd``, under the exact-match kernel.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .errors import (
    EmptyDataset,
    EstimationError,
    MissingOrder,
    SupportMismatch,
    UnknownElement,
    ValidationError,
)
from .relations import Atom, FiniteSet

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class EmpiricalMeasure:
    """A probability vector aligned to the canonical order of a support."""

    support: FiniteSet
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) != len(self.support):
            raise ValidationError(
                f"{len(probs)} probabilities for {len(self.support)} support elements"
            )
        if not all(p >= 0 for p in probs):  # NaN fails the test too
            raise ValidationError("probabilities must be non-negative numbers")
        total = math.fsum(probs)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")

    def prob(self, element: Atom) -> float:
        return self.probs[self.support.index(element)]

    def as_dict(self) -> dict[Atom, float]:
        return dict(zip(self.support.elements, self.probs))

    @staticmethod
    def uniform(support: FiniteSet) -> "EmpiricalMeasure":
        n = len(support)
        return EmpiricalMeasure(support, tuple(1.0 / n for _ in range(n)))

    @staticmethod
    def point_mass(support: FiniteSet, element: Atom) -> "EmpiricalMeasure":
        idx = support.index(element)
        return EmpiricalMeasure(
            support, tuple(1.0 if i == idx else 0.0 for i in range(len(support)))
        )

    @staticmethod
    def from_counts(
        support: FiniteSet,
        counts: Mapping[Atom, float],
        smoothing: float = 0.0,
    ) -> "EmpiricalMeasure":
        """Relative frequencies with optional additive smoothing per cell."""
        for el in counts:
            if el not in support:
                raise UnknownElement(f"count key {el!r} outside support {support.name!r}")
        n = math.fsum(counts.values())
        k = len(support)
        denom = n + k * smoothing
        if denom <= 0:
            raise EstimationError("no observations and no smoothing")
        return EmpiricalMeasure(
            support,
            tuple((counts.get(el, 0) + smoothing) / denom for el in support.elements),
        )

    def mix(self, other: "EmpiricalMeasure", weight: float) -> "EmpiricalMeasure":
        """Convex combination ``(1-weight)*self + weight*other``."""
        if self.support != other.support:
            raise SupportMismatch("mixture components need an identical support")
        return EmpiricalMeasure(
            self.support,
            tuple((1 - weight) * p + weight * q for p, q in zip(self.probs, other.probs)),
        )


@dataclass(frozen=True)
class ConditionalMeasure:
    """One probability row per conditioning element, all on one support."""

    given: FiniteSet
    rows: Mapping[Atom, EmpiricalMeasure]

    def __post_init__(self) -> None:
        rows = dict(self.rows)
        object.__setattr__(self, "rows", rows)
        missing = [x for x in self.given.elements if x not in rows]
        if missing:
            raise ValidationError(f"no conditional row for {missing[0]!r}")
        supports = {row.support.elements for row in rows.values()}
        if len(supports) > 1:
            raise ValidationError("conditional rows must share one output support")

    @property
    def output_support(self) -> FiniteSet:
        return next(iter(self.rows.values())).support

    def row(self, x: Atom) -> EmpiricalMeasure:
        try:
            return self.rows[x]
        except KeyError:
            raise UnknownElement(f"no conditional row for {x!r}") from None


def joint_measure(
    marginal: EmpiricalMeasure, conditional: ConditionalMeasure
) -> EmpiricalMeasure:
    """The product measure P(x, y) = P(x) * P(y | x) over pair atoms."""
    if marginal.support.elements != conditional.given.elements:
        raise SupportMismatch("marginal and conditional disagree on the input support")
    ys = conditional.output_support.elements
    pairs = tuple((x, y) for x in marginal.support.elements for y in ys)
    probs = tuple(
        marginal.prob(x) * conditional.row(x).prob(y)
        for x in marginal.support.elements
        for y in ys
    )
    support = FiniteSet(f"{marginal.support.name}*{conditional.output_support.name}", pairs)
    return EmpiricalMeasure(support, probs)


def output_marginal(
    marginal: EmpiricalMeasure, conditional: ConditionalMeasure
) -> EmpiricalMeasure:
    """P(y) obtained by summing P(x) * P(y | x) over x."""
    if marginal.support.elements != conditional.given.elements:
        raise SupportMismatch("marginal and conditional disagree on the input support")
    out = conditional.output_support
    probs = [0.0] * len(out)
    for x in marginal.support.elements:
        px = marginal.prob(x)
        row = conditional.row(x)
        for j, y in enumerate(out.elements):
            probs[j] += px * row.prob(y)
    total = math.fsum(probs)
    return EmpiricalMeasure(out, tuple(p / total for p in probs))


def pushforward(
    measure: EmpiricalMeasure,
    mapping: Mapping[Atom, Atom],
    support: FiniteSet | None = None,
) -> EmpiricalMeasure:
    """Image measure under a map defined on every positive-mass element."""
    masses: dict[Atom, float] = {}
    order: list[Atom] = []
    for el, p in zip(measure.support.elements, measure.probs):
        if p == 0 and el not in mapping:
            continue
        if el not in mapping:
            raise UnknownElement(f"pushforward map undefined on {el!r}")
        image = mapping[el]
        if image not in masses:
            masses[image] = 0.0
            order.append(image)
        masses[image] += p
    if support is None:
        support = FiniteSet(f"{measure.support.name}->", tuple(order))
    probs = tuple(masses.get(el, 0.0) for el in support.elements)
    if abs(math.fsum(probs) - 1.0) > NORMALIZATION_TOL:
        raise SupportMismatch("pushforward images fall outside the given support")
    return EmpiricalMeasure(support, probs)


# -- estimation ---------------------------------------------------------------

#: What each marginal estimate counts of an input-output pair.
_PROJECTIONS: dict[str, Callable[[Atom, Atom], Atom]] = {
    "x": lambda x, y: x,
    "y": lambda x, y: y,
    "xy": lambda x, y: (x, y),
}


def estimate_measure(
    data,
    over: str = "x",
    smoothing: float = 0.0,
    support: FiniteSet | tuple[FiniteSet, FiniteSet] | None = None,
):
    """Relative-frequency estimate from input-output pairs.

    ``data`` is a dataset object carrying ``pairs`` or a raw pair
    sequence.  ``over`` selects the estimated table: ``"x"``, ``"y"``,
    ``"xy"`` give an :class:`EmpiricalMeasure`; ``"y_given_x"`` gives a
    :class:`ConditionalMeasure`.  Without an explicit support the
    observed values (in first appearance order) form it.  Each cell
    receives ``smoothing`` additive mass before renormalization.
    """
    pairs = tuple(getattr(data, "pairs", data))
    if not pairs:
        raise EmptyDataset("cannot estimate a measure from an empty dataset")

    def observed(values: Iterable[Atom], name: str) -> FiniteSet:
        return FiniteSet(name, tuple(dict.fromkeys(values)))

    if over in _PROJECTIONS:
        keys = [_PROJECTIONS[over](x, y) for x, y in pairs]
        if over == "xy" and not (support is None or isinstance(support, FiniteSet)):
            sx, sy = support
            support = FiniteSet(
                f"{sx.name}*{sy.name}",
                tuple((x, y) for x in sx.elements for y in sy.elements),
            )
        sup = support or observed(keys, over)
        return EmpiricalMeasure.from_counts(sup, Counter(keys), smoothing)

    if over == "y_given_x":
        if support is None:
            sup_x = observed((p[0] for p in pairs), "x")
            sup_y = observed((p[1] for p in pairs), "y")
        else:
            sup_x, sup_y = support  # type: ignore[misc]
        by_x: dict[Atom, dict[Atom, float]] = {x: {} for x in sup_x.elements}
        for x, y in pairs:
            if x not in by_x:
                raise UnknownElement(f"observed input {x!r} outside support")
            by_x[x][y] = by_x[x].get(y, 0) + 1
        rows = {}
        for x in sup_x.elements:
            if not by_x[x] and smoothing <= 0:
                raise EstimationError(
                    f"no observations for {x!r} and no smoothing to fall back on"
                )
            rows[x] = EmpiricalMeasure.from_counts(sup_y, by_x[x], smoothing)
        return ConditionalMeasure(sup_x, rows)

    raise ValidationError(f"unknown estimation target {over!r}")


# -- divergences ---------------------------------------------------------------

def _aligned(p: EmpiricalMeasure, q: EmpiricalMeasure) -> tuple[tuple[float, ...], tuple[float, ...]]:
    if not p.support.same_elements(q.support):
        raise SupportMismatch(
            f"supports {p.support.name!r} and {q.support.name!r} differ"
        )
    q_aligned = tuple(q.prob(el) for el in p.support.elements)
    return p.probs, q_aligned


def kl_divergence(p: EmpiricalMeasure, q: EmpiricalMeasure) -> float:
    """Relative entropy; +inf when q lacks mass somewhere p has it."""
    ps, qs = _aligned(p, q)
    total = 0.0
    for pi, qi in zip(ps, qs):
        if pi == 0:
            continue
        if qi == 0:
            return math.inf
        total += pi * math.log(pi / qi)
    return max(total, 0.0)


def hellinger_distance(p: EmpiricalMeasure, q: EmpiricalMeasure) -> float:
    """sqrt(1/2 * sum (sqrt(p) - sqrt(q))^2); ranges over [0, 1]."""
    ps, qs = _aligned(p, q)
    acc = math.fsum((math.sqrt(pi) - math.sqrt(qi)) ** 2 for pi, qi in zip(ps, qs))
    return math.sqrt(0.5 * acc)


def total_variation(p: EmpiricalMeasure, q: EmpiricalMeasure) -> float:
    """1/2 * sum |p - q|; ranges over [0, 1]."""
    ps, qs = _aligned(p, q)
    return 0.5 * math.fsum(abs(pi - qi) for pi, qi in zip(ps, qs))


def wasserstein1(p: EmpiricalMeasure, q: EmpiricalMeasure) -> float:
    """Exact 1-Wasserstein distance on a line.

    The support's atoms must be numbers, which order it; a symbolic atom
    raises :class:`MissingOrder`.  Computed as the integral of
    |CDF_p - CDF_q| between consecutive atoms, which is the minimum-cost
    transport on the line.
    """
    ps, qs = _aligned(p, q)
    coords = []
    for el in p.support.elements:
        if isinstance(el, bool) or not isinstance(el, (int, float)):
            raise MissingOrder(f"support element {el!r} is not a number, so it has no order")
        coords.append(float(el))
    order = sorted(range(len(ps)), key=coords.__getitem__)
    total = 0.0
    cum = 0.0
    for pos in range(len(order) - 1):
        i, j = order[pos], order[pos + 1]
        cum += ps[i] - qs[i]
        total += abs(cum) * (coords[j] - coords[i])
    return total


def mmd_distance(p: EmpiricalMeasure, q: EmpiricalMeasure) -> float:
    """Maximum mean discrepancy under the exact-match kernel.

    With k(a, b) = 1 iff a = b, sqrt(E_pp k + E_qq k - 2 E_pq k) is the
    L2 norm of p - q; the squares are added in support order.
    """
    ps, qs = _aligned(p, q)
    acc = 0.0
    for pi, qi in zip(ps, qs):
        gap = pi - qi
        acc += gap * gap
    return math.sqrt(acc)


_DIVERGENCES = {
    "kl": kl_divergence,
    "hellinger": hellinger_distance,
    "tv": total_variation,
    "w1": wasserstein1,
    "mmd": mmd_distance,
}


def divergence(p: EmpiricalMeasure, q: EmpiricalMeasure, kind: str = "tv") -> float:
    """Dispatch to one of kl / hellinger / tv / w1 / mmd."""
    fn = _DIVERGENCES.get(kind.lower()) if isinstance(kind, str) else None
    if fn is None:
        raise ValidationError(f"unknown divergence kind {kind!r}")
    return fn(p, q)
