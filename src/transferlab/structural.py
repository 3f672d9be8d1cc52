"""Structural similarity between systems.

Structure here means the sample space of a system together with its
relation; for a learning system in a pack, the relation is the graph of
its declared truth function.  The operations quantify how roughly one
structure maps onto another (quotients under a morphism), search for
shared quotient structures of two systems, and keep the ones through
which a transfer actually generalizes.

The shared-structure search works up to carrier renaming: a quotient of
a carrier modulo renaming is exactly a set partition, so candidates are
enumerated from partition pairs and reduced to a canonical labeling,
which keeps the search exhaustive yet small.  Many partition pairs
induce the same block relation, so each :func:`homomorphic_structures`
call memoizes canonical labelings in one dict that both of its systems
share and that dies with the call: no labeling outlives its search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

from .errors import (
    CapExceeded,
    IncompatibleMorphism,
    MissingMeasure,
    ValidationError,
)
from .learning import (
    EvaluationContext,
    LearningSystem,
    NeighborhoodReport,
    SystemPack,
    _check_threshold,
    full_function_class,
    generalization_error,
    scan,
)
from .relations import (
    Atom,
    FiniteSet,
    FiniteSystem,
    MapProperties,
    Morphism,
    QuotientReport,
    _morphisms,
    is_function_type,
    quotient,
)
from .transfer import FeatureRepSpec, Knowledge, TransferSystem, run_transfer

#: Largest input or output carrier the shared-structure search accepts.
CARRIER_CAP = 6


def truth_graph(pack: SystemPack) -> FiniteSystem:
    """The input-output relation induced by a pack's declared truth."""
    if pack.truth is None:
        raise MissingMeasure(f"pack {pack.tag!r} declares no truth table")
    sys = pack.system
    return FiniteSystem(
        (sys.x_set, sys.y_set),
        tuple((x, pack.truth[x]) for x in sys.x_set.elements),
        ((0,), (1,)),
    )


# -- transfer roughness ------------------------------------------------------------

@dataclass(frozen=True)
class RoughnessReport:
    """How much a morphism collapses the source on its way to the target.

    ``ratio`` is |source relation classes| / |source relation|, a
    summary of how surjective the collapse is; 1 with a total injective
    morphism means nothing collapsed.  ``minimal`` is set exactly when
    the morphism is an isomorphism of the two relations.
    """

    morphism: Morphism
    quotient: QuotientReport
    ratio: float
    x_properties: MapProperties
    y_properties: MapProperties
    joint_properties: MapProperties
    relation_preserving: bool
    onto: bool
    minimal: bool


def transfer_roughness(
    source: FiniteSystem, target: FiniteSystem, morphism: Morphism
) -> RoughnessReport:
    """Quotient the source by a morphism toward the target and flag it."""
    if tuple(morphism.source_x) != source.x_values() or tuple(
        morphism.source_y
    ) != source.y_values():
        raise IncompatibleMorphism("morphism domain does not match the source system")
    if tuple(morphism.target_x) != target.x_values() or tuple(
        morphism.target_y
    ) != target.y_values():
        raise IncompatibleMorphism("morphism codomain does not match the target system")
    q = quotient(source, morphism)
    ratio = q.cardinalities["s_classes"] / q.cardinalities["s"]
    px, py, joint = (
        morphism.x_properties(),
        morphism.y_properties(),
        morphism.joint_properties(),
    )
    preserving = morphism.preserves(source, target)
    # A preserving bijection carries the source pairs one-to-one into the
    # target's, so its inverse preserves exactly when nothing is left over.
    minimal = preserving and joint.invertible and len(source.tuples) == len(target.tuples)
    return RoughnessReport(
        morphism=morphism,
        quotient=q,
        ratio=ratio,
        x_properties=px,
        y_properties=py,
        joint_properties=joint,
        relation_preserving=preserving,
        onto=preserving and joint.total and joint.surjective,
        minimal=minimal,
    )


# -- shared-structure search ---------------------------------------------------------

def _set_partitions(items: Sequence[Atom], max_blocks: int):
    """All partitions of ``items`` into at most ``max_blocks`` blocks.

    Blocks are emitted in restricted-growth order: block k is created by
    the first item assigned to it, so the numbering is canonical.
    """
    n = len(items)

    def extend(i: int, blocks: list[list[Atom]]):
        if i == n:
            yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            b.append(items[i])
            yield from extend(i + 1, blocks)
            b.pop()
        if len(blocks) < max_blocks:
            blocks.append([items[i]])
            yield from extend(i + 1, blocks)
            blocks.pop()

    yield from extend(0, [])


def _canonical_structure(
    n_x: int, n_y: int, relation: frozenset[tuple[int, int]]
) -> tuple[int, int, tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]:
    """Minimal relabeling of a block-index relation.

    Returns the canonical relation together with the relabeling applied
    to the x- and y-blocks, so witnesses can be rewritten into canonical
    labels.
    """
    best = None
    for perm_x in itertools.permutations(range(n_x)):
        for perm_y in itertools.permutations(range(n_y)):
            relabeled = tuple(
                sorted((perm_x[a], perm_y[b]) for a, b in relation)
            )
            key = (relabeled, perm_x, perm_y)
            if best is None or key < best:
                best = key
    relabeled, perm_x, perm_y = best
    return n_x, n_y, relabeled, perm_x, perm_y


@dataclass(frozen=True)
class CandidateStructure:
    """A shared quotient structure with onto witnesses from both systems."""

    x_set: FiniteSet
    y_set: FiniteSet
    system: FiniteSystem
    source_witness: Morphism
    target_witness: Morphism
    function_type: bool


@dataclass(frozen=True)
class ValidStructure:
    """A candidate whose outputs translate back to the target outputs.

    ``output_map`` is total on the candidate outputs and inverts the
    witness's output collapse on every output the target relation
    actually produces, so latent answers are exactly translatable.
    """

    candidate_index: int
    target_witness: Morphism
    output_map: Mapping[Atom, Atom]


@dataclass(frozen=True)
class UsefulStructure:
    candidate_index: int
    error: float


@dataclass(frozen=True)
class StructureSearchReport:
    source_system: FiniteSystem
    target_system: FiniteSystem
    candidates: tuple[CandidateStructure, ...]
    valid: tuple[ValidStructure, ...] = ()
    useful: tuple[UsefulStructure, ...] = ()

    @property
    def valid_indices(self) -> tuple[int, ...]:
        return tuple(v.candidate_index for v in self.valid)


def _quotient_structures(system: FiniteSystem, size_bound: int, canonical: dict):
    """Canonical images of the relation under all onto map pairs.

    Yields ``(key, x_map, y_map)`` where the key identifies the
    canonical structure and the maps send carrier elements to canonical
    block indices; ``canonical`` memoizes :func:`_canonical_structure`.
    """
    xs, ys = system.x_values(), system.y_values()
    pairs = system.io_pairs()
    out: dict[tuple, tuple[dict, dict]] = {}
    for part_x in _set_partitions(xs, size_bound):
        block_x = {el: i for i, blk in enumerate(part_x) for el in blk}
        for part_y in _set_partitions(ys, size_bound):
            block_y = {el: i for i, blk in enumerate(part_y) for el in blk}
            relation = frozenset((block_x[x], block_y[y]) for x, y in pairs)
            args = (len(part_x), len(part_y), relation)
            if args not in canonical:
                canonical[args] = _canonical_structure(*args)
            n_x, n_y, canon, perm_x, perm_y = canonical[args]
            key = (n_x, n_y, canon)
            if key not in out:
                out[key] = (
                    {el: perm_x[block_x[el]] for el in xs},
                    {el: perm_y[block_y[el]] for el in ys},
                )
    return out


def _structure_system(key) -> tuple[FiniteSet, FiniteSet, FiniteSystem]:
    n_x, n_y, relation = key
    x_set = FiniteSet("latent_x", tuple(f"u{i}" for i in range(n_x)))
    y_set = FiniteSet("latent_y", tuple(f"w{i}" for i in range(n_y)))
    system = FiniteSystem(
        (x_set, y_set),
        tuple((f"u{a}", f"w{b}") for a, b in relation),
        ((0,), (1,)),
    )
    return x_set, y_set, system


def _check_size_bound(size_bound: int) -> None:
    if size_bound > 4:
        raise CapExceeded("exhaustive structure search is capped at 4-element carriers")
    if size_bound < 1:
        raise ValidationError("size_bound must be at least 1")


def homomorphic_structures(
    source: FiniteSystem,
    target: FiniteSystem,
    size_bound: int = 3,
) -> StructureSearchReport:
    """Structures onto which both relations map, up to carrier renaming.

    A structure is a carrier pair with the relation induced by
    collapsing a system through surjective maps; it is a candidate when
    the source and the target both induce it exactly.  Witness morphisms
    (one per side, in canonical labels) are attached to each candidate.
    """
    _check_size_bound(size_bound)
    for sys_, nm in ((source, "source"), (target, "target")):
        if len(sys_.x_values()) > CARRIER_CAP or len(sys_.y_values()) > CARRIER_CAP:
            raise CapExceeded(f"{nm} carriers exceed the search cap {CARRIER_CAP}")

    canonical: dict = {}
    from_source = _quotient_structures(source, size_bound, canonical)
    from_target = _quotient_structures(target, size_bound, canonical)

    def witness(
        system: FiniteSystem, maps: tuple[dict, dict], x_set: FiniteSet, y_set: FiniteSet
    ) -> Morphism:
        x_map, y_map = maps
        return Morphism(
            {el: f"u{i}" for el, i in x_map.items()},
            {el: f"w{i}" for el, i in y_map.items()},
            system.x_values(),
            system.y_values(),
            x_set.elements,
            y_set.elements,
        )

    candidates = []
    for key in sorted(from_source.keys() & from_target.keys()):
        x_set, y_set, system = _structure_system(key)
        candidates.append(
            CandidateStructure(
                x_set,
                y_set,
                system,
                witness(source, from_source[key], x_set, y_set),
                witness(target, from_target[key], x_set, y_set),
                function_type=is_function_type(system),
            )
        )
    return StructureSearchReport(source, target, tuple(candidates))


def valid_structures(
    report: StructureSearchReport, target_y: FiniteSet
) -> StructureSearchReport:
    """Keep candidates whose outputs translate back to the target outputs.

    For each candidate the onto witnesses from the target relation are
    enumerated in canonical order; the candidate is valid when some
    witness's output collapse can be inverted on the outputs the target
    actually produces, and the first such witness is kept with the
    resulting total map (candidate outputs to target outputs).  Such a
    witness is injective on the used outputs, so a candidate with fewer
    outputs than the target uses is invalid without enumerating any.
    """
    used_outputs = {y for _, y in report.target_system.io_pairs()}
    fallback = target_y.elements[0]
    valid = []
    for idx, cand in enumerate(report.candidates):
        if len(cand.y_set) < len(used_outputs):
            continue
        witnesses = _morphisms(report.target_system, cand.system, require=("surjective",))
        for witness in witnesses:
            images: dict[Atom, Atom] = {}
            ok = True
            for y in used_outputs:
                w = witness.y_map[y]
                if w in images and images[w] != y:
                    ok = False
                    break
                images[w] = y
            if ok:
                output_map = {
                    w: images.get(w, fallback) for w in cand.y_set.elements
                }
                valid.append(ValidStructure(idx, witness, output_map))
                break
    return replace(report, valid=tuple(valid), useful=())


def useful_structures(
    report: StructureSearchReport,
    runner: Callable[[CandidateStructure, ValidStructure], float],
    epsilon_star: float,
) -> StructureSearchReport:
    """Run a transfer through every valid structure and keep the generalizing ones.

    ``runner`` executes a feature-representation transfer with the
    candidate as latent system and returns the measured target error;
    candidates whose error is at most ``epsilon_star`` are kept, ordered
    by measured error ascending.  A NaN threshold is refused before any
    candidate runs.
    """
    _check_threshold(epsilon_star)
    useful = []
    for entry in report.valid:
        cand = report.candidates[entry.candidate_index]
        error = runner(cand, entry)
        if error <= epsilon_star:
            useful.append(UsefulStructure(entry.candidate_index, error))
    useful.sort(key=lambda u: (u.error, u.candidate_index))
    return replace(report, useful=tuple(useful))


def feature_runner(
    source_pack: SystemPack,
    target_pack: SystemPack,
) -> Callable[[CandidateStructure, ValidStructure], float]:
    """The structure runner: latent exhaustive-risk transfer, measured error.

    The latent learning system carries every function between the
    candidate carriers; data is mapped through the witness morphisms,
    trained in the candidate space, and evaluated against the target
    pack's declared truth under its declared marginal.
    """
    if target_pack.truth is None:
        raise MissingMeasure("the target pack needs a declared truth table")

    def run(cand: CandidateStructure, entry: ValidStructure) -> float:
        latent_sys = LearningSystem(
            cand.x_set,
            cand.y_set,
            full_function_class(cand.x_set, cand.y_set),
            target_pack.system.loss,
        )
        t_wit = entry.target_witness
        s_wit = cand.source_witness
        spec = FeatureRepSpec(
            latent_sys,
            pair_map_target={
                (x, y): (t_wit.x_map[x], t_wit.y_map[y])
                for x in target_pack.system.x_set.elements
                for y in target_pack.system.y_set.elements
            },
            pair_map_source={
                (x, y): (s_wit.x_map[x], s_wit.y_map[y])
                for x in source_pack.system.x_set.elements
                for y in source_pack.system.y_set.elements
            },
            input_map=dict(t_wit.x_map),
            output_map=dict(entry.output_map),
        )
        ts = TransferSystem(
            source_pack.system,
            target_pack.system,
            Knowledge(instances=source_pack.dataset),
            "feature_representation",
            latent=spec,
        )
        theta, _ = run_transfer(ts, target_pack.dataset)
        ctx = EvaluationContext(target_pack.truth)
        return generalization_error(ts.system_tr, theta, ctx, target_pack.marginal)

    return run


# -- structural transferability ----------------------------------------------------

def structural_transferability(
    pack: SystemPack,
    universe: Sequence[SystemPack],
    role: str,
    epsilon_star: float,
    size_bound: int = 3,
) -> NeighborhoodReport:
    """Count universe members sharing a useful structure with the pack.

    ``role`` fixes which side of each pairing the pack plays; a member
    qualifies when the search over shared structures leaves at least one
    whose measured error is at most ``epsilon_star`` (see
    :func:`useful_structures`).  The scan returns a ``structural``
    :class:`~transferlab.learning.NeighborhoodReport` whose criterion
    records the threshold as passed and whose values are each member's
    best measured error.  A NaN threshold is refused before the scan;
    members are skipped by the one rule of
    :func:`~transferlab.learning.scan`.
    """
    _check_size_bound(size_bound)
    _check_threshold(epsilon_star)

    def judge(idx: int, src: SystemPack, tgt: SystemPack) -> tuple[float, bool] | None:
        report = homomorphic_structures(truth_graph(src), truth_graph(tgt), size_bound)
        report = valid_structures(report, tgt.system.y_set)
        report = useful_structures(report, feature_runner(src, tgt), epsilon_star)
        return (report.useful[0].error, True) if report.useful else None

    criterion = {"epsilon_star": epsilon_star, "size_bound": size_bound}
    return scan(pack, universe, role, "structural", criterion, judge)
