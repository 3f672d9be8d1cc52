"""Structural similarity between systems.

Structure here means the sample space of a system together with its
relation; for a learning system in a pack, the relation is the graph of
its declared truth function.  The operations quantify how roughly one
structure maps onto another (quotients under a morphism), search for
shared quotient structures of two systems, and keep the ones through
which a transfer actually generalizes.  Between two packs these steps are
one pipeline, :func:`search_structures`, which the CLI's ``structures``
analysis and :func:`structural_transferability` both run.

The shared-structure search works up to carrier renaming: a quotient of
a carrier modulo renaming is exactly a set partition, so candidates are
enumerated from partition pairs and reduced to a canonical labeling,
which keeps the search exhaustive yet small.  The labeling is the least
relabeled block relation, found by refinement rather than by trying
every relabeling: under each y-relabeling the x-blocks are rows, and
sorting them gives the least x-relabeling at once (see
:func:`_canonical_structure`).  Partition pairs that cannot bring a new
structure are skipped exactly: a partition whose blocks relate to the
same multiset of label sets as an earlier one's, and a block relation
whose sorted rows an earlier one already had.  Validity backtracks over
witness images in canonical order and builds only the witness it keeps.
A self-pair builds its quotient table once, and nothing outlives a call.
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
    labels: the least ``(relation, perm_x, perm_y)`` over all n_x!·n_y!
    relabelings, found by trying the n_y! y-relabelings alone.

    Under a fixed ``perm_y`` each x-block is a row, the sorted labels it
    relates to, and the sorted edge list of a ``perm_x`` is its rows in
    label order, each row's pairs led by that row's label.  Two such
    lists first differ inside the first row where they differ, so the
    least list puts the rows in order, a row that is a proper prefix of
    another after it (the other list's next pair still carries the
    earlier label); the sort key ``row + (n_y,)`` says exactly that.
    Equal rows may trade labels, and the stable sort gives the least
    ``perm_x`` among them: each keeps its block-index order.
    """
    rows = [[] for _ in range(n_x)]
    for a, b in relation:
        rows[a].append(b)
    best, tied = None, []
    for perm_y in itertools.permutations(range(n_y)):
        keyed = [(*sorted(map(perm_y.__getitem__, row)), n_y) for row in rows]
        ordered = sorted(keyed)
        if best is None or ordered < best:
            best, tied = ordered, [(keyed, perm_y)]
        elif ordered == best:
            tied.append((keyed, perm_y))

    def least_perm_x(keyed: list[tuple[int, ...]]) -> tuple[int, ...]:
        perm_x = [0] * n_x
        for i, a in enumerate(sorted(range(n_x), key=keyed.__getitem__)):
            perm_x[a] = i
        return tuple(perm_x)

    perm_x, perm_y = min((least_perm_x(keyed), perm_y) for keyed, perm_y in tied)
    relabeled = tuple((i, b) for i, row in enumerate(best) for b in row[:-1])
    return n_x, n_y, relabeled, perm_x, perm_y


def _distinct_partitions(masks: Sequence[int], size_bound: int):
    """``(blocks, block masks)`` of each partition of ``range(len(masks))``, in order.

    ``masks[i]`` is the bitmask of what element ``i`` relates to on the
    other side, and a block's mask the union over its elements.  A
    partition whose multiset of block masks an earlier one already had is
    skipped: paired with any partition of the other side, it induces the
    same block relation up to renaming its blocks, so the earlier one
    always reaches the same canonical structure first.
    """
    seen = set()
    for blocks in _set_partitions(range(len(masks)), size_bound):
        block_masks = [0] * len(blocks)
        for b, block in enumerate(blocks):
            for i in block:
                block_masks[b] |= masks[i]
        signature = tuple(sorted(block_masks))
        if signature not in seen:
            seen.add(signature)
            yield blocks, block_masks


def _quotient_structures(relation: tuple[int, int, frozenset], size_bound: int) -> dict:
    """Canonical images of an index relation under all onto map pairs.

    ``relation`` is ``(n_x, n_y, pairs)`` with the pairs as carrier
    indices.  Maps each canonical key to ``(x labels, y labels)``: every
    carrier index's canonical block under the first partition pair, x
    outer and y inner, that induces the key.
    """
    n_x, n_y, pairs = relation
    rows, columns = [0] * n_x, [0] * n_y
    for x, y in pairs:
        rows[x] |= 1 << y
        columns[y] |= 1 << x
    parts_x = list(_distinct_partitions(rows, size_bound))
    used = {m for _, masks in parts_x for m in masks}
    parts_y = []
    for part_y, _ in _distinct_partitions(columns, size_bound):
        members = [sum(1 << y for y in block) for block in part_y]
        # Each x-block's mask over Y as the mask of the y-blocks it meets.
        image = {m: sum(1 << b for b, mb in enumerate(members) if m & mb) for m in used}
        parts_y.append((part_y, image))

    # A block relation is (|y-blocks|, each x-block's mask of the y-blocks it meets);
    # its shape sorts the rows.  Equal shapes are equal up to renaming, so only a
    # shape's first block relation can bring a new key: it alone is labeled.
    shapes: set[tuple] = set()
    out: dict[tuple, tuple] = {}
    for part_x, masks in parts_x:
        for part_y, image in parts_y:
            block_relation = (len(part_y), *map(image.__getitem__, masks))
            shape = (block_relation[0], *sorted(block_relation[1:]))
            if shape in shapes:
                continue
            shapes.add(shape)
            n_a, n_b, canon, perm_x, perm_y = _canonical_structure(*_block_edges(block_relation))
            if (n_a, n_b, canon) not in out:
                out[n_a, n_b, canon] = (_labels(part_x, perm_x, n_x), _labels(part_y, perm_y, n_y))
    return out


def _block_edges(block_relation: tuple[int, ...]) -> tuple[int, int, frozenset]:
    """``_canonical_structure``'s arguments for a block relation given by row masks."""
    n_y, *rows = block_relation
    edges = frozenset((a, b) for a, m in enumerate(rows) for b in range(n_y) if m >> b & 1)
    return len(rows), n_y, edges


def _labels(blocks: Sequence[Sequence[int]], perm: Sequence[int], n: int) -> list[int]:
    """Each of ``range(n)``'s canonical block label under a partition and its relabeling."""
    labels = [0] * n
    for block, label in zip(blocks, perm):
        for i in block:
            labels[i] = label
    return labels


def _index_relation(system: FiniteSystem) -> tuple[int, int, frozenset[tuple[int, int]]]:
    """``(|X|, |Y|, pairs)`` with the relation's pairs as carrier indices."""
    xs, ys = system.x_values(), system.y_values()
    x_index = {x: i for i, x in enumerate(xs)}
    y_index = {y: i for i, y in enumerate(ys)}
    pairs = frozenset((x_index[x], y_index[y]) for x, y in system.io_pairs())
    return len(xs), len(ys), pairs


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
    carriers = {}
    for sys_, nm in ((source, "source"), (target, "target")):
        xs, ys = carriers[nm] = sys_.x_values(), sys_.y_values()
        if len(xs) > CARRIER_CAP or len(ys) > CARRIER_CAP:
            raise CapExceeded(f"{nm} carriers exceed the search cap {CARRIER_CAP}")

    source_relation, target_relation = _index_relation(source), _index_relation(target)
    from_source = _quotient_structures(source_relation, size_bound)
    from_target = (
        from_source  # a self-pair shares one table
        if target_relation == source_relation
        else _quotient_structures(target_relation, size_bound)
    )

    def witness(nm: str, labels: tuple[list, list], x_set: FiniteSet, y_set: FiniteSet) -> Morphism:
        (xs, ys), (x_labels, y_labels) = carriers[nm], labels
        return Morphism(
            {el: f"u{i}" for el, i in zip(xs, x_labels)},
            {el: f"w{i}" for el, i in zip(ys, y_labels)},
            xs,
            ys,
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
                witness("source", from_source[key], x_set, y_set),
                witness("target", from_target[key], x_set, y_set),
                function_type=is_function_type(system),
            )
        )
    return StructureSearchReport(source, target, tuple(candidates))


def valid_structures(
    report: StructureSearchReport, target_y: FiniteSet
) -> StructureSearchReport:
    """Keep candidates whose outputs translate back to the target outputs.

    A candidate is valid when some onto witness from the target relation
    has an output collapse that can be inverted on the outputs the target
    actually produces, that is, one injective on the used outputs.  The
    first such witness in canonical order (the order of
    :func:`~transferlab.relations.enumerate_morphisms`) is kept with the
    resulting total map (candidate outputs to target outputs), and it is
    the only :class:`Morphism` built.  A candidate with fewer outputs
    than the target uses is invalid without any search.
    """
    target = report.target_system
    xs, ys = target.x_values(), target.y_values()
    links: list[list[int]] = [[] for _ in xs]
    used = [False] * len(ys)
    for x, y in _index_relation(target)[2]:
        links[x].append(y)
        used[y] = True
    n_used, fallback = sum(used), target_y.elements[0]
    valid = []
    for idx, cand in enumerate(report.candidates):
        if len(cand.y_set) < n_used:
            continue
        found = _first_valid_witness(links, used, _index_relation(cand.system))
        if found is None:
            continue
        x_image, y_image = found
        us, ws = cand.x_set.elements, cand.y_set.elements
        witness = Morphism(
            dict(zip(xs, map(us.__getitem__, x_image))),
            dict(zip(ys, map(ws.__getitem__, y_image))),
            xs,
            ys,
            us,
            ws,
        )
        images = {ws[w]: ys[y] for y, w in enumerate(y_image) if used[y]}
        output_map = {w: images.get(w, fallback) for w in ws}
        valid.append(ValidStructure(idx, witness, output_map))
    return replace(report, valid=tuple(valid), useful=())


def _first_valid_witness(
    links: Sequence[Sequence[int]],
    used: Sequence[bool],
    candidate: tuple[int, int, frozenset[tuple[int, int]]],
) -> tuple[list[int], list[int]] | None:
    """The first onto witness injective on the used outputs, as index images.

    ``links[x]`` lists the target outputs input ``x`` relates to and
    ``used[y]`` whether any input relates to output ``y``; ``candidate``
    is the latent index relation.  Inputs are assigned in order, each
    trying latent inputs in order, and every output keeps the mask of
    latent outputs still related to all its assigned inputs: a branch
    ends when a mask empties or too few inputs are left to cover the
    latent inputs.  A complete input image takes the first output image
    in order that is onto and injective on the used outputs, so the
    first witness found is the first one in canonical order.  Failed
    states are remembered by their masks, so no state is searched twice.
    """
    n_u, n_w, latent_pairs = candidate
    reach = [0] * n_u
    for u, w in latent_pairs:
        reach[u] |= 1 << w
    n_x, n_y = len(links), len(used)
    x_image = [0] * n_x
    y_image = [0] * n_y
    failed: set[tuple] = set()

    def outputs(j: int, allowed: Sequence[int], taken: int, covered: int) -> bool:
        if n_y - j < n_w - covered.bit_count():
            return False
        if j == n_y:
            return True
        options = allowed[j] & ~taken if used[j] else allowed[j]
        for w in range(n_w):
            if options >> w & 1:
                y_image[j] = w
                bit = 1 << w
                if outputs(j + 1, allowed, taken | bit if used[j] else taken, covered | bit):
                    return True
        return False

    def inputs(i: int, allowed: list[int], covered: int) -> bool:
        if n_x - i < n_u - covered.bit_count():
            return False
        state = (i, covered, *allowed)
        if state in failed:
            return False
        if i == n_x:
            found = outputs(0, allowed, 0, 0)
        else:
            found = False
            for u in range(n_u):
                narrowed = list(allowed)
                for y in links[i]:
                    narrowed[y] &= reach[u]
                    if not narrowed[y]:
                        break
                else:
                    x_image[i] = u
                    if inputs(i + 1, narrowed, covered | 1 << u):
                        found = True
                        break
        if not found:
            failed.add(state)
        return found

    full = (1 << n_w) - 1
    return (x_image, y_image) if inputs(0, [full] * n_y, 0) else None


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


def search_structures(
    source: SystemPack, target: SystemPack, size_bound: int, epsilon_star: float | None
) -> StructureSearchReport:
    """The homomorphic, then the valid, then, given a threshold, the useful structures
    shared by two packs' truth graphs, the last measured by their :func:`feature_runner`.
    """
    report = homomorphic_structures(truth_graph(source), truth_graph(target), size_bound)
    report = valid_structures(report, target.system.y_set)
    if epsilon_star is None:
        return report
    return useful_structures(report, feature_runner(source, target), epsilon_star)


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
        report = search_structures(src, tgt, size_bound, epsilon_star)
        return (report.useful[0].error, True) if report.useful else None

    criterion = {"epsilon_star": epsilon_star, "size_bound": size_bound}
    return scan(pack, universe, role, "structural", criterion, judge)
