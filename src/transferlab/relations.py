"""Relations on named finite sets.

Everything here is a finite instantiation of relation-based systems
theory: carriers are explicitly enumerated, so input/output
partitioning, composition through a shared coupling set, goal-seeking
consistency, morphism enumeration and quotients are all decidable by
exhaustion.  All values are immutable after construction and every
operation is a pure function.

Canonical order is declaration order: component sets iterate in the
order their elements were declared, and relation tuples are stored
sorted by their per-component element indices, so every enumeration
and report is reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import (
    ArityMismatch,
    CapExceeded,
    CouplingMismatch,
    EmptyComponent,
    IncompatibleCarriers,
    NoPartition,
    NotAPartition,
    UnknownElement,
    ValidationError,
)

Atom = Hashable

#: Default ceiling on carrier sizes for exhaustive morphism enumeration.
#: Beyond the cap the operation refuses instead of sampling.
DEFAULT_ENUMERATION_CAP = 8


def _sequence(value, field: str, item: str | None = None) -> tuple:
    """``tuple(value)``; a ``str`` or ``bytes``, whose items are characters
    or byte values, is refused with a :class:`ValidationError` naming ``field``.
    Given ``item``, each item is read the same way as the field ``item``;
    only each distinct item type is tested, so long pair lists stay cheap.
    """
    if isinstance(value, (str, bytes)):
        kind = "a string" if isinstance(value, str) else "bytes"
        raise ValidationError(f"{field} must be a sequence, not {kind}")
    if item is None:
        return tuple(value)
    value = tuple(value)
    if any(issubclass(t, (str, bytes)) for t in set(map(type, value))):
        for v in value:
            _sequence(v, item)
    return tuple(map(tuple, value))


@dataclass(frozen=True)
class FiniteSet:
    """A named, ordered, duplicate-free collection of atoms.

    Atoms are plain hashable values (symbols, integers, or tuples of
    those).  Iteration order equals declaration order and is the
    canonical order used by every downstream report.
    """

    name: str
    elements: tuple[Atom, ...]

    def __post_init__(self) -> None:
        elements = _sequence(self.elements, f"set {self.name!r}: elements")
        object.__setattr__(self, "elements", elements)
        if not self.elements:
            raise EmptyComponent(f"set {self.name!r} has no elements")
        try:
            distinct = len(set(self.elements)) == len(self.elements)
        except TypeError:
            distinct = False
        if distinct:
            return
        seen = set()  # find the first duplicate or unhashable element, to name it
        for el in self.elements:
            try:
                duplicate = el in seen
            except TypeError as exc:
                raise ValidationError(
                    f"set {self.name!r}: element {el!r} is not hashable"
                ) from exc
            if duplicate:
                raise ValidationError(f"set {self.name!r}: duplicate element {el!r}")
            seen.add(el)

    @cached_property
    def _index(self) -> dict[Atom, int]:
        return {el: i for i, el in enumerate(self.elements)}

    def __contains__(self, element: Atom) -> bool:
        return element in self._index

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, element: Atom) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise UnknownElement(
                f"{element!r} is not an element of set {self.name!r}"
            ) from None

    def same_elements(self, other: "FiniteSet") -> bool:
        """Equality as sets of atoms, ignoring name and order."""
        if self.elements == other.elements:  # equal tuples hold equal sets; no sets to build
            return True
        return frozenset(self.elements) == frozenset(other.elements)


def _pack(coords: Sequence[Atom]) -> Atom:
    """Collapse a 1-ary coordinate list to its atom, keep tuples otherwise."""
    return coords[0] if len(coords) == 1 else tuple(coords)


@dataclass(frozen=True)
class FiniteSystem:
    """A relation on an ordered list of component sets.

    ``tuples`` is stored deduplicated, each tuple having one coordinate
    per component.  ``io_partition`` optionally splits the component
    indices into an input object and an output object; the input object
    is the full Cartesian product of the input components (values of a
    single input component stay scalar, multiple components pack into
    tuples), and likewise for outputs.
    """

    components: tuple[FiniteSet, ...]
    tuples: tuple[tuple[Atom, ...], ...]
    io_partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        components = tuple(self.components)
        if not components:
            raise EmptyComponent("a system needs at least one component set")
        for comp in components:
            if not isinstance(comp, FiniteSet):
                raise ValidationError(f"component {comp!r} is not a FiniteSet")
        object.__setattr__(self, "components", components)

        arity = len(components)
        indices = [comp._index for comp in components]
        # Each distinct tuple (the first of equal ones) -> its per-component indices.
        keys: dict[tuple[Atom, ...], tuple[int, ...]] = {}
        for tup in _sequence(self.tuples, "relation tuples", "a relation tuple"):
            if len(tup) != arity:
                raise ArityMismatch(
                    f"tuple {tup!r} has arity {len(tup)}, expected {arity}"
                )
            try:
                keys[tup] = tuple(map(dict.__getitem__, indices, tup))
            except KeyError:
                coord, comp = next((c, s) for c, s in zip(tup, components) if c not in s)
                raise UnknownElement(
                    f"tuple {tup!r}: {coord!r} not in set {comp.name!r}"
                ) from None
        object.__setattr__(self, "tuples", tuple(sorted(keys, key=keys.__getitem__)))

        if self.io_partition is not None:
            inputs, outputs = self.io_partition
            inputs = tuple(inputs)
            outputs = tuple(outputs)
            indices = set(range(arity))
            if len(set(inputs)) != len(inputs) or len(set(outputs)) != len(outputs):
                raise NotAPartition(f"duplicate indices in {inputs}/{outputs}")
            if set(inputs) | set(outputs) != indices or set(inputs) & set(outputs):
                raise NotAPartition(
                    f"indices {inputs}/{outputs} do not partition 0..{arity - 1}"
                )
            if not inputs or not outputs:
                raise NotAPartition("both sides of the partition must be non-empty")
            object.__setattr__(self, "io_partition", (inputs, outputs))

    # -- basic accessors ---------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.components)

    @cached_property
    def tuple_set(self) -> frozenset[tuple[Atom, ...]]:
        return frozenset(self.tuples)

    def __contains__(self, tup) -> bool:
        return tuple(tup) in self.tuple_set

    def _require_partition(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if self.io_partition is None:
            raise NoPartition("the system has no input/output partition")
        return self.io_partition

    @property
    def input_indices(self) -> tuple[int, ...]:
        return self._require_partition()[0]

    @property
    def output_indices(self) -> tuple[int, ...]:
        return self._require_partition()[1]

    @property
    def input_components(self) -> tuple[FiniteSet, ...]:
        return tuple(self.components[i] for i in self.input_indices)

    @property
    def output_components(self) -> tuple[FiniteSet, ...]:
        return tuple(self.components[i] for i in self.output_indices)

    def x_values(self) -> tuple[Atom, ...]:
        """The full input object, in canonical product order."""
        comps = self.input_components
        return tuple(_pack(p) for p in itertools.product(*(c.elements for c in comps)))

    def y_values(self) -> tuple[Atom, ...]:
        """The full output object, in canonical product order."""
        comps = self.output_components
        return tuple(_pack(p) for p in itertools.product(*(c.elements for c in comps)))

    def io_pairs(self) -> tuple[tuple[Atom, Atom], ...]:
        """The relation as (input value, output value) pairs."""
        ins, outs = self._require_partition()
        return tuple(
            (_pack([t[i] for i in ins]), _pack([t[i] for i in outs]))
            for t in self.tuples
        )

    @cached_property
    def _io_pair_set(self) -> frozenset[tuple[Atom, Atom]]:
        return frozenset(self.io_pairs())

    def relates(self, x: Atom, y: Atom) -> bool:
        return (x, y) in self._io_pair_set


def make_system(
    components: Sequence[FiniteSet],
    tuples: Iterable[Sequence[Atom]],
) -> FiniteSystem:
    """Build a validated relation; duplicate tuples collapse."""
    return FiniteSystem(components, tuples)


def as_input_output(system: FiniteSystem, input_indices: Iterable[int]) -> FiniteSystem:
    """Declare which component indices form the input object.

    The complement becomes the output object.  Raises
    :class:`NotAPartition` when the indices overlap the complement
    trivially (duplicates, out of range) or leave either side empty.
    """
    inputs = tuple(input_indices)
    if any(i < 0 or i >= system.arity for i in inputs):
        raise NotAPartition(f"input indices {inputs} out of range")
    outputs = tuple(i for i in range(system.arity) if i not in set(inputs))
    return replace(system, io_partition=(inputs, outputs))


def is_function_type(system: FiniteSystem) -> bool:
    """True when every input value relates to at most one output value.

    The empty relation is vacuously of function type.
    """
    seen: dict[Atom, Atom] = {}
    for x, y in system.io_pairs():
        if x in seen and seen[x] != y:
            return False
        seen[x] = y
    return True


# -- cascade composition ---------------------------------------------------

def cascade(
    s1: FiniteSystem,
    s2: FiniteSystem,
    coupling: tuple[int, int],
) -> FiniteSystem:
    """Compose two input-output systems through a shared coupling set.

    ``coupling = (i, j)`` names a component of ``s1`` lying on its
    output side and a component of ``s2`` lying on its input side; both
    must carry the same elements.  The result relates the combined
    inputs to the combined outputs, a combined tuple being present
    exactly when some shared coupling value witnesses membership in both
    systems.
    """
    z1, z2 = coupling
    if z1 not in s1.output_indices:
        raise CouplingMismatch(f"index {z1} is not on the output side of s1")
    if z2 not in s2.input_indices:
        raise CouplingMismatch(f"index {z2} is not on the input side of s2")
    zset1, zset2 = s1.components[z1], s2.components[z2]
    if not zset1.same_elements(zset2):
        raise CouplingMismatch(
            f"coupling sets {zset1.name!r} and {zset2.name!r} have different elements"
        )

    x1 = list(s1.input_indices)
    y1 = [i for i in s1.output_indices if i != z1]
    x2 = [i for i in s2.input_indices if i != z2]
    y2 = list(s2.output_indices)

    components = (
        [s1.components[i] for i in x1]
        + [s2.components[i] for i in x2]
        + [s1.components[i] for i in y1]
        + [s2.components[i] for i in y2]
    )
    n_in = len(x1) + len(x2)
    partition = (tuple(range(n_in)), tuple(range(n_in, len(components))))

    left: dict[Atom, list[tuple[list[Atom], list[Atom]]]] = {}
    for t in s1.tuples:
        left.setdefault(t[z1], []).append(([t[i] for i in x1], [t[i] for i in y1]))
    combined = set()
    for t in s2.tuples:
        z = t[z2]
        for in1, out1 in left.get(z, ()):
            combined.add(tuple(in1 + [t[i] for i in x2] + out1 + [t[i] for i in y2]))
    return FiniteSystem(tuple(components), tuple(combined), partition)


# -- goal-seeking consistency ----------------------------------------------

@dataclass(frozen=True)
class GoalSeekingSpec:
    """A goal relation, a seeking relation, and the value set they share.

    ``goal`` assigns a value to every tuple of the inductive relation's
    carrier (the "base" arguments followed by the selected parameter);
    ``seek`` is a relation whose tuples interleave the goal value before
    the parameter: ``base + (value, parameter)``.
    """

    value_set: FiniteSet
    goal: Mapping[tuple[Atom, ...], Atom]
    seek: frozenset[tuple[Atom, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "goal", dict(self.goal))
        object.__setattr__(self, "seek", frozenset(tuple(t) for t in self.seek))
        arities = set(map(len, self.goal))
        if len(arities) > 1:
            raise IncompatibleCarriers(f"goal keys have mixed arities {arities}")
        if arities:
            (arity,) = arities
            bad = [t for t in self.seek if len(t) != arity + 1]
            if bad:
                raise IncompatibleCarriers(
                    f"seek tuple {bad[0]!r} does not extend the goal arity {arity}"
                )


@dataclass(frozen=True)
class GoalSeekViolation:
    kind: str  # goal_not_total | goal_value | seek_missing | seek_extra | io_mismatch
    witness: tuple[Atom, ...]


@dataclass(frozen=True)
class GoalSeekReport:
    violations: tuple[GoalSeekViolation, ...]
    checked: int

    @property
    def passed(self) -> bool:
        return not self.violations


def _inductive_carrier(sg: FiniteSystem) -> tuple[FiniteSet, ...]:
    """The carrier of an inductive relation: its input components, then its one parameter set."""
    if len(sg.output_indices) != 1:
        raise IncompatibleCarriers("the inductive relation must output one parameter")
    return sg.input_components + (sg.components[sg.output_indices[0]],)


def _seek_violations(
    carrier: tuple[FiniteSet, ...],
    found: dict[tuple[Atom, ...], str],
    sg: FiniteSystem,
    candidates: Iterable[tuple[Atom, ...]],
    seeks: Callable[[tuple[Atom, ...]], bool],
) -> list[GoalSeekViolation]:
    """The violations in ``found`` and the candidates' seek violations, in canonical carrier order.

    ``found`` maps carrier points, as the carrier's own atoms, to the
    goal violation each already has.  A candidate inside the carrier is
    read back through those atoms; one not in ``found`` breaks the
    biconditional when its membership in ``sg`` differs from
    ``seeks(point)``.  The parameter varies fastest in the order.
    """
    indexes = [c._index for c in carrier]
    for candidate in candidates:
        if len(candidate) != len(carrier) or not all(map(dict.__contains__, indexes, candidate)):
            continue
        position = map(dict.__getitem__, indexes, candidate)
        key = tuple(c.elements[i] for c, i in zip(carrier, position))
        if key not in found and (key in sg.tuple_set) != seeks(key):
            found[key] = "seek_missing" if key in sg.tuple_set else "seek_extra"
    order = sorted(found, key=lambda key: tuple(map(dict.__getitem__, indexes, key)))
    return [GoalSeekViolation(found[key], key) for key in order]


def check_goal_seeking(
    sf: FiniteSystem | None,
    sg: FiniteSystem,
    gs: GoalSeekingSpec,
    system: FiniteSystem | None = None,
) -> GoalSeekReport:
    """Exhaustively test the goal-seeking consistency biconditionals.

    ``sg`` is the inductive relation, an input-output system whose
    single output component is the parameter set.  For every point of
    its full carrier product the check requires

    * the goal to be total and valued inside the declared value set,
    * membership of ``base + (parameter,)`` in ``sg`` exactly when
      ``base + (goal value, parameter)`` is in the seeking relation.

    A point gets at most one violation, the first of ``goal_not_total``,
    ``goal_value`` and ``seek_missing``/``seek_extra`` that holds, and
    violations come in canonical carrier order (the parameter varying
    fastest).  Every point counts as checked, though only those in
    ``sg`` or under a seeking tuple can break the biconditional, so only
    those are visited for it.

    When both ``sf`` (the functional relation, parameter first) and
    ``system`` (the composite input-output relation) are supplied, the
    decomposition biconditional is checked as well: a carrier tuple
    belongs to ``system`` exactly when some parameter witnesses it in
    both ``sf`` and ``sg``; these violations follow, in canonical order
    of ``system``'s carrier.
    """
    carrier = _inductive_carrier(sg)
    keys = list(itertools.product(*(c.elements for c in carrier)))
    goal, value_set, seek = gs.goal, gs.value_set, gs.seek
    found = dict.fromkeys(itertools.filterfalse(goal.__contains__, keys), "goal_not_total")
    present = list(filter(goal.__contains__, keys)) if found else keys
    inside = list(map(value_set._index.__contains__, map(goal.__getitem__, present)))
    if not all(inside):
        found.update((key, "goal_value") for key, ok in zip(present, inside) if not ok)
    # A seek violation needs the key in sg or a seek tuple at it.
    violations = _seek_violations(
        carrier, found, sg, sg.tuple_set | {t[:-2] + t[-1:] for t in seek},
        lambda key: key[:-1] + (goal[key], key[-1]) in seek,
    )
    checked = len(keys)

    if sf is not None and system is not None:
        theta_set = carrier[-1]
        expected = (theta_set,) + tuple(system.components)
        if len(sf.components) != len(expected) or not all(
            a.same_elements(b) for a, b in zip(sf.components, expected)
        ):
            raise IncompatibleCarriers(
                "functional relation must range over the parameter set followed "
                "by the composite system's components"
            )
        for combo in itertools.product(*(c.elements for c in system.components)):
            checked += 1
            lhs = combo in system.tuple_set
            rhs = any(
                (theta,) + combo in sf.tuple_set and combo + (theta,) in sg.tuple_set
                for theta in theta_set.elements
            )
            if lhs != rhs:
                violations.append(GoalSeekViolation("io_mismatch", combo))

    return GoalSeekReport(tuple(violations), checked)


# -- morphisms ---------------------------------------------------------------

@dataclass(frozen=True)
class MapProperties:
    total: bool
    partial: bool
    injective: bool
    surjective: bool
    invertible: bool


def _map_properties(
    mapping: Mapping[Atom, Atom],
    domain: Sequence[Atom],
    codomain: Sequence[Atom],
) -> MapProperties:
    total = all(d in mapping for d in domain)
    images = list(mapping.values())
    injective = len(set(images)) == len(images)
    surjective = set(images) == set(codomain)
    return MapProperties(
        total=total,
        partial=not total,
        injective=injective,
        surjective=surjective,
        invertible=total and injective and surjective,
    )


@dataclass(frozen=True)
class Morphism:
    """A pair of maps between the input and output objects of two systems.

    Partial maps are represented as total maps over a declared
    sub-domain; elements absent from the map table are explicitly
    undefined.  Property flags are recomputed from the tables on demand,
    never stored.
    """

    x_map: Mapping[Atom, Atom]
    y_map: Mapping[Atom, Atom]
    source_x: tuple[Atom, ...]
    source_y: tuple[Atom, ...]
    target_x: tuple[Atom, ...]
    target_y: tuple[Atom, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_map", dict(self.x_map))
        object.__setattr__(self, "y_map", dict(self.y_map))
        object.__setattr__(self, "source_x", tuple(self.source_x))
        object.__setattr__(self, "source_y", tuple(self.source_y))
        object.__setattr__(self, "target_x", tuple(self.target_x))
        object.__setattr__(self, "target_y", tuple(self.target_y))
        source_x, target_x = set(self.source_x), set(self.target_x)
        source_y, target_y = set(self.source_y), set(self.target_y)
        for key, val in self.x_map.items():
            if key not in source_x:
                raise UnknownElement(f"x_map key {key!r} outside the source input")
            if val not in target_x:
                raise UnknownElement(f"x_map value {val!r} outside the target input")
        for key, val in self.y_map.items():
            if key not in source_y:
                raise UnknownElement(f"y_map key {key!r} outside the source output")
            if val not in target_y:
                raise UnknownElement(f"y_map value {val!r} outside the target output")

    def x_properties(self) -> MapProperties:
        return _map_properties(self.x_map, self.source_x, self.target_x)

    def y_properties(self) -> MapProperties:
        return _map_properties(self.y_map, self.source_y, self.target_y)

    def joint_properties(self) -> MapProperties:
        px, py = self.x_properties(), self.y_properties()
        return MapProperties(
            total=px.total and py.total,
            partial=px.partial or py.partial,
            injective=px.injective and py.injective,
            surjective=px.surjective and py.surjective,
            invertible=px.invertible and py.invertible,
        )

    def preserves(self, source: FiniteSystem, target: FiniteSystem) -> bool:
        """True when every related source pair maps to a related target pair.

        Pairs on which either map is undefined impose no constraint.
        """
        for x, y in source.io_pairs():
            if x in self.x_map and y in self.y_map:
                if not target.relates(self.x_map[x], self.y_map[y]):
                    return False
        return True


def identity_morphism(system: FiniteSystem) -> Morphism:
    xs, ys = system.x_values(), system.y_values()
    return Morphism({x: x for x in xs}, {y: y for y in ys}, xs, ys, xs, ys)


def enumerate_morphisms(
    system: FiniteSystem,
    system_prime: FiniteSystem,
    require: Iterable[str] | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
    reflect: bool = False,
) -> tuple[Morphism, ...]:
    """All total map pairs carrying one relation into the other.

    A candidate pair is kept when every related pair of ``system`` maps
    to a related pair of ``system_prime``.  With ``reflect=True`` the
    stronger membership-reflecting variant is used: unrelated pairs must
    also map to unrelated pairs.  ``require`` names joint property flags
    (``injective``, ``surjective``, ``invertible``, ``total``,
    ``partial``) that both maps must satisfy; every enumerated map is
    total, so ``partial`` keeps nothing.

    The order is canonical: x-maps in lexicographic order of their image
    tuples over X' (the first input of X varying slowest), and for each
    x-map its y-maps in lexicographic order over Y'.

    Refuses with :class:`CapExceeded` when any carrier exceeds ``cap``;
    exhaustive enumeration beyond that is not predictable desk-scale
    work.  An unknown flag raises :class:`ValidationError`.  Both checks
    run before anything is enumerated, and each raw image tuple is tested
    against the flags before a :class:`Morphism` is built.
    """
    xs, ys = system.x_values(), system.y_values()
    xps, yps = system_prime.x_values(), system_prime.y_values()
    for carrier, label in ((xs, "X"), (ys, "Y"), (xps, "X'"), (yps, "Y'")):
        if len(carrier) > cap:
            raise CapExceeded(f"carrier {label} has {len(carrier)} > cap {cap} elements")

    required = tuple(require) if require else ()
    valid_flags = {"total", "partial", "injective", "surjective", "invertible"}
    for flag in required:
        if flag not in valid_flags:
            raise ValidationError(f"unknown morphism property flag {flag!r}")
    if "partial" in required:
        return ()
    injective = "injective" in required or "invertible" in required
    surjective = "surjective" in required or "invertible" in required

    def qualifies(image: tuple[Atom, ...], n_codomain: int) -> bool:
        distinct = len(set(image))
        onto = not surjective or distinct == n_codomain
        return onto and (not injective or distinct == len(image))

    related = {xp: {yp for yp in yps if system_prime.relates(xp, yp)} for xp in xps}
    # Per y, the positions of the inputs it must (reflecting: must not) stay related to.
    tied = [[i for i, x in enumerate(xs) if system.relates(x, y)] for y in ys]
    untied = [[i for i, x in enumerate(xs) if not system.relates(x, y)] for y in ys]

    kept: list[Morphism] = []
    for image in itertools.product(xps, repeat=len(xs)):
        if not qualifies(image, len(xps)):
            continue
        allowed: list[tuple[Atom, ...]] = []
        for y_tied, y_untied in zip(tied, untied):
            options = set(yps)
            for i in y_tied:
                options &= related[image[i]]
            if reflect:
                for i in y_untied:
                    options -= related[image[i]]
            if not options:
                break
            allowed.append(tuple(yp for yp in yps if yp in options))
        else:
            x_map = dict(zip(xs, image))
            for y_image in itertools.product(*allowed):
                if qualifies(y_image, len(yps)):
                    kept.append(Morphism(x_map, dict(zip(ys, y_image)), xs, ys, xps, yps))
    return tuple(kept)


# -- quotients ----------------------------------------------------------------

@dataclass(frozen=True)
class QuotientReport:
    """Equivalence classes of a system's carriers under a morphism.

    Classes are preimage partitions; elements on which the morphism is
    undefined form their own singleton classes.  ``w_*`` maps carrier
    elements to class indices and ``z_*`` maps the classes induced by
    defined map entries to their image in the target.
    """

    s_classes: tuple[tuple[tuple[Atom, Atom], ...], ...]
    x_classes: tuple[tuple[Atom, ...], ...]
    y_classes: tuple[tuple[Atom, ...], ...]
    w: Mapping[tuple[Atom, Atom], int]
    w_x: Mapping[Atom, int]
    w_y: Mapping[Atom, int]
    z: Mapping[int, tuple[Atom, Atom]]
    z_x: Mapping[int, Atom]
    z_y: Mapping[int, Atom]
    cardinalities: Mapping[str, int]


def _partition_by_image(elements, mapping):
    classes: dict[object, list] = {}
    order: list[object] = []
    for i, el in enumerate(elements):
        key = ("def", mapping[el]) if el in mapping else ("undef", i)
        if key not in classes:
            classes[key] = []
            order.append(key)
        classes[key].append(el)
    member_lists = [tuple(classes[k]) for k in order]
    w = {el: idx for idx, members in enumerate(member_lists) for el in members}
    z = {
        idx: key[1]
        for idx, key in enumerate(order)
        if key[0] == "def"
    }
    return tuple(member_lists), w, z


def quotient(system: FiniteSystem, morphism: Morphism) -> QuotientReport:
    """Partition the system's carriers by the morphism's preimages."""
    xs, ys = system.x_values(), system.y_values()
    x_classes, w_x, z_x = _partition_by_image(xs, morphism.x_map)
    y_classes, w_y, z_y = _partition_by_image(ys, morphism.y_map)

    pairs = system.io_pairs()
    pair_image = {
        (x, y): (morphism.x_map[x], morphism.y_map[y])
        for (x, y) in pairs
        if x in morphism.x_map and y in morphism.y_map
    }
    s_classes, w, z = _partition_by_image(pairs, pair_image)

    cardinalities = {
        "s": len(pairs),
        "s_classes": len(s_classes),
        "x": len(xs),
        "x_classes": len(x_classes),
        "y": len(ys),
        "y_classes": len(y_classes),
    }
    return QuotientReport(
        s_classes, x_classes, y_classes, w, w_x, w_y, z, z_x, z_y, cardinalities
    )
