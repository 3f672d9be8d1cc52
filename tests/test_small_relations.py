"""Exhaustive checks over every relation on small carriers.

Every non-empty relation on carriers up to 2 × 2 (22 of them) is paired
with every other, and each relation on 2 × 3 carriers (63) with itself
and with one renamed copy.  On each pair:

* ``transfer_roughness(...).minimal`` holds exactly when the morphism is
  an isomorphism, by brute force, for every total map pair;
* ``homomorphic_structures`` finds the same candidate keys both ways;

and on each relation ``quotient`` gives the brute-force preimage
partition for every partial map pair into 2 × 2 carriers.
"""

import itertools

from helpers import io_system, scalar_is_isomorphism
from transferlab.relations import Morphism, quotient
from transferlab.structural import homomorphic_structures, transfer_roughness

UNDEFINED = object()


def relations(n_x, n_y):
    """Every non-empty relation on ``x0..`` × ``0..``, in a fixed order."""
    xs, ys = tuple(f"x{i}" for i in range(n_x)), tuple(range(n_y))
    cells = list(itertools.product(xs, ys))
    for size in range(1, len(cells) + 1):
        for pairs in itertools.combinations(cells, size):
            yield io_system(pairs, xs=xs, ys=ys)


def renamed(system):
    """An isomorphic copy: inputs reversed and outputs rotated, under new names."""
    xs, ys = system.x_values(), system.y_values()
    x_name = {x: f"u{len(xs) - 1 - i}" for i, x in enumerate(xs)}
    y_name = {y: f"w{(i + 1) % len(ys)}" for i, y in enumerate(ys)}
    pairs = [(x_name[x], y_name[y]) for x, y in system.io_pairs()]
    return io_system(pairs, xs=sorted(x_name.values()), ys=sorted(y_name.values()))


SMALL = [r for n_x in (1, 2) for n_y in (1, 2) for r in relations(n_x, n_y)]
WIDE = list(relations(2, 3))
PAIRS = (
    [(s, t) for s in SMALL for t in SMALL]
    + [(r, r) for r in WIDE]
    + [(r, renamed(r)) for r in WIDE]
)


def maps(domain, codomain):
    """Every map from ``domain`` to ``codomain`` as a dict; ``UNDEFINED`` images are left out."""
    for image in itertools.product(codomain, repeat=len(domain)):
        yield {d: c for d, c in zip(domain, image) if c is not UNDEFINED}


def morphisms(source, target, partial=False):
    extra = (UNDEFINED,) if partial else ()
    xs, ys = source.x_values(), source.y_values()
    xps, yps = target.x_values(), target.y_values()
    for x_map in maps(xs, xps + extra):
        for y_map in maps(ys, yps + extra):
            yield Morphism(x_map, y_map, xs, ys, xps, yps)


def test_the_pairs_are_every_small_relation_and_the_wide_ones_twice():
    assert (len(SMALL), len(WIDE), len(PAIRS)) == (22, 63, 22 * 22 + 2 * 63)


def test_minimal_exactly_when_the_morphism_is_an_isomorphism():
    minimal = 0
    for source, target in PAIRS:
        for m in morphisms(source, target):
            flag = transfer_roughness(source, target, m).minimal
            assert flag == scalar_is_isomorphism(m, source, target), (source, target, m)
            minimal += flag
    assert minimal > 0


def candidate_keys(report):
    return {
        (len(c.x_set), len(c.y_set), tuple(sorted(c.system.tuples))) for c in report.candidates
    }


def test_the_structure_search_is_symmetric():
    for source, target in PAIRS:
        forward = homomorphic_structures(source, target, 3)
        backward = homomorphic_structures(target, source, 3)
        assert candidate_keys(forward) == candidate_keys(backward), (source, target)


def preimage_partition(elements, image):
    """Classes of ``a ~ b``: ``a == b``, or both have an image and the images agree."""
    def same(a, b):
        return a == b or (a in image and b in image and image[a] == image[b])

    return {frozenset(b for b in elements if same(a, b)) for a in elements}


def test_quotient_is_the_preimage_partition():
    codomain = io_system([("u0", "w0")], xs=("u0", "u1"), ys=("w0", "w1"))
    for relation in SMALL + WIDE:
        pairs = relation.io_pairs()
        for m in morphisms(relation, codomain, partial=True):
            q = quotient(relation, m)
            pair_image = {
                (x, y): (m.x_map[x], m.y_map[y])
                for x, y in pairs
                if x in m.x_map and y in m.y_map
            }
            expected = (
                preimage_partition(pairs, pair_image),
                preimage_partition(relation.x_values(), m.x_map),
                preimage_partition(relation.y_values(), m.y_map),
            )
            classes = (q.s_classes, q.x_classes, q.y_classes)
            assert tuple({frozenset(c) for c in cs} for cs in classes) == expected, (pairs, m)
            counts = tuple(q.cardinalities[k] for k in ("s_classes", "x_classes", "y_classes"))
            assert counts == tuple(map(len, expected))
