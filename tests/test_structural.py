import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    binary_pack,
    io_system,
    random_io_system,
    scalar_canonical_structure,
    scalar_is_isomorphism,
    scalar_structure_search,
)
from transferlab import structural
from transferlab.errors import CapExceeded, IncompatibleMorphism, ValidationError
from transferlab.relations import (
    FiniteSet,
    FiniteSystem,
    Morphism,
    enumerate_morphisms,
    identity_morphism,
)
from transferlab.structural import (
    CARRIER_CAP,
    feature_runner,
    homomorphic_structures,
    structural_transferability,
    transfer_roughness,
    truth_graph,
    useful_structures,
    valid_structures,
)


class TestRoughness:
    def test_identity_is_minimal(self):
        s = io_system([("a", 0), ("b", 1)])
        report = transfer_roughness(s, s, identity_morphism(s))
        assert report.ratio == 1.0
        assert report.minimal
        assert report.onto

    def test_collapsing_input_map(self):
        s = io_system([("a", 0), ("b", 0), ("c", 0)])
        t = io_system([("u", 0)])
        m = Morphism(
            {x: "u" for x in s.x_values()},
            {0: 0},
            s.x_values(), s.y_values(), t.x_values(), t.y_values(),
        )
        report = transfer_roughness(s, t, m)
        assert report.quotient.cardinalities["x_classes"] == 1
        assert report.ratio < 1.0
        assert not report.minimal

    def test_partial_injective_flags(self):
        s = io_system([("a", 0), ("b", 1)])
        t = io_system([("u", 0), ("v", 1)])
        m = Morphism(
            {"a": "u"},
            {0: 0},
            s.x_values(), s.y_values(), t.x_values(), t.y_values(),
        )
        report = transfer_roughness(s, t, m)
        assert report.joint_properties.partial
        assert report.joint_properties.injective
        assert not report.minimal

    def test_incompatible_morphism(self):
        s = io_system([("a", 0), ("b", 1)])
        t = io_system([("u", 0)])
        m = identity_morphism(s)
        with pytest.raises(IncompatibleMorphism):
            transfer_roughness(s, t, m)

    def test_minimal_flags_match_their_golden(self):
        s = io_system([("a", 0), ("b", 1)])
        onto = io_system([("u", 0), ("v", 1)])
        larger = io_system([("u", 0), ("v", 1), ("u", 1)])

        def morphism(target, x_map, y_map):
            return Morphism(x_map, y_map, s.x_values(), s.y_values(), target.x_values(),
                            target.y_values())

        cases = {
            "identity": (s, identity_morphism(s)),
            # Preserving: both pairs land on u's pairs in the larger relation.
            "non-injective": (larger, morphism(larger, {"a": "u", "b": "u"}, {0: 0, 1: 1})),
            "non-preserving-bijection": (onto, morphism(onto, {"a": "u", "b": "v"}, {0: 1, 1: 0})),
            "preserving-bijection-onto-larger": (
                larger, morphism(larger, {"a": "u", "b": "v"}, {0: 0, 1: 1})
            ),
        }
        minimal = {name: transfer_roughness(s, t, m).minimal for name, (t, m) in cases.items()}
        assert minimal == {
            "identity": True,
            "non-injective": False,
            "non-preserving-bijection": False,
            "preserving-bijection-onto-larger": False,
        }
        assert transfer_roughness(s, onto, morphism(onto, {"a": "u", "b": "v"}, {0: 0, 1: 1})).minimal

    def test_ratio_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            s = random_io_system(rng, 3, 2, "p")
            t = random_io_system(rng, 2, 2, "q")
            for m in enumerate_morphisms(s, t)[:4]:
                r = transfer_roughness(s, t, m)
                assert 0 < r.ratio <= 1


def oracle_structure_keys(system, bound):
    """Independent search: every surjective map pair, canonical image keys."""
    xs, ys = system.x_values(), system.y_values()
    pairs = system.io_pairs()
    keys = set()
    for a in range(1, bound + 1):
        for b in range(1, bound + 1):
            for xm in itertools.product(range(a), repeat=len(xs)):
                if set(xm) != set(range(a)):
                    continue
                for ym in itertools.product(range(b), repeat=len(ys)):
                    if set(ym) != set(range(b)):
                        continue
                    x_map = dict(zip(xs, xm))
                    y_map = dict(zip(ys, ym))
                    rel = frozenset((x_map[x], y_map[y]) for x, y in pairs)
                    canon = min(
                        tuple(sorted((px[i], py[j]) for i, j in rel))
                        for px in itertools.permutations(range(a))
                        for py in itertools.permutations(range(b))
                    )
                    keys.add((a, b, canon))
    return keys


def report_keys(report):
    return {
        (
            len(c.x_set),
            len(c.y_set),
            tuple(
                sorted(
                    (c.x_set.index(x), c.y_set.index(y))
                    for x, y in c.system.io_pairs()
                )
            ),
        )
        for c in report.candidates
    }


class TestHomomorphicStructures:
    def test_self_pair_contains_self_structure(self):
        s = io_system([("a", 0), ("b", 1)])
        report = homomorphic_structures(s, s, size_bound=2)
        keys = report_keys(report)
        assert (2, 2, ((0, 0), (1, 1))) in keys
        # identity-shaped witnesses on the self structure are bijections
        cand = next(
            c for c in report.candidates
            if len(c.x_set) == 2 and len(c.y_set) == 2 and len(c.system.tuples) == 2
        )
        assert cand.source_witness.joint_properties().invertible

    def test_one_point_structure_always_appears(self):
        s = io_system([("a", 0), ("b", 1)])
        t = io_system([("u", 0), ("v", 1), ("w", 0)])
        report = homomorphic_structures(s, t, size_bound=2)
        assert (1, 1, ((0, 0),)) in report_keys(report)

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            s = random_io_system(rng, 3, 2, "p")
            t = random_io_system(rng, 3, 2, "q")
            report = homomorphic_structures(s, t, size_bound=3)
            expected = oracle_structure_keys(s, 3) & oracle_structure_keys(t, 3)
            assert report_keys(report) == expected

    def test_witnesses_are_onto_and_preserving(self):
        rng = np.random.default_rng(14)
        s = random_io_system(rng, 3, 3, "p")
        t = random_io_system(rng, 4, 2, "q")
        report = homomorphic_structures(s, t, size_bound=3)
        for cand in report.candidates:
            for witness, origin in (
                (cand.source_witness, s),
                (cand.target_witness, t),
            ):
                assert witness.joint_properties().surjective
                assert witness.preserves(origin, cand.system)

    def test_renaming_invariance(self):
        s = io_system([("a", 0), ("b", 1)])
        renamed = io_system([("left", 0), ("right", 1)])
        t = io_system([("u", 0), ("v", 1)])
        assert report_keys(homomorphic_structures(s, t, 2)) == report_keys(
            homomorphic_structures(renamed, t, 2)
        )

    def test_size_cap(self):
        s = io_system([("a", 0)])
        with pytest.raises(CapExceeded):
            homomorphic_structures(s, s, size_bound=5)
        wide = io_system([(i, 0) for i in range(CARRIER_CAP + 1)])
        message = f"target carriers exceed the search cap {CARRIER_CAP}"
        with pytest.raises(CapExceeded, match=message):
            homomorphic_structures(s, wide, size_bound=2)


class TestValidAndUseful:
    def test_identity_output_structure_is_valid(self):
        s = io_system([("a", 0), ("b", 1)])
        report = valid_structures(
            homomorphic_structures(s, s, 2), FiniteSet("Y", (0, 1))
        )
        # the self structure (2x2 function graph) must be among the valid ones
        assert any(
            len(report.candidates[v.candidate_index].y_set) == 2
            for v in report.valid
        )
        for v in report.valid:
            cand = report.candidates[v.candidate_index]
            for y in (0, 1):
                w = v.target_witness.y_map[y]
                assert v.output_map[w] == y

    def test_too_few_candidate_outputs_are_invalid_without_enumeration(self, monkeypatch):
        """At the carrier cap, six used outputs outnumber every candidate's four or fewer.

        No witness is built for any of them: every ``Morphism`` construction is counted.
        """
        graph = io_system([(f"x{i}", i) for i in range(CARRIER_CAP)])
        report = homomorphic_structures(graph, graph, 4)
        built = []
        post_init = Morphism.__post_init__
        monkeypatch.setattr(
            Morphism, "__post_init__", lambda self: built.append(self) or post_init(self)
        )
        assert len(report.candidates) == 86
        assert valid_structures(report, graph.components[1]).valid == ()
        assert built == []
        # The count sees witnesses: with two used outputs, one per valid candidate is built.
        halves = io_system([(f"x{i}", i % 2) for i in range(CARRIER_CAP)])
        report = homomorphic_structures(halves, halves, 4)
        built.clear()
        valid = valid_structures(report, halves.components[1]).valid
        assert built == [v.target_witness for v in valid] != []

    def test_empty_candidates_stay_empty(self):
        s = io_system([("a", 0), ("b", 1)])
        report = homomorphic_structures(s, s, 2)
        empty = report.__class__(report.source_system, report.target_system, ())
        assert valid_structures(empty, FiniteSet("Y", (0, 1))).valid == ()

    def test_useful_vacuous_threshold(self):
        src = binary_pack({"a": 0, "b": 1}, data=[("a", 0), ("b", 1)], tag="s")
        tgt = binary_pack({"a": 0, "b": 1}, data=[("a", 0)], tag="t")
        report = valid_structures(
            homomorphic_structures(truth_graph(src), truth_graph(tgt), 2),
            tgt.system.y_set,
        )
        done = useful_structures(report, feature_runner(src, tgt), math.inf)
        assert {u.candidate_index for u in done.useful} == set(done.valid_indices)
        assert {u.candidate_index for u in done.useful} <= {
            i for i in range(len(done.candidates))
        }

    def test_one_point_collapse_excluded_for_tight_threshold(self):
        truths = {"a": 0, "b": 1, "c": 0, "d": 1}
        src = binary_pack(truths, data=[(x, truths[x]) for x in truths], tag="s")
        tgt = binary_pack(truths, data=[(x, truths[x]) for x in truths], tag="t")
        report = valid_structures(
            homomorphic_structures(truth_graph(src), truth_graph(tgt), 2),
            tgt.system.y_set,
        )
        # best-constant error on this truth is 0.5; demand strictly better
        done = useful_structures(report, feature_runner(src, tgt), 0.25)
        collapsed = [
            v.candidate_index
            for v in report.valid
            if len(report.candidates[v.candidate_index].x_set) == 1
        ]
        useful = {u.candidate_index for u in done.useful}
        assert all(i not in useful for i in collapsed)
        # the faithful structure is kept
        faithful = [
            v.candidate_index
            for v in report.valid
            if len(report.candidates[v.candidate_index].x_set) > 1
        ]
        assert any(i in useful for i in faithful)

    def test_errors_sorted_ascending(self):
        truths = {"a": 0, "b": 1, "c": 0}
        src = binary_pack(truths, data=[(x, truths[x]) for x in truths], tag="s")
        tgt = binary_pack(truths, data=[(x, truths[x]) for x in truths], tag="t")
        report = useful_structures(
            valid_structures(
                homomorphic_structures(truth_graph(src), truth_graph(tgt), 3),
                tgt.system.y_set,
            ),
            feature_runner(src, tgt),
            math.inf,
        )
        errors = [u.error for u in report.useful]
        assert errors == sorted(errors)

    def test_a_nan_threshold_is_refused_before_any_candidate_runs(self):
        s = io_system([("a", 0), ("b", 1)])
        report = valid_structures(homomorphic_structures(s, s, 2), FiniteSet("Y", (0, 1)))
        assert report.valid
        runs = []
        with pytest.raises(ValidationError, match="epsilon_star nan is not a number"):
            useful_structures(report, lambda cand, entry: runs.append(cand) or 0.0, math.nan)
        assert runs == []


class TestStructuralTransferability:
    def test_copy_universe_counts_itself(self):
        truths = {"a": 0, "b": 1}
        pack = binary_pack(truths, data=[("a", 0), ("b", 1)], tag="p")
        copy = binary_pack(truths, data=[("a", 0), ("b", 1)], tag="c")
        report = structural_transferability(pack, [copy], "source", 0.9, size_bound=2)
        assert report.cardinality >= 1

    def test_alien_member_excluded(self):
        truths = {"a": 0, "b": 1, "c": 0, "d": 1}
        pack = binary_pack(truths, data=[(x, truths[x]) for x in truths], tag="p")
        # a three-label member whose outputs cannot all be told apart after
        # any shared collapse small enough to also fit the binary pack
        alien_truths = {"u": 0, "v": 1, "w": 2}
        alien = binary_pack(
            alien_truths,
            data=[(x, alien_truths[x]) for x in alien_truths],
            tag="alien",
            y_elements=(0, 1, 2),
        )
        copy = binary_pack(truths, data=[(x, truths[x]) for x in truths], tag="c")
        report = structural_transferability(pack, [copy, alien], "source", 0.2, size_bound=2)
        assert 0 in report.members
        assert 1 not in report.members

    def test_empty_universe(self):
        pack = binary_pack({"a": 0, "b": 1}, data=[("a", 0)], tag="p")
        report = structural_transferability(pack, [], "source", 0.5, size_bound=2)
        assert report.cardinality == 0


class TestAsymmetryPattern:
    def test_drop_component_asymmetry(self):
        # source inputs factor as pairs; target drops the second factor
        source_truth = {
            "a0|b0": 0, "a0|b1": 0, "a1|b0": 1, "a1|b1": 1,
        }
        target_truth = {"a0": 0, "a1": 1}
        s = io_system([(x, y) for x, y in source_truth.items()])
        t = io_system([(x, y) for x, y in target_truth.items()])
        forward = enumerate_morphisms(s, t, require=("surjective",))
        backward = enumerate_morphisms(t, s, require=("surjective",))
        assert len(forward) >= 1
        assert len(backward) == 0


def label_graph(name, labels, n_labels):
    xs = tuple(f"{name}{i}" for i in range(len(labels)))
    return io_system(list(zip(xs, labels)), xs=xs, ys=tuple(range(n_labels)))


@st.composite
def truth_graph_pairs(draw):
    """A source graph (|X| <= 5, |Y| <= 3), a target graph (|X|, |Y| <= 5) and a bound.

    The target uses a drawn number of its labels, so unused labels and
    used-output counts above, at and below the bound all come up.
    """

    def graph(name, max_y):
        nx, ny = draw(st.integers(2, 5)), draw(st.integers(1, max_y))
        used = draw(st.permutations(range(ny)))[: draw(st.integers(1, min(nx, ny)))]
        extra = nx - len(used)
        labels = used + draw(st.lists(st.sampled_from(used), min_size=extra, max_size=extra))
        return label_graph(name, draw(st.permutations(labels)), ny)

    return graph("s", 3), graph("t", 5), draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(truth_graph_pairs())
@example((label_graph("s", (0, 1, 0, 1), 2), label_graph("t", (3, 0, 2, 1, 0), 5), 3))
@example((label_graph("s", (0, 1, 2, 0), 3), label_graph("t", (4, 0, 4, 1), 5), 4))
@example((label_graph("s", (0, 1, 2, 0, 1, 2), 3), label_graph("t", (1, 1, 0, 2, 0, 0), 3), 3))
def test_structure_search_matches_scalar_oracle(graphs):
    """Pinned: four used outputs above a bound of 3, and three below 4, both with unused
    labels; and six inputs a side, beyond what the strategy draws, at a bound of 3."""
    source, target, bound = graphs
    target_y = target.components[1]
    report = valid_structures(homomorphic_structures(source, target, bound), target_y)
    candidates, valid = scalar_structure_search(source, target, target_y, bound)

    def key(c):
        blocks = tuple((c.x_set.index(x), c.y_set.index(y)) for x, y in c.system.tuples)
        return len(c.x_set), len(c.y_set), blocks

    assert [
        (
            key(c),
            (c.source_witness.x_map, c.source_witness.y_map),
            (c.target_witness.x_map, c.target_witness.y_map),
        )
        for c in report.candidates
    ] == candidates
    assert [
        (v.candidate_index, v.target_witness.x_map, v.target_witness.y_map, v.output_map)
        for v in report.valid
    ] == valid


def block_relations(n_x, n_y):
    """Every relation between ``range(n_x)`` and ``range(n_y)``, the empty one included."""
    cells = list(itertools.product(range(n_x), range(n_y)))
    for size in range(len(cells) + 1):
        for relation in itertools.combinations(cells, size):
            yield frozenset(relation)


@pytest.mark.parametrize(
    "n_x, n_y", list(itertools.product(range(1, 4), repeat=2)), ids=lambda n: str(n)
)
def test_canonical_labeling_matches_the_brute_force_up_to_3x3(n_x, n_y):
    for relation in block_relations(n_x, n_y):
        assert structural._canonical_structure(n_x, n_y, relation) == scalar_canonical_structure(
            n_x, n_y, relation
        )


@st.composite
def block_relation_draws(draw):
    n_x, n_y = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = st.tuples(st.integers(0, n_x - 1), st.integers(0, n_y - 1))
    return n_x, n_y, frozenset(draw(st.lists(cells, max_size=n_x * n_y)))


@settings(max_examples=200)
@given(block_relation_draws())
@example((4, 4, frozenset({(0, 0), (1, 1), (2, 2), (3, 3)})))
@example((4, 3, frozenset({(0, 0), (0, 1), (1, 0), (2, 2), (3, 2)})))
def test_canonical_labeling_matches_the_brute_force_up_to_4x4(drawn):
    assert structural._canonical_structure(*drawn) == scalar_canonical_structure(*drawn)


REQUIRE_SUBSETS = [
    flags
    for size in range(6)
    for flags in itertools.combinations(
        ("total", "partial", "injective", "surjective", "invertible"), size
    )
]


@st.composite
def small_relation_pairs(draw):
    """Two relations with |X|, |Y| <= 3.

    Half the time the target renames the source, with or without one
    extra pair, so isomorphisms come up.
    """

    def relation(xs, ys):
        cells = list(itertools.product(xs, ys))
        pairs = draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
        return io_system(pairs, xs=xs, ys=ys)

    def carriers(name):
        xs = tuple(f"{name}{i}" for i in range(draw(st.integers(1, 3))))
        return xs, tuple(range(draw(st.integers(1, 3))))

    source = relation(*carriers("s"))
    if draw(st.booleans()):
        return source, relation(*carriers("t"))
    xs, ys = tuple("t" + x[1:] for x in source.x_values()), source.y_values()
    pairs = [("t" + x[1:], y) for x, y in source.io_pairs()]
    if draw(st.booleans()):
        pairs.append(draw(st.sampled_from(list(itertools.product(xs, ys)))))
    return source, io_system(pairs, xs=xs, ys=ys)


@settings(max_examples=40)
@given(small_relation_pairs())
def test_minimal_matches_the_scalar_isomorphism_oracle(relations):
    source, target = relations
    for require in REQUIRE_SUBSETS:
        for m in enumerate_morphisms(source, target, require=require):
            assert transfer_roughness(source, target, m).minimal == scalar_is_isomorphism(
                m, source, target
            )
