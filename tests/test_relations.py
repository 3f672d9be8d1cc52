import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import io_system, random_io_system, scalar_enumerate_morphisms
from transferlab.errors import (
    ArityMismatch,
    CapExceeded,
    CouplingMismatch,
    EmptyComponent,
    NoPartition,
    NotAPartition,
    UnknownElement,
    ValidationError,
)
from transferlab.learning import Dataset
from transferlab.measures import EmpiricalMeasure
from transferlab.relations import (
    FiniteSet,
    FiniteSystem,
    GoalSeekingSpec,
    Morphism,
    as_input_output,
    cascade,
    check_goal_seeking,
    enumerate_morphisms,
    identity_morphism,
    is_function_type,
    make_system,
    quotient,
)
from transferlab.transfer import Knowledge


@pytest.mark.parametrize(
    "left, right, same",
    [
        ((1, "x"), (1, "x"), True),
        ((1, 2, "x"), (1.0, 2.0, "x"), True),  # equal atoms of other types
        ((True, 2.0), (1, 2), True),
        ((1, 2), (2.0, True), True),  # reordered
        ((1, 2), (1, 3), False),
        ((1, 2), (1,), False),
    ],
)
def test_same_elements_is_set_equality_whether_or_not_the_tuples_are_equal(left, right, same):
    a, b = FiniteSet("A", left), FiniteSet("B", right)
    assert a.same_elements(b) == b.same_elements(a) == same
    assert same == (frozenset(left) == frozenset(right))


def test_a_string_is_refused_as_the_elements_of_a_set():
    with pytest.raises(ValidationError, match="^set 's': elements must be a sequence, not a string$"):
        FiniteSet("s", "abc")
    assert FiniteSet("s", ("abc",)).elements == ("abc",)


AB = (FiniteSet("A", ("a", "b", 97, 98)), FiniteSet("B", ("a", "b", 97, 98)))
#: Each constructor that takes a sequence, and the field it names, given a text.
TEXT_FIELDS = [
    pytest.param(lambda text: FiniteSet("s", text), "set 's': elements", id="FiniteSet"),
    pytest.param(lambda text: FiniteSystem(AB, text), "relation tuples", id="FiniteSystem"),
    pytest.param(lambda text: make_system(AB, [text]), "a relation tuple", id="make_system"),
    pytest.param(lambda text: Dataset(text), "dataset pairs", id="Dataset"),
    pytest.param(lambda text: Dataset([text]), "a dataset pair", id="Dataset-pair"),
    pytest.param(
        lambda text: Knowledge(parameters=text), "knowledge parameters", id="Knowledge"
    ),
    pytest.param(
        lambda text: EmpiricalMeasure(AB[0], text), "measure probabilities", id="EmpiricalMeasure"
    ),
]


@pytest.mark.parametrize("text, kind", [("ab", "a string"), (b"ab", "bytes")], ids=["str", "bytes"])
@pytest.mark.parametrize("build, field", TEXT_FIELDS)
def test_a_string_or_bytes_is_refused_where_a_sequence_belongs(build, field, text, kind):
    # Iterated, "ab" reads as ('a', 'b') and b"ab" as (97, 98), the atoms of AB.
    with pytest.raises(ValidationError, match=f"^{field} must be a sequence, not {kind}$"):
        build(text)


class TestMakeSystem:
    def test_singleton(self):
        s = make_system([FiniteSet("A", ("a",)), FiniteSet("B", (0,))], [("a", 0)])
        assert len(s.tuples) == 1

    def test_duplicates_collapse(self):
        s = make_system(
            [FiniteSet("A", ("a",)), FiniteSet("B", (0,))], [("a", 0), ("a", 0)]
        )
        assert len(s.tuples) == 1

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            make_system([FiniteSet("A", ("a",)), FiniteSet("B", (0,))], [("b", 0)])

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            make_system([FiniteSet("A", ("a",))], [("a", 0)])

    def test_empty_component(self):
        with pytest.raises(EmptyComponent):
            FiniteSet("A", ())
        with pytest.raises(EmptyComponent):
            make_system([], [])

    def test_canonical_tuple_order(self):
        comps = [FiniteSet("A", ("a", "b")), FiniteSet("B", (0, 1))]
        s1 = make_system(comps, [("b", 1), ("a", 0)])
        s2 = make_system(comps, [("a", 0), ("b", 1)])
        assert s1.tuples == s2.tuples == (("a", 0), ("b", 1))


class TestInputOutput:
    def test_two_component_split(self):
        s = make_system([FiniteSet("A", ("a",)), FiniteSet("B", (0,))], [("a", 0)])
        s = as_input_output(s, [0])
        assert s.input_components[0].name == "A"
        assert s.output_components[0].name == "B"

    def test_empty_output_side(self):
        s = make_system([FiniteSet("A", ("a",)), FiniteSet("B", (0,))], [("a", 0)])
        with pytest.raises(NotAPartition):
            as_input_output(s, [0, 1])

    def test_three_component_split(self):
        s = make_system(
            [FiniteSet("A", ("a",)), FiniteSet("B", (0,)), FiniteSet("C", ("c",))],
            [("a", 0, "c")],
        )
        s = as_input_output(s, [0, 2])
        assert [c.name for c in s.output_components] == ["B"]
        assert s.io_pairs() == ((("a", "c"), 0),)

    def test_out_of_range(self):
        s = make_system([FiniteSet("A", ("a",)), FiniteSet("B", (0,))], [("a", 0)])
        with pytest.raises(NotAPartition):
            as_input_output(s, [0, 5])

    @pytest.mark.parametrize(
        "build",
        [
            lambda comps: FiniteSystem(comps, (("a", 0),), ((0, 0), (1,))),
            lambda comps: FiniteSystem(comps, (("a", 0),), ((0,), (1, 1))),
            lambda comps: as_input_output(make_system(comps, [("a", 0)]), [0, 0]),
        ],
        ids=["inputs", "outputs", "as_input_output"],
    )
    def test_a_repeated_index_is_refused_on_either_side(self, build):
        with pytest.raises(NotAPartition, match="duplicate indices"):
            build((FiniteSet("A", ("a",)), FiniteSet("B", (0,))))


class TestFunctionType:
    def test_function(self):
        assert is_function_type(io_system([("x1", "y1"), ("x2", "y2")]))

    def test_not_function(self):
        s = io_system([("x1", "y1"), ("x1", "y2")])
        assert not is_function_type(s)

    def test_empty_relation_vacuous(self):
        s = FiniteSystem(
            (FiniteSet("X", ("x",)), FiniteSet("Y", ("y",))), (), ((0,), (1,))
        )
        assert is_function_type(s)

    def test_no_partition(self):
        s = make_system([FiniteSet("A", ("a",)), FiniteSet("B", (0,))], [("a", 0)])
        with pytest.raises(NoPartition):
            is_function_type(s)

    def test_stable_under_tuple_reordering(self):
        comps = [FiniteSet("X", ("a", "b", "c")), FiniteSet("Y", (0, 1))]
        pairs = [("a", 0), ("b", 1), ("c", 0), ("a", 1)]
        rng = np.random.default_rng(0)
        base = as_input_output(make_system(comps, pairs), [0])
        for _ in range(5):
            rng.shuffle(pairs)
            shuffled = as_input_output(make_system(comps, pairs), [0])
            assert is_function_type(shuffled) == is_function_type(base)


def _three_component(rng, sizes, input_indices):
    comps = [
        FiniteSet(f"V{i}", tuple(f"v{i}_{j}" for j in range(size)))
        for i, size in enumerate(sizes)
    ]
    all_tuples = list(itertools.product(*(c.elements for c in comps)))
    chosen = [t for t in all_tuples if rng.random() < 0.4]
    return as_input_output(make_system(comps, chosen), input_indices)


class TestCascade:
    def test_singleton_composition(self):
        s1 = FiniteSystem(
            (FiniteSet("A", ("a",)), FiniteSet("O1", (0,)), FiniteSet("Z", ("z",))),
            (("a", 0, "z"),),
            ((0,), (1, 2)),
        )
        s2 = FiniteSystem(
            (FiniteSet("B", ("b",)), FiniteSet("Z", ("z",)), FiniteSet("O2", (1,))),
            (("b", "z", 1),),
            ((0, 1), (2,)),
        )
        s3 = cascade(s1, s2, (2, 1))
        assert s3.tuples == (("a", "b", 0, 1),)
        assert s3.io_partition == ((0, 1), (2, 3))

    def test_unequal_coupling_sets(self):
        s1 = FiniteSystem(
            (FiniteSet("A", ("a",)), FiniteSet("O1", (0,)), FiniteSet("Z", ("z1",))),
            (("a", 0, "z1"),),
            ((0,), (1, 2)),
        )
        s2 = FiniteSystem(
            (FiniteSet("B", ("b",)), FiniteSet("Z", ("z2",)), FiniteSet("O2", (1,))),
            (("b", "z2", 1),),
            ((0, 1), (2,)),
        )
        with pytest.raises(CouplingMismatch):
            cascade(s1, s2, (2, 1))

    def test_matches_exhaustive_witness_search(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            sizes1 = rng.integers(1, 5, size=3)
            z_size = int(sizes1[2])
            s1 = _three_component(rng, sizes1, [0])
            z_set = s1.components[2]
            comps2 = (
                FiniteSet("B", tuple(f"b{j}" for j in range(int(rng.integers(1, 5))))),
                z_set,
                FiniteSet("O2", tuple(f"o{j}" for j in range(int(rng.integers(1, 5))))),
            )
            tuples2 = [
                t
                for t in itertools.product(*(c.elements for c in comps2))
                if rng.random() < 0.4
            ]
            s2 = as_input_output(make_system(comps2, tuples2), [0, 1])

            composed = cascade(s1, s2, (2, 1))

            expected = set()
            for x1 in s1.components[0].elements:
                for x2 in s2.components[0].elements:
                    for y1 in s1.components[1].elements:
                        for y2 in s2.components[2].elements:
                            if any(
                                (x1, y1, z) in s1.tuple_set
                                and (x2, z, y2) in s2.tuple_set
                                for z in z_set.elements
                            ):
                                expected.add((x1, x2, y1, y2))
            assert composed.tuple_set == expected

    def test_disjoint_witness_alphabet_gives_empty(self):
        z = FiniteSet("Z", ("z1", "z2"))
        s1 = FiniteSystem(
            (FiniteSet("A", ("a",)), FiniteSet("O1", (0,)), z),
            (("a", 0, "z1"),),
            ((0,), (1, 2)),
        )
        s2 = FiniteSystem(
            (FiniteSet("B", ("b",)), z, FiniteSet("O2", (1,))),
            (("b", "z2", 1),),
            ((0, 1), (2,)),
        )
        assert cascade(s1, s2, (2, 1)).tuples == ()


class TestGoalSeeking:
    def _consistent_triple(self):
        d_set = FiniteSet("D", ("d0", "d1"))
        theta = FiniteSet("T", ("t0", "t1"))
        sg = FiniteSystem((d_set, theta), (("d0", "t0"), ("d1", "t1")), ((0,), (1,)))
        goal = {
            ("d0", "t0"): 0.0,
            ("d0", "t1"): 1.0,
            ("d1", "t0"): 1.0,
            ("d1", "t1"): 0.0,
        }
        seek = frozenset({("d0", 0.0, "t0"), ("d1", 0.0, "t1")})
        gs = GoalSeekingSpec(FiniteSet("V", (0.0, 1.0)), goal, seek)
        return sg, gs

    def test_consistent_triple_passes(self):
        sg, gs = self._consistent_triple()
        assert check_goal_seeking(None, sg, gs).passed

    def test_deleted_seek_tuple_is_one_violation(self):
        sg, gs = self._consistent_triple()
        smaller = GoalSeekingSpec(gs.value_set, gs.goal, gs.seek - {("d1", 0.0, "t1")})
        report = check_goal_seeking(None, sg, smaller)
        assert len(report.violations) == 1
        assert report.violations[0].kind == "seek_missing"

    def test_io_biconditional(self):
        x = FiniteSet("X", ("x0", "x1"))
        y = FiniteSet("Y", (0, 1))
        theta = FiniteSet("T", ("t0",))
        system = FiniteSystem((x, y), (("x0", 0), ("x1", 1)), ((0,), (1,)))
        sf = FiniteSystem(
            (theta, x, y), (("t0", "x0", 0), ("t0", "x1", 1)), ((0, 1), (2,))
        )
        sg = FiniteSystem(
            (x, y, theta), (("x0", 0, "t0"), ("x1", 1, "t0")), ((0, 1), (2,))
        )
        goal = {
            (xx, yy, "t0"): 0.0 if system.relates(xx, yy) else 1.0
            for xx in x.elements
            for yy in y.elements
        }
        seek = frozenset(
            {(xx, yy, 0.0, "t0") for (xx, yy) in system.io_pairs()}
        )
        gs = GoalSeekingSpec(FiniteSet("V", (0.0, 1.0)), goal, seek)
        assert check_goal_seeking(sf, sg, gs, system=system).passed

        broken = FiniteSystem((x, y), (("x0", 0),), ((0,), (1,)))
        report = check_goal_seeking(sf, sg, gs, system=broken)
        assert any(v.kind == "io_mismatch" for v in report.violations)


class TestEnumerateMorphisms:
    def test_identity_present_on_self(self):
        s = io_system([("x1", "y1"), ("x2", "y2")])
        morphisms = enumerate_morphisms(s, s)
        assert identity_morphism(s) in list(morphisms)

    def test_constant_candidate_to_singleton(self):
        s = io_system([("x1", "y1"), ("x2", "y1")])
        target = io_system([("u", "w")])
        morphisms = enumerate_morphisms(s, target)
        assert len(morphisms) == 1
        assert set(morphisms[0].x_map.values()) == {"u"}

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = random_io_system(rng, 3, 3, "p")
            t = random_io_system(rng, 3, 3, "q")
            fast = {
                (tuple(sorted(m.x_map.items())), tuple(sorted(m.y_map.items(), key=repr)))
                for m in enumerate_morphisms(s, t)
            }
            xs, ys = s.x_values(), s.y_values()
            slow = set()
            for xi in itertools.product(t.x_values(), repeat=len(xs)):
                for yi in itertools.product(t.y_values(), repeat=len(ys)):
                    x_map = dict(zip(xs, xi))
                    y_map = dict(zip(ys, yi))
                    if all(
                        t.relates(x_map[x], y_map[y]) for (x, y) in s.io_pairs()
                    ):
                        slow.add(
                            (
                                tuple(sorted(x_map.items())),
                                tuple(sorted(y_map.items(), key=repr)),
                            )
                        )
            assert fast == slow

    def test_every_result_preserves_relation(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = random_io_system(rng, 3, 2, "p")
            t = random_io_system(rng, 2, 3, "q")
            for m in enumerate_morphisms(s, t):
                assert m.preserves(s, t)
                assert m.joint_properties().total

    def test_cap(self):
        s = io_system([(f"x{i}", 0) for i in range(9)], ys=[0])
        with pytest.raises(CapExceeded):
            enumerate_morphisms(s, s)

    def test_require_surjective(self):
        s = io_system([("x1", "y1"), ("x2", "y2")])
        onto = enumerate_morphisms(s, s, require=("surjective",))
        assert all(m.joint_properties().surjective for m in onto)
        assert identity_morphism(s) in list(onto)

    def test_reflect_variant_is_subset(self):
        rng = np.random.default_rng(5)
        s = random_io_system(rng, 3, 3, "p")
        t = random_io_system(rng, 3, 3, "q")
        strong = enumerate_morphisms(s, t, reflect=True)
        weak = list(enumerate_morphisms(s, t))
        for m in strong:
            assert m in weak
            for x in s.x_values():
                for y in s.y_values():
                    assert s.relates(x, y) == t.relates(m.x_map[x], m.y_map[y])


class TestQuotient:
    def test_identity_preserves_cardinalities(self):
        s = io_system([("x1", "y1"), ("x2", "y2"), ("x3", "y1")])
        q = quotient(s, identity_morphism(s))
        assert q.cardinalities["s_classes"] == q.cardinalities["s"]

    def test_constant_input_map(self):
        s = io_system([("x1", "y1"), ("x2", "y1"), ("x3", "y1")])
        m = Morphism(
            {x: "u" for x in s.x_values()},
            {"y1": "w"},
            s.x_values(),
            s.y_values(),
            ("u",),
            ("w",),
        )
        q = quotient(s, m)
        assert q.cardinalities["x_classes"] == 1

    def test_collapsing_two_of_four(self):
        s = io_system([(f"x{i}", "y") for i in range(4)], ys=["y"])
        m = Morphism(
            {"x0": "a", "x1": "a", "x2": "b", "x3": "c"},
            {"y": "w"},
            s.x_values(),
            s.y_values(),
            ("a", "b", "c"),
            ("w",),
        )
        assert quotient(s, m).cardinalities["x_classes"] == 3

    def test_undefined_elements_become_singletons(self):
        s = io_system([("x1", "y1"), ("x2", "y1")])
        m = Morphism(
            {"x1": "u"},
            {"y1": "w"},
            s.x_values(),
            s.y_values(),
            ("u",),
            ("w",),
        )
        q = quotient(s, m)
        assert q.cardinalities["x_classes"] == 2
        assert ("x2",) in q.x_classes

    def test_classes_partition_carrier(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = random_io_system(rng, 4, 3, "p")
            t = random_io_system(rng, 3, 2, "q")
            for m in enumerate_morphisms(s, t)[:5]:
                q = quotient(s, m)
                union = [e for cls in q.x_classes for e in cls]
                assert sorted(union, key=repr) == sorted(s.x_values(), key=repr)
                assert len(union) == len(set(union))
                for x in s.x_values():
                    cls = q.w_x[x]
                    if cls in q.z_x:
                        assert q.z_x[cls] == m.x_map[x]


@st.composite
def small_io_systems(draw):
    nx = draw(st.integers(1, 4))
    ny = draw(st.integers(1, 4))
    xs = tuple(f"x{i}" for i in range(nx))
    ys = tuple(f"y{i}" for i in range(ny))
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(xs), st.sampled_from(ys)),
            min_size=1,
            max_size=nx * ny,
        )
    )
    return io_system(pairs, xs=xs, ys=ys)


@settings(max_examples=40, deadline=None)
@given(small_io_systems())
def test_identity_morphism_enumerated_on_self(system):
    assert identity_morphism(system) in list(enumerate_morphisms(system, system))


@settings(max_examples=40, deadline=None)
@given(small_io_systems())
def test_identity_quotient_cardinality(system):
    q = quotient(system, identity_morphism(system))
    assert q.cardinalities["s_classes"] == len(system.io_pairs())


FLAGS = ("total", "partial", "injective", "surjective", "invertible")
REQUIREMENTS = [
    combo for k in range(len(FLAGS) + 1) for combo in itertools.combinations(FLAGS, k)
]


def morphism_maps(morphisms):
    return [(tuple(m.x_map.items()), tuple(m.y_map.items())) for m in morphisms]


@settings(max_examples=30, deadline=None)
@given(small_io_systems(), small_io_systems(), st.booleans())
def test_enumeration_matches_scalar_oracle_in_order(system, system_prime, reflect):
    for require in REQUIREMENTS:
        fast = enumerate_morphisms(system, system_prime, require, reflect=reflect)
        slow = scalar_enumerate_morphisms(system, system_prime, require, reflect=reflect)
        assert morphism_maps(fast) == morphism_maps(slow), require
        assert fast == slow


def test_enumeration_checks_run_at_the_call():
    s = io_system([("x1", "y1"), ("x2", "y2")])
    big = io_system([(f"x{i}", 0) for i in range(9)], ys=[0])
    with pytest.raises(CapExceeded):
        enumerate_morphisms(big, big)
    with pytest.raises(ValidationError, match="'onto'"):
        enumerate_morphisms(s, s, require=("surjective", "onto"))
