"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter

import numpy as np

from transferlab.errors import (
    CapExceeded,
    EmptyDataset,
    IncompatibleCarriers,
    SupportMismatch,
    UnknownElement,
    ValidationError,
)
from transferlab.learning import (
    AlgorithmSpec,
    AxiomReport,
    Dataset,
    HypothesisClass,
    LearningSystem,
    LossSpec,
    SystemPack,
    fit,
    full_function_class,
)
from transferlab.measures import ConditionalMeasure, EmpiricalMeasure
from transferlab.relations import (
    FiniteSet,
    FiniteSystem,
    GoalSeekingSpec,
    GoalSeekReport,
    GoalSeekViolation,
    Morphism,
    cascade,
)
from transferlab.structural import _set_partitions, _structure_system
from transferlab.transfer import latent_dataset, pool_data, transfer_fit


def io_system(pairs, x_name="X", y_name="Y", xs=None, ys=None) -> FiniteSystem:
    """A 2-component input-output relation from explicit pairs."""
    if xs is None:
        xs = []
        for x, _ in pairs:
            if x not in xs:
                xs.append(x)
    if ys is None:
        ys = []
        for _, y in pairs:
            if y not in ys:
                ys.append(y)
    return FiniteSystem(
        (FiniteSet(x_name, tuple(xs)), FiniteSet(y_name, tuple(ys))),
        tuple(pairs),
        ((0,), (1,)),
    )


def random_io_system(rng: np.random.Generator, nx: int, ny: int, name="s") -> FiniteSystem:
    xs = tuple(f"{name}x{i}" for i in range(nx))
    ys = tuple(range(ny))
    pairs = [
        (x, y) for x in xs for y in ys if rng.random() < 0.5
    ]
    if not pairs:
        pairs = [(xs[0], ys[0])]
    return io_system(pairs, f"{name}_x", f"{name}_y", xs, ys)


def binary_pack(truths, marginal=None, data=(), tag="pack", y_elements=(0, 1)):
    xs = tuple(truths.keys())
    x_set = FiniteSet(f"{tag}_x", xs)
    y_set = FiniteSet(f"{tag}_y", y_elements)
    system = LearningSystem(x_set, y_set, full_function_class(x_set, y_set))
    marginal = EmpiricalMeasure(
        x_set, marginal or tuple(1 / len(xs) for _ in xs)
    )
    rows = {}
    for x in xs:
        probs = [0.0] * len(y_set)
        probs[y_set.index(truths[x])] = 1.0
        rows[x] = EmpiricalMeasure(y_set, tuple(probs))
    return SystemPack(
        system, Dataset(tuple(data), tag), marginal,
        ConditionalMeasure(x_set, rows), truths, tag,
    )


def table_class(theta_set: FiniteSet, table) -> HypothesisClass:
    """The class whose cells are ``table``, a total ``(θ, x) → y`` mapping.

    Columns are the mapping's inputs and rows its parameters, each in
    first-seen order; a cell the mapping leaves out raises ``KeyError``.
    """
    columns = tuple(dict.fromkeys(x for _, x in table))
    thetas = dict.fromkeys(theta for theta, _ in table)
    return HypothesisClass(theta_set, columns, {t: [table[t, x] for x in columns] for t in thetas})


def random_learning_system(
    rng: np.random.Generator,
    max_x: int = 6,
    max_y: int = 6,
    max_theta: int = 6,
    loss_kind: str = "zero_one",
) -> LearningSystem:
    nx = int(rng.integers(1, max_x + 1))
    ny = int(rng.integers(2, max_y + 1))
    nt = int(rng.integers(1, max_theta + 1))
    x_set = FiniteSet("X", tuple(f"x{i}" for i in range(nx)))
    y_set = FiniteSet("Y", tuple(range(ny)))
    thetas = FiniteSet("T", tuple(f"t{i}" for i in range(nt)))
    table = {
        (t, x): int(rng.integers(ny)) for t in thetas.elements for x in x_set.elements
    }
    return LearningSystem(
        x_set, y_set, table_class(thetas, table), LossSpec(loss_kind), AlgorithmSpec()
    )


def random_dataset(rng: np.random.Generator, system: LearningSystem, n: int, tag="d") -> Dataset:
    xs = system.x_set.elements
    ys = system.y_set.elements
    pairs = tuple(
        (xs[int(rng.integers(len(xs)))], ys[int(rng.integers(len(ys)))]) for _ in range(n)
    )
    return Dataset(pairs, tag)


# -- scalar oracle --------------------------------------------------------------
# One θ at a time, the way the objective was first written: the dense core
# in transferlab.learning must reproduce these values bit for bit.

def pair_counts(pairs):
    counts = {}
    for p in pairs:
        counts[p] = counts.get(p, 0) + 1
    return counts


def scalar_risk(data, theta, system):
    """Mean loss of one hypothesis, summed with ``math.fsum`` over distinct pairs."""
    if len(data) == 0:
        raise EmptyDataset("empirical risk needs at least one pair")
    loss = system.loss.loss
    h = system.hypotheses.output
    total = math.fsum(c * loss(y, h(theta, x)) for (x, y), c in pair_counts(data.pairs).items())
    return total / len(data)


def output_distance(system, theta, anchor):
    """Normalized Hamming distance between two hypotheses' output vectors."""
    xs = system.x_set.elements
    h = system.hypotheses.output
    differing = sum(1 for x in xs if h(theta, x) != h(anchor, x))
    return differing / len(xs)


def selection_objective(data, theta, system):
    """The quantity the system's algorithm minimizes for this data."""
    algo = system.algorithm
    if algo.kind == "erm":
        return scalar_risk(data, theta, system)
    penalty = algo.weight * output_distance(system, theta, algo.anchor)
    if len(data) == 0:
        return penalty
    return scalar_risk(data, theta, system) + penalty


def _weighted_pool_objective(ts, target_data, theta):
    loss = ts.target.loss.loss
    h = ts.system_tr.hypotheses.output
    w = ts.pool_weight
    counts_t = pair_counts(target_data.pairs)
    counts_s = pair_counts(ts.knowledge.instances.pairs)
    num = math.fsum(c * loss(y, h(theta, x)) for (x, y), c in counts_t.items()) + w * math.fsum(
        c * loss(y, h(theta, x)) for (x, y), c in counts_s.items()
    )
    return num / (len(target_data) + w * len(ts.knowledge.instances))


def transfer_objective(ts, target_data, theta):
    """The quantity the transfer rule minimizes over its parameter set."""
    system = ts.system_tr
    if ts.approach in ("instance", "instance_parameter"):
        pooled = pool_data(ts.knowledge, target_data, ts.target)
        if len(pooled) == 0:
            raise EmptyDataset("pooled transfer needs data")
        value = _weighted_pool_objective(ts, target_data, theta)
        if ts.approach == "instance":
            return value
        return value + ts.penalty_weight * output_distance(
            system, theta, ts.knowledge.parameters[0]
        )
    if ts.approach == "parameter":
        penalty = ts.penalty_weight * output_distance(system, theta, ts.knowledge.parameters[0])
        if len(target_data) == 0:
            return penalty
        return scalar_risk(target_data, theta, system) + penalty
    data = latent_dataset(ts, target_data)
    if len(data) == 0:
        raise EmptyDataset("feature-representation transfer needs mapped data")
    return scalar_risk(data, theta, ts.latent.latent_system)


# The dense core as first vectorized, one |Θ|×|X| gather or comparison
# reduced along each row: the per-label products in transferlab.learning
# must give the same zero-one totals and anchor distances.

def gather_loss_totals(codes, counts):
    """Zero-one error counts of every row θ of ``codes`` on the count table ``C[x, y]``."""
    hits = counts[np.arange(codes.shape[1]), codes].sum(axis=1)
    return (counts.sum() - hits).astype(np.float64)


def gather_anchor_distance(codes, anchor):
    """How many inputs each row θ of ``codes`` differs on from row ``anchor``."""
    return (codes != codes[anchor]).sum(axis=1)


def scalar_argmin(thetas, objective):
    """The first θ in canonical order with the least objective value."""
    best_theta, best_value = None, math.inf
    for theta in thetas:
        value = objective(theta)
        if value < best_value:
            best_theta, best_value = theta, value
    return best_theta


# -- dict-backed hypothesis table oracle ------------------------------------------
# The hypothesis class as first written, one dict entry per (θ, x) cell, and
# its encoding one cell at a time: the code-matrix HypothesisClass, its
# closed-form full classes and the feature rule's relabelled latent codes
# must give the same cells, outputs, codes and errors.

class DictHypothesisClass:
    """``HypothesisClass(theta_set, columns, rows)`` as one dict entry per (θ, x) cell."""

    def __init__(self, theta_set, columns, rows):
        self.theta_set = theta_set
        self.table = {(t, x): y for t in theta_set.elements for x, y in zip(columns, rows[t])}

    def output(self, theta, x):
        try:
            return self.table[(theta, x)]
        except KeyError:
            raise UnknownElement(f"hypothesis table has no entry for {(theta, x)!r}") from None

    def encode(self, x_set, y_set):
        return scalar_encode(self.theta_set, self.table, x_set, y_set)


def scalar_encode(theta_set, table, x_set, y_set) -> np.ndarray:
    """``H[θ, x]`` of a ``(θ, x) → y`` mapping, one cell at a time, θ and x canonical.

    The oracle of ``HypothesisClass.encode`` and ``LearningSystem.codes``:
    each cell's output is looked up in ``y_set``.  The table must be
    total on Θ × X with every output in ``y_set``; the first cell in
    canonical order that is not raises (an unhashable output raises the
    ``TypeError`` of the membership test).
    """
    flat = []
    for key in itertools.product(theta_set.elements, x_set.elements):
        if key not in table:
            raise ValidationError(f"hypothesis table is not total: missing {key!r}")
        if (y := table[key]) not in y_set:
            raise UnknownElement(f"hypothesis output {y!r} not in set {y_set.name!r}")
        flat.append(y_set.index(y))
    dtype = np.min_scalar_type(len(y_set) - 1)
    return np.array(flat, dtype=dtype).reshape(len(theta_set), len(x_set))


def scalar_composite_codes(ts) -> np.ndarray:
    """The feature rule's transfer table over the target's sets, relabelled one cell at a time.

    The oracle of ``ts.system_tr.codes``: each latent hypothesis is read
    at the input map's image of each target input, and its output is
    relabelled by the output map.
    """
    thetas, xs = ts.latent.latent_system.theta_set, ts.target.x_set
    table = {
        (theta, x): latent_path_prediction(ts, theta, x)
        for theta in thetas.elements
        for x in xs.elements
    }
    return scalar_encode(thetas, table, xs, ts.target.y_set)


# -- scalar morphism enumeration oracle --------------------------------------------
# Every x-map, then every allowed y-map, each built as a Morphism and kept when
# its joint properties carry the required flags: transferlab.relations'
# lazy enumeration must yield the same morphisms in the same order.

def scalar_enumerate_morphisms(system, system_prime, require=None, cap=8, reflect=False):
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

    by_y_related = {y: [] for y in ys}
    for x, y in system.io_pairs():
        by_y_related[y].append(x)
    xs_list = list(xs)

    found = []
    for image in itertools.product(xps, repeat=len(xs_list)):
        x_map = dict(zip(xs_list, image))
        allowed = []
        feasible = True
        for y in ys:
            options = set(yps)
            for x in by_y_related[y]:
                options &= {yp for yp in yps if system_prime.relates(x_map[x], yp)}
                if not options:
                    break
            if reflect:
                for x in xs_list:
                    if not system.relates(x, y):
                        options -= {yp for yp in yps if system_prime.relates(x_map[x], yp)}
                    if not options:
                        break
            if not options:
                feasible = False
                break
            allowed.append(tuple(yp for yp in yps if yp in options))
        if not feasible:
            continue
        for y_image in itertools.product(*allowed):
            morphism = Morphism(x_map, dict(zip(ys, y_image)), xs, ys, xps, yps)
            joint = morphism.joint_properties()
            if all(getattr(joint, flag) for flag in required):
                found.append(morphism)
    return tuple(found)


# -- brute-force structure search oracle ---------------------------------------------
# The shared-structure search as first written: every partition pair, none skipped,
# labeled canonically by trying all n_x!·n_y! block relabelings, and each candidate's
# first valid witness picked out of the full scalar enumeration.

def scalar_canonical_structure(n_x, n_y, relation):
    """The least ``(relabeled relation, perm_x, perm_y)`` over every block relabeling."""
    best = None
    for perm_x in itertools.permutations(range(n_x)):
        for perm_y in itertools.permutations(range(n_y)):
            relabeled = tuple(sorted((perm_x[a], perm_y[b]) for a, b in relation))
            key = (relabeled, perm_x, perm_y)
            if best is None or key < best:
                best = key
    relabeled, perm_x, perm_y = best
    return n_x, n_y, relabeled, perm_x, perm_y


def _scalar_quotient_structures(system, size_bound):
    xs, ys = system.x_values(), system.y_values()
    pairs = system.io_pairs()
    out = {}
    for part_x in _set_partitions(xs, size_bound):
        block_x = {el: i for i, blk in enumerate(part_x) for el in blk}
        for part_y in _set_partitions(ys, size_bound):
            block_y = {el: i for i, blk in enumerate(part_y) for el in blk}
            relation = frozenset((block_x[x], block_y[y]) for x, y in pairs)
            n_x, n_y, canon, perm_x, perm_y = scalar_canonical_structure(
                len(part_x), len(part_y), relation
            )
            out.setdefault(
                (n_x, n_y, canon),
                (
                    {el: f"u{perm_x[block_x[el]]}" for el in xs},
                    {el: f"w{perm_y[block_y[el]]}" for el in ys},
                ),
            )
    return out


def scalar_structure_search(source, target, target_y, size_bound):
    """``(candidates, valid)`` as plain values.

    ``candidates`` lists ``(key, source maps, target maps)`` in key order;
    ``valid`` lists ``(candidate index, witness x_map, witness y_map,
    output_map)``.
    """
    from_source = _scalar_quotient_structures(source, size_bound)
    from_target = _scalar_quotient_structures(target, size_bound)
    keys = sorted(from_source.keys() & from_target.keys())
    candidates = [(key, from_source[key], from_target[key]) for key in keys]

    used_outputs = {y for _, y in target.io_pairs()}
    valid = []
    for idx, key in enumerate(keys):
        latent = _structure_system(key)[2]
        for witness in scalar_enumerate_morphisms(target, latent, require=("surjective",)):
            images = {}
            if all(images.setdefault(witness.y_map[y], y) == y for y in used_outputs):
                output_map = {
                    w: images.get(w, target_y.elements[0]) for w in latent.y_values()
                }
                valid.append((idx, witness.x_map, witness.y_map, output_map))
                break
    return candidates, valid


# -- scalar axiom-audit oracle -----------------------------------------------------
# The decomposition and goal-seeking checks as first written: the full
# |Θ|·|X| functional relation built one output() call per cell, and every
# carrier point of the inductive relation visited one by one.  The
# set-based checks in transferlab must give the same reports and raise
# the same exceptions.

def scalar_check_goal_seeking(sf, sg, gs, system=None) -> GoalSeekReport:
    if len(sg.output_indices) != 1:
        raise IncompatibleCarriers("the inductive relation must output one parameter")
    theta_index = sg.output_indices[0]
    theta_set = sg.components[theta_index]
    base_components = sg.input_components

    violations = []
    checked = 0
    for base in itertools.product(*(c.elements for c in base_components)):
        for theta in theta_set.elements:
            checked += 1
            key = base + (theta,)
            if key not in gs.goal:
                violations.append(GoalSeekViolation("goal_not_total", key))
                continue
            value = gs.goal[key]
            if value not in gs.value_set:
                violations.append(GoalSeekViolation("goal_value", key))
                continue
            in_sg = key in sg.tuple_set
            in_seek = base + (value, theta) in gs.seek
            if in_sg and not in_seek:
                violations.append(GoalSeekViolation("seek_missing", key))
            elif in_seek and not in_sg:
                violations.append(GoalSeekViolation("seek_extra", key))

    if sf is not None and system is not None:
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


def scalar_verify_decomposition(
    system, datasets, select_fn, objective_fn, functional_system=None, inductive_system=None,
) -> AxiomReport:
    x_set, y_set, theta_set = system.x_set, system.y_set, system.theta_set
    output_fn = system.hypotheses.output
    if not datasets:
        raise EmptyDataset("axiom verification needs at least one sampled dataset")
    names = tuple(f"d{i}" for i in range(len(datasets)))
    selected = {name: select_fn(d) for name, d in zip(names, datasets)}
    derived = FiniteSystem(
        (FiniteSet("datasets", names), theta_set), tuple(selected.items()), ((0,), (1,))
    )
    goal = {
        (name, theta): value
        for name, d in zip(names, datasets)
        for theta, value in zip(theta_set.elements, objective_fn(d).tolist())
    }
    gs = GoalSeekingSpec(
        FiniteSet("objective_values", tuple(dict.fromkeys(goal.values()))),
        goal,
        frozenset((name, goal[(name, theta)], theta) for name, theta in selected.items()),
    )
    if inductive_system is None:
        inductive_system = derived
    if functional_system is None:
        functional_system = FiniteSystem(
            (theta_set, x_set, y_set),
            tuple(
                (theta, x, output_fn(theta, x))
                for theta in theta_set.elements
                for x in x_set.elements
            ),
            ((0, 1), (2,)),
        )

    composed = cascade(inductive_system, functional_system, (1, 0))
    direct = frozenset(
        (name, x, output_fn(chosen, x))
        for name, chosen in selected.items()
        for x in x_set.elements
    )
    cascade_violations = tuple(sorted(direct.symmetric_difference(composed.tuple_set), key=repr))
    seeking = scalar_check_goal_seeking(None, inductive_system, gs)

    optimality = []
    for (name, chosen), d in zip(selected.items(), datasets):
        chosen_value = gs.goal[(name, chosen)]
        for theta in theta_set.elements:
            if gs.goal[(name, theta)] < chosen_value:
                optimality.append((name, theta))
        if select_fn(d) != chosen:
            optimality.append((name, "nondeterministic"))

    return AxiomReport(cascade_violations, seeking, tuple(optimality), tuple(selected))


def scalar_learning_axioms(system, datasets, **overrides) -> AxiomReport:
    """:func:`transferlab.learning.verify_learning_axioms`, scalar."""
    return scalar_verify_decomposition(
        system, datasets, lambda d: fit(d, system)[0], lambda d: fit(d, system)[1], **overrides
    )


def scalar_transfer_axioms(ts, datasets, **overrides) -> AxiomReport:
    """:func:`transferlab.transfer.verify_transfer_is_learning_system`, scalar."""
    return scalar_verify_decomposition(
        ts.system_tr, datasets, lambda d: transfer_fit(ts, d)[0], lambda d: transfer_fit(ts, d)[1],
        **overrides,
    )


# -- roughness and estimation oracles ------------------------------------------------
# transferlab.structural decides minimality by counting relation pairs and
# transferlab.measures counts every marginal through one path; these are the
# direct versions they replaced.

def scalar_is_isomorphism(m, source, target) -> bool:
    """A total bijective preserving morphism whose inverse preserves too."""
    joint = m.joint_properties()
    if not (joint.total and joint.invertible):
        return False
    if not m.preserves(source, target):
        return False
    inverse = Morphism(
        {v: k for k, v in m.x_map.items()},
        {v: k for k, v in m.y_map.items()},
        m.target_x,
        m.target_y,
        m.source_x,
        m.source_y,
    )
    return inverse.preserves(target, source)


def scalar_estimate_measure(pairs, over, smoothing=0.0, support=None) -> EmpiricalMeasure:
    """``estimate_measure`` over ``x``, ``y`` or ``xy``, from a ``Counter`` of projections."""
    keys = [{"x": x, "y": y, "xy": (x, y)}[over] for x, y in pairs]
    counts = Counter(keys)
    if support is None:
        support = FiniteSet(over, tuple(sorted(counts, key=keys.index)))
    elif over == "xy" and not isinstance(support, FiniteSet):
        sx, sy = support
        support = FiniteSet(f"{sx.name}*{sy.name}", tuple(itertools.product(sx, sy)))
    total = sum(counts.values()) + len(support) * smoothing
    return EmpiricalMeasure(
        support, tuple((counts[el] + smoothing) / total for el in support.elements)
    )


def scalar_mmd(p: EmpiricalMeasure, q: EmpiricalMeasure) -> float:
    """MMD under the exact-match kernel, as the double sum over support pairs.

    Cells where the measures agree add nothing and are skipped; the rest
    add ``(p_a - q_a)(p_b - q_b) k(a, b)`` with ``k(a, b) = 1`` iff ``a == b``.
    """
    elements = p.support.elements
    diff = [pi - q.prob(el) for el, pi in zip(elements, p.probs)]
    acc = 0.0
    for i, a in enumerate(elements):
        if diff[i] == 0:
            continue
        for j, b in enumerate(elements):
            if diff[j] == 0:
                continue
            acc += diff[i] * diff[j] * (1.0 if a == b else 0.0)
    return math.sqrt(max(acc, 0.0))


# -- test-side views and oracles -----------------------------------------------------
# Only tests need these: a hypothesis class as a (θ, x) → y mapping, the inductive
# relation with its goal/seeking pair, the latent route a feature-representation
# prediction must agree with, and which divergences are metrics.

#: Which divergence kinds are metrics on the simplex (symmetry, identity
#: of indiscernibles, triangle inequality).  KL is a divergence only.
DIVERGENCE_IS_METRIC = {
    "tv": True,
    "hellinger": True,
    "w1": True,
    "mmd": True,
    "kl": False,
}


def rows_over(hc: HypothesisClass, xs) -> list[list]:
    """Each θ's outputs over ``xs``, θ canonical, decoded cell by cell.

    The former ``HypothesisClass.rows_over``: ``KeyError`` names the first
    ``x`` outside the columns.
    """
    position = {x: j for j, x in enumerate(hc.columns)}
    picks = [position[x] for x in xs]
    return [[row[j] for j in picks] for row in hc.rows.values()]


def scalar_table_json(system, indent) -> str:
    """A learning block's ``table`` as the writer laid it out before it read codes.

    ``{θ: outputs over X}`` decoded with :func:`rows_over`, then encoded
    cell by cell by the stdlib: compact with ``indent`` ``None`` (the
    digest's form), else with that indent.  ``system`` needs only
    ``theta_set``, ``x_set`` and ``hypotheses``.
    """
    table = dict(zip(system.theta_set.elements, rows_over(system.hypotheses, system.x_set.elements)))
    if indent is None:
        return json.dumps(table, sort_keys=True, separators=(",", ":"))
    return json.dumps(table, sort_keys=True, indent=indent)


def hypothesis_table(hc: HypothesisClass) -> dict:
    """The cells of ``hc`` as a ``(θ, x) → y`` mapping."""
    return {(t, x): y for t, row in hc.rows.items() for x, y in zip(hc.columns, row)}


def as_goal_seeking(system, sample_datasets) -> tuple[FiniteSystem, GoalSeekingSpec]:
    """The inductive relation and the goal/seeking pair the axiom audit checks without building.

    Dataset atoms form the base carrier, the goal assigns each (data,
    parameter) its selection objective, and seeking holds exactly the
    selections the algorithm makes.
    """
    fits = [fit(d, system) for d in sample_datasets]
    names = tuple(f"d{i}" for i in range(len(fits)))
    selected = {name: theta for name, (theta, _) in zip(names, fits)}
    inductive = FiniteSystem(
        (FiniteSet("datasets", names), system.theta_set),
        tuple(selected.items()),
        ((0,), (1,)),
    )
    goal = dict(zip(
        itertools.product(names, system.theta_set.elements),
        itertools.chain.from_iterable(values.tolist() for _, values in fits),
    ))
    gs = GoalSeekingSpec(
        FiniteSet("objective_values", tuple(dict.fromkeys(goal.values()))),
        goal,
        frozenset((name, goal[(name, theta)], theta) for name, theta in selected.items()),
    )
    return inductive, gs


def scalar_prediction_error(predict, ctx, loss, x_set, weight=None):
    """Expected loss of an arbitrary predictor against a context, one input or pair at a time.

    The oracle of :func:`transferlab.learning.generalization_error`: in
    truth-table mode the expectation runs over ``x_set``, uniformly
    unless ``weight`` supplies a measure on it; in hold-out mode it is
    the mean loss over the held-out pairs and ``weight`` is ignored.
    """
    if isinstance(ctx.truth, Dataset):
        pairs = ctx.truth.pairs
        if not pairs:
            raise EmptyDataset("hold-out evaluation needs at least one pair")
        return math.fsum(loss.loss(y, predict(x)) for x, y in pairs) / len(pairs)
    xs = x_set.elements
    for x in xs:
        if x not in ctx.truth:
            raise ValidationError(f"truth table undefined on {x!r}")
    if weight is None:
        w = {x: 1.0 / len(xs) for x in xs}
    else:
        if frozenset(weight.support.elements) != frozenset(xs):
            raise SupportMismatch("weight measure must live on the evaluated inputs")
        w = weight.as_dict()
    return math.fsum(w[x] * loss.loss(ctx.truth[x], predict(x)) for x in xs)


def latent_path_prediction(ts, theta, x):
    """Predict through the latent maps: input map, latent hypothesis, output map."""
    lat = ts.latent
    latent_y = lat.latent_system.hypotheses.output(theta, lat.input_map[x])
    return lat.output_map[latent_y]
