"""Spans around calls into transferlab's public functions, installed from outside.

The tracer replaces each function listed in ``WRAPPED`` by a wrapper, in
the module that defines it and in every transferlab module (and the
package itself) that imported it by name, so a call reaches the wrapper
whichever binding it goes through.  Nothing under ``src/`` changes;
``uninstall`` puts the original objects back.

Only entry points are wrapped.  Helpers a module calls on its own
behalf -- the per-hypothesis ``empirical_risk`` and ``evaluate``, and
``pool_data``, ``latent_dataset``, ``total_variation``,
``parse_document``, ``document_dict`` and the like -- stay unwrapped,
so their time is self time of the entry point that called them.

Each wrapped call records a span (name, start, end, parent span, the op
it ran under) plus a few counts taken from its arguments and result.
Spans stay in memory; ``layer_metrics`` turns a list of them into the
per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import defaultdict

WRAPPED = {
    "relations": ("cascade", "check_goal_seeking", "enumerate_morphisms", "quotient"),
    "measures": ("divergence", "estimate_measure"),
    "learning": ("full_function_class", "run_algorithm", "verify_learning_axioms"),
    "transfer": ("run_transfer", "classify_setting", "verify_transfer_is_learning_system"),
    "structural": (
        "truth_graph",
        "transfer_roughness",
        "homomorphic_structures",
        "valid_structures",
        "useful_structures",
        "feature_runner",
        "structural_transferability",
    ),
    "behavioral": ("transfer_distance", "bound_check", "behavioral_transferability"),
    "evaluation": (
        "build_transfer_system",
        "detect_negative_transfer",
        "transferability",
        "is_generalist",
    ),
    "scenarios": ("generate_pair", "resample_pack", "shift_ladder"),
    "specio": ("load_document", "dump_document", "document_digest"),
    "cli": ("main",),
}

APPROACHES = ("instance", "parameter", "instance_parameter", "feature_representation")


class Span:
    __slots__ = ("name", "op", "start", "end", "parent", "attrs")

    def __init__(self, name, op, start, parent):
        self.name = name
        self.op = op
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = None


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _distinct_pairs(*pair_lists) -> int:
    seen = set()
    for pairs in pair_lists:
        seen.update(pairs)
    return len(seen)


def _partitions_up_to(n: int, blocks: int) -> int:
    """Set partitions of n items into at most ``blocks`` blocks (Stirling sums)."""
    row = [1]  # S(0, k)
    for i in range(1, n + 1):
        nxt = [0] * (i + 1)
        for k in range(1, i + 1):
            nxt[k] = k * (row[k] if k < len(row) else 0) + row[k - 1]
        row = nxt
    return sum(row[1 : min(n, blocks) + 1])


# Each hook returns the attributes recorded on the call's span.

def _run_algorithm_attrs(args, kwargs, result):
    data, system = _arg(args, kwargs, 0, "data"), _arg(args, kwargs, 1, "system")
    size = len(system.theta_set)
    return {
        "size": size,
        "erm": system.algorithm.kind == "erm",
        "hyp_cells": size * _distinct_pairs(data.pairs),
    }


def _run_transfer_attrs(args, kwargs, result):
    ts, data = _arg(args, kwargs, 0, "ts"), _arg(args, kwargs, 1, "target_data")
    size = len(ts.theta_tr_set)
    source = ts.knowledge.instances.pairs if ts.knowledge.instances is not None else ()
    if ts.approach == "parameter":
        cells = _distinct_pairs(data.pairs)
    elif ts.approach == "feature_representation":
        lat = ts.latent
        cells = _distinct_pairs(
            [lat.pair_map_target[p] for p in data.pairs],
            [lat.pair_map_source[p] for p in source],
        )
    else:
        cells = _distinct_pairs(data.pairs, source)
    return {"size": size, "approach": ts.approach, "hyp_cells": size * cells}


def _full_function_class_attrs(args, kwargs, result):
    x_set = _arg(args, kwargs, 0, "x_set")
    return {"table_entries": len(result.theta_set) * len(x_set)}


def _enumerate_morphisms_attrs(args, kwargs, result):
    system, prime = _arg(args, kwargs, 0, "system"), _arg(args, kwargs, 1, "system_prime")
    return {
        "x_maps_tried": len(prime.x_values()) ** len(system.x_values()),
        "kept": len(result),
    }


def _homomorphic_structures_attrs(args, kwargs, result):
    bound = _arg(args, kwargs, 2, "size_bound", 3)
    pairs = 0
    for system in (result.source_system, result.target_system):
        pairs += _partitions_up_to(len(system.x_values()), bound) * _partitions_up_to(
            len(system.y_values()), bound
        )
    return {"partition_pairs": pairs, "candidates": len(result.candidates)}


def _valid_structures_attrs(args, kwargs, result):
    return {"candidates_in": len(result.candidates), "valid": len(result.valid)}


def _useful_structures_attrs(args, kwargs, result):
    return {"valid_in": len(result.valid), "useful": len(result.useful)}


def _detect_negative_transfer_attrs(args, kwargs, result):
    return {"seeds": result.seeds}


def _load_document_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _dump_document_attrs(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


HOOKS = {
    "learning.run_algorithm": _run_algorithm_attrs,
    "learning.full_function_class": _full_function_class_attrs,
    "transfer.run_transfer": _run_transfer_attrs,
    "relations.enumerate_morphisms": _enumerate_morphisms_attrs,
    "structural.homomorphic_structures": _homomorphic_structures_attrs,
    "structural.valid_structures": _valid_structures_attrs,
    "structural.useful_structures": _useful_structures_attrs,
    "evaluation.detect_negative_transfer": _detect_negative_transfer_attrs,
    "specio.load_document": _load_document_attrs,
    "specio.dump_document": _dump_document_attrs,
}


class Tracer:
    """Records spans while installed; ``op`` names the op spans belong to."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.op, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                span.attrs = hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        homes = {short: importlib.import_module(f"transferlab.{short}") for short in WRAPPED}
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "transferlab" or key.startswith("transferlab."))
        ]
        for short, names in WRAPPED.items():
            for fname in names:
                original = getattr(homes[short], fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# -- per-layer metrics --------------------------------------------------------

def _self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part of it covered by direct child spans."""
    index = {id(s): i for i, s in enumerate(spans)}
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None and id(s.parent) in index:
            own[index[id(s.parent)]] -= s.end - s.start
    return own


def size_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(mean self time) against log(size).

    Zero when fewer than two distinct sizes took measurable time.
    """
    by_size: dict[int, list[float]] = defaultdict(list)
    for size, t in points:
        by_size[size].append(t)
    xs, ys = [], []
    for size, ts in sorted(by_size.items()):
        mean = sum(ts) / len(ts)
        if size > 0 and mean > 0:
            xs.append(math.log(size))
            ys.append(math.log(mean))
    if len(xs) < 2:
        return 0.0
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric name, unit) in the order they are reported.
LAYER_METRICS = [
    ("relations.enumerate_morphisms.calls", "count"),
    ("relations.enumerate_morphisms.self_s", "s"),
    ("relations.x_maps_tried", "count"),
    ("relations.morphisms_kept", "count"),
    ("relations.kept_ratio", "ratio"),
    ("relations.cascade.calls", "count"),
    ("relations.cascade.self_s", "s"),
    ("relations.check_goal_seeking.self_s", "s"),
    ("measures.divergence.calls", "count"),
    ("measures.divergence.self_s", "s"),
    ("measures.estimate_measure.self_s", "s"),
    ("learning.run_algorithm.calls", "count"),
    ("learning.run_algorithm.self_s", "s"),
    ("learning.hyp_cells", "count"),
    ("learning.ns_per_hyp_cell", "ns"),
    ("learning.erm.size_exp", "slope"),
    ("learning.full_function_class.calls", "count"),
    ("learning.full_function_class.self_s", "s"),
    ("learning.table_entries", "count"),
    ("learning.verify_learning_axioms.self_s", "s"),
    ("transfer.run_transfer.calls", "count"),
    ("transfer.run_transfer.self_s", "s"),
    ("transfer.hyp_cells", "count"),
    ("transfer.ns_per_hyp_cell", "ns"),
    *[(f"transfer.{a}.{k}", u) for a in APPROACHES for k, u in (("self_s", "s"), ("size_exp", "slope"))],
    ("structural.homomorphic_structures.calls", "count"),
    ("structural.homomorphic_structures.self_s", "s"),
    ("structural.partition_pairs", "count"),
    ("structural.candidates", "count"),
    ("structural.valid_structures.self_s", "s"),
    ("structural.valid_ratio", "ratio"),
    ("structural.useful_structures.self_s", "s"),
    ("structural.useful_ratio", "ratio"),
    ("structural.structural_transferability.self_s", "s"),
    ("behavioral.bound_check.calls", "count"),
    ("behavioral.bound_check.self_s", "s"),
    ("behavioral.transfer_distance.self_s", "s"),
    ("evaluation.detect_negative_transfer.calls", "count"),
    ("evaluation.detect_negative_transfer.self_s", "s"),
    ("evaluation.seeds_run", "count"),
    ("evaluation.transferability.self_s", "s"),
    ("evaluation.is_generalist.self_s", "s"),
    ("scenarios.generate_pair.calls", "count"),
    ("scenarios.generate_pair.self_s", "s"),
    ("scenarios.resample_pack.calls", "count"),
    ("scenarios.resample_pack.self_s", "s"),
    ("specio.load_document.calls", "count"),
    ("specio.load_document.self_s", "s"),
    ("specio.bytes_read", "B"),
    ("specio.parse_mb_per_s", "MB/s"),
    ("specio.dump_document.self_s", "s"),
    ("specio.bytes_written", "B"),
    ("specio.document_digest.calls", "count"),
    ("specio.document_digest.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers over a list of spans."""
    own = _self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    sums: dict[str, float] = defaultdict(float)
    sizes: dict[str, list[tuple[int, float]]] = defaultdict(list)
    for span, t in zip(spans, own):
        calls[span.name] += 1
        self_s[span.name] += t
        attrs = span.attrs
        if not attrs:
            continue
        for key, value in attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                sums[f"{span.name}:{key}"] += value
        if span.name == "learning.run_algorithm" and attrs["erm"]:
            sizes["erm"].append((attrs["size"], t))
        elif span.name == "transfer.run_transfer":
            approach = attrs["approach"]
            self_s[f"transfer.{approach}"] += t
            sizes[approach].append((attrs["size"], t))

    out: dict[str, float] = {}
    for name, _ in LAYER_METRICS:
        head, _, tail = name.rpartition(".")
        if tail == "calls":
            out[name] = calls[head]
        elif tail == "self_s":
            out[name] = self_s[head]
        elif tail == "size_exp":
            out[name] = size_exponent(sizes[head.split(".", 1)[1]])

    ra, rt = "learning.run_algorithm", "transfer.run_transfer"
    em, ld = "relations.enumerate_morphisms", "specio.load_document"
    out["relations.x_maps_tried"] = sums[f"{em}:x_maps_tried"]
    out["relations.morphisms_kept"] = sums[f"{em}:kept"]
    out["relations.kept_ratio"] = _ratio(sums[f"{em}:kept"], sums[f"{em}:x_maps_tried"])
    out["learning.hyp_cells"] = sums[f"{ra}:hyp_cells"]
    out["learning.ns_per_hyp_cell"] = _ratio(self_s[ra] * 1e9, sums[f"{ra}:hyp_cells"])
    out["learning.table_entries"] = sums["learning.full_function_class:table_entries"]
    out["transfer.hyp_cells"] = sums[f"{rt}:hyp_cells"]
    out["transfer.ns_per_hyp_cell"] = _ratio(self_s[rt] * 1e9, sums[f"{rt}:hyp_cells"])
    hs = "structural.homomorphic_structures"
    out["structural.partition_pairs"] = sums[f"{hs}:partition_pairs"]
    out["structural.candidates"] = sums[f"{hs}:candidates"]
    vs, us = "structural.valid_structures", "structural.useful_structures"
    out["structural.valid_ratio"] = _ratio(sums[f"{vs}:valid"], sums[f"{vs}:candidates_in"])
    out["structural.useful_ratio"] = _ratio(sums[f"{us}:useful"], sums[f"{us}:valid_in"])
    out["evaluation.seeds_run"] = sums["evaluation.detect_negative_transfer:seeds"]
    out["specio.bytes_read"] = sums[f"{ld}:bytes"]
    out["specio.parse_mb_per_s"] = _ratio(sums[f"{ld}:bytes"] / 1e6, self_s[ld])
    out["specio.bytes_written"] = sums["specio.dump_document:bytes"]
    return out
