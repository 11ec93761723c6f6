"""Spans around calls into maxcomplex's public functions, and layer metrics.

The tracer wraps functions from the benchmark's side (no code under src/
changes): every binding of a wrapped function in a loaded maxcomplex module
is replaced, so calls between modules are recorded as nested spans too.
A span records its name, start, end, parent span and task id; a layer's
self time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "core.ctor_s": "s", "core.ctor_cells": "count", "core.mask_s": "s",
    "minauto.complexity_s": "s", "minauto.residuals": "count",
    "minauto.slices": "count", "minauto.dedupe_ratio": "ratio",
    "minauto.pdfa_s": "s", "minauto.pdfa_states": "count",
    "minauto.dot_s": "s", "minauto.dot_bytes": "B",
    "minauto.oracle_s": "s", "minauto.oracle_classes": "count",
    "bounds.eval_s": "s", "bounds.cp_family_s": "s",
    "witness.construct_s": "s", "witness.cells": "count",
    "counting.count_s": "s", "counting.result_bits": "count",
    "lattice.enum_s": "s", "lattice.functions_enumerated": "count",
    "lattice.poset_s": "s", "lattice.poset_pairs": "count",
    "lattice.search_s": "s", "lattice.search_nodes": "count",
    "lattice.nodes_per_s": "1/s", "lattice.search_found": "count",
    "lattice.search_none": "count", "lattice.search_exhausted": "count",
    "lattice.certify_s": "s", "lattice.certificates": "count",
    "csg.enum_s": "s", "csg.games_enumerated": "count",
    "csg.early_enumerated": "count", "csg.poset_s": "s", "csg.poset_pairs": "count",
    "csg.search_s": "s", "csg.search_nodes": "count", "csg.nodes_per_s": "1/s",
    "csg.witness_s": "s",
    "cli.parse_s": "s", "cli.parse_bytes": "B", "cli.format_s": "s",
    "cli.format_bytes": "B", "cli.process_overhead_ms": "ms",
    "cache.hits": "count", "cache.misses": "count", "cache.hit_ratio": "ratio",
    "cache.load_s": "s", "cache.store_s": "s",
}


def _once(counter, measure):
    """Count each distinct result object once: cached results are not new work."""
    def count(tracer, args, result, outer):
        if outer and id(result) not in tracer.seen:
            tracer.seen[id(result)] = result  # kept alive so the id stays unique
            tracer.counts[counter] += measure(result)
    return count


def _pairs(poset):
    return sum(bin(row).count("1") for row in poset.rows)


def _search(prefix):
    def count(tracer, args, result, outer):
        tracer.counts[f"{prefix}.search_nodes"] += result.nodes
        if prefix == "lattice":
            tracer.counts[f"lattice.search_{result.status}"] += 1
    return count


def _states(tracer, args, result, outer):
    """Every call builds its residuals anew, the one inside state_complexity too."""
    b = args[0].b
    tracer.counts["minauto.residuals"] += sum(result)
    tracer.counts["minauto.slices"] += sum(result[:-1]) * b


def _cache_load(tracer, args, result, outer):
    tracer.counts["cache.hits" if result is not None else "cache.misses"] += 1


def _add(counter, measure):
    def count(tracer, args, result, outer):
        tracer.counts[counter] += measure(args, result)
    return count


# (module, attribute, layer time metric, counter hook).  "Class.attr" wraps
# a method, classmethod or property on the class itself.
TARGETS = [
    ("core", "ColoredFunction.__init__", "core.ctor_s",
     _add("core.ctor_cells", lambda a, r: len(a[0].table))),
    ("core", "ColoredFunction.from_values", "core.ctor_s", None),
    ("core", "ColoredFunction.from_words", "core.ctor_s", None),
    ("core", "ColoredFunction.from_language", "core.ctor_s", None),
    ("core", "ColoredFunction.from_mask", "core.mask_s", None),
    ("core", "ColoredFunction.mask", "core.mask_s", None),
    ("core", "MonotoneFunction.__init__", "core.mask_s", None),
    ("core", "is_monotone", "core.mask_s", None),
    ("core", "is_early", "core.mask_s", None),
    ("minauto", "states_by_depth", "minauto.complexity_s", _states),
    ("minauto", "state_complexity", "minauto.complexity_s", None),
    ("minauto", "minimal_pdfa", "minauto.pdfa_s",
     _add("minauto.pdfa_states", lambda a, r: r.state_count)),
    ("minauto", "export_dot", "minauto.dot_s",
     _add("minauto.dot_bytes", lambda a, r: len(r.encode()))),
    ("minauto", "mn_class_count", "minauto.oracle_s",
     _add("minauto.oracle_classes", lambda a, r: r)),
    ("minauto", "mn_classes", "minauto.oracle_s", None),
    ("bounds", "general_bound", "bounds.eval_s", None),
    ("bounds", "complete_dfa_bound", "bounds.eval_s", None),
    ("bounds", "family_bound", "bounds.eval_s", None),
    ("bounds", "monotone_bound", "bounds.eval_s", None),
    ("bounds", "csg_bound", "bounds.eval_s", None),
    ("bounds", "cp_family", "bounds.cp_family_s", None),
    ("witness", "construct_maximal", "witness.construct_s",
     _add("witness.cells", lambda a, r: len(r.table))),
    ("witness", "nonzero_functions", "witness.construct_s", None),
    ("witness", "crossover", "witness.construct_s", None),
    ("counting", "count_max", "counting.count_s",
     _add("counting.result_bits", lambda a, r: r[1].bit_length())),
    ("counting", "o_i", "counting.count_s", None),
    ("counting", "onto_count", "counting.count_s", None),
    ("counting", "onto_first_count", "counting.count_s", None),
    ("counting", "stirling2", "counting.count_s", None),
    ("lattice", "enumerate_monotone", "lattice.enum_s",
     _once("lattice.functions_enumerated", len)),
    ("lattice", "boolean_cube", "lattice.poset_s", _once("lattice.poset_pairs", _pairs)),
    ("lattice", "monotone_nonzero_poset", "lattice.poset_s",
     _once("lattice.poset_pairs", _pairs)),
    ("lattice", "search_relation", "lattice.search_s", _search("lattice")),
    ("lattice", "check_relation", "lattice.certify_s",
     _add("lattice.certificates", lambda a, r: 1)),
    ("lattice", "verify_certificate", "lattice.certify_s", None),
    ("lattice", "format_certificate", "lattice.certify_s", None),
    ("lattice", "parse_certificate", "lattice.certify_s", None),
    ("csg", "enumerate_csg", "csg.enum_s", _once("csg.games_enumerated", len)),
    ("csg", "enumerate_early", "csg.enum_s", _once("csg.early_enumerated", len)),
    ("csg", "majorization_poset", "csg.poset_s", _once("csg.poset_pairs", _pairs)),
    ("csg", "csg_nonzero_poset", "csg.poset_s", _once("csg.poset_pairs", _pairs)),
    ("csg", "search_csg_relation", "csg.search_s", _search("csg")),
    ("csg", "build_csg_witness", "csg.witness_s", None),
    ("csg", "check_csg_relation", "lattice.certify_s",
     _add("lattice.certificates", lambda a, r: 1)),
    ("cli", "parse_language_file", "cli.parse_s",
     _add("cli.parse_bytes", lambda a, r: len(a[0].encode()))),
    ("cli", "format_language_file", "cli.format_s",
     _add("cli.format_bytes", lambda a, r: len(r.encode()))),
    ("cache", "DiskCache.load", "cache.load_s", _cache_load),
    ("cache", "DiskCache.store", "cache.store_s", None),
]


class Tracer:
    """In-memory span recorder; `install` wraps the TARGETS once per process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, task]
        self.stack: list[int] = []
        self.task = "setup"
        self.counts: Counter = Counter()
        self.seen: dict[int, object] = {}

    def _wrap(self, fn, name, layer, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = all(tracer.spans[s][1] != layer for s in tracer.stack)
            record = [name, layer, time.perf_counter(), None,
                      tracer.stack[-1] if tracer.stack else None, tracer.task]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(tracer, args, result, outer)
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "maxcomplex" or key.startswith("maxcomplex.")]
        for mod_name, attr, layer, hook in TARGETS:
            module = sys.modules[f"maxcomplex.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[member]
                if isinstance(raw, property):
                    setattr(cls, member, property(self._wrap(raw.fget, name, layer, hook)))
                elif isinstance(raw, classmethod):
                    setattr(cls, member, classmethod(self._wrap(raw.__func__, name, layer, hook)))
                else:
                    setattr(cls, member, self._wrap(raw, name, layer, hook))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, layer, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def self_times(self) -> Counter:
        """Seconds per layer metric, each span minus its children's time."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, task in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for idx, (name, layer, start, end, parent, task) in enumerate(self.spans):
            out[layer] += (end - start) - child[idx]
        return out

    def layer_metrics(self) -> dict:
        """Every LAYER_METRICS entry except the process-level overhead."""
        values = {key: 0 for key in LAYER_METRICS}
        values.update(self.self_times())
        values.update(self.counts)
        values["minauto.dedupe_ratio"] = _ratio(values["minauto.residuals"],
                                                values["minauto.slices"])
        for prefix in ("lattice", "csg"):
            values[f"{prefix}.nodes_per_s"] = _ratio(values[f"{prefix}.search_nodes"],
                                                     values[f"{prefix}.search_s"])
        values["cache.hit_ratio"] = _ratio(values["cache.hits"],
                                           values["cache.hits"] + values["cache.misses"])
        values.pop("cli.process_overhead_ms")
        return values


def _ratio(num, den) -> float:
    return num / den if den else 0.0
