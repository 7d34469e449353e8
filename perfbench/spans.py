"""Traced run: wrap the program's public functions where callers look them up.

Each entry of ``LAYERS`` names a function by its defining module and maps
it to a time metric.  ``Tracer.install`` replaces every reference to that
function in every package module (``cli``, ``counting``, ``colorings`` and
``export`` import names directly, so their namespaces hold references
too) with a wrapper that records a span.  A span's self time is its
duration minus the spans of the wrapped calls it made.  Work counters are
computed from arguments and return values after the span has ended, and
the time spent on them is charged to no layer.  A name that no longer
exists in its module is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

from workloads import smallest_period

PACKAGE = "quandlequiver"
MODULES = ("cli", "braids", "linalg", "colorings", "counting", "quandles", "quivers", "export")


def _max_bits(snf) -> int:
    return max(abs(x).bit_length() for m in (snf.left, snf.right) for row in m.data for x in row)


def _snf(c, args, kwargs, result):
    c["linalg.snf_calls"] += 1
    c["linalg.snf_coeff_bits"] = max(c["linalg.snf_coeff_bits"], _max_bits(result))


def _kernel(c, args, kwargs, result):
    c["linalg.kernel_vectors"] += len(result)


def _oracle(c, args, kwargs, result):
    word, quandle = args[0], args[1]
    states = quandle.size ** word.strands
    c["colorings.oracle_calls"] += 1
    c["colorings.oracle_states"] += states
    c["colorings.oracle_state_letters"] += states * len(word.letters)
    c["colorings.oracle_found"] += result.count
    if smallest_period(word.letters) < len(word.letters):
        c["colorings.oracle_periodic_states"] += states


def _cells(c, args, kwargs, result):
    c["counting.cells"] += len(result)


def _endos(c, args, kwargs, result):
    c["quandles.endos"] += len(result)


def _build(c, args, kwargs, result):
    coloring_set, endos = args[0], args[1]
    c["quivers.arrows"] += coloring_set.count * len(endos)
    c["quivers.edges"] += len(result.weight_triples())


def _iso(c, args, kwargs, result):
    c["quivers.iso_expansions"] += result.expansions
    c["quivers.iso_vertices"] += args[0].n_vertices


def _blocks(c, args, kwargs, result):
    c["quivers.blocks"] += len(result.blocks)


def _bytes(c, args, kwargs, result):
    c["export.bytes"] += len(result.encode("utf-8"))


# (defining module, function name) -> (time metric, work counter or None)
LAYERS = {
    ("cli", "main"): ("cli.self_s", None),
    ("braids", "parse_link"): ("braids.parse_s", None),
    ("braids", "closure_system"): ("braids.closure_s", None),
    ("braids", "torus_braid"): ("braids.torus_s", None),
    ("linalg", "smith_normal_form"): ("linalg.snf_s", _snf),
    ("linalg", "kernel_count_from_snf"): ("linalg.kernel_count_s", None),
    ("linalg", "kernel_enumerate_mod"): ("linalg.kernel_enum_s", _kernel),
    ("colorings", "enumerate_colorings_oracle"): ("colorings.oracle_s", _oracle),
    ("colorings", "enumerate_colorings_linear"): ("colorings.linear_self_s", None),
    ("counting", "verify_counts"): ("counting.verify_self_s", _cells),
    ("counting", "predict_count"): ("counting.predict_s", None),
    ("counting", "is_odd_prime"): ("counting.prime_s", None),
    ("quandles", "affine_endomorphisms"): ("quandles.endos_s", _endos),
    ("quandles", "brute_force_endomorphisms"): ("quandles.endos_s", _endos),
    ("quivers", "build_quiver"): ("quivers.build_s", _build),
    ("quivers", "isomorphic"): ("quivers.iso_s", _iso),
    ("quivers", "realize"): ("quivers.realize_s", None),
    ("quivers", "quiver_form_for_count"): ("quivers.form_s", None),
    ("quivers", "detect_blocks"): ("quivers.blocks_s", _blocks),
    ("export", "to_json"): ("export.json_self_s", _bytes),
    ("export", "to_dot"): ("export.dot_self_s", _bytes),
    ("export", "to_csv"): ("export.csv_s", _bytes),
}

TIME_METRICS = sorted({metric for metric, _ in LAYERS.values()})
COUNTS = {
    "linalg.snf_calls": "count",
    "linalg.snf_coeff_bits": "bits",  # largest entry of U and V, over all calls
    "linalg.kernel_vectors": "count",
    "colorings.oracle_calls": "count",
    "colorings.oracle_states": "count",  # sum of m^p
    "colorings.oracle_state_letters": "count",  # sum of m^p * len(word)
    "counting.cells": "count",
    "quandles.endos": "count",
    "quivers.arrows": "count",  # N times the number of endomorphisms
    "quivers.edges": "count",
    "quivers.iso_expansions": "count",
    "quivers.blocks": "count",
    "export.bytes": "count",
}
# ratio -> (numerator counter, denominator counter, which way is better)
RATIOS = {
    "colorings.oracle_hit_ratio": ("colorings.oracle_found", "colorings.oracle_states", "higher"),
    "colorings.oracle_periodic_share": (
        "colorings.oracle_periodic_states", "colorings.oracle_states", "higher"),
    "quivers.iso_useful_ratio": ("quivers.iso_vertices", "quivers.iso_expansions", "higher"),
}


def per_layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run reports."""
    return (
        [(m, "s", "lower") for m in TIME_METRICS]
        + [(c, unit, "lower") for c, unit in COUNTS.items()]
        + [(r, "ratio", better) for r, (_, _, better) in RATIOS.items()]
        + [("trace.wall_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    )


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.root_s = 0.0        # summed duration of outermost spans
        self.bookkeeping_s = 0.0  # counter time inside outermost spans
        self.absent: set[str] = set()
        self._stack: list[list[float]] = []  # per open span: time covered by children

    def install(self) -> None:
        modules = {"": importlib.import_module(PACKAGE)}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
            except ModuleNotFoundError:
                self.absent.add(f"{PACKAGE}.{name}")
        for (home, name), (metric, counter) in LAYERS.items():
            original = getattr(modules.get(home), name, None)
            if not callable(original):
                self.absent.add(f"{home}.{name}")
                continue
            wrapper = self._wrap(original, metric, counter, f"{home}.{name}")
            for module in modules.values():
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)

    def _wrap(self, fn, metric, counter, qualname):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                stack.pop()
                tracer.self_s[metric] += span - frame[0]
                if stack:
                    stack[-1][0] += span
                else:
                    tracer.root_s += span
            if counter is not None:
                start = time.perf_counter()
                try:
                    counter(tracer.counts, args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    tracer.absent.add(f"{qualname} counter")
                book = time.perf_counter() - start
                if stack:
                    stack[-1][0] += book
                    tracer.bookkeeping_s += book
            return result

        return traced

    def report(self) -> dict:
        """Per-layer self times and work counters of everything traced so far."""
        out = {metric: self.self_s.get(metric, 0.0) for metric in TIME_METRICS}
        c = self.counts
        out.update({name: c.get(name, 0) for name in COUNTS})
        for name, (num, den, _) in RATIOS.items():
            out[name] = c[num] / c[den] if c.get(den) else 0.0
        # outermost spans less the counter time inside them: exactly the
        # sum of all self times
        out["trace.wall_s"] = self.root_s - self.bookkeeping_s
        return out
