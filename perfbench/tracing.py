"""Span tracing around the public functions of ``clusterlm``, from outside.

A :class:`Tracer` replaces a function or method with a wrapper that records
one span per call -- ``[name, start, end, parent]`` -- in memory, and can run
a callback on the result to add counters.  Functions that other modules
import by name are patched in every ``clusterlm`` module that holds them, so
``clusterlm.evaluate.run_exchange`` and ``clusterlm.cli.count_events`` are
traced as well as their defining modules.  :meth:`Tracer.restore` undoes
every patch.

The layer of a span is the first dotted component of its name.
:func:`layer_metrics` turns the spans and counters of one repetition into
the per-layer metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import Counter

LAYERS = (
    "criterion", "exchange", "corpus", "backoff", "classmodel",
    "discounting", "evaluate", "cli",
)

ADAPTED_METHODS = ("adapt_bo", "adapt_cl", "fillup", "clust_adapt")
METHODS = ("back_bo", "back_cl") + ADAPTED_METHODS
TREND_SIZES = (1000, 5000, 25000)


def _path_arg(args, kwargs):
    """The ``path`` argument of ``save(self, path, ...)``."""
    return kwargs["path"] if "path" in kwargs else args[1]


def _cells(table) -> int:
    return sum(len(row) for row in table.rows.values())


def _on_exchange(counters, args, kwargs, result):
    counters["exchange.iterations"] += len(result.iterations)


def _on_count(counters, args, kwargs, table):
    counters["corpus.tokens"] += table.total_tokens
    counters["corpus.bigram_cells"] += _cells(table)


def _on_counts_save(counters, args, kwargs, _):
    counters["corpus.counts_bytes"] += os.path.getsize(_path_arg(args, kwargs))


def _on_backoff_model(counters, args, kwargs, model):
    counters["backoff.explicit_bigrams"] += sum(
        len(row) for row in model.explicit_lp.values()
    )


def _on_backoff_save(counters, args, kwargs, _):
    counters["backoff.bytes"] += os.path.getsize(_path_arg(args, kwargs))


def _on_perplexity(counters, args, kwargs, report):
    counters["evaluate.tokens_scored"] += report.tokens_scored


# (owner, attribute, span name, result callback).  The owner is a module
# name for functions and "module:Class" for methods.
TRACE_POINTS = (
    ("clusterlm.criterion:StandardObjective", "best_move", "criterion.std.candidates", None),
    ("clusterlm.criterion:AdaptiveObjective", "best_move", "criterion.ada.candidates", None),
    ("clusterlm.criterion:StandardObjective", "apply_move", "criterion.std.apply", None),
    ("clusterlm.criterion:AdaptiveObjective", "apply_move", "criterion.ada.apply", None),
    ("clusterlm.criterion:StandardObjective", "__init__", "criterion.std.build", None),
    ("clusterlm.criterion:AdaptiveObjective", "__init__", "criterion.ada.build", None),
    ("clusterlm.criterion", "combine_word_counts", "criterion.combine", None),
    ("clusterlm.exchange", "run_exchange", "exchange.run", _on_exchange),
    ("clusterlm.exchange", "optimize_lambda", "exchange.lambda", None),
    ("clusterlm.exchange", "criterion_discount", "exchange.discount", None),
    ("clusterlm.corpus", "build_vocabulary", "corpus.vocab", None),
    ("clusterlm.corpus", "count_events", "corpus.count", _on_count),
    ("clusterlm.corpus:CountTable", "save", "corpus.counts_save", _on_counts_save),
    ("clusterlm.corpus:CountTable", "load", "corpus.counts_load", None),
    ("clusterlm.backoff", "train_backoff", "backoff.train", _on_backoff_model),
    ("clusterlm.backoff", "fillup", "backoff.fillup", _on_backoff_model),
    ("clusterlm.backoff:BackoffModel", "save", "backoff.save", _on_backoff_save),
    ("clusterlm.backoff:BackoffModel", "load", "backoff.load", None),
    ("clusterlm.classmodel", "init_clustering", "classmodel.init", None),
    ("clusterlm.classmodel", "estimate_class_model", "classmodel.estimate", None),
    ("clusterlm.classmodel:ClassModel", "save", "classmodel.save", None),
    ("clusterlm.classmodel:ClassModel", "load", "classmodel.load", None),
    ("clusterlm.classmodel", "save_clusters", "classmodel.clusters_save", None),
    ("clusterlm.classmodel", "load_clusters", "classmodel.clusters_load", None),
    ("clusterlm.discounting", "estimate_discount", "discounting.estimate", None),
    ("clusterlm.evaluate", "perplexity", "evaluate.perplexity", _on_perplexity),
    ("clusterlm.evaluate", "experiment_suite", "evaluate.suite", None),
    ("clusterlm.cli", "cmd_vocab", "cli.vocab", None),
    ("clusterlm.cli", "cmd_counts", "cli.counts", None),
    ("clusterlm.cli", "cmd_train", "cli.train", None),
    ("clusterlm.cli", "cmd_adapt", "cli.adapt", None),
    ("clusterlm.cli", "cmd_eval", "cli.eval", None),
)


def _per_layer_names() -> dict[str, str]:
    """Every per-layer metric name and its unit, in a fixed order."""
    m: dict[str, str] = {}
    for side in ("std", "ada"):
        m[f"criterion.{side}.candidates_s"] = "s"
        m[f"criterion.{side}.candidate_calls"] = "count"
        m[f"criterion.{side}.candidate_us"] = "us"
        m[f"criterion.{side}.apply_s"] = "s"
        m[f"criterion.{side}.apply_calls"] = "count"
        m[f"criterion.{side}.build_s"] = "s"
    m["criterion.combine_s"] = "s"
    for key in ("run_s", "lambda_s", "discount_s"):
        m[f"exchange.{key}"] = "s"
    for key in ("run_calls", "lambda_calls", "iterations", "visits", "moves"):
        m[f"exchange.{key}"] = "count"
    m["exchange.move_ratio"] = "ratio"
    for key in ("vocab_s", "count_s", "counts_save_s", "counts_load_s"):
        m[f"corpus.{key}"] = "s"
    m["corpus.count_tokens_per_s"] = "tokens/s"
    m["corpus.bigram_cells"] = "count"
    m["corpus.counts_bytes"] = "bytes"
    for key in ("train_s", "fillup_s", "save_s", "load_s"):
        m[f"backoff.{key}"] = "s"
    m["backoff.explicit_bigrams"] = "count"
    m["backoff.bytes"] = "bytes"
    for key in ("init_s", "estimate_s", "save_s", "load_s",
                "clusters_save_s", "clusters_load_s"):
        m[f"classmodel.{key}"] = "s"
    m["discounting.estimate_s"] = "s"
    m["discounting.estimate_calls"] = "count"
    m["evaluate.perplexity_s"] = "s"
    m["evaluate.tokens_scored"] = "count"
    m["evaluate.tokens_per_s"] = "tokens/s"
    m["evaluate.suite_self_s"] = "s"
    for method in METHODS:
        m[f"evaluate.pp.{method}"] = "pp"
    for method in ADAPTED_METHODS:
        for size in TREND_SIZES:
            m[f"evaluate.pp.{method}.{size}"] = "pp"
    for cmd in ("vocab", "counts", "train", "adapt", "eval"):
        m[f"cli.{cmd}_s"] = "s"
    for layer in LAYERS:
        if layer != "discounting":
            m[f"{layer}.busy_s"] = "s"
            m[f"{layer}.self_s"] = "s"
            m[f"{layer}.calls"] = "count"
    m["trace.wall_s"] = "s"
    m["trace.spans"] = "count"
    m["trace.overhead_s"] = "s"
    return m


LAYER_METRICS = _per_layer_names()


def _resolve(owner: str):
    module_name, _, cls_name = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, cls_name) if cls_name else module


class Tracer:
    """Records spans and counters while its patches are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()
        self._stack[:] = [-1]

    def _wrap(self, fn, name: str, on_return):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if on_return is not None:
                on_return(tracer.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def patch(self, owner: str, attr: str, name: str, on_return=None) -> None:
        target = _resolve(owner)
        if isinstance(target, type):
            raw = target.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(target, attr, classmethod(self._wrap(raw.__func__, name, on_return)))
            else:
                self._set(target, attr, self._wrap(raw, name, on_return))
            return
        original = getattr(target, attr)
        wrapper = self._wrap(original, name, on_return)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "clusterlm" or mod_name.startswith("clusterlm.")):
                continue
            if module.__dict__.get(attr) is original:
                self._set(module, attr, wrapper)

    def install(self, points=TRACE_POINTS) -> None:
        for owner, attr, name, on_return in points:
            self.patch(owner, attr, name, on_return)

    def restore(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)


def span_cost_s(calls: int = 20000) -> float:
    """Measured extra cost of one traced call over a direct call, in seconds."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap(noop, "probe", None)
    best_direct = best_traced = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        tracer.reset()
        best_direct = min(best_direct, t1 - t0)
        best_traced = min(best_traced, t2 - t1)
    return max(best_traced - best_direct, 0.0) / calls


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def pp_metrics(pp: dict[str, float]) -> dict[str, float]:
    """Per-method perplexity metrics from ``{model_id: PP}``.

    A model id is a method name, optionally followed by ``@<adaptation
    words>``.  A method's metric is the geometric mean over its slices; a
    method or slice the workload does not evaluate reads 0.
    """
    out: dict[str, float] = {}
    for method in METHODS:
        out[f"evaluate.pp.{method}"] = geomean(
            v for k, v in pp.items() if k.split("@")[0] == method
        )
    for method in ADAPTED_METHODS:
        for size in TREND_SIZES:
            out[f"evaluate.pp.{method}.{size}"] = pp.get(f"{method}@{size}", 0.0)
    return out


def layer_metrics(spans: list[list], counters: Counter, wall_s: float,
                  span_cost: float) -> dict[str, float]:
    """Per-layer metrics of one repetition from its spans and counters."""
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    dur = Counter()
    calls = Counter()
    busy = Counter()
    self_time = Counter()
    layer_calls = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        d = end - start
        layer = name.split(".", 1)[0]
        dur[name] += d
        calls[name] += 1
        layer_calls[layer] += 1
        self_time[layer] += d - child_time[i]
        p = parent
        while p >= 0 and spans[p][0].split(".", 1)[0] != layer:
            p = spans[p][3]
        if p < 0:
            busy[layer] += d

    def per_call_us(key):
        return 1e6 * dur[key] / calls[key] if calls[key] else 0.0

    m: dict[str, float] = {}
    for side in ("std", "ada"):
        cand = f"criterion.{side}.candidates"
        m[f"{cand}_s"] = dur[cand]
        m[f"criterion.{side}.candidate_calls"] = calls[cand]
        m[f"criterion.{side}.candidate_us"] = per_call_us(cand)
        m[f"criterion.{side}.apply_s"] = dur[f"criterion.{side}.apply"]
        m[f"criterion.{side}.apply_calls"] = calls[f"criterion.{side}.apply"]
        m[f"criterion.{side}.build_s"] = dur[f"criterion.{side}.build"]
    m["criterion.combine_s"] = dur["criterion.combine"]
    visits = calls["criterion.std.candidates"] + calls["criterion.ada.candidates"]
    moves = calls["criterion.std.apply"] + calls["criterion.ada.apply"]
    m.update({
        "exchange.run_s": dur["exchange.run"],
        "exchange.run_calls": calls["exchange.run"],
        "exchange.lambda_s": dur["exchange.lambda"],
        "exchange.lambda_calls": calls["exchange.lambda"],
        "exchange.discount_s": dur["exchange.discount"],
        "exchange.iterations": counters["exchange.iterations"],
        "exchange.visits": visits,
        "exchange.moves": moves,
        "exchange.move_ratio": moves / visits if visits else 0.0,
        "corpus.vocab_s": dur["corpus.vocab"],
        "corpus.count_s": dur["corpus.count"],
        "corpus.counts_save_s": dur["corpus.counts_save"],
        "corpus.counts_load_s": dur["corpus.counts_load"],
        "corpus.count_tokens_per_s": (
            counters["corpus.tokens"] / dur["corpus.count"] if dur["corpus.count"] else 0.0
        ),
        "corpus.bigram_cells": counters["corpus.bigram_cells"],
        "corpus.counts_bytes": counters["corpus.counts_bytes"],
        "backoff.train_s": dur["backoff.train"],
        "backoff.fillup_s": dur["backoff.fillup"],
        "backoff.save_s": dur["backoff.save"],
        "backoff.load_s": dur["backoff.load"],
        "backoff.explicit_bigrams": counters["backoff.explicit_bigrams"],
        "backoff.bytes": counters["backoff.bytes"],
        "discounting.estimate_s": dur["discounting.estimate"],
        "discounting.estimate_calls": calls["discounting.estimate"],
        "evaluate.perplexity_s": dur["evaluate.perplexity"],
        "evaluate.tokens_scored": counters["evaluate.tokens_scored"],
        "evaluate.tokens_per_s": (
            counters["evaluate.tokens_scored"] / dur["evaluate.perplexity"]
            if dur["evaluate.perplexity"] else 0.0
        ),
        "evaluate.suite_self_s": dur["evaluate.suite"] - sum(
            child_time[i] for i, s in enumerate(spans) if s[0] == "evaluate.suite"
        ),
    })
    for key in ("init", "estimate", "save", "load", "clusters_save", "clusters_load"):
        m[f"classmodel.{key}_s"] = dur[f"classmodel.{key}"]
    for cmd in ("vocab", "counts", "train", "adapt", "eval"):
        m[f"cli.{cmd}_s"] = dur[f"cli.{cmd}"]
    for layer in LAYERS:
        if layer != "discounting":
            m[f"{layer}.busy_s"] = busy[layer]
            m[f"{layer}.self_s"] = self_time[layer]
            m[f"{layer}.calls"] = layer_calls[layer]
    m["trace.wall_s"] = wall_s
    m["trace.spans"] = n
    m["trace.overhead_s"] = n * span_cost
    return m
