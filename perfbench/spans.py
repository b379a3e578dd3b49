"""Spans and counts at curvelab's layer boundaries, for the traced run.

``Tracer.install()`` replaces each traced function at every module
attribute of curvelab that refers to it, including names bound by
``from ... import`` (such as ``curvelab.cli.certify_bound``), so callers
that look the name up at call time go through the wrapper.  Each span
records its name, start, end, parent span and operation id; spans stay in
memory until ``dump``.  A layer's self time is its spans' duration minus
the time covered by their child spans.
"""

from __future__ import annotations

import collections
import json
import statistics
import sys
import time

# per-layer metrics: (name, unit, better).  Values are per round of the
# workload, except ``cli.import_s`` (median per CLI process) and
# ``certify.sec_extremes.converged_fraction`` (mean over its calls).
PER_LAYER = [
    ("certify.sec_extremes.self_s", "s", "lower"),
    ("certify.sec_extremes.calls", "count", "lower"),
    ("certify.sec_extremes.converged_fraction", "fraction", "higher"),
    ("certify.thorpe_sec_min.self_s", "s", "lower"),
    ("certify.thorpe_sec_min.calls", "count", "lower"),
    ("certify.golden_max.evals", "count", "lower"),
    ("certify.hierarchy_check.self_s", "s", "lower"),
    ("certify.hierarchy_check.levels", "count", "lower"),
    ("certify.witness_search.self_s", "s", "lower"),
    ("certify.witness_search.calls", "count", "lower"),
    ("certify.verdicts.certified", "count", "higher"),
    ("certify.verdicts.refuted", "count", "higher"),
    ("certify.verdicts.inconclusive", "count", "lower"),
    ("multilinear.build_traceless.self_s", "s", "lower"),
    ("multilinear.build_symmetric.self_s", "s", "lower"),
    ("multilinear.build_exterior.self_s", "s", "lower"),
    ("multilinear.build.misses", "count", "lower"),
    ("weitzenbock.curvature_term.self_s", "s", "lower"),
    ("weitzenbock.curvature_term.calls", "count", "lower"),
    ("weitzenbock.curvature_term.dim2_sum", "count", "lower"),
    ("weitzenbock.eigensolve.self_s", "s", "lower"),
    ("weitzenbock.eigensolve.calls", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.load_operator.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("cli.emit.bytes", "B", "lower"),
    ("curvature.decompose.self_s", "s", "lower"),
    ("closedform.verify_thmB.self_s", "s", "lower"),
    ("spherical.verify_integral_formula.self_s", "s", "lower"),
    ("littlewood.verify_lemma.self_s", "s", "lower"),
    ("knalgebra.iterated_g_power.self_s", "s", "lower"),
]

VERDICT_KEYS = {
    "certified": "certify.verdicts.certified",
    "refuted": "certify.verdicts.refuted",
    "inconclusive_for_certification": "certify.verdicts.inconclusive",
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id]
        self.stack = []      # indices of open spans
        self.open = collections.Counter()   # open spans per name
        self.counts = collections.Counter()
        self.values = collections.defaultdict(list)
        self.op = None

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Span around ``fn``; ``after(args, result, outermost)`` counts."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outermost = self.open[name] == 0
            rec = [name, clock(), 0.0, self.stack[-1] if self.stack else -1,
                   self.op]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            self.open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                self.stack.pop()
                self.open[name] -= 1
            if after is not None:
                after(args, result, outermost)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        """Wrap curvelab's traced functions; the package must be imported."""
        from curvelab import certify, cli, closedform, curvature, knalgebra
        from curvelab import littlewood, multilinear, spherical, weitzenbock

        def count(key, value=1):
            self.counts[key] += value

        def misses(cached):
            # cache misses of an lru_cache builder, from its cache_info()
            def wrapped(*args, **kwargs):
                before = cached.cache_info().misses
                try:
                    return cached(*args, **kwargs)
                finally:
                    count("multilinear.build.misses",
                          cached.cache_info().misses - before)
            return wrapped

        search = certify.golden_max

        def golden_max(f, *args, **kwargs):
            def counted(t):
                count("certify.golden_max.evals")
                return f(t)
            return search(counted, *args, **kwargs)

        def on_sec_extremes(args, result, outermost):
            count("certify.sec_extremes.converged_sum",
                  result.converged_fraction)

        def on_hierarchy(args, result, outermost):
            count("certify.hierarchy_check.levels", len(result.rows))

        def on_verdict(args, result, outermost):
            if outermost:
                count(VERDICT_KEYS[result.verdict])

        def on_kterm(args, result, outermost):
            count("weitzenbock.curvature_term.dim2_sum", result.dim ** 2)

        # (function as curvelab binds it, span name, counting hook, callee)
        spans = [
            (certify.sec_extremes, "certify.sec_extremes", on_sec_extremes),
            (certify.thorpe_sec_min, "certify.thorpe_sec_min", None),
            (certify.hierarchy_check, "certify.hierarchy_check", on_hierarchy),
            (certify.witness_search, "certify.witness_search", None),
            (certify.certify_bound, "certify.certify_bound", on_verdict),
            (weitzenbock.curvature_term, "weitzenbock.curvature_term",
             on_kterm),
            (curvature.decompose, "curvature.decompose", None),
            (closedform.verify_thmB, "closedform.verify_thmB", None),
            (spherical.verify_integral_formula,
             "spherical.verify_integral_formula", None),
            (littlewood.verify_lemma_sym, "littlewood.verify_lemma", None),
            (littlewood.verify_lemma_wedge, "littlewood.verify_lemma", None),
            (knalgebra.iterated_g_power, "knalgebra.iterated_g_power", None),
            (cli.load_operator, "cli.load_operator", None),
            (cli.emit, "cli.emit", None),
        ]
        spans = [entry + (entry[0],) for entry in spans]
        for kind in ("traceless", "symmetric", "exterior"):
            cached = getattr(multilinear, "build_" + kind)
            spans.append((cached, "multilinear.build_" + kind, None,
                          misses(cached)))
        for fn, name, after, callee in spans:
            self._replace(fn, self.wrap(name, callee, after))
        self._replace(certify.golden_max, golden_max)
        cls = weitzenbock.SymmetricEndomorphism
        for method in ("eigenvalues", "lambda_min"):
            setattr(cls, method,
                    self.wrap("weitzenbock.eigensolve", getattr(cls, method)))

    @staticmethod
    def _replace(old, new):
        for modname, mod in list(sys.modules.items()):
            if modname == "curvelab" or modname.startswith("curvelab."):
                for attr, value in list(vars(mod).items()):
                    if value is old:
                        setattr(mod, attr, new)

    # -- output --------------------------------------------------------------

    def doc(self):
        return {"spans": self.spans, "counts": self.counts,
                "values": self.values}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.doc(), fh)


def aggregate(docs):
    """Totals over traces: self time and call count per span name, counts
    and recorded values, summed over the given dumped traces."""
    self_s = collections.Counter()
    calls = collections.Counter()
    counts = collections.Counter()
    values = collections.defaultdict(list)
    for doc in docs:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _parent, _op), covered in zip(spans, child):
            self_s[name] += end - start - covered
            calls[name] += 1
        counts.update(doc["counts"])
        for key, vals in doc["values"].items():
            values[key].extend(vals)
    return self_s, calls, counts, values


def layer_metrics(docs, rounds):
    """Every per-layer metric from dumped traces; unseen layers read 0."""
    self_s, calls, counts, values = aggregate(docs)
    out = {}
    for name, unit, _better in PER_LAYER:
        if name == "cli.import_s":
            vals = values.get(name)
            value = statistics.median(vals) if vals else 0.0
        elif name == "certify.sec_extremes.converged_fraction":
            n = calls["certify.sec_extremes"]
            value = counts["certify.sec_extremes.converged_sum"] / n if n else 0.0
        elif name.endswith(".self_s"):
            value = self_s[name[: -len(".self_s")]] / rounds
        elif name.endswith(".calls"):
            value = calls[name[: -len(".calls")]] / rounds
        else:
            value = counts[name] / rounds
        out[name] = {"value": value, "unit": unit}
    return out
