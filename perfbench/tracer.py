"""Per-layer tracing of awbi from outside the package.

`Tracer.install()` replaces the public entry points of each layer with
wrappers that record spans (id, parent, name, start, end) and counters in
memory; `uninstall()` puts the originals back.  Nothing under ``src/`` is
changed.  A function is replaced under every name it is bound to in an
awbi module (``relations`` imports ``generator`` from ``extension``, so
both bindings are wrapped); methods are replaced on their class.

Coefficient operations and single-factor straightening run millions of
times, so they get counters only, and only coefficient ops with a
denominator other than 1 are timed.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

perf = time.perf_counter


class Tracer:
    # module-level functions, as "<awbi module>.<name>"; the span has that name
    FUNCTIONS = ("cli.main", "relations.scan", "relations.check_star",
                 "relations.check_comm", "relations.star_sides",
                 "relations.predict_pattern", "extension.generator",
                 "extension.build", "numoracle.crosscheck_points",
                 "numoracle.evaluate")
    CHECKS = ("relations.check_star", "relations.check_comm")
    EDGE_METHODS = ("tau_r", "tau_l", "delta_r", "delta_l", "delta_mid",
                    "counit_mid", "finalize")

    def __init__(self):
        self.spans = []
        self.stack = []
        self.count = defaultdict(int)
        self.secs = defaultdict(float)
        self.max_terms_out = 0
        self._in_check = 0
        self._undo = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name):
        spans, stack = self.spans, self.stack
        sid = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        t0 = perf()
        try:
            yield
        finally:
            t1 = perf()
            stack.pop()
            spans[sid] = (sid, parent, name, t0, t1)

    def _spanned(self, name, fn, before=None):
        span = self.span

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _check(self, name, fn):
        """A relation check: a span, and a depth count so that tensor
        products made inside checks can be told apart."""
        span = self.span
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._in_check += 1
            try:
                with span(name):
                    return fn(*args, **kwargs)
            finally:
                tracer._in_check -= 1

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr, wrapper):
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if (name == "awbi" or name.startswith("awbi.")) and \
                    getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapper)

    def install(self):
        from awbi import extension, relations
        from awbi.pbw import AlgElem, Backend, EdgeElem
        from awbi.qcoeff import RatQ

        self._extension, self._relations = extension, relations
        befores = {"extension.generator": self._generator_lookup,
                   "numoracle.evaluate": self._evaluated_terms}
        for span_name in self.FUNCTIONS:
            module_name, attr = span_name.split(".")
            module = importlib.import_module(f"awbi.{module_name}")
            fn = getattr(module, attr)
            if span_name in self.CHECKS:
                wrapper = self._check(span_name, fn)
            else:
                wrapper = self._spanned(span_name, fn, befores.get(span_name))
            self._patch_function(module, attr, wrapper)

        self._set(AlgElem, "__mul__", self._tensor_mul(AlgElem.__mul__))
        self._set(AlgElem, "coproduct", self._spanned("tensor.coproduct",
                                                      AlgElem.coproduct))
        for m in self.EDGE_METHODS:
            self._set(EdgeElem, m, self._spanned(f"edge.{m}", getattr(EdgeElem, m)))

        self._set(Backend, "mul_mono", self._counted("mono.mul_calls", Backend.mul_mono))
        self._set(Backend, "delta_mono", self._counted("mono.delta_calls",
                                                       Backend.delta_mono))
        for op, key in (("__mul__", "qcoeff.mul_calls"),
                        ("__add__", "qcoeff.addsub_calls"),
                        ("__sub__", "qcoeff.addsub_calls")):
            self._set(RatQ, op, self._coeff_op(key, getattr(RatQ, op)))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- wrappers with counters ---------------------------------------------

    def _generator_lookup(self, backend, n, elements):
        key = (backend.name, n, tuple(sorted(set(elements))))
        self.count["extension.generator_calls"] += 1
        if key in self._extension._CACHE:
            self.count["extension.generator_hits"] += 1

    def _evaluated_terms(self, x, spec):
        self.count["numoracle.terms_evaluated"] += len(x.terms)

    def _tensor_mul(self, fn):
        span, count = self.span, self.count
        tracer = self

        def __mul__(x, y):
            with span("tensor.mul"):
                r = fn(x, y)
            count["tensor.term_pairs"] += len(x.terms) * len(y.terms)
            nout = len(r.terms)
            count["tensor.terms_out"] += nout
            if nout > tracer.max_terms_out:
                tracer.max_terms_out = nout
            if tracer._in_check:
                count["relations.products_in_checks"] += 1
            return r

        return __mul__

    def _counted(self, key, fn):
        count = self.count

        def wrapper(*args):
            count[key] += 1
            return fn(*args)

        return wrapper

    def _coeff_op(self, key, fn):
        count, secs = self.count, self.secs

        def op(a, b):
            count[key] += 1
            if a.den.is_one() and b.den.is_one():
                return fn(a, b)
            count["qcoeff.nonunit_calls"] += 1
            t0 = perf()
            r = fn(a, b)
            secs["qcoeff.nonunit_s"] += perf() - t0
            return r

        return op

    # -- results -------------------------------------------------------------

    def span_totals(self):
        calls, secs = defaultdict(int), defaultdict(float)
        for sid, parent, name, t0, t1 in self.spans:
            calls[name] += 1
            secs[name] += t1 - t0
        return calls, secs

    def metrics(self, backends):
        """The per-layer metrics, with cache sizes read from the modules."""
        c = self.count
        calls, secs = self.span_totals()
        ratq_ops = c["qcoeff.mul_calls"] + c["qcoeff.addsub_calls"]
        gen_calls = c["extension.generator_calls"]
        expected_products = 4 * calls["relations.check_star"] + 2 * calls["relations.check_comm"]
        edge = [f"edge.{m}" for m in self.EDGE_METHODS]
        m = {
            "qcoeff.mul_calls": (c["qcoeff.mul_calls"], "count"),
            "qcoeff.addsub_calls": (c["qcoeff.addsub_calls"], "count"),
            "qcoeff.nonunit_calls": (c["qcoeff.nonunit_calls"], "count"),
            "qcoeff.nonunit_frac": (c["qcoeff.nonunit_calls"] / ratq_ops if ratq_ops else 0.0, "frac"),
            "qcoeff.nonunit_s": (self.secs["qcoeff.nonunit_s"], "s"),
            "mono.mul_calls": (c["mono.mul_calls"], "count"),
            "mono.mul_cache_entries": (sum(len(b._mul_cache) for b in backends), "count"),
            "mono.delta_calls": (c["mono.delta_calls"], "count"),
            "mono.delta_cache_entries": (sum(len(b._delta_cache) for b in backends), "count"),
            "tensor.mul_calls": (calls["tensor.mul"], "count"),
            "tensor.mul_s": (secs["tensor.mul"], "s"),
            "tensor.term_pairs": (c["tensor.term_pairs"], "count"),
            "tensor.terms_out": (c["tensor.terms_out"], "count"),
            "tensor.max_terms_out": (self.max_terms_out, "count"),
            "tensor.coproduct_calls": (calls["tensor.coproduct"], "count"),
            "tensor.coproduct_s": (secs["tensor.coproduct"], "s"),
            "edge.calls": (sum(calls[e] for e in edge), "count"),
            "edge.s": (sum(secs[e] for e in edge), "s"),
            "extension.build_calls": (calls["extension.build"], "count"),
            "extension.build_s": (secs["extension.build"], "s"),
            "extension.generator_calls": (gen_calls, "count"),
            "extension.generator_hit_frac": (
                c["extension.generator_hits"] / gen_calls if gen_calls else 0.0, "frac"),
            "extension.cache_entries": (len(self._extension._CACHE), "count"),
            "relations.check_star_calls": (calls["relations.check_star"], "count"),
            "relations.check_star_s": (secs["relations.check_star"], "s"),
            "relations.check_comm_calls": (calls["relations.check_comm"], "count"),
            "relations.check_comm_s": (secs["relations.check_comm"], "s"),
            "relations.prod_hit_frac": (
                1.0 - c["relations.products_in_checks"] / expected_products
                if expected_products else 0.0, "frac"),
            "relations.prod_cache_entries": (len(self._relations._PROD_CACHE), "count"),
            "relations.predict_pattern_s": (secs["relations.predict_pattern"], "s"),
            "numoracle.evaluate_calls": (calls["numoracle.evaluate"], "count"),
            "numoracle.evaluate_s": (secs["numoracle.evaluate"], "s"),
            "numoracle.terms_evaluated": (c["numoracle.terms_evaluated"], "count"),
            "cli.self_s": (secs["cli.main"] - secs["relations.scan"], "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
