"""Spans around the library's layer boundaries, for the traced run only.

`Tracer.installed()` replaces each boundary attribute listed in BOUNDARIES
with a wrapper that records a span, and restores the originals on exit.
The untraced runs never install it, so they call the library unwrapped.
A span is (name, start, end, parent span index, instance id, pass); spans
stay in memory until the run writes them out.
"""

import contextlib
import time

from doubledist import _kernels, abg, genomes, reduction, solver

# span name -> the (namespace, attribute) pairs through which callers reach
# that function.  A module that imported a function by name holds its own
# reference, so each importing namespace is listed.
BOUNDARIES = {
    "genomes.cognate_pair": [(genomes, "random_cognate_pair")],
    "genomes.parse": [(genomes, "parse_genome")],
    "genomes.format": [(genomes, "format_genome")],
    "genomes.classify": [(solver, "classify_pair"), (abg, "classify_pair")],
    "genomes.singularize": [(solver, "singularize"), (genomes, "singularize")],
    "abg.build": [(solver, "build_abg"), (abg, "build_abg")],
    "abg.enumerate": [(solver, "enumerate_candidates"), (reduction, "enumerate_candidates")],
    "abg.rescore": [(solver, "score")],
    "solver.mis": [(solver, "ss_mis"), (solver._ENGINES, "mis")],
    "solver.naive": [(solver, "ss_naive"), (solver._ENGINES, "naive")],
    "reduction.normalize": [(reduction, "normalize")],
    "reduction.build": [(reduction, "build_reduction")],
    "reduction.verify": [(reduction, "verify_structure")],
    "reduction.extract": [(reduction, "extract_genomes")],
    "kernels.best_resolution": [(_kernels, "best_resolution")],
    "kernels.cycles": [(_kernels, "alternating_cycles")],
    "kernels.paths": [(_kernels, "alternating_even_paths")],
    "kernels.walk": [(_kernels, "walk_components")],
}


def _get(ns, attr):
    return ns[attr] if isinstance(ns, dict) else getattr(ns, attr)


def _set(ns, attr, value):
    if isinstance(ns, dict):
        ns[attr] = value
    else:
        setattr(ns, attr, value)


class Tracer:
    def __init__(self):
        self.spans = []
        self.instance = None
        self.pass_no = -1
        self.enabled = False
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.instance, self.pass_no)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary, enable recording, and undo both on exit."""
        saved = []
        try:
            for name, sites in BOUNDARIES.items():
                for ns, attr in sites:
                    original = _get(ns, attr)
                    saved.append((ns, attr, original))
                    _set(ns, attr, self._wrap(name, original))
            self.enabled = True
            yield self
        finally:
            self.enabled = False
            for ns, attr, original in reversed(saved):
                _set(ns, attr, original)

    @contextlib.contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def totals(self, pass_no):
        """Per span name: (inclusive seconds, self seconds, calls) over the
        spans of one pass; self time excludes the direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, p in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, p) in enumerate(self.spans):
            if p != pass_no:
                continue
            incl, own, calls = out.get(name, (0.0, 0.0, 0))
            out[name] = (incl + end - start, own + end - start - child[i], calls + 1)
        return out
