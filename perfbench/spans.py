"""Spans and counts for a traced run, recorded from outside the library.

``Tracer.install`` replaces public functions of ``koszulknots`` modules
with wrappers that record one span per call (name, start, end, parent span,
item) and, from the call's arguments and return value, the exact counts of
the work it did.  ``homology_table``, ``homology_at`` and the series
assemblies look the wrapped names up in their module at call time, so the
real code paths are timed and nothing is replayed.  ``Tracer.uninstall``
puts the original functions back.

A layer's self time is the duration of its spans minus the part covered
by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
import weakref
from collections import defaultdict

from koszulknots import homology, interface, presentations, series

# (owner, attribute, layer); the span name is <owner>.<attribute>
WRAPPED = (
    (presentations, "stable_presentation", "presentations.build"),
    (presentations, "projector_presentation", "presentations.build"),
    (homology, "window_bases", "homology.enumerate"),
    (homology, "basis_at", "homology.enumerate"),
    (homology, "d_matrix", "homology.assemble"),
    (homology, "matrix_rank", "homology.linalg"),
    (homology, "rank_exact", "homology.linalg"),
    (homology, "rank_mod_p", "homology.linalg"),
    (homology, "smith_normal_form", "homology.linalg"),
    (homology, "homology_table", "homology.table"),
    (homology, "homology_at", "homology.table"),
    (homology.HomologyTable, "serialize", "homology.serialize"),
    (series, "formula", "series.catalogue"),
    (series, "projector_series", "series.build"),
    (series, "assemble_torus2", "series.build"),
    (series, "assemble_torus3", "series.build"),
    (series, "identity_check", "series.build"),
    (series, "exact_divide", "series.divide"),
    (series, "expand", "series.expand"),
    (interface, "compare", "interface.compare"),
)

LAYER_OF = {f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}": layer
            for owner, attr, layer in WRAPPED}
LAYERS = sorted(set(LAYER_OF.values()))

COUNTS = (
    "homology.enumerate.calls", "homology.enumerate.monomials",
    "homology.enumerate.repeats", "homology.enumerate.repeats_item",
    "homology.assemble.calls", "homology.assemble.nnz",
    "homology.assemble.max_dim",
    "homology.linalg.rank_calls", "homology.linalg.snf_calls",
    "homology.linalg.max_factor_bits", "homology.linalg.rank_exact_calls",
    "homology.linalg.redundant_ranks", "homology.linalg.redundant_ranks_item",
    "series.divide.calls", "series.divide.quotient_terms",
)


class PassTrace:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans = []  # [id, parent, item, name, start, end]
        self.counts = dict.fromkeys(COUNTS, 0)
        # enumeration coverage, per pass and per item:
        # (id(pres), bound) -> set of degrees, and -> list of windows
        self.degrees = defaultdict(set)
        self.windows = defaultdict(list)
        # matrix provenance: id(matrix) -> (weakref, (id(pres), deg, bound))
        self.matrix_keys = {}
        self.rank_keys = []  # (item, key) per rank_exact call
        self.snf_keys = set()  # (item, key) per smith_normal_form call

    def self_times(self):
        """Layer -> self time in seconds."""
        child = defaultdict(float)
        for _sid, parent, _item, _name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, _parent, _item, name, start, end in self.spans:
            out[LAYER_OF[name]] += end - start - child[sid]
        return out

    def finish(self):
        """Add the counts that need the whole pass."""
        snf_pass = {key for _item, key in self.snf_keys}
        c = self.counts
        for item, key in self.rank_keys:
            if key is None:
                continue
            c["homology.linalg.redundant_ranks"] += key in snf_pass
            c["homology.linalg.redundant_ranks_item"] += \
                (item, key) in self.snf_keys
        self.matrix_keys.clear()

    # -- enumeration coverage ------------------------------------------------

    def _covered(self, scope, key, deg):
        return deg in self.degrees[scope + key] or any(
            w.qmin <= deg.q <= w.qmax and w.tmin - 1 <= deg.t <= w.tmax + 1
            for w in self.windows[scope + key])

    def enumerated(self, item, pres, bound, deg=None, window=None):
        """Record one enumeration; count it as a repeat per scope."""
        key = (id(pres), bound)
        c = self.counts
        for scope, name in (((), "homology.enumerate.repeats"),
                            ((item,), "homology.enumerate.repeats_item")):
            if window is not None:
                c[name] += window in self.windows[scope + key]
                self.windows[scope + key].append(window)
            else:
                c[name] += self._covered(scope, key, deg)
                self.degrees[scope + key].add(deg)

    def matrix_key(self, mat):
        ref_key = self.matrix_keys.get(id(mat))
        if ref_key is None or ref_key[0]() is not mat:
            return None
        return ref_key[1]


def _count(tr, item, name, a, result):
    """Add the counts of one call, taken from its arguments and result."""
    c = tr.counts
    if name == "homology.window_bases":
        c["homology.enumerate.calls"] += 1
        c["homology.enumerate.monomials"] += sum(
            len(b.monomials) for b in result.values())
        tr.enumerated(item, a["pres"], a.get("bound"), window=a["window"])
    elif name == "homology.basis_at":
        c["homology.enumerate.calls"] += 1
        c["homology.enumerate.monomials"] += len(result.monomials)
        tr.enumerated(item, a["pres"], a.get("bound"), deg=a["deg"])
    elif name == "homology.d_matrix":
        c["homology.assemble.calls"] += 1
        c["homology.assemble.nnz"] += len(result.entries)
        c["homology.assemble.max_dim"] = max(
            c["homology.assemble.max_dim"], result.rows, result.cols)
        tr.matrix_keys[id(result)] = (
            weakref.ref(result), (id(a["pres"]), a["deg"], a.get("bound")))
    elif name == "homology.rank_exact":
        c["homology.linalg.rank_calls"] += 1
        c["homology.linalg.rank_exact_calls"] += 1
        tr.rank_keys.append((item, tr.matrix_key(a["mat"])))
    elif name == "homology.rank_mod_p":
        c["homology.linalg.rank_calls"] += 1
    elif name == "homology.smith_normal_form":
        c["homology.linalg.snf_calls"] += 1
        key = tr.matrix_key(a["mat"])
        if key is not None:
            tr.snf_keys.add((item, key))
        c["homology.linalg.max_factor_bits"] = max(
            [c["homology.linalg.max_factor_bits"]]
            + [f.bit_length() for f in result[0]])
    elif name == "series.exact_divide":
        c["series.divide.calls"] += 1
        if result is not None:
            c["series.divide.quotient_terms"] += len(result.terms)


class Tracer:
    """Installs the wrappers and collects one PassTrace per traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.item = None
        self.current = None
        self._stack = []
        self._originals = []

    def begin_pass(self):
        self.current = PassTrace()
        self._stack.clear()

    def end_pass(self):
        tr, self.current = self.current, None
        return tr

    def install(self):
        if self._originals:
            raise RuntimeError("tracer wrappers are already installed")
        try:
            for name, (owner, attr, _layer) in zip(LAYER_OF, WRAPPED):
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(original, name))
                self._originals.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name):
        sig = inspect.signature(original)
        clock, stack = self.clock, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tr = self.current
            if tr is None:  # setup or a check, outside any traced pass
                return original(*args, **kwargs)
            sid = len(tr.spans)
            rec = [sid, stack[-1] if stack else None, self.item, name,
                   0.0, 0.0]
            tr.spans.append(rec)
            stack.append(sid)
            rec[4] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            _count(tr, self.item, name,
                   sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper
