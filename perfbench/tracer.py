"""Per-layer tracing from outside the program.

The tracer replaces named public functions of congtower's modules with
wrappers, at their module (or class) attribute and at every other place
congtower keeps a reference to the same function object.  Calls made
inside the program, such as those ``homology_table`` and ``build_tower``
make, are therefore caught; a function that a later change stops calling
shows zero.  Per-element arithmetic (``ResidueRing.mul`` and the like) is
not wrapped.

A span is (id, parent id, name, start, end), kept in memory.  A span's
self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time

from congtower import (bttree, congsub, coset, identities, intmat, poly,
                       presentations, ringmat, tower)


def _relation_sizes(args, kwargs, result):
    rows, ngens = args[0], args[1]
    return {"intmat.relation_cells": len(rows) * ngens,
            "intmat.relation_nonzeros": sum(1 for r in rows for v in r if v)}


def _rs_sizes(args, kwargs, result):
    sub = result[0]
    return {"coset.schreier_generators": sub.ngens,
            "coset.relators": len(sub.relators)}


# (owner, attribute, span name, size counter or None).  The `_s` metric of
# a span name is the sum of its spans' self times.
SPANS = [
    (intmat, "abelian_invariants", "intmat.abelian_invariants", _relation_sizes),
    (intmat, "snf", "intmat.snf", None),
    (presentations.Presentation, "relation_matrix",
     "presentations.relation_matrix", None),
    (coset, "table_from_permutations", "coset.table_from_permutations", None),
    (coset, "reidemeister_schreier", "coset.reidemeister_schreier", _rs_sizes),
    (congsub.ReductionHom, "__init__", "congsub.reduction_hom", None),
    (congsub, "group_closure", "congsub.group_closure",
     lambda a, k, r: {"congsub.image_elements": len(r)}),
    (congsub.ReductionHom, "permutations", "congsub.permutations", None),
    (congsub, "congruence_quotient_check", "congsub.congruence_quotient_check",
     None),
    (identities, "run_identity_suite", "identities.run_identity_suite", None),
    (poly, "poly_identity_test", "poly.poly_identity_test", None),
    (bttree, "pgl2_model", "bttree.model", None),
    (bttree, "oq_model", "bttree.model", None),
    (bttree, "su_model", "bttree.model", None),
    (bttree, "bfs_explore", "bttree.bfs_explore",
     lambda a, k, r: {"bttree.vertices": len(r.vertices)}),
    (bttree, "canonicalize", "bttree.canonicalize",
     lambda a, k, r: {"bttree.canonicalize_calls": 1}),
    (tower, "build_tower", "tower.build_tower",
     lambda a, k, r: {"tower.steps": len(r.steps) - 1}),
    (tower, "certify_containment", "tower.certify_containment", None),
    (tower, "recheck_certificate", "tower.recheck_certificate", None),
    (tower, "tower_report", "tower.tower_report", None),
    (tower, "covered_radius", "tower.covered_radius", None),
]

# Matrix products are counted, not timed: they are too many for spans.
CALL_COUNTS = [
    (congsub, "rmat_mul", "congsub.rmat_mul_calls"),
    (ringmat, "mat_mul", "ringmat.mat_mul_calls"),
]

SIZE_COUNTERS = (
    "intmat.relation_cells", "intmat.relation_nonzeros",
    "coset.schreier_generators", "coset.relators", "congsub.image_elements",
    "bttree.canonicalize_calls", "bttree.vertices", "tower.steps",
)

# Every per-layer metric the tracer reports, with its unit.
LAYER_METRICS = {
    **{name + "_s": "s" for name in dict.fromkeys(s[2] for s in SPANS)},
    **{name: "count" for _, _, name in CALL_COUNTS},
    **{name: "count" for name in SIZE_COUNTERS},
}


class Tracer:
    """Collects spans and counts while installed; ``with Tracer() as t:``."""

    def __init__(self):
        self.spans = []       # [id, parent id, name, start, end]
        self.counts = dict.fromkeys(
            [name for _, _, name in CALL_COUNTS] + list(SIZE_COUNTERS), 0)
        self._stack = []
        self._undo = []

    def __enter__(self):
        for owner, attr, name, sizes in SPANS:
            self._replace(owner, attr, self._spanned(getattr(owner, attr),
                                                     name, sizes))
        for owner, attr, name in CALL_COUNTS:
            self._replace(owner, attr, self._counted(getattr(owner, attr), name))
        return self

    def __exit__(self, *exc):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr, wrapper):
        """Rebind ``owner.attr`` and every other congtower reference to the
        same function: module globals bound by ``from x import f`` and the
        tree-model factories that ``tower.TOWER_EXAMPLES`` holds."""
        original = getattr(owner, attr)
        holders = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("congtower") and mod is not owner:
                holders += [(mod, a) for a, v in vars(mod).items()
                            if v is original]
        holders += [(cfg, "model_factory")
                    for cfg in tower.TOWER_EXAMPLES.values()
                    if cfg.model_factory is original]
        for obj, name in holders:
            self._undo.append((obj, name, original))
            setattr(obj, name, wrapper)

    def _spanned(self, fn, name, sizes):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else None, name,
                    time.perf_counter(), None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if sizes is not None:
                for key, value in sizes(args, kwargs, result).items():
                    counts[key] += value
            return result
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def self_times(self):
        """Span id -> self time in seconds."""
        own = {s[0]: s[4] - s[3] for s in self.spans}
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[4] - s[3]
        return own

    def metrics(self):
        """Every metric of LAYER_METRICS: summed self time per span name,
        and the counts."""
        out = {name: 0.0 for name, unit in LAYER_METRICS.items() if unit == "s"}
        own = self.self_times()
        for s in self.spans:
            out[s[2] + "_s"] += own[s[0]]
        out.update(self.counts)
        return out

    def records(self):
        """The spans as JSON-able dicts, with self time."""
        own = self.self_times()
        return [{"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                 "end": s[4], "self": own[s[0]]} for s in self.spans]
