"""Outside-in tracing of the apolar layers.

``Tracer`` wraps every public function of the apolar modules, in every
module namespace that holds it (``apolar.linalg.rref`` and
``apolar.actions.rref`` are the same function imported twice), plus a few
hot methods such as ``DPPoly.__mul__`` and ``Operator.__mul__``.  Each call
becomes a span: name, start, end, parent span and case id, kept in flat
arrays in memory.  Self time is a span's duration minus the time its
children cover.  Wrappers exist only between ``install`` and ``restore``;
``assert_clean`` proves that every wrapped name is the original object
again.

``apolar.fields`` scalar operations are deliberately not wrapped: they are
too fine-grained to time from outside without swamping the timing.
"""

import functools
import inspect
import json
import sys
from array import array
from fractions import Fraction
from time import perf_counter
from types import FunctionType


MODULES = ("linalg", "dp", "apolarity", "tangent", "actions", "classify", "cli", "parsing")
# generators and sort keys: wrapping them would time object creation only
SKIP = {"dp.monomials", "dp.monomials_upto", "dp.grlex_key"}
METHODS = [
    ("dp", "DPPoly", "__mul__"),
    ("dp", "Operator", "__mul__"),
    ("dp", "Operator", "inverse"),
    ("dp", "Operator", "power"),
    ("linalg", "Basis", "perp"),
    ("linalg", "Basis", "sum"),
    ("linalg", "Basis", "intersect"),
    ("linalg", "Basis", "contains"),
    ("linalg", "Basis", "contains_vector"),
    ("linalg", "Basis", "vectors"),
    ("actions", "Automorphism", "inverse"),
    ("actions", "Automorphism", "__call__"),
    ("actions", "Derivation", "__call__"),
    ("classify", "ReductionTrace", "validate"),
]
RREF_Q, RREF_P = "linalg.rref[Q]", "linalg.rref[p]"
TANGENT_SPANS = ("tangent.tangent_space", "tangent.unip_tangent_space")

# metric group -> span names
GROUPS = {
    "linalg.rref": [RREF_Q, RREF_P],
    "linalg.basis": ["linalg.span"] + ["linalg.Basis." + m for _, c, m in METHODS if c == "Basis"],
    "linalg.nullspace": ["linalg.nullspace"],
    "linalg.solve": ["linalg.solve"],
    "dp.contract": ["dp.contract"],
    "dp.dpmul": ["dp.DPPoly.__mul__"],
    "dp.opmul": ["dp.Operator.__mul__"],
    "apolarity.module_sf": ["apolarity.module_sf"],
    "apolarity.hilbert": ["apolarity.hilbert_function"],
    "apolarity.symdec": ["apolarity.symmetric_decomposition"],
    "apolarity.ann": ["apolarity.ann_generators", "apolarity.ann_graded"],
    "tangent.span": list(TANGENT_SPANS),
    "tangent.perp": ["tangent.perp_tangent"],
    "actions.subst": ["actions.subst"],
    "actions.apply_dual": ["actions.apply_automorphism_dual"],
    "actions.compose": ["actions.compose"],
    "actions.inverse": ["actions.Automorphism.inverse"],
    "actions.exp": ["actions.exp_group_element", "actions.exp_automorphism",
                    "actions.exp_operator", "actions.exp_lie_apply"],
    "classify.step": ["classify.lower_degree_step"],
    "classify.validate": ["classify.ReductionTrace.validate"],
    "cli.dispatch": ["cli.cli_dispatch"],
    "parsing.parse": ["parsing.parse_poly", "parsing.parse_classical_poly",
                      "parsing.parse_operator"],
}
# (metric, unit, better); "calls" and "self_s" rows come from GROUPS
PER_LAYER = [
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.rref.q_self_s", "s", "lower"),
    ("linalg.rref.p_self_s", "s", "lower"),
    ("linalg.rref.cells", "count", "lower"),
    ("linalg.rref.rank_ratio", "ratio", "higher"),
    ("linalg.rref.max_bits", "bits", "lower"),
    ("linalg.basis.calls", "count", "lower"),
    ("linalg.basis.self_s", "s", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.solve.calls", "count", "lower"),
    ("linalg.solve.self_s", "s", "lower"),
    ("dp.contract.calls", "count", "lower"),
    ("dp.contract.self_s", "s", "lower"),
    ("dp.contract.term_pairs", "count", "lower"),
    ("dp.dpmul.calls", "count", "lower"),
    ("dp.dpmul.self_s", "s", "lower"),
    ("dp.opmul.calls", "count", "lower"),
    ("dp.opmul.self_s", "s", "lower"),
    ("dp.opmul.term_pairs", "count", "lower"),
    ("apolarity.module_sf.calls", "count", "lower"),
    ("apolarity.module_sf.self_s", "s", "lower"),
    ("apolarity.hilbert.calls", "count", "lower"),
    ("apolarity.symdec.self_s", "s", "lower"),
    ("apolarity.ann.self_s", "s", "lower"),
    ("tangent.span.calls", "count", "lower"),
    ("tangent.span.self_s", "s", "lower"),
    ("tangent.span.rows_in", "count", "lower"),
    ("tangent.perp.self_s", "s", "lower"),
    ("actions.subst.calls", "count", "lower"),
    ("actions.subst.self_s", "s", "lower"),
    ("actions.apply_dual.calls", "count", "lower"),
    ("actions.apply_dual.self_s", "s", "lower"),
    ("actions.compose.calls", "count", "lower"),
    ("actions.compose.self_s", "s", "lower"),
    ("actions.inverse.calls", "count", "lower"),
    ("actions.inverse.self_s", "s", "lower"),
    ("actions.exp.self_s", "s", "lower"),
    ("classify.step.calls", "count", "lower"),
    ("classify.step.self_s", "s", "lower"),
    ("classify.validate.self_s", "s", "lower"),
    ("cli.dispatch.self_s", "s", "lower"),
    ("parsing.parse.self_s", "s", "lower"),
] + [("layer.%s.self_s" % m, "s", "lower") for m in MODULES] + [
    ("classify.membership.actions_frac", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]
# per-layer metrics that are exact counts: identical for a given seed
COUNT_METRICS = [m for m, unit, _ in PER_LAYER if unit in ("count", "bits")] + [
    "linalg.rref.rank_ratio"]


def fraction_bits(rows):
    """Largest numerator/denominator bit length in rows of Fractions."""
    best = 0
    for row in rows:
        for x in row:
            if isinstance(x, Fraction):
                best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def targets(ap):
    """(owner, attribute, original, span name) for everything we wrap."""
    mods = {m: sys.modules["apolar." + m] for m in MODULES}
    spans = {}
    for short, mod in mods.items():
        for name, obj in vars(mod).items():
            if (
                isinstance(obj, FunctionType)
                and not name.startswith("_")
                and obj.__module__.startswith("apolar.")
                and not inspect.isgeneratorfunction(obj)
            ):
                span = obj.__module__[len("apolar."):] + "." + obj.__name__
                if span not in SKIP and span.split(".")[0] in MODULES:
                    spans[id(obj)] = (obj, span)
    out = []
    for mod in [ap] + list(mods.values()):
        for name, obj in vars(mod).items():
            hit = spans.get(id(obj))
            if hit is not None and hit[0] is obj:
                out.append((mod, name, obj, hit[1]))
    for short, cls, meth in METHODS:
        klass = getattr(mods[short], cls)
        out.append((klass, meth, vars(klass)[meth], "%s.%s.%s" % (short, cls, meth)))
    return out


class Tracer:
    def __init__(self, ap):
        self.targets = targets(ap)
        self.names = []
        self.name_ids = {}
        self.tangent_ids = {self._name_id(s) for s in TANGENT_SPANS}
        self.name = array("i")
        self.parent = array("l")
        self.case = array("l")
        self.pre = array("d")
        self.start = array("d")
        self.end = array("d")
        self.post = array("d")
        self.stack = [-1]
        self.case_id = -1
        self.counts = {"linalg.rref.rows": 0, "linalg.rref.rank": 0, "linalg.rref.cells": 0,
                       "linalg.rref.max_bits": 0, "dp.contract.term_pairs": 0,
                       "dp.opmul.term_pairs": 0, "tangent.span.rows_in": 0}

    # -- wrapping ------------------------------------------------------------

    def _name_id(self, span):
        if span not in self.name_ids:
            self.name_ids[span] = len(self.names)
            self.names.append(span)
        return self.name_ids[span]

    def _wrap(self, fn, span):
        """A wrapper recording one span per call.  ``before`` may rewrite
        the arguments and ``after`` counts work; both run outside the
        span's own interval but inside its [pre, post] cover."""
        tr = self
        before, after = {
            "linalg.rref": (self._rref_before, self._rref_after),
            "dp.contract": (None, self._contract_after),
            "dp.Operator.__mul__": (None, self._opmul_after),
        }.get(span, (None, None))
        nid = self._name_id(span)

        def wrapper(*args, **kwargs):
            pre = perf_counter()
            i = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr.stack[-1])
            tr.case.append(tr.case_id)
            tr.pre.append(pre)
            tr.end.append(0.0)
            tr.post.append(0.0)
            if before is not None:
                args = before(i, args)
            tr.stack.append(i)
            tr.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[i] = tr.post[i] = perf_counter()
                tr.stack.pop()
            if after is not None:
                after(args, result)
                tr.post[i] = perf_counter()
            return result

        return functools.update_wrapper(wrapper, fn)

    def _rref_before(self, i, args):
        rows, field, ncols = args
        rows = list(rows)
        self.name[i] = self._name_id(RREF_Q if field.is_rationals else RREF_P)
        if any(self.name[j] in self.tangent_ids for j in self.stack[1:]):
            self.counts["tangent.span.rows_in"] += len(rows)
        return rows, field, ncols

    def _rref_after(self, args, result):
        rows, field, ncols = args
        c = self.counts
        c["linalg.rref.rows"] += len(rows)
        c["linalg.rref.cells"] += len(rows) * ncols
        c["linalg.rref.rank"] += len(result[1])
        if field.is_rationals:
            c["linalg.rref.max_bits"] = max(c["linalg.rref.max_bits"], fraction_bits(result[0]))

    def _contract_after(self, args, result):
        self.counts["dp.contract.term_pairs"] += len(args[0].terms) * len(args[1].terms)

    def _opmul_after(self, args, result):
        self.counts["dp.opmul.term_pairs"] += len(args[0].terms) * len(args[1].terms)

    def install(self):
        self.assert_clean()
        wrappers = {}
        for owner, attr, orig, span in self.targets:
            if id(orig) not in wrappers:
                wrappers[id(orig)] = self._wrap(orig, span)
            setattr(owner, attr, wrappers[id(orig)])

    def restore(self):
        for owner, attr, orig, _ in self.targets:
            setattr(owner, attr, orig)
        self.assert_clean()

    def assert_clean(self):
        """Every wrapped name is the original object (tracing is off)."""
        for owner, attr, orig, span in self.targets:
            if vars(owner)[attr] is not orig:
                raise RuntimeError("tracer left %s wrapped" % span)

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        cover = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                cover[p] += self.post[i] - self.pre[i]
        return [e - s - c for s, e, c in zip(self.start, self.end, cover)]

    def metrics(self, traced_wall, untraced_wall, membership_cases, membership_wall):
        selfs = self.self_times()
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for nid, st in zip(self.name, selfs):
            calls[nid] += 1
            self_s[nid] += st
        by_name = {n: (calls[i], self_s[i]) for i, n in enumerate(self.names)}

        def group(g):
            got = [by_name.get(s, (0, 0.0)) for s in GROUPS[g]]
            return sum(c for c, _ in got), sum(t for _, t in got)

        out = {}
        for g in GROUPS:
            out[g + ".calls"], out[g + ".self_s"] = group(g)
        out["linalg.rref.q_self_s"] = by_name.get(RREF_Q, (0, 0.0))[1]
        out["linalg.rref.p_self_s"] = by_name.get(RREF_P, (0, 0.0))[1]
        c = self.counts
        for k in ("linalg.rref.cells", "linalg.rref.max_bits", "dp.contract.term_pairs",
                  "dp.opmul.term_pairs", "tangent.span.rows_in"):
            out[k] = c[k]
        out["linalg.rref.rank_ratio"] = c["linalg.rref.rank"] / c["linalg.rref.rows"] if c["linalg.rref.rows"] else 0.0
        for m in MODULES:
            out["layer.%s.self_s" % m] = sum(
                t for n, (_, t) in by_name.items() if n.split(".")[0] == m)
        out["classify.membership.actions_frac"] = (
            self._outermost_cover("actions", membership_cases) / membership_wall
            if membership_wall else 0.0)
        out["trace.spans"] = len(self.start)
        out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        out["trace.self_sum_s"] = sum(selfs)
        return out

    def _outermost_cover(self, layer, cases):
        """Time inside ``layer`` spans with no ``layer`` ancestor, children included."""
        in_layer = [n.split(".")[0] == layer for n in self.names]
        inside = [False] * len(self.start)
        total = 0.0
        for i, (nid, p, cid) in enumerate(zip(self.name, self.parent, self.case)):
            parent_inside = p >= 0 and inside[p]
            inside[i] = parent_inside or in_layer[nid]
            if in_layer[nid] and not parent_inside and cid in cases:
                total += self.end[i] - self.start[i]
        return total

    def write(self, path, case_ids):
        """Write the spans out (after the run): one JSON document."""
        doc = {
            "names": self.names,
            "cases": case_ids,
            "fields": ["name", "parent", "case", "start", "end"],
            "spans": [list(self.name), list(self.parent), list(self.case),
                      list(self.start), list(self.end)],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
