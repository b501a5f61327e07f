"""Spans at cubalg's layer boundaries, recorded from outside the program.

`Tracer.install()` replaces the functions and methods listed in
`BOUNDARIES` with wrappers.  Each call through a wrapper records one span
(name, start, end, parent span, op id) and adds to the counts that
`per_layer_metrics` reports.  A module-level function is also replaced
under every name another cubalg module imported it as (for example
`cobar.homology` or `covers.smith_normal_form`), so no call slips past
its span.  `uninstall()` puts the originals back.

Self time is a span's duration minus the time its child spans cover.  The
bookkeeping a wrapper does after its call returns counts as covered time
of the parent, so it does not show up as the parent's self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from cubalg.poly import Polynomial


def _term_pairs(tr, name, args, result):
    other = args[1]
    tr.counts[name + ".term_pairs"] += len(args[0].terms) * (
        len(other.terms) if isinstance(other, Polynomial) else 1)


def _max_bits(mats) -> int:
    return max((max(map(abs, row)).bit_length()
                for mat in mats for row in mat if row), default=0)


def _snf(tr, name, args, result):
    a = args[0]
    tr.counts["intlinalg.snf.cells"] += len(a) * (len(a[0]) if a else 0)
    key = "intlinalg.snf.max_bits"
    tr.counts[key] = max(tr.counts[key], _max_bits(result))


def _closure(tr, name, args, result):
    tr.counts["steenrod.closure.checked"] += result["checked"]


def _cobar_complex(tr, name, args, result):
    cx = args[0]
    tr.counts["cobar.basis_size"] += sum(len(b) for b in cx.bases)
    tr.counts["cobar.matrix_cells"] += sum(
        len(m) * len(m[0]) for m in cx.matrices if m)


def _bytes_out(tr, name, args, result):
    tr.counts["emit.bytes_out"] += len(result.encode("utf-8"))


def _not_int(args) -> bool:
    return not isinstance(args[1], int)


def _polynomial_operand(args) -> bool:
    return isinstance(args[1], Polynomial)


# (module, attribute path, span name, count hook, call filter).  A call the
# filter rejects runs the original without a span: an integer scalar
# product is not a polynomial or series product.
BOUNDARIES: Tuple[tuple, ...] = (
    ("cubalg.poly", "Polynomial.__mul__", "poly.mul", _term_pairs,
     _polynomial_operand),
    ("cubalg.poly", "Polynomial.mul_bounded", "poly.mul_bounded",
     _term_pairs, None),
    ("cubalg.poly", "Polynomial.map_gens", "poly.map_gens", None, None),
    ("cubalg.poly", "Polynomial.__add__", "poly.add", None, None),
    ("cubalg.poly", "Polynomial.__radd__", "poly.add", None, None),
    ("cubalg.poly", "Ring.monomials_of_weight", "poly.monomials_of_weight",
     None, None),
    ("cubalg.series", "TruncatedSeries.__mul__", "series.mul", None,
     _not_int),
    ("cubalg.series", "TruncatedSeries.__rmul__", "series.mul", None,
     _not_int),
    ("cubalg.series", "TruncatedSeries.substitute", "series.substitute",
     None, None),
    ("cubalg.series", "TruncatedSeries.unit_inverse", "series.unit_inverse",
     None, None),
    ("cubalg.series", "TruncatedSeries.functional_inverse",
     "series.functional_inverse", None, None),
    ("cubalg.fgl", "fgl_from_curve", "fgl.fgl_from_curve", None, None),
    ("cubalg.fgl", "FormalGroupLaw.n_series", "fgl.n_series", None, None),
    ("cubalg.fgl", "hasse_coefficients", "fgl.hasse", None, None),
    ("cubalg.intlinalg", "smith_normal_form", "intlinalg.snf", _snf, None),
    ("cubalg.intlinalg", "solve_integer", "intlinalg.solve_integer", None,
     None),
    ("cubalg.intlinalg", "homology", "intlinalg.homology", None, None),
    ("cubalg.intlinalg", "integer_kernel", "intlinalg.integer_kernel", None,
     None),
    ("cubalg.intlinalg", "RowSpace.insert", "intlinalg.rowspace.insert",
     None, None),
    ("cubalg.intlinalg", "RowSpace.reduce", "intlinalg.rowspace.reduce",
     None, None),
    ("cubalg.intlinalg", "field_kernel", "intlinalg.field_kernel", None,
     None),
    ("cubalg.intlinalg", "field_rank", "intlinalg.field_rank", None, None),
    ("cubalg.steenrod", "coproduct", "steenrod.coproduct", None, None),
    ("cubalg.steenrod", "BitSpan.insert", "steenrod.bitspan.insert", None,
     None),
    ("cubalg.steenrod", "BitSpan.reduce", "steenrod.bitspan.reduce", None,
     None),
    ("cubalg.steenrod", "comodule_closure_check", "steenrod.closure",
     _closure, None),
    ("cubalg.steenrod", "freeness_rank_check", "steenrod.freeness", None,
     None),
    ("cubalg.steenrod", "primitives", "steenrod.primitives", None, None),
    ("cubalg.hopf", "builtin_algebroid", "hopf.builtin_algebroid", None,
     None),
    ("cubalg.hopf", "invariants_h0", "hopf.invariants_h0", None, None),
    ("cubalg.cobar", "CobarComplex.__init__", "cobar.complex",
     _cobar_complex, None),
    ("cubalg.cobar", "CobarComplex._check_d_squared", "cobar.d2_check",
     None, None),
    ("cubalg.cobar", "CobarComplex.cohomology", "cobar.cohomology", None,
     None),
    ("cubalg.regseq", "graded_regular_sequence_check",
     "regseq.regular_sequence", None, None),
    ("cubalg.regseq", "GradedIdeal.add_generator", "regseq.add_generator",
     None, None),
    ("cubalg.regseq", "landweber_report", "regseq.landweber", None, None),
    ("cubalg.cli", "dispatch", "cli.dispatch", None, None),
    ("cubalg.emit", "json_text", "emit.json_text", _bytes_out, None),
)


class Tracer:
    """In-memory span recorder.  Spans are kept in flat arrays, one entry
    per call, and written out by `write_spans` when the run ends."""

    def __init__(self):
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: List[int] = []
        self._covered: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, hook, accept) -> Callable:
        tracer = self
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_id[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if accept is not None and not accept(args):
                return fn(*args, **kwargs)
            enter = clock()
            stack, covered = tracer._stack, tracer._covered
            idx = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer.op_id)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(idx)
            covered.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                child = covered.pop()
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
                tracer.calls[name] += 1
                tracer.self_s[name] += (t1 - t0) - child
                if covered:
                    covered[-1] += t1 - enter
            if hook is not None:
                t2 = clock()
                hook(tracer, name, args, result)
                if covered:
                    covered[-1] += clock() - t2
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every boundary, including names imported from other
        cubalg modules."""
        for modname, path, name, hook, accept in BOUNDARIES:
            module = importlib.import_module(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, hook, accept)
            self._patch(owner, attr, wrapper)
            if owner is module:
                for other in list(sys.modules.values()):
                    if other is module or not getattr(
                            other, "__name__", "").startswith("cubalg."):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def write_spans(self, path: str, op_labels: List[str]) -> None:
        """Gzipped TSV, one span a line: id, name, start, end, parent id,
        op id.  Times are seconds from the first span's start."""
        base = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, label in enumerate(op_labels):
                fh.write("# op %d: %s\n" % (i, label))
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    i, names[self.span_name[i]],
                    self.span_start[i] - base, self.span_end[i] - base,
                    self.span_parent[i], self.span_op[i]))


def per_layer_metrics(tr: Tracer) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced pass: name -> (value, unit)."""
    def calls(name):
        return tr.calls.get(name, 0), "count"

    def self_s(*names):
        return sum(tr.self_s.get(n, 0.0) for n in names), "s"

    def count(key):
        return tr.counts.get(key, 0), "count"

    series = ("series.mul", "series.substitute", "series.unit_inverse",
              "series.functional_inverse")
    return {
        "poly.mul.calls": calls("poly.mul"),
        "poly.mul.term_pairs": count("poly.mul.term_pairs"),
        "poly.mul.self_s": self_s("poly.mul"),
        "poly.mul_bounded.calls": calls("poly.mul_bounded"),
        "poly.mul_bounded.term_pairs": count("poly.mul_bounded.term_pairs"),
        "poly.mul_bounded.self_s": self_s("poly.mul_bounded"),
        "poly.map_gens.calls": calls("poly.map_gens"),
        "poly.map_gens.self_s": self_s("poly.map_gens"),
        "poly.add.calls": calls("poly.add"),
        "poly.add.self_s": self_s("poly.add"),
        "poly.monomials_of_weight.calls": calls("poly.monomials_of_weight"),
        "poly.monomials_of_weight.self_s":
            self_s("poly.monomials_of_weight"),
        "series.mul.calls": calls("series.mul"),
        "series.self_s": self_s(*series),
        "fgl.fgl_from_curve.self_s": self_s("fgl.fgl_from_curve"),
        "fgl.n_series.self_s": self_s("fgl.n_series"),
        "fgl.hasse.self_s": self_s("fgl.hasse"),
        "intlinalg.snf.calls": calls("intlinalg.snf"),
        "intlinalg.snf.cells": count("intlinalg.snf.cells"),
        "intlinalg.snf.self_s": self_s("intlinalg.snf"),
        "intlinalg.snf.max_bits": count("intlinalg.snf.max_bits"),
        "intlinalg.solve_integer.calls": calls("intlinalg.solve_integer"),
        "intlinalg.homology.calls": calls("intlinalg.homology"),
        "intlinalg.homology.self_s": self_s("intlinalg.homology"),
        "intlinalg.integer_kernel.calls": calls("intlinalg.integer_kernel"),
        "intlinalg.integer_kernel.self_s":
            self_s("intlinalg.integer_kernel"),
        "intlinalg.rowspace.inserts": calls("intlinalg.rowspace.insert"),
        "intlinalg.rowspace.reduces": calls("intlinalg.rowspace.reduce"),
        "intlinalg.rowspace.self_s": self_s("intlinalg.rowspace.insert",
                                            "intlinalg.rowspace.reduce"),
        "intlinalg.field_kernel.self_s": self_s("intlinalg.field_kernel"),
        "intlinalg.field_rank.self_s": self_s("intlinalg.field_rank"),
        "steenrod.coproduct.calls": calls("steenrod.coproduct"),
        "steenrod.coproduct.self_s": self_s("steenrod.coproduct"),
        "steenrod.bitspan.inserts": calls("steenrod.bitspan.insert"),
        "steenrod.bitspan.reduces": calls("steenrod.bitspan.reduce"),
        "steenrod.bitspan.self_s": self_s("steenrod.bitspan.insert",
                                          "steenrod.bitspan.reduce"),
        "steenrod.closure.checked": count("steenrod.closure.checked"),
        "steenrod.closure.self_s": self_s("steenrod.closure"),
        "steenrod.freeness.self_s": self_s("steenrod.freeness"),
        "steenrod.primitives.self_s": self_s("steenrod.primitives"),
        "hopf.builtin_algebroid.self_s": self_s("hopf.builtin_algebroid"),
        "hopf.invariants_h0.self_s": self_s("hopf.invariants_h0"),
        "cobar.complex.self_s": self_s("cobar.complex"),
        "cobar.d2_check.self_s": self_s("cobar.d2_check"),
        "cobar.cohomology.self_s": self_s("cobar.cohomology"),
        "cobar.basis_size": count("cobar.basis_size"),
        "cobar.matrix_cells": count("cobar.matrix_cells"),
        "regseq.regular_sequence.self_s": self_s("regseq.regular_sequence"),
        "regseq.add_generator.self_s": self_s("regseq.add_generator"),
        "regseq.landweber.self_s": self_s("regseq.landweber"),
        "cli.dispatch.self_s": self_s("cli.dispatch"),
        "emit.json_text.self_s": self_s("emit.json_text"),
        "emit.bytes_out": count("emit.bytes_out"),
    }
