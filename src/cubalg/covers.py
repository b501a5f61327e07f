"""Finite flat covers of the moduli of cubic curves and descent bookkeeping.

`cover_fiber` computes the fiber algebra of the rank-8 cover (p = 2) or the
rank-3 cover (p = 3) over a field by degreewise linear reduction of the
coordinate-change relations.  `cech_weighted_projective`, `descent_assemble`
and `tmf_mu_page` handle the two-row descent spectral sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from . import InvariantError
from .intlinalg import FieldOps, invariant_factors
from .poincare import poincare_series

# ---------------------------------------------------------------------------
# fiber algebras


@dataclass
class FiberAlgebra:
    prime: int
    field: str
    var_names: tuple
    var_weights: tuple
    basis: List[tuple]              # exponent tuples in var_names
    mult_table: Dict[Tuple[int, int], Dict[int, object]]
    rank: int

    def basis_text(self) -> List[str]:
        return [_mono_text(self.var_names, m) for m in self.basis]


def _mono_text(names, mono) -> str:
    if not any(mono):
        return "1"
    parts = []
    for n, e in zip(names, mono):
        if e == 1:
            parts.append(n)
        elif e > 1:
            parts.append("%s^%d" % (n, e))
    return "*".join(parts)


class _FieldElt:
    """Coefficient helpers for a named base field."""

    def __init__(self, spec: str):
        spec = spec.upper()
        if spec == "Q":
            self.p = None
        elif spec.startswith("F"):
            self.p = int(spec[1:])
        else:
            raise ValueError("unknown field %r (use Q or F<p>)" % spec)
        self.name = spec
        self.ops = FieldOps(self.p)

    def of(self, c) -> object:
        if isinstance(c, Fraction) and self.p is None:
            return c
        return self.ops.of_int(int(c))


def _relations_p2(k: _FieldElt, a):
    """Relations in k[s, t] after eliminating r = (s^2 + s a1 - a2)/3.

    The cover classifies coordinate changes onto curves with a2'=a4'=a6'=0;
    the three relations are the transformation laws with zero left sides.
    """
    a1, a2, a3, a4, a6 = a
    names = ("s", "t")
    weights = (2, 6)
    inv3 = k.ops.inv(k.of(3))

    def poly(d):
        return {m: c for m, c in d.items() if not k.ops.is_zero(c)}

    def add(p, q):
        out = dict(p)
        for m, c in q.items():
            c2 = k.ops.add(out.get(m, k.of(0)), c)
            if k.ops.is_zero(c2):
                out.pop(m, None)
            else:
                out[m] = c2
        return out

    def mul(p, q):
        out = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                m = (m1[0] + m2[0], m1[1] + m2[1])
                c = k.ops.add(out.get(m, k.of(0)), k.ops.mul(c1, c2))
                if k.ops.is_zero(c):
                    out.pop(m, None)
                else:
                    out[m] = c
        return out

    def scal(p, c):
        return poly({m: k.ops.mul(cc, c) for m, cc in p.items()})

    const = lambda c: poly({(0, 0): k.of(c)})
    s = {(1, 0): k.of(1)}
    t = {(0, 1): k.of(1)}
    # r = (s^2 + a1 s - a2)/3
    r = scal(add(add(mul(s, s), scal(s, k.of(a1))), const(-a2)), inv3)
    ca = {n: const(v) for n, v in
          zip(("a1", "a2", "a3", "a4", "a6"), (a1, a2, a3, a4, a6))}
    # a4' = 0:  a4 - s a3 + 2 a2 r - (t + r s) a1 + 3 r^2 - 2 s t
    rel4 = add(add(add(const(a4), scal(mul(s, ca["a3"]), k.of(-1))),
                   scal(mul(r, ca["a2"]), k.of(2))),
               add(scal(add(t, mul(r, s)), k.of(-a1)),
                   add(scal(mul(r, r), k.of(3)), scal(mul(s, t), k.of(-2)))))
    # a6' = 0:  a6 + r a4 + r^2 a2 + r^3 - t a3 - t^2 - r t a1
    r2 = mul(r, r)
    rel6 = add(add(add(const(a6), scal(r, k.of(a4))),
                   add(scal(r2, k.of(a2)), mul(r2, r))),
               add(add(scal(t, k.of(-a3)), scal(mul(t, t), k.of(-1))),
                   scal(mul(r, t), k.of(-a1))))
    return names, weights, [rel4, rel6]


def _relations_p3(k: _FieldElt, a):
    """Relations in k[r, s, t] forcing a1' = a3' = a6' = 0 (u = 1)."""
    a1, a2, a3, a4, a6 = a
    names = ("r", "s", "t")
    weights = (4, 2, 6)

    def mono(er, es, et, c=1):
        return {(er, es, et): k.of(c)}

    def combine(*polys):
        out = {}
        for p in polys:
            for m, c in p.items():
                c2 = k.ops.add(out.get(m, k.of(0)), c)
                if k.ops.is_zero(c2):
                    out.pop(m, None)
                else:
                    out[m] = c2
        return out

    rel1 = combine(mono(0, 0, 0, a1), mono(0, 1, 0, 2))          # a1 + 2s
    rel3 = combine(mono(0, 0, 0, a3), mono(1, 0, 0, a1),
                   mono(0, 0, 1, 2))                             # a3 + r a1 + 2t
    rel6 = combine(mono(0, 0, 0, a6), mono(1, 0, 0, a4),
                   mono(2, 0, 0, a2), mono(3, 0, 0, 1),
                   mono(0, 0, 1, -a3), mono(0, 0, 2, -1),
                   mono(1, 0, 1, -a1))
    return names, weights, [rel1, rel3, rel6]


def cover_fiber(curve_coeffs: Sequence, p: int, field: str = None
                ) -> FiberAlgebra:
    """Fiber algebra of the flat cover over the given curve.

    `curve_coeffs` = (a1, a2, a3, a4, a6) as constants of the base field;
    `field` is "Q" or "F<q>" (default: F_p).  The off-prime integer must be
    invertible in the field.
    """
    if p not in (2, 3):
        raise ValueError("cover exists for p in {2, 3}")
    k = _FieldElt(field or "F%d" % p)
    off = 3 if p == 2 else 2
    if k.p is not None and k.p == off:
        raise ValueError("off-prime %d is not invertible in %s"
                         % (off, k.name))
    a = tuple(curve_coeffs)
    if p == 2:
        names, weights, rels = _relations_p2(k, a)
    else:
        names, weights, rels = _relations_p3(k, a)

    # degreewise linear reduction: echelonize the span of monomial multiples
    # of the relations, pivots on the graded-lex-greatest monomial
    top = max(sum(e * w for e, w in zip(m, weights))
              for rel in rels for m in rel)
    bound = 4 * top + 2 * max(weights)
    rules = _reduction_rules(k, names, weights, rels, bound)
    # Nakayama-style finiteness: scan for a full window of weights with no
    # irreducible monomial; everything above such a window is reducible too
    def wt(m):
        return sum(e * w for e, w in zip(m, weights))
    nonpiv = [m for m in _monomials_below(weights, bound - top)
              if m not in rules]
    by_weight = {}
    for m in nonpiv:
        by_weight.setdefault(wt(m), []).append(m)
    wmax = max(weights)
    cut = None
    for w0 in range(0, bound - top - wmax):
        if all(w not in by_weight for w in range(w0 + 1, w0 + wmax + 1)):
            cut = w0
            break
    if cut is None:
        raise RuntimeError("fiber basis did not stabilize below bound")
    basis = [m for m in nonpiv if wt(m) <= cut]
    basis.sort(key=lambda m: (wt(m), m))

    index = {m: i for i, m in enumerate(basis)}
    table: Dict[Tuple[int, int], Dict[int, object]] = {}
    for i, mi in enumerate(basis):
        for j, mj in enumerate(basis):
            prod = tuple(x + y for x, y in zip(mi, mj))
            red = _reduce_monomial(k, prod, rules)
            table[(i, j)] = {index[m]: c for m, c in red.items()}
    return FiberAlgebra(prime=p, field=k.name, var_names=names,
                        var_weights=weights, basis=basis,
                        mult_table=table, rank=len(basis))


def _monomials_below(weights, wmax):
    out = []
    mono = [0] * len(weights)

    def rec(i, rem):
        if i == len(weights):
            out.append(tuple(mono))
            return
        for e in range(rem // weights[i] + 1):
            mono[i] = e
            rec(i + 1, rem - e * weights[i])
        mono[i] = 0

    rec(0, wmax)
    return out


def _reduction_rules(k, names, weights, rels, bound):
    """Echelon rewrite rules {pivot monomial: lower-term dict} from all
    monomial multiples of the relations with top weight <= bound."""
    def wt(m):
        return sum(e * w for e, w in zip(m, weights))

    def key(m):
        return (wt(m), m)

    rows = []
    for rel in rels:
        reltop = max(wt(m) for m in rel)
        for m in _monomials_below(weights, bound - reltop):
            row = {tuple(x + y for x, y in zip(m, mm)): c
                   for mm, c in rel.items()}
            rows.append(row)
    rows.sort(key=lambda row: max(key(m) for m in row))
    rules: Dict[tuple, dict] = {}
    for row in rows:
        row = _reduce_poly(k, row, rules)
        if not row:
            continue
        piv = max(row, key=key)
        cinv = k.ops.inv(row[piv])
        rest = {m: k.ops.neg(k.ops.mul(c, cinv))
                for m, c in row.items() if m != piv}
        rules[piv] = rest
        # keep existing rules reduced against the new one
        for p2 in list(rules):
            if p2 == piv:
                continue
            rules[p2] = _reduce_poly(k, rules[p2], {piv: rest})
    return rules


def _reduce_poly(k, poly: dict, rules: dict) -> dict:
    out = dict(poly)
    changed = True
    while changed:
        changed = False
        for m in sorted(out, reverse=True):
            if m in rules:
                c = out.pop(m)
                for m2, c2 in rules[m].items():
                    cc = k.ops.add(out.get(m2, k.of(0)), k.ops.mul(c, c2))
                    if k.ops.is_zero(cc):
                        out.pop(m2, None)
                    else:
                        out[m2] = cc
                changed = True
                break
    return out


def _reduce_monomial(k, mono, rules) -> dict:
    return _reduce_poly(k, {mono: k.of(1)}, rules)


# ---------------------------------------------------------------------------
# Cech pages and descent


@dataclass
class TwoRowPage:
    """Per-twist H^0/H^1 data of a two-row descent spectral sequence."""
    weights: tuple                       # (w1, w2) or descriptive
    gen_names: tuple                     # names of the two section generators
    h0: Dict[int, List[str]] = field(default_factory=dict)   # j -> generators
    h1: Dict[int, List[str]] = field(default_factory=dict)
    h0_ranks: Dict[int, int] = field(default_factory=dict)
    h1_ranks: Dict[int, int] = field(default_factory=dict)

    def twists(self):
        return sorted(set(self.h0_ranks) | set(self.h1_ranks))


def _laurent_mono_text(names, exps) -> str:
    if not any(exps):
        return "1"
    parts = []
    for n, e in zip(names, exps):
        if e == 1:
            parts.append(n)
        elif e:
            parts.append("%s^%d" % (n, e))
    return "*".join(parts)


def cech_weighted_projective(weights: Tuple[int, int], twists: Sequence[int],
                             gen_names: Tuple[str, str] = ("x1", "x2"),
                             cross_check: bool = True) -> TwoRowPage:
    """H^0/H^1 of the weighted projective stack P(w1, w2) in the given
    twists, by lattice-point bookkeeping on the two-term Cech complex,
    cross-checked against Smith normal form of the assembled matrix."""
    w1, w2 = weights
    if w1 < 1 or w2 < 1:
        raise ValueError("weights must be >= 1")
    page = TwoRowPage(weights=weights, gen_names=gen_names)
    for j in twists:
        span = abs(j) // min(w1, w2) + 2
        sols = _lattice_solutions(w1, w2, j, span)
        h0 = [(i, k) for i, k in sols if i >= 0 and k >= 0]
        h1 = [(i, k) for i, k in sols if i <= -1 and k <= -1]
        page.h0[j] = [_laurent_mono_text(gen_names, m) for m in sorted(h0)]
        page.h1[j] = [_laurent_mono_text(gen_names, m) for m in sorted(h1)]
        page.h0_ranks[j] = len(h0)
        page.h1_ranks[j] = len(h1)
        if cross_check:
            r0, r1 = _cech_snf_ranks(w1, w2, j)
            if (r0, r1) != (len(h0), len(h1)):
                raise InvariantError(
                    "Cech SNF cross-check failed at twist %d" % j)
    return page


def _lattice_solutions(w1, w2, j, span: int):
    """Solutions of i*w1 + k*w2 = j within a generous exponent box."""
    out = []
    for i in range(-span, span + 1):
        rem = j - i * w1
        if rem % w2 == 0:
            k = rem // w2
            if -span <= k <= span:
                out.append((i, k))
    return out


def _cech_snf_ranks(w1, w2, j):
    """Ranks of H^0/H^1 of C^0 = R[x1^-1] + R[x2^-1] -> C^1 = R[(x1x2)^-1]
    in twist j, restricted to an exponent box (stable once the box covers
    the solution set)."""
    span = max(abs(j) // min(w1, w2) + 2, 4)
    c1 = [(i, k) for i, k in _lattice_solutions(w1, w2, j, span)]
    c0a = [(i, k) for i, k in c1 if k >= 0]      # x2-exponent nonnegative
    c0b = [(i, k) for i, k in c1 if i >= 0]
    cols = [("a", m) for m in c0a] + [("b", m) for m in c0b]
    rows = {m: r for r, m in enumerate(c1)}
    mat = [[0] * len(cols) for _ in c1]
    for cidx, (side, m) in enumerate(cols):
        sign = 1 if side == "a" else -1
        mat[rows[m]][cidx] = sign
    rank = len(invariant_factors(mat))
    # kernel = (m, m) pairs of monomials regular on both patches
    h0 = len(cols) - rank
    h1 = len(c1) - rank
    return h0, h1


def descent_assemble(page: TwoRowPage, degrees: Sequence[int]) -> dict:
    """Homotopy table pi_d: H^0(omega^{d/2}) for even d, H^1(omega^j) placed
    at d = 2j - 1.  Additive (graded-rank) answer only."""
    table = {}
    for d in degrees:
        gens = []
        rank = 0
        if d % 2 == 0:
            j = d // 2
            if j in page.h0_ranks:
                rank += page.h0_ranks[j]
                gens += [("h0", g) for g in page.h0[j]]
        else:
            j = (d + 1) // 2
            if j in page.h1_ranks:
                rank += page.h1_ranks[j]
                gens += [("h1", g) for g in page.h1[j]]
        table[d] = {"rank": rank, "generators": gens}
    return table


# ---------------------------------------------------------------------------
# the two-row page for tmf smash MU


def ambient_ring_weights(e_cutoff: int) -> List[int]:
    """Generator weights of R = Z_(2)[a1..a6, e_n (4 <= n <= cutoff)]."""
    return [2, 4, 6, 8, 12] + [2 * n for n in range(4, e_cutoff + 1)]


def tmf_mu_page(window: Tuple[int, int], e_cutoff: int, prime: int = 2,
                specialize_p13: bool = False,
                validate_h0: bool = False) -> dict:
    """H^0/H^1 of the two-row page over the ambient Weierstrass ring R
    (with coordinate modifiers e_n), restricted to a weight window.

    H^0 = R in the window (graded ranks; optionally validated by the
    degreewise regular-sequence certificate for (c4, delta)).  H^1 is the
    cokernel C of R[c4^-1] + R[delta^-1] -> R[(c4 delta)^-1], the colimit
    of the Koszul cokernels R/(c4^m, delta^m) shifted by -32m.

    The graded pieces of C are finitely generated only when R has two
    generators: for the full ring the stage ranks
    (R/(c4^m, delta^m))_{w + 32m} grow without bound in every window weight
    (top-degree growth of the Hilbert function beats the inclusion-
    exclusion), so C_w is an infinite-rank group there.  The page therefore
    reports H^1 by its canonical R-module generators c4^-i delta^-k
    (i, k >= 1) -- the images of the Koszul top classes, all of strictly
    negative weight -- with `h1` the per-weight generator counts.

    With `specialize_p13`, a2 = a4 = a6 = e_n = 0: R' = Z[a1, a3] is
    two-dimensional, the Koszul limit stabilizes weightwise, and the page
    carries exact graded ranks reproducing P(1, 3).
    """
    lo, hi = window
    wc4, wd = 8, 24
    h0 = {}
    h1 = {}
    out = {"window": window, "prime": prime, "h0": h0, "h1": h1}
    if specialize_p13:
        weights = [2, 6]
        for w in range(lo, hi + 1):
            h0[w] = _ring_rank(weights, w)
        # C_w = colim_m (R/(c4^m, delta^m))_{w + 32m}: with two generators
        # the stage ranks are eventually constant in m; require two stable
        # rounds before accepting the limit
        m = 1
        prev = None
        stable = 0
        while stable < 2:
            cur = {}
            for w in range(lo, hi + 1):
                v = w + m * (wc4 + wd)
                cur[w] = (_ring_rank(weights, v)
                          - _ring_rank(weights, v - m * wc4)
                          - _ring_rank(weights, v - m * wd)
                          + _ring_rank(weights, v - m * (wc4 + wd)))
            stable = stable + 1 if cur == prev else 0
            prev = cur
            m += 1
            if m > (hi - lo) + 64:
                raise RuntimeError("Koszul limit failed to stabilize")
        h1.update(prev)
        out["h1_meaning"] = "graded ranks (Koszul limit, stabilized)"
    else:
        weights = ambient_ring_weights(e_cutoff)
        if 2 * (e_cutoff + 1) <= hi:
            raise ValueError("window demands e_n beyond cutoff")
        for w in range(lo, hi + 1):
            h0[w] = _ring_rank(weights, w)
        gens = {}
        for w in range(lo, hi + 1):
            ws = []
            for i in range(1, (-w) // wc4 + 1 if w < 0 else 0):
                rem = -w - i * wc4
                if rem > 0 and rem % wd == 0:
                    ws.append("c4^-%d*delta^-%d" % (i, rem // wd))
            gens[w] = ws
            h1[w] = len(ws)
        out["h1_generators"] = gens
        out["h1_meaning"] = ("R-module generators c4^-i delta^-k (graded "
                             "ranks of the cokernel are infinite over the "
                             "full ring)")
    out["generator_weights"] = weights
    if validate_h0:
        from .curves import invariants, universal_curve
        from .regseq import graded_regular_sequence_check
        curve = universal_curve()
        inv = invariants(curve)
        # c4, delta involve only the a_i; regularity on Z[a1..a6] extends
        # to R along the flat e_n-polynomial extension
        rep = graded_regular_sequence_check(
            curve.ring, [inv["c4"], inv["delta"]], prime, 32)
        if not rep.regular_through_cutoff:
            raise RuntimeError("(c4, delta) regularity check failed: %r"
                               % (rep.failure,))
        out["h0_validated"] = True
    return out


def _ring_rank(weights, w):
    if w < 0:
        return 0
    return poincare_series(weights, w)[w]
