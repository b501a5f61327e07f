"""Finite flat covers of the moduli of cubic curves and descent bookkeeping.

`cover_fiber` computes the fiber algebra of the rank-8 cover (p = 2) or the
rank-3 cover (p = 3) over a field.  Its relations are coefficients of the
moved curve that `curves.transform` computes; one `intlinalg.RowSpace` over
the monomials up to a weight bound, ordered from the greatest down, holds
an echelon form of their monomial multiples, and a normal form is the
reduction of a unit vector.  `cech_weighted_projective`,
`descent_assemble` and `tmf_mu_page` handle the two-row descent spectral
sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import InvariantError
from .curves import (CoordinateChange, WeierstrassCurve, invariants,
                     transform, universal_curve)
from .intlinalg import RowSpace, invariant_factors
from .poincare import poincare_series
from .poly import Polynomial, Ring, is_prime, monomial_text

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
        return [monomial_text(self.var_names, m) for m in self.basis]


def _relations(a: Tuple[int, ...], p: int, modulus: Optional[int]):
    """The cover's ring and its relations, as polynomials with integer
    coefficients, reduced modulo `modulus` when it is given so that a term
    vanishing in F_q does not count toward a relation's top weight.

    The cover classifies coordinate changes onto curves with
    a1' = a3' = a6' = 0 (p = 3) or a2' = a4' = a6' = 0 (p = 2); the
    relations are those coefficients of the moved curve.  At p = 2,
    a2' = 0 reads 3r = s^2 + a1 s - a2, which eliminates r from 9 a4' and
    27 a6': a term of r-degree e gains the factor 3^(d - e).
    """
    rst = Ring(("r", "s", "t"), (4, 2, 6), modulus)
    r, s, t = rst.gens()
    moved = transform(WeierstrassCurve.from_constants(a, ring=rst),
                      CoordinateChange(r, s, t))
    if p == 3:
        return rst, [moved.a1, moved.a3, moved.a6]
    st = Ring(("s", "t"), (2, 6), modulus)
    s, t = st.gens()
    images = {"r": s * s + a[0] * s - a[1], "s": s, "t": t}
    rels = []
    for d, rel in ((2, moved.a4), (3, moved.a6)):
        cleared = rst.poly({m: c * 3 ** (d - m[0])
                            for m, c in rel.terms.items()})
        rels.append(cleared.map_gens(st, images))
    return st, rels


def cover_fiber(curve_coeffs: Sequence[int], p: int, field: str = None
                ) -> FiberAlgebra:
    """Fiber algebra of the flat cover over the given curve.

    `curve_coeffs` = (a1, a2, a3, a4, a6) as integers, read in the base
    field; `field` is "Q" or "F<p>", p prime (default: F_p).  The
    off-prime integer must be invertible in the field.
    """
    if p not in (2, 3):
        raise ValueError("cover exists for p in {2, 3}")
    name = (field or "F%d" % p).upper()
    if name == "Q":
        q = None
    elif name.startswith("F"):
        q = int(name[1:])
        if not is_prime(q):
            raise ValueError("%s is not a prime field (use Q or F<p>, p prime)"
                             % name)
    else:
        raise ValueError("unknown field %r (use Q or F<p>, p prime)" % name)
    off = 3 if p == 2 else 2
    if q == off:
        raise ValueError("off-prime %d is not invertible in %s" % (off, name))
    ring, rels = _relations(tuple(curve_coeffs), p, q)

    # one echelon form of all monomial multiples of the relations up to
    # weight `bound`; columns run from the greatest (weight, exponent)
    # monomial down, so each pivot is its row's leading monomial
    top = max(rel.max_weight() for rel in rels)
    bound = 4 * top + 2 * max(ring.weights)
    by_weight = [ring.monomials_of_weight(w) for w in range(bound + 1)]
    cols = [m for ms in reversed(by_weight) for m in reversed(ms)]
    col = {m: j for j, m in enumerate(cols)}

    multiples = [Polynomial(ring, {m: 1}) * rel for rel in rels
                 for ms in by_weight[:bound - rel.max_weight() + 1]
                 for m in ms]
    # least leading monomial first: a new pivot then mostly lies left of
    # every stored row, so the rows come out nearly reduced and a normal
    # form meets few pivots (over Q this halves the time)
    multiples.sort(key=lambda f: -min(col[m] for m in f.terms))
    space = RowSpace(q)
    for f in multiples:
        # the ring reduced the coefficients mod q
        space.insert({col[m]: c for m, c in f.terms.items()})

    # Nakayama-style finiteness: scan for a full window of weights with no
    # irreducible monomial; everything above such a window is reducible too
    nonpiv = [[m for m in ms if col[m] not in space.rows]
              for ms in by_weight[:bound - top + 1]]
    wmax = max(ring.weights)
    cut = next((w0 for w0 in range(bound - top - wmax)
                if not any(nonpiv[w0 + 1:w0 + wmax + 1])), None)
    if cut is None:
        raise InvariantError("fiber basis did not stabilize below bound")
    basis = [m for ms in nonpiv[:cut + 1] for m in ms]

    # normal form of a monomial: reduce its unit vector
    index = {col[m]: i for i, m in enumerate(basis)}
    table: Dict[Tuple[int, int], Dict[int, object]] = {}
    for i, mi in enumerate(basis):
        for j, mj in enumerate(basis):
            prod = tuple(x + y for x, y in zip(mi, mj))
            red = space.reduce({col[prod]: 1})
            table[(i, j)] = {index[k]: c for k, c in red.items()}
    return FiberAlgebra(prime=p, field=name, var_names=ring.names,
                        var_weights=ring.weights, basis=basis,
                        mult_table=table, rank=len(basis))


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


def cech_weighted_projective(weights: Tuple[int, int], twists: Sequence[int],
                             gen_names: Tuple[str, str] = ("x1", "x2")
                             ) -> TwoRowPage:
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
        page.h0[j] = [monomial_text(gen_names, m) for m in sorted(h0)]
        page.h1[j] = [monomial_text(gen_names, m) for m in sorted(h1)]
        page.h0_ranks[j] = len(h0)
        page.h1_ranks[j] = len(h1)
        if _cech_snf_ranks(w1, w2, j) != (len(h0), len(h1)):
            raise InvariantError("Cech SNF cross-check failed at twist %d" % j)
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
    rows = {m: r for r, m in enumerate(c1)}
    cols = [{rows[m]: 1} for m in c0a] + [{rows[m]: -1} for m in c0b]
    rank = len(invariant_factors(cols))
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
    if not is_prime(prime):
        raise ValueError("%d is not a prime" % prime)
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
                raise InvariantError("Koszul limit failed to stabilize")
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
                    ws.append(monomial_text(("c4", "delta"),
                                            (-i, -(rem // wd))))
            gens[w] = ws
            h1[w] = len(ws)
        out["h1_generators"] = gens
        out["h1_meaning"] = ("R-module generators c4^-i delta^-k (graded "
                             "ranks of the cokernel are infinite over the "
                             "full ring)")
    out["generator_weights"] = weights
    if validate_h0:
        from .regseq import graded_regular_sequence_check
        curve = universal_curve()
        inv = invariants(curve)
        # c4, delta involve only the a_i; regularity on Z[a1..a6] extends
        # to R along the flat e_n-polynomial extension
        rep = graded_regular_sequence_check(
            curve.ring, [inv["c4"], inv["delta"]], prime, 32)
        if not rep.regular_through_cutoff:
            raise InvariantError("(c4, delta) regularity check failed: %r"
                                 % (rep.failure,))
        out["h0_validated"] = True
    return out


def _ring_rank(weights, w):
    if w < 0:
        return 0
    return poincare_series(weights, w)[w]
