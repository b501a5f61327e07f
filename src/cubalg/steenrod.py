"""Mod-2 dual Steenrod algebra: coproduct, conjugation, subalgebra
closure, primitives, graded freeness, and the uniqueness probes.

The algebra is Z/2[xi1, xi2, ...] with |xi_i| = 2^i - 1 (single grading);
only the generators needed for a given degree cutoff are instantiated.
Through xi_k it is the Hopf algebroid presentation `dual_steenrod(k)` over
A = F_2, whose structure maps give the coproduct and conjugation and whose
`split` reads the slots of a tensor-square monomial.
Membership in a subalgebra spec is leading-term reduction in its triangular
basis (`SubalgebraSpec.coordinates`).  The same leading terms give the
profile that presents a quotient A//C by monomials (`SubalgebraSpec.profile`)
and the cells of a freeness check, as a Poincare series.  Kernels over F_2
are taken by `intlinalg.f2_kernel` on bitmasks over the monomial basis of
each degree (`poly.monomials`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import intlinalg
from .hopf import HopfAlgebroidPresentation, slot_name
from .intlinalg import bits, f2_kernel
from .poincare import poincare_series, quotient_series, series_product
from .poly import Polynomial, Ring, monomial_text, monomials

# unused here, but perfbench/spans.py traces cubalg.steenrod.BitSpan
BitSpan = intlinalg.BitSpan


def gen_count(cutoff: int) -> int:
    k = 1
    while (2 << k) - 1 <= cutoff:   # 2^(k+1) - 1 <= cutoff
        k += 1
    return k


def xi_ring(cutoff: int) -> Ring:
    """Z/2[xi_1, ..., xi_k] with every generator of degree <= cutoff: the
    Gamma of `dual_steenrod(k)`."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    return dual_steenrod(gen_count(cutoff)).gamma


@functools.lru_cache(maxsize=None)
def dual_steenrod(k: int) -> HopfAlgebroidPresentation:
    """(F_2, A_*) through xi_k as a Hopf algebroid presentation (Milnor
    1958): Delta(xi_n) = sum_i xi_{n-i}^(2^i) (x) xi_i, and chi from the
    recursion sum_{i=0}^n xi_{n-i}^(2^i) chi(xi_i) = 0 (n >= 1).  eta_R =
    eta_L, since A = F_2 has no generators.  Shared by every call, so
    callers only read it."""
    names = tuple("xi%d" % i for i in range(1, k + 1))
    H = HopfAlgebroidPresentation(
        name="dual_steenrod", A=Ring((), (), 2), gamma_names=names,
        gamma_weights=tuple((1 << i) - 1 for i in range(1, k + 1)),
        eta_r={}, delta={}, chi_gamma={})
    t2, g = H.tensor_ring(2), H.gamma
    left = [t2.one()] + [t2.gen(slot_name(n, 1)) for n in names]
    right = [t2.one()] + [t2.gen(slot_name(n, 2)) for n in names]
    xis = [g.one()] + g.gens()
    chis = [g.one()]                            # chi(xi_0) = 1
    for n in range(1, k + 1):
        H.delta[names[n - 1]] = sum(
            (left[n - i] ** (1 << i) * right[i] for i in range(n + 1)),
            t2.zero())
        # chi(xi_n) = -sum_{i<n} xi_{n-i}^(2^i) chi(xi_i), and -1 = 1 mod 2
        chis.append(sum((xis[n - i] ** (1 << i) * chis[i] for i in range(n)),
                        g.zero()))
    H.chi_gamma.update(zip(names, chis[1:]))
    return H


def coproduct(x: Polynomial, cutoff: int) -> Polynomial:
    """Delta(x) in the two-slot tensor ring of `dual_steenrod`, for x of
    degree <= cutoff."""
    if x.max_weight() > cutoff:
        raise ValueError("element degree exceeds cutoff")
    return dual_steenrod(gen_count(cutoff)).delta_map(x)


def conjugate(x: Polynomial) -> Polynomial:
    """Hopf conjugation chi, as a ring map."""
    return dual_steenrod(len(x.ring.names)).chi(x)


def antipode_identity_holds(k_max: int) -> bool:
    """sum_i xi_{k-i}^(2^i) chi(xi_i) = 0 for 1 <= k <= k_max."""
    H = dual_steenrod(k_max)
    g = H.gamma
    xis = [g.one()] + g.gens()
    chis = [g.one()] + [H.chi_gamma[n] for n in H.gamma_names]
    return all(
        sum((xis[k - i] ** (1 << i) * chis[i] for i in range(k + 1)),
            g.zero()).is_zero()
        for k in range(1, k_max + 1))


# ---------------------------------------------------------------------------
# subalgebra specs


def _lex_key(mono: tuple) -> tuple:
    """Sort key of the lex order that compares the exponent of xi_k first,
    then xi_{k-1}, ..., xi_1."""
    return mono[::-1]


@dataclass
class SubalgebraSpec:
    """Polynomial subalgebra of the dual Steenrod algebra, given by
    generator elements (with an instantiation rule already applied through
    the cutoff).

    The generators must meet the lead condition: in the lex order of
    `_lex_key`, each leads with a power xi_n^p of one xi_n, and no two
    lead with the same xi_n.  xibar_n is xi_n plus a polynomial in xi_1,
    ..., xi_{n-1} (Milnor 1958), so xibar_n^p and xi_n^p both lead with
    xi_n^p, and every spec `make_spec` builds meets it.  Leading terms
    multiply, so basis_poly(e) leads with prod_i xi_{n_i}^(p_i e_i), one
    monomial per e: the basis is triangular, hence independent, and
    `coordinates` reads an element in it by leading-term reduction.  The
    condition is checked once, on the first call to `coordinates` or
    `profile`, or when `freeness_rank_check` reads the spec as its small
    algebra."""
    name: str
    ring: Ring
    gen_names: List[str]                 # descriptive, e.g. "xibar2^4"
    gens: List[Polynomial]
    cutoff: int
    _basis: Dict[tuple, Polynomial] = field(default_factory=dict)
    _degrees: Tuple[int, ...] = field(init=False, repr=False)
    # xi position n -> (generator index, p) for the generator leading with
    # xi_{n+1}^p; None until the lead condition is checked
    _leads: Optional[Dict[int, Tuple[int, int]]] = field(
        default=None, init=False, repr=False)

    def __post_init__(self):
        self._degrees = tuple(g.weight() for g in self.gens)

    def gen_degrees(self) -> List[int]:
        return list(self._degrees)

    def basis_poly(self, expo: tuple) -> Polynomial:
        if expo not in self._basis:
            if not any(expo):
                self._basis[expo] = self.ring.one()
            else:
                i = next(k for k, e in enumerate(expo) if e)
                prev = expo[:i] + (expo[i] - 1,) + expo[i + 1:]
                self._basis[expo] = self.basis_poly(prev) * self.gens[i]
        return self._basis[expo]

    def _lead_variables(self) -> Dict[int, Tuple[int, int]]:
        """The lead of every generator, checked against the lead condition;
        a generator that fails it raises ValueError."""
        if self._leads is None:
            names = self.ring.names
            leads: Dict[int, Tuple[int, int]] = {}
            for i, (label, g) in enumerate(zip(self.gen_names, self.gens)):
                lead = max(g.terms, key=_lex_key)
                hit = [(n, p) for n, p in enumerate(lead) if p]
                if len(hit) != 1:
                    raise ValueError(
                        "generator %s leads with %s, not with a power of "
                        "one xi" % (label, monomial_text(names, lead)))
                n, p = hit[0]
                if n in leads:
                    raise ValueError(
                        "generators %s and %s both lead with a power of %s"
                        % (self.gen_names[leads[n][0]], label, names[n]))
                leads[n] = (i, p)
            self._leads = leads
        return self._leads

    def profile(self) -> Dict[int, int]:
        """{xi position n: p}, one entry per generator, which leads with
        xi_{n+1}^p.  It presents A//spec as a profile quotient (Adams &
        Margolis 1974): the ideal A . spec^+ is the monomial ideal J
        generated by the xi_{n+1}^p.  A generator with a term outside J
        raises ValueError naming the generator and the term.

        The leads are pairwise coprime, so the generators are a Groebner
        basis of A . spec^+ (Buchberger's first criterion), whose leading
        terms then span J degree by degree.  When every term of every
        generator lies in J, A . spec^+ lies in J, and equal dimensions in
        each degree make the two equal."""
        prof = {n: p for n, (_, p) in self._lead_variables().items()}
        for label, g in zip(self.gen_names, self.gens):
            for m in g.terms:
                if not any(m[n] >= p for n, p in prof.items()):
                    raise ValueError(
                        "generator %s has the term %s outside the ideal of "
                        "its profile" % (label,
                                         monomial_text(self.ring.names, m)))
        return prof

    def coordinates(self, x: Polynomial) -> Optional[List[tuple]]:
        """The exponents e, each once, with x = sum_e basis_poly(e), or
        None when x does not lie in the span of the basis through the
        cutoff.

        Leading-term reduction: the lead of x must be the lead of some
        basis_poly(e), a product of the generators' leads of degree <= the
        cutoff; adding basis_poly(e) to x removes it and leaves lower
        terms only.  Distinct basis elements have distinct leads, so a sum
        of them leads with the highest of theirs, and a lead of no basis
        element proves x outside the span.  Only the basis elements the
        reduction meets are formed."""
        leads = self._lead_variables()
        weight = self.ring.weight_of_monomial
        terms = {m for m, c in x.terms.items() if c % 2}
        coords: List[tuple] = []
        while terms:
            lead = max(terms, key=_lex_key)
            if weight(lead) > self.cutoff:
                return None
            expo = [0] * len(self.gens)
            for n, e in enumerate(lead):
                if e:
                    hit = leads.get(n)
                    if hit is None or e % hit[1]:
                        return None
                    expo[hit[0]] = e // hit[1]
            coords.append(tuple(expo))
            terms.symmetric_difference_update(
                self.basis_poly(coords[-1]).terms)
        return coords


def make_spec(name: str, rule: Sequence[Tuple[int, int]], cutoff: int,
              conjugated: bool = True) -> SubalgebraSpec:
    """Spec from (xi index, power) pairs; indices beyond the rule follow
    the last entry's power applied to every higher generator.  Only
    generators of degree <= cutoff are instantiated."""
    ring = xi_ring(cutoff)
    kmax = len(ring.names)
    chi = dual_steenrod(kmax).chi_gamma
    gens: List[Polynomial] = []
    gen_names: List[str] = []
    covered = {i for i, _ in rule}
    full: List[Tuple[int, int]] = list(rule)
    tail_power = rule[-1][1] if rule else 1
    for i in range(1, kmax + 1):
        if i not in covered and (rule and i > max(covered)):
            full.append((i, tail_power))
    for i, power in sorted(full):
        if i > kmax:
            continue
        deg = ((1 << i) - 1) * power
        if deg > cutoff:
            continue
        base = chi["xi%d" % i] if conjugated else ring.gen("xi%d" % i)
        gens.append(base ** power)
        label = ("xibar%d" % i) if conjugated else ("xi%d" % i)
        gen_names.append(monomial_text((label,), (power,)))
    return SubalgebraSpec(name=name, ring=ring, gen_names=gen_names,
                          gens=gens, cutoff=cutoff)


def ko_spec(cutoff: int) -> SubalgebraSpec:
    return make_spec("H(ko)", [(1, 4), (2, 2), (3, 1)], cutoff)


def tmf_spec(cutoff: int) -> SubalgebraSpec:
    return make_spec("H(tmf)", [(1, 8), (2, 4), (3, 2), (4, 1)], cutoff)


def bp_n_homology(n: int, cutoff: int) -> SubalgebraSpec:
    """H_*(BP<n>; Z/2) = Z/2[xibar_1^2, ..., xibar_{n+1}^2, xibar_{n+2},
    xibar_{n+3}, ...]; `comodule_closure_check` checks its closure."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rule = [(i, 2) for i in range(1, n + 2)] + [(n + 2, 1)]
    return make_spec("H(BP<%d>)" % n, rule, cutoff)


# ---------------------------------------------------------------------------
# closure, primitives, freeness


def comodule_closure_check(spec: SubalgebraSpec, cutoff: int) -> dict:
    """Delta(S) in A (x) S, for S the subalgebra the spec generates, through
    the cutoff; first failure witnessed.

    Delta is an algebra map (Milnor 1958) and A (x) S is a subalgebra, so
    it suffices that Delta(g) lies in A (x) S for every generator g.  The
    generators are visited in the order of the spec's basis exponents (by
    degree, then as `poly.monomials` lists a degree); a decomposable basis
    element is a product of lower-degree generators, so the first failing
    basis element is always a generator, and the witness is the one the
    check over every basis element would give.  `checked` counts the
    generators that passed.  The cutoff must need as many xi generators as
    the spec's own cutoff, since Delta is split in the spec's ring.

    Delta(g) lies in A (x) S iff, for each left-leg monomial L and right
    degree, the sum of the right legs beside L lies in S; that is tested
    by `SubalgebraSpec.coordinates`, so the spec's generators must meet
    its lead condition, and only the basis elements the reductions meet
    are formed."""
    ring = spec.ring
    if gen_count(cutoff) != len(ring.names):
        raise ValueError("cutoff %d needs %d xi generators, but the spec was "
                         "built at cutoff %d with %d"
                         % (cutoff, gen_count(cutoff), spec.cutoff,
                            len(ring.names)))
    H = dual_steenrod(len(ring.names))
    ngens = len(spec.gens)
    # the generators' exponents in the order of the basis exponents
    gen_expos = [e for _, e in sorted(
        (dg, tuple(int(j == i) for j in range(ngens)))
        for i, dg in enumerate(spec.gen_degrees()) if dg <= cutoff)]
    checked = 0
    for expo in gen_expos:
        dx = coproduct(spec.basis_poly(expo), cutoff)
        # group by left leg, then by right degree: each (left leg, degree)
        # sum of right legs must lie in the spec
        by_left: Dict[tuple, Dict[int, List[tuple]]] = {}
        for mono in dx.terms:
            _, left, right = H.split(mono)
            dr = ring.weight_of_monomial(right)
            if dr:
                by_left.setdefault(left, {}).setdefault(dr, []).append(right)
        for left, parts in by_left.items():
            for rights in parts.values():
                leg = Polynomial(ring, dict.fromkeys(rights, 1))
                if spec.coordinates(leg) is None:
                    return {"closed": False, "checked": checked,
                            "witness": {
                                "element": monomial_text(
                                    spec.gen_names, expo),
                                "left_leg": monomial_text(ring.names, left),
                                "right_leg": leg.text()}}
        checked += 1
    return {"closed": True, "checked": checked, "witness": None}


def primitives(window: Sequence[int], cutoff: int,
               quotient_by: Optional[SubalgebraSpec] = None
               ) -> Dict[int, List[str]]:
    """Per degree in `window`, a basis of the primitives of A (or of the
    quotient Hopf algebra A//C when `quotient_by` is given), as
    representative polynomials.  Degrees <= 0 have none; a degree above
    the cutoff is rejected.

    x in A_d is primitive iff it pairs to zero with the decomposables
    A+ . A+ of the dual algebra A, the Steenrod algebra.  The Sq^(2^k)
    generate A, so A+ . A+ = sum_k A+ . Sq^(2^k), and Sq^j is dual to
    the monomial xi1^j (Milnor 1958): x is primitive iff, for every
    2^k < d, the terms L (x) xi1^(2^k) of Delta(x) cancel.  Those terms
    are read off the exponents (`_left_legs`), with no coproduct formed.
    The algebra generators of the dual of A//C are not known in closed
    form, so a quotient takes the reduced coproduct of each
    representative monomial instead (`_quotient_primitives`); C must be
    built through the cutoff, or generators of C below it are missing."""
    ring = xi_ring(cutoff)
    for d in window:
        if d > cutoff:
            raise ValueError("degree %d of the window exceeds the cutoff %d"
                             % (d, cutoff))
    if quotient_by is not None:
        if quotient_by.cutoff < cutoff:
            raise ValueError("quotient spec built at cutoff %d, below the "
                             "cutoff %d" % (quotient_by.cutoff, cutoff))
        return _quotient_primitives(window, cutoff, quotient_by)
    out: Dict[int, List[str]] = {}
    for d in window:
        if d <= 0:
            out[d] = []
            continue
        monos = monomials(ring.weights, d)
        # one column bit per (2^k, L): the coefficient of L (x) xi1^(2^k)
        tindex: Dict[Tuple[int, tuple], int] = {}
        vecs: List[int] = []
        for m in monos:
            v = 0
            j = 1
            while j < d:
                for left in _left_legs(m, j):
                    v ^= 1 << tindex.setdefault((j, left), len(tindex))
                j <<= 1
            vecs.append(v)
        out[d] = [ring.poly({monos[i]: 1 for i in bits(mask)}).text()
                  for mask in f2_kernel(vecs)]
    return out


def _left_legs(expo: tuple, j: int) -> List[tuple]:
    """The left legs L of the terms L (x) xi1^j of Delta(xi^expo), each
    once.

    Of Delta(xi_n) = sum_i xi_{n-i}^(2^i) (x) xi_i only xi_n (x) 1 and
    xi_{n-1}^2 (x) xi1 have a right leg in F_2[xi1].  So the terms come
    from splits j = sum_n j_n, taking xi_n^(r_n - j_n) xi_{n-1}^(2 j_n)
    (x) xi1^(j_n) from Delta(xi_n)^(r_n) with coefficient C(r_n, j_n),
    which is odd iff j_n is a bitwise subset of r_n (Lucas).  Hence
    L_n = r_n - j_n + 2 j_{n+1} (xi_0 = 1 absorbs 2 j_1), and L fixes the
    split from the top down, so no two splits cancel."""
    # below[n - 1] = r_1 + ... + r_{n-1} bounds j_1 + ... + j_{n-1}
    below = [0]
    for r in expo:
        below.append(below[-1] + r)
    # over n = top, ..., 2 (expo[n - 1] = r_n): the legs (L_{n+1}, ...),
    # the part of j left to split over j_1, ..., j_n, and 2 j_{n+1}
    states = [((), j, 0)]
    for i in range(len(expo) - 1, 0, -1):
        r, cap = expo[i], below[i]
        nxt = []
        for legs, rem, shift in states:
            s = r
            while True:             # the bitwise subsets s of r, descending
                if s <= rem and rem - s <= cap:
                    nxt.append(((r - s + shift,) + legs, rem - s, s << 1))
                if not s:
                    break
                s = (s - 1) & r
        states = nxt
    r = expo[0]
    return [(r - rem + shift,) + legs for legs, rem, shift in states
            if not rem & ~r]


def _quotient_primitives(window: Sequence[int], cutoff: int,
                         quotient_by: SubalgebraSpec
                         ) -> Dict[int, List[str]]:
    """`primitives` of A//C, C = `quotient_by`: the kernel of the reduced
    coproduct on the representative monomials, both legs reduced mod the
    ideal A . C+.  By C's profile that ideal is spanned by the capped
    monomials, those with e_n >= p_n for some n (`SubalgebraSpec.profile`),
    so the representatives are the monomials that are not capped, and
    reduction drops a term when either leg is capped."""
    ring = xi_ring(cutoff)
    H = dual_steenrod(len(ring.names))
    # a cap on an xi beyond the ring lies above the cutoff
    caps = [(n, p) for n, p in quotient_by.profile().items()
            if n < len(ring.names)]

    def capped(mono: tuple) -> bool:
        return any(mono[n] >= p for n, p in caps)

    out: Dict[int, List[str]] = {}
    for d in window:
        if d <= 0:
            out[d] = []
            continue
        reps = [m for m in monomials(ring.weights, d) if not capped(m)]
        # one column bit per term L (x) R of both legs uncapped
        tindex: Dict[tuple, int] = {}
        vecs: List[int] = []
        for m in reps:
            v = 0
            for mono in coproduct(Polynomial(ring, {m: 1}), cutoff).terms:
                _, left, right = H.split(mono)
                if any(left) and any(right) and not (capped(left)
                                                     or capped(right)):
                    v ^= 1 << tindex.setdefault(mono, len(tindex))
            vecs.append(v)
        out[d] = [ring.poly({reps[i]: 1 for i in bits(mask)}).text()
                  for mask in f2_kernel(vecs)]
    return out


def freeness_rank_check(big: SubalgebraSpec, small: SubalgebraSpec,
                        cells: Sequence[int], cutoff: int) -> dict:
    """(a) Poincare-series identity PS(big) = PS(small) * sum_d q^d over
    the cells, coefficientwise through the cutoff; (b) the cells match
    the degrees of a basis of big/(small^+ . big), read off leading terms.
    A cell below 0 or above the cutoff could never be found, and two specs
    built with different numbers of xi generators live in different rings;
    both are rejected.

    By its lead condition (see `SubalgebraSpec`) big is the polynomial
    ring F_2[y_1, ..., y_m] on its generators, and ordering its basis by
    the leads of `basis_poly` is a monomial order.  The small generators
    must lie in big; small meets the lead condition too, so each leads
    with a power of one xi, and in big's coordinates small generator i
    leads with y_{j_i}^(r_i) for one big generator j_i, distinct for
    distinct i.  That lead is the first exponent `big.coordinates` finds.
    Pairwise coprime leads make the small generators a Groebner basis of
    the ideal small^+ . big they generate (Buchberger's first criterion;
    Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, 2.9), so the
    standard monomials {e : e_(j_i) < r_i} of big's basis are a basis of
    big/(small^+ . big) degree by degree.  Their degrees are the cells
    found, read off their series PS(big) * prod_i (1 - q^|y_(j_i)^(r_i)|)
    through big's cutoff, with no basis enumerated.  By graded Nakayama,
    lifts of that basis times small span big, and the Poincare-series
    identity makes the count match degreewise, so big is free over small
    on them exactly when both (a) and the cells hold."""
    if len(big.ring.names) != len(small.ring.names):
        raise ValueError("big spec built at cutoff %d with %d xi generators, "
                         "small spec at cutoff %d with %d"
                         % (big.cutoff, len(big.ring.names), small.cutoff,
                            len(small.ring.names)))
    ps_small = poincare_series(small.gen_degrees(), cutoff)
    ps_cells = [0] * (cutoff + 1)
    for d in cells:
        if d < 0:
            raise ValueError("cell in negative degree %d" % d)
        if d > cutoff:
            raise ValueError("cell in degree %d exceeds the cutoff %d"
                             % (d, cutoff))
        ps_cells[d] += 1
    big_degrees = big.gen_degrees()
    ps_ok = series_product(ps_small, ps_cells, cutoff) == \
        poincare_series(big_degrees, cutoff)

    small._lead_variables()         # raises ValueError, as big's check does
    # the degrees of the powers y_j^r that lead the small generators
    caps: List[int] = []
    for g, d in zip(small.gens, small.gen_degrees()):
        coords = big.coordinates(g)
        if coords is None:
            return {"free": False, "ps_identity": ps_ok,
                    "failure": "small generator of degree %d not in big"
                               % d, "cells": sorted(cells)}
        (j, r), = ((j, e) for j, e in enumerate(coords[0]) if e)
        caps.append(r * big_degrees[j])

    series = quotient_series(big_degrees, caps, min(cutoff, big.cutoff))
    got = [d for d, n in enumerate(series) for _ in range(n)]
    cell_multiset = sorted(cells)
    cells_ok = got == cell_multiset
    return {"free": ps_ok and cells_ok, "ps_identity": ps_ok,
            "cells_found": got, "cells": cell_multiset,
            "cells_match": cells_ok, "rank": len(cell_multiset)}


def a2_pattern_series(cutoff: int) -> List[int]:
    """PS(A)/PS(H(tmf)-spec), which is PS(A) * prod (1 - q^|g|) over the
    spec's generators g: the graded dimensions of the 64-dimensional
    pattern dual to A(2)."""
    return quotient_series(xi_ring(cutoff).weights,
                           tmf_spec(cutoff).gen_degrees(), cutoff)


def uniqueness_probe(case: str, prim: Optional[Dict[int, List[str]]] = None
                     ) -> dict:
    """The forcing steps of the uniqueness arguments: the lowest-degree
    nonconstant element of a candidate subcomodule algebra with the target
    graded dimension must be primitive; the primitives of A at that degree
    force the generator.  Primitives are listed through degree 16: `prim`
    is `primitives(range(1, 17), 16)`, computed here when not given.  For
    the tmf case, additionally the degree-12 witness: xi1^6 xibar2^2 is not
    primitive modulo xi1^8."""
    if case not in ("ko", "tmf"):
        raise ValueError("case must be 'ko' or 'tmf'")
    lowest = 4 if case == "ko" else 8
    if prim is None:
        prim = primitives(range(1, 17), 16)
    at_lowest = prim[lowest]
    generator = monomial_text(("xi1",), (lowest,))
    forced = at_lowest == [generator]
    report = {"case": case, "lowest_degree": lowest,
              "primitives_at_lowest": at_lowest,
              "forced_generator": generator if forced else None,
              "all_primitives": {d: prim[d] for d in prim if prim[d]}}
    if case == "tmf":
        H = dual_steenrod(gen_count(16))
        ring = H.gamma
        x = (ring.gen("xi1") ** 6) * (H.chi_gamma["xi2"] ** 2)
        dx = coproduct(x, 16)
        bad_terms = []
        for mono in dx.terms:
            _, left, right = H.split(mono)
            dl = ring.weight_of_monomial(left)
            dr = 12 - dl
            if dl == 0 or dr == 0:
                continue
            # membership in A (x) F2{xi1^8} requires every right leg to be
            # the monomial xi1^8
            if right != (8,) + (0,) * (len(ring.names) - 1):
                bad_terms.append((monomial_text(ring.names, left),
                                  monomial_text(ring.names, right)))
        report["degree12_witness"] = {
            "element": "xi1^6*xibar2^2",
            "primitive_mod_xi1^8": not bad_terms,
            "offending_terms": bad_terms[:3]}
    return report
