"""Normalized cobar complex of a Hopf algebroid presentation.

Cochains in degree s live in Gamma-bar^((x)_A s) (x)_A M.  With Gamma free
over A on monomials, a basis is given by tuples

    a-monomial . (m_1 | ... | m_s) . b

with every slot entry m_i a nonconstant gamma monomial and b a comodule
basis element; the coefficient monomial acts through eta_L on the far left.
The cosimplicial faces are

    d = sum_{i=0}^{s+1} (-1)^i face_i,

where face_0 inserts a unit slot (turning the left coefficient into eta_R,
by the middle relation), face_i applies Delta to slot i, and face_{s+1}
applies the coaction to b.  Terms acquiring a constant slot are dropped
(normalization), so a comodule keeps only its reduced coaction
psi(b) - 1 (x) b, as (coefficient, gamma exponents, label) triples whose
exponents fill the new last slot as they are.  Delta images must be free
of A-generators -- true for every built-in presentation; any other raises
NotImplementedError -- so no coefficient ever has to be moved across an
interior slot.

Each differential is kept as sparse columns, {row: coefficient}, reduced
mod the modulus of Gamma when it has one.  Cohomology is computed over Z
(the Smith diagonal of the sparse columns, unit pivots eliminated first:
free rank plus torsion orders) or over F_p.  d o d = 0 is checked on
every assembled bidegree by sparse composition, and a failure raises
InvariantError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import InvariantError
from .chart import BigradedChart
from .hopf import HopfAlgebroidPresentation
from .intlinalg import field_rank, invariant_factors, p_local_part
from .poly import is_prime, monomial_text


@dataclass
class Comodule:
    """Graded comodule with finite listed basis, kept by its reduced
    coaction psi(b) - 1 (x) b: for each basis label, the terms
    c . eps (x) b' as triples (c, eps, b'), eps the exponents of a
    nonconstant pure gamma monomial."""
    basis: List[Tuple[str, int]]                       # (label, weight)
    coaction: Dict[str, List[Tuple[int, tuple, str]]]  # (c, eps, label')


def trivial_comodule() -> Comodule:
    """A itself in weight 0: its reduced coaction is zero."""
    return Comodule(basis=[("1", 0)], coaction={"1": []})


def extended_comodule(H: HopfAlgebroidPresentation, max_weight: int
                      ) -> Comodule:
    """Gamma itself (an extended comodule, coaction Delta), truncated to
    the gamma-monomial basis of weight <= max_weight."""
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0, got %d" % max_weight)
    basis: List[Tuple[str, int]] = []
    coaction: Dict[str, List[Tuple[int, tuple, str]]] = {}
    names = H.gamma_names
    for w in range(max_weight + 1):
        for m in H.gamma_monomials(w, nonconstant=(w != 0)):
            label = monomial_text(names, m)
            basis.append((label, w))
            coaction[label] = [(c, p, monomial_text(names, q))
                               for c, p, q in H.delta_monomial(m) if any(p)]
    basis.sort(key=lambda bw: (bw[1], bw[0]))
    return Comodule(basis=basis, coaction=coaction)


class CobarComplex:
    """The weight-`strand` strand of the normalized cobar complex of
    (H, M), assembled through cochain degree s_max (+1 for the outgoing
    differential)."""

    def __init__(self, H: HopfAlgebroidPresentation, M: Comodule,
                 strand: int, s_max: int):
        self.H = H
        self.M = M
        self.strand = strand
        self.s_max = s_max
        self.bases: List[List[tuple]] = []   # per s: (amono, slots, label)
        for s in range(s_max + 2):
            self.bases.append(self._enumerate(s))
        # per s: d_s as its columns, {row: nonzero coefficient}
        self.columns: List[List[Dict[int, int]]] = [
            self._differential(s) for s in range(s_max + 1)]
        self._check_d_squared()

    @functools.cached_property
    def matrices(self) -> List[List[List[int]]]:
        """Dense view of the differentials, d_s as a list of rows."""
        out = []
        for s, cols in enumerate(self.columns):
            mat = [[0] * len(cols) for _ in self.bases[s + 1]]
            for j, col in enumerate(cols):
                for i, c in col.items():
                    mat[i][j] = c
            out.append(mat)
        return out

    # -- basis -------------------------------------------------------------

    def _enumerate(self, s: int) -> List[tuple]:
        H = self.H
        out: List[tuple] = []
        for label, wl in self.M.basis:
            rem = self.strand - wl
            if rem < 0:
                continue

            def rec(i: int, budget: int, slots: tuple):
                if i == s:
                    for amono in H.A.monomials_of_weight(budget):
                        out.append((amono, slots, label))
                    return
                for w in range(budget + 1):
                    for m in H.gamma_monomials(w):
                        rec(i + 1, budget - w, slots + (m,))

            rec(0, rem, ())
        out.sort()
        return out

    # -- differential ------------------------------------------------------

    def _differential(self, s: int) -> List[Dict[int, int]]:
        """d_s as its columns.  Faces 0..s are worked out once per input and
        kept in a table local to this call, its terms in the order they are
        added: face 0 once per A-monomial, faces 1..s once per slot
        monomial; face s+1 reads the reduced coaction of the label."""
        H = self.H
        mod = H.gamma.modulus
        index = {b: i for i, b in enumerate(self.bases[s + 1])}
        # face 0: the terms delta_a . eps of eta_R(a) with eps nonconstant
        face0: Dict[tuple, List[tuple]] = {}
        # faces 1..s: the terms c . p (x) q of Delta(m), p and q nonconstant
        inner: Dict[tuple, List[tuple]] = {}
        last_sign = -1 if (s + 1) % 2 else 1
        cols: List[Dict[int, int]] = []
        for amono, slots, label in self.bases[s]:
            acc: Dict[tuple, int] = {}
            terms = face0.get(amono)
            if terms is None:
                terms = face0[amono] = []
                for mono, c in H.eta_R_monomial(amono).terms.items():
                    delta_a, eps = H.split(mono)
                    if any(eps):
                        terms.append((delta_a, eps, c))
            for delta_a, eps, c in terms:
                target = (delta_a, (eps,) + slots, label)
                acc[target] = acc.get(target, 0) + c
            for i, m in enumerate(slots):
                terms = inner.get(m)
                if terms is None:
                    terms = inner[m] = [(p, q, c) for c, p, q
                                        in H.delta_monomial(m)
                                        if any(p) and any(q)]
                sign = -1 if (i + 1) % 2 else 1
                head, tail = slots[:i], slots[i + 1:]
                for p, q, c in terms:
                    target = (amono, head + (p, q) + tail, label)
                    acc[target] = acc.get(target, 0) + sign * c
            for c, eps, label2 in self.M.coaction[label]:
                target = (amono, slots + (eps,), label2)
                acc[target] = acc.get(target, 0) + last_sign * c
            if mod:
                acc = {t: c % mod for t, c in acc.items()}
            cols.append({index[t]: c for t, c in acc.items() if c})
        return cols

    def _check_d_squared(self):
        """d_{s+1} d_s = 0 by sparse composition, mod the modulus of Gamma
        when it has one."""
        mod = self.H.gamma.modulus
        for s in range(self.s_max):
            outer = self.columns[s + 1]
            for col in self.columns[s]:
                acc: Dict[int, int] = {}
                for k, c in col.items():
                    for i, x in outer[k].items():
                        acc[i] = acc.get(i, 0) + c * x
                if any(y % mod if mod else y for y in acc.values()):
                    raise InvariantError(
                        "d^2 != 0 at cochain degree %d, strand %d"
                        % (s, self.strand))

    # -- cohomology --------------------------------------------------------

    def cohomology(self, prime: Optional[int] = None
                   ) -> List[Tuple[int, List[int]]]:
        """Per s in 0..s_max: (free rank, torsion orders) over Z, or
        (dimension, []) over F_p when `prime` is given; a Gamma with a
        modulus p needs prime = p.

        Each differential is eliminated once.  Over Z, Z^n / ker d_s is
        torsion-free, so ker d_s is a direct summand of Z^n and H^s has
        free rank n - rank d_s - rank d_{s-1} and the torsion of
        Z^n / im d_{s-1}: the invariant factors of d_{s-1} above 1.
        d^2 = 0 was checked when the complex was assembled.
        """
        mod = self.H.gamma.modulus
        if mod and prime != mod:
            raise ValueError("Gamma has modulus %d: cohomology needs "
                             "prime=%d" % (mod, mod))
        # entry s + 1 is d_s; entry 0 is the zero map into degree 0
        if prime is None:
            facs = [[]] + [invariant_factors(cols) for cols in self.columns]
            ranks = [len(f) for f in facs]
        else:
            ranks = [0] + [field_rank(
                ({i: c % prime for i, c in col.items() if c % prime}
                 for col in cols), prime) for cols in self.columns]
            facs = [[]] * len(ranks)
        return [(len(self.bases[s]) - ranks[s + 1] - ranks[s],
                 [f for f in facs[s] if f != 1])
                for s in range(self.s_max + 1)]


# ---------------------------------------------------------------------------
# charts


def twist_comodule(H: HopfAlgebroidPresentation, j: int) -> Comodule:
    """The comodule whose strand-2j cobar computes H^*(omega^j): for graded
    algebroids the trivial comodule (the twist is the weight strand); for
    the Z/2-group algebroid the generator sits in weight 2j, with the sign
    coaction 1 - 2d when j is odd and the trivial one when j is even."""
    if H.name == "z2_group":
        return Comodule(basis=[("1", 2 * j)],
                        coaction={"1": [(-2, (1,), "1")] if j % 2 else []})
    return trivial_comodule()


def cobar_cohomology(H: HopfAlgebroidPresentation, twists: Sequence[int],
                     s_max: int, prime: Optional[int] = None,
                     p_local: Optional[int] = None,
                     comodule: Optional[Comodule] = None) -> BigradedChart:
    """Bigraded chart of cobar cohomology, one column per twist j (placed
    at internal degree t = 2j).  `prime` switches to F_p coefficients;
    `p_local` keeps Z coefficients but strips torsion prime to p."""
    if s_max < 0:
        raise ValueError("s_max must be >= 0, got %d" % s_max)
    for opt, q in (("prime", prime), ("p_local", p_local)):
        if q is not None and not is_prime(q):
            raise ValueError("%s must be a prime, got %d" % (opt, q))
    chart = BigradedChart(s_max=s_max,
                          t_values=tuple(2 * j for j in twists))
    chart.meta["algebroid"] = H.name
    chart.meta["coefficients"] = ("Z" if prime is None else "F%d" % prime)
    if p_local is not None:
        chart.meta["p_local"] = p_local
    for j in twists:
        M = comodule if comodule is not None else twist_comodule(H, j)
        cx = CobarComplex(H, M, 2 * j, s_max)
        for s, (rank, torsion) in enumerate(cx.cohomology(prime)):
            if p_local is not None:
                rank, torsion = p_local_part(rank, list(torsion), p_local)
            if rank or torsion:
                chart.cells[(s, 2 * j)] = (rank, tuple(torsion))
    return chart
