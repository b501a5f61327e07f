"""Hopf algebroid presentations and their structure maps.

A presentation (A, Gamma) keeps Gamma as a free polynomial extension of the
graded base ring A.  Tensor powers Gamma (x)_A ... (x)_A Gamma are realized
as further free extensions with one generator copy per slot, coefficients
normalized to the far left (the eta_L action), so an exponent vector is
the A part, then slot 1, slot 2, ...; only `split` and `join` read or
write that layout.  The middle relation gamma . eta_R(a) (x) gamma' =
gamma (x) eta_L(a) gamma' is what moves a coefficient across a slot.

`synthesize_weierstrass_algebroid` derives the coproduct of the Weierstrass
algebroid symbolically by composing two generic coordinate changes; nothing
about Delta is transcribed from a source.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence

from . import InvariantError
from .intlinalg import integer_kernel
from .poly import Polynomial, Ring, monomials


def slot_name(name: str, i: int) -> str:
    return "%s@%d" % (name, i)


@dataclass
class HopfAlgebroidPresentation:
    """(A, Gamma) with structure maps given on generators.

    eta_L is the inclusion A -> Gamma = A[gamma]; eta_R, Delta, chi are
    recorded by their generator images (Delta images in the 2-slot tensor
    ring, written with coefficients on the left).  epsilon kills the gamma
    generators.  `reduce_hook`, when set, rewrites polynomials to a normal
    form after every structure-map application (used by the Z/2-group
    algebroid, whose Gamma is Z[d]/(d^2 - d) handled by exponent clamping).
    """
    name: str
    A: Ring
    gamma_names: tuple
    gamma_weights: tuple
    eta_r: Dict[str, Polynomial]         # A-generator -> Gamma
    delta: Dict[str, Polynomial]         # gamma generator -> tensor square
    chi_gamma: Dict[str, Polynomial]     # gamma generator -> Gamma
    reduce_hook: Optional[Callable[[Polynomial], Polynomial]] = None
    notes: List[str] = field(default_factory=list)
    # the report of the `verify_or_raise` that passed, when one has run
    axioms: Dict[str, bool] = field(default_factory=dict, init=False,
                                    repr=False)

    _tensor_rings: Dict[int, Ring] = field(default_factory=dict,
                                           init=False, repr=False)
    _splitters: Dict[int, Callable] = field(default_factory=dict,
                                            init=False, repr=False)
    _eta_memo: Dict[tuple, Polynomial] = field(default_factory=dict,
                                               init=False, repr=False)
    _delta_memo: Dict[tuple, list] = field(default_factory=dict,
                                           init=False, repr=False)

    # -- rings and their exponent layout -----------------------------------

    @functools.cached_property
    def gamma(self) -> Ring:
        return self.A.extend(self.gamma_names, self.gamma_weights)

    def tensor_ring(self, s: int) -> Ring:
        """Gamma^((x)_A s) = A[gammas@1]...[gammas@s], built once per s."""
        if s not in self._tensor_rings:
            self._tensor_rings[s] = self.A.extend(
                [slot_name(n, i) for i in range(1, s + 1)
                 for n in self.gamma_names], self.gamma_weights * s)
        return self._tensor_rings[s]

    def split(self, mono: tuple) -> tuple:
        """A monomial of Gamma^((x)_A s), s >= 1, as the tuple (A part, slot
        1, ..., slot s); a monomial of Gamma itself splits as s = 1."""
        get = self._splitters.get(len(mono))
        if get is None:
            na, ng = len(self.A.names), len(self.gamma_names)
            get = self._splitters[len(mono)] = itemgetter(
                slice(0, na),
                *(slice(i, i + ng) for i in range(na, len(mono), ng)))
        return get(mono)

    def join(self, slots: Sequence[tuple], a: Optional[tuple] = None
             ) -> tuple:
        """The inverse of `split`: the monomial a . slot_1 (x) ... (x)
        slot_s, with a = 1 when not given."""
        head = (0,) * len(self.A.names) if a is None else a
        return head + tuple(e for m in slots for e in m)

    def _reduce(self, p: Polynomial) -> Polynomial:
        return self.reduce_hook(p) if self.reduce_hook else p

    # -- structure maps ----------------------------------------------------

    def eta_L(self, a: Polynomial) -> Polynomial:
        return self._reduce(a.cast(self.gamma))

    def eta_R(self, a: Polynomial) -> Polynomial:
        g = self.gamma
        images = {n: self.eta_r[n] for n in self.A.names}
        return self._reduce(a.map_gens(g, images))

    def eta_R_monomial(self, m: tuple) -> Polynomial:
        """eta_R of the A-monomial with exponents m, memoized
        multiplicatively: eta_R(m) = eta_R(m - e_k) . eta_R(x_k), with x_k
        the last generator that m uses."""
        out = self._eta_memo.get(m)
        if out is None:
            k = max((i for i, e in enumerate(m) if e), default=None)
            if k is None:
                out = self.gamma.one()
            else:
                rest = m[:k] + (m[k] - 1,) + m[k + 1:]
                out = self._reduce(self.eta_R_monomial(rest)
                                   * self.eta_r[self.A.names[k]])
            self._eta_memo[m] = out
        return out

    def epsilon(self, x: Polynomial) -> Polynomial:
        images: Dict[str, object] = {n: self.A.gen(n) for n in self.A.names}
        for n in self.gamma_names:
            images[n] = 0
        return x.map_gens(self.A, images)

    def chi(self, x: Polynomial) -> Polynomial:
        """Conjugation as a ring map Gamma -> Gamma (chi|A = eta_R)."""
        g = self.gamma
        if g.extends(x.ring):
            x = x.cast(g)
        images = {n: self.eta_r[n] for n in self.A.names}
        images.update(self.chi_gamma)
        return self._reduce(x.map_gens(g, images))

    def delta_map(self, x: Polynomial) -> Polynomial:
        """Coproduct as a ring map Gamma -> Gamma (x)_A Gamma."""
        t2 = self.tensor_ring(2)
        if self.gamma.extends(x.ring):
            x = x.cast(self.gamma)
        images = {n: t2.gen(n) for n in self.A.names}
        images.update(self.delta)
        return self._reduce(x.map_gens(t2, images))

    def delta_monomial(self, m: tuple) -> List[tuple]:
        """Delta of the pure gamma monomial with exponents m, as
        (coefficient, left exponents, right exponents) triples, memoized;
        NotImplementedError unless the image is free of A-generators."""
        out = self._delta_memo.get(m)
        if out is None:
            out = []
            image = self.delta_map(self.gamma.poly({self.join((m,)): 1}))
            for mono, c in image.terms.items():
                a, p, q = self.split(mono)
                if any(a):
                    raise NotImplementedError(
                        "Delta image with A-coefficients: interior "
                        "coefficient movement not supported")
                out.append((c, p, q))
            self._delta_memo[m] = out
        return out

    def to_right(self, x: Polynomial) -> Polynomial:
        """1 (x) x in the tensor square: the A-coefficients of x act through
        eta_L on the right slot, which is the same as eta_R on the left slot
        -- the middle relation, applied termwise."""
        t2 = self.tensor_ring(2)
        unit = (0,) * len(self.gamma_names)
        out = t2.zero()
        for mono, c in x.terms.items():
            a, g = self.split(mono)
            left: Dict[tuple, int] = {}
            for m, e in self.eta_R_monomial(a).terms.items():
                a2, g2 = self.split(m)
                left[self.join((g2, unit), a2)] = e
            out = out + c * t2.poly(left) * t2.poly({self.join((unit, g)): 1})
        return self._reduce(out)

    def gamma_monomials(self, w: int, nonconstant: bool = True) -> list:
        """Pure gamma monomials of weight w (exponent tuples over
        gamma_names only), in the algebra basis of Gamma over A."""
        if self.reduce_hook is not None:
            # Z[d]/(d^2 - d): basis {1, d}
            if w != 0:
                return []
            out = [] if nonconstant else [(0,) * len(self.gamma_names)]
            for k in range(len(self.gamma_names)):
                out.append(tuple(1 if i == k else 0
                                 for i in range(len(self.gamma_names))))
            return out
        monos = monomials(self.gamma_weights, w)
        return [m for m in monos if any(m)] if nonconstant else list(monos)

    # -- axiom verification ------------------------------------------------

    def verify(self) -> Dict[str, bool]:
        """All presentation axioms, checked as exact polynomial identities."""
        A, g = self.A, self.gamma
        out: Dict[str, bool] = {}
        agens = [A.gen(n) for n in A.names] or [A.one()]
        out["counit_eta_L"] = all(
            self.epsilon(self.eta_L(a)) == a for a in agens)
        out["counit_eta_R"] = all(
            self.epsilon(self.eta_R(a)) == a for a in agens)

        t2 = self.tensor_ring(2)
        # (epsilon (x) 1) Delta = id = (1 (x) epsilon) Delta on Gamma-gens
        left_images: Dict[str, object] = {n: g.gen(n) for n in A.names}
        right_images = dict(left_images)
        for n in self.gamma_names:
            left_images[slot_name(n, 1)] = 0
            left_images[slot_name(n, 2)] = g.gen(n)
            right_images[slot_name(n, 1)] = g.gen(n)
            right_images[slot_name(n, 2)] = 0
        out["counit_laws"] = all(
            self._reduce(self.delta[n].map_gens(g, left_images)) == g.gen(n)
            and self._reduce(self.delta[n].map_gens(g, right_images))
            == g.gen(n)
            for n in self.gamma_names)

        # coassociativity on Gamma-generators
        t3 = self.tensor_ring(3)
        lhs_images: Dict[str, object] = {n: t3.gen(n) for n in A.names}
        rhs_images = dict(lhs_images)
        for n in self.gamma_names:
            d12 = _rename_slots(self.delta[n], self, {1: 1, 2: 2}, 3)
            d23 = _rename_slots(self.delta[n], self, {1: 2, 2: 3}, 3)
            lhs_images[slot_name(n, 1)] = d12
            lhs_images[slot_name(n, 2)] = t3.gen(slot_name(n, 3))
            rhs_images[slot_name(n, 1)] = t3.gen(slot_name(n, 1))
            rhs_images[slot_name(n, 2)] = d23
        out["coassociative"] = all(
            self._reduce(self.delta[n].map_gens(t3, lhs_images))
            == self._reduce(self.delta[n].map_gens(t3, rhs_images))
            for n in self.gamma_names)

        # Delta o eta_R = 1 (x) eta_R: the composite of two changes acts on
        # the base the same way as performing the changes in sequence
        out["delta_eta_R"] = all(
            self.delta_map(self.eta_R(a)) == self.to_right(self.eta_R(a))
            for a in agens)

        # conjugation: chi o eta_L = eta_R holds by definition; the rest:
        out["chi_involution"] = all(
            self.chi(self.chi(x)) == x.cast(g) if x.ring is A
            else self.chi(self.chi(x)) == x
            for x in agens + [g.gen(n) for n in self.gamma_names])
        out["chi_eta_R"] = all(
            self.chi(self.eta_R(a)) == a.cast(g) for a in agens)
        # antipode laws m(1 (x) chi)Delta = eta_L eps, m(chi (x) 1)Delta =
        # eta_R eps on Gamma-generators (eps = 0 there)
        mu_r: Dict[str, object] = {n: g.gen(n) for n in A.names}
        mu_l: Dict[str, object] = {n: self.eta_r[n] for n in A.names}
        for n in self.gamma_names:
            mu_r[slot_name(n, 1)] = g.gen(n)
            mu_r[slot_name(n, 2)] = self.chi_gamma[n]
            mu_l[slot_name(n, 1)] = self.chi_gamma[n]
            mu_l[slot_name(n, 2)] = g.gen(n)
        out["antipode_laws"] = all(
            self._reduce(self.delta[n].map_gens(g, mu_r)).is_zero()
            and self._reduce(self.delta[n].map_gens(g, mu_l)).is_zero()
            for n in self.gamma_names)
        return out

    def verify_or_raise(self) -> Dict[str, bool]:
        """`verify`, raising InvariantError on a failed axiom; a passing
        report is kept as `axioms`."""
        report = self.verify()
        bad = [k for k, v in report.items() if not v]
        if bad:
            raise InvariantError("presentation %r fails axioms: %s"
                                 % (self.name, ", ".join(bad)))
        self.axioms = report
        return report


def _rename_slots(x: Polynomial, H: HopfAlgebroidPresentation,
                  slot_map: Dict[int, int], s: int) -> Polynomial:
    """Rename tensor-square slots into the s-fold tensor ring."""
    t = H.tensor_ring(s)
    images: Dict[str, Polynomial] = {n: t.gen(n) for n in H.A.names}
    for n in H.gamma_names:
        for old, new in slot_map.items():
            images[slot_name(n, old)] = t.gen(slot_name(n, new))
    return x.map_gens(t, images)


# ---------------------------------------------------------------------------
# the Weierstrass algebroid, synthesized


def synthesize_weierstrass_algebroid() -> HopfAlgebroidPresentation:
    """(Z[a1..a6], Z[a1..a6][r,s,t]) with every structure map derived:
    eta_R from the transformation laws, Delta from symbolic
    composition of two generic coordinate changes, chi from the inverse
    change.  Convention: the left tensor factor is the first change
    applied."""
    from .curves import (CoordinateChange, transform, universal_curve,
                         universal_curve_ring)

    A = universal_curve_ring()
    gamma_names = ("r", "s", "t")
    gamma_weights = (4, 2, 6)
    g = A.extend(gamma_names, gamma_weights)

    generic = CoordinateChange(g.gen("r"), g.gen("s"), g.gen("t"))
    moved = transform(universal_curve(), generic)
    eta_r = dict(zip(A.names, moved.coefficients()))

    # compose two generic changes and read Delta off the composite's
    # components: first change -> slot 1, second change -> slot 2
    both = A.extend(("r1", "s1", "t1", "r2", "s2", "t2"),
                    gamma_weights + gamma_weights)
    c1 = CoordinateChange(both.gen("r1"), both.gen("s1"), both.gen("t1"))
    c2 = CoordinateChange(both.gen("r2"), both.gen("s2"), both.gen("t2"))
    comp = c1.compose(c2)
    # cross-check the matching: two-step transform equals one-step by comp
    curve = universal_curve()
    two_step = transform(transform(curve, c1), c2)
    one_step = transform(curve, comp)
    if any(x != y for x, y in zip(two_step.coefficients(),
                                  one_step.coefficients())):
        raise InvariantError("coordinate-change composition mismatch")

    H = HopfAlgebroidPresentation(
        name="weierstrass", A=A, gamma_names=gamma_names,
        gamma_weights=gamma_weights, eta_r=eta_r, delta={}, chi_gamma={},
        notes=["Gamma free over A with monomial basis r^i s^j t^k, "
               "ordered by (weight, lex)"])
    t2 = H.tensor_ring(2)
    images: Dict[str, Polynomial] = {n: t2.gen(n) for n in A.names}
    for n, i in (("r1", 1), ("s1", 1), ("t1", 1),
                 ("r2", 2), ("s2", 2), ("t2", 2)):
        images[n] = t2.gen(slot_name(n[:-1], i))
    H.delta = {n: getattr(comp, n).map_gens(t2, images)
               for n in gamma_names}

    inv = generic.inverse()
    H.chi_gamma = {n: getattr(inv, n) for n in gamma_names}
    H.verify_or_raise()
    return H


@functools.lru_cache(maxsize=None)
def builtin_algebroid(name: str) -> HopfAlgebroidPresentation:
    """Named presentations: "mqd" (quadratic divisors), "z2_group"
    (functions on the group Z/2), "weierstrass" (synthesized).  Each is
    built and verified once per process and shared by every call, so
    callers only read it; a failed build raises and is not kept."""
    if name == "weierstrass":
        return synthesize_weierstrass_algebroid()
    if name == "mqd":
        A = Ring(("b", "c"), (2, 4))
        gamma_names, gamma_weights = ("t",), (2,)
        g = A.extend(gamma_names, gamma_weights)
        b, c, t = g.gen("b"), g.gen("c"), g.gen("t")
        eta_r = {"b": b + 2 * t, "c": c + t * t + b * t}
        H = HopfAlgebroidPresentation(
            name="mqd", A=A, gamma_names=gamma_names,
            gamma_weights=gamma_weights, eta_r=eta_r, delta={},
            chi_gamma={"t": -t},
            notes=["Gamma = A[t] free with basis t^k"])
        t2 = H.tensor_ring(2)
        H.delta = {"t": t2.gen(slot_name("t", 1)) + t2.gen(slot_name("t", 2))}
        H.verify_or_raise()
        return H
    if name == "z2_group":
        A = Ring((), ())
        gamma_names, gamma_weights = ("d",), (0,)

        def clamp(p: Polynomial) -> Polynomial:
            # d^2 = d: clamp every slot copy of d to exponent <= 1
            out: Dict[tuple, int] = {}
            for m, cf in p.terms.items():
                m2 = tuple(min(e, 1) for e in m)
                c2 = out.get(m2, 0) + cf
                if c2:
                    out[m2] = c2
                else:
                    out.pop(m2, None)
            return p.ring.poly(out)

        H = HopfAlgebroidPresentation(
            name="z2_group", A=A, gamma_names=gamma_names,
            gamma_weights=gamma_weights, eta_r={}, delta={}, chi_gamma={},
            reduce_hook=clamp,
            notes=["Gamma = Z[d]/(d^2 - d), d the indicator of the "
                   "nontrivial group element; free of rank 2 over A = Z "
                   "with basis {1, d}"])
        t2 = H.tensor_ring(2)
        d1, d2 = t2.gen(slot_name("d", 1)), t2.gen(slot_name("d", 2))
        # d(gh) = d(g) + d(h) - 2 d(g) d(h)
        H.delta = {"d": d1 + d2 - 2 * d1 * d2}
        H.chi_gamma = {"d": H.gamma.gen("d")}
        H.verify_or_raise()
        return H
    raise ValueError("unknown algebroid %r" % name)


# ---------------------------------------------------------------------------
# H^0 oracle and the KU(CP^2) involution


def invariants_h0(H: HopfAlgebroidPresentation, twists: Sequence[int]
                  ) -> Dict[int, List[Polynomial]]:
    """Per twist j, a basis of ker(eta_R - eta_L) on the weight-2j part of
    A, by integer linear algebra.  Independent of the cobar engine.  The
    twist must be the weight strand: an A with no generators, as for the
    Z/2-group algebroid, whose twist lies in its comodules, is rejected."""
    if not H.A.names:
        raise ValueError("%s has a base ring with no generators, so its "
                         "twist is not a weight of A; use `hopf cobar` for "
                         "its H^0" % H.name)
    out: Dict[int, List[Polynomial]] = {}
    for j in twists:
        w = 2 * j
        if w < 0:
            out[j] = []
            continue
        monos = H.A.monomials_of_weight(w)
        if not monos:
            out[j] = []
            continue
        diffs = [H.eta_R_monomial(m) - H.eta_L(H.A.poly({m: 1}))
                 for m in monos]
        # one sparse row per monomial of Gamma, in sorted order
        rows: Dict[tuple, Dict[int, int]] = {}
        for k, d in enumerate(diffs):
            for mm, c in d.terms.items():
                rows.setdefault(mm, {})[k] = c
        kern = integer_kernel([rows[mm] for mm in sorted(rows)], len(monos))
        out[j] = [H.A.poly({m: c for m, c in zip(monos, vec) if c})
                  for vec in kern]
    return out


def ku_cp2_involution() -> dict:
    """The action of x -> x^-1 on Z[x, x^-1]/(x-1)^3 in the basis
    alpha = x-1, beta = (x-1)^2, computed from the truncated series in
    w = x - 1, plus a basis in which the involution is the coordinate
    swap of a permutation representation."""
    from .series import TruncatedSeries

    ring = Ring(("w",), (0,))
    order = 2                       # truncate past w^2: mod (x-1)^3
    w = TruncatedSeries(ring.gen("w"), ("w",), order)
    xinv = (1 + w).unit_inverse()   # x^-1 = 1 - w + w^2 - ...
    alpha_img = xinv - 1            # image of alpha = x - 1
    beta_img = alpha_img * alpha_img
    def coords(series):
        return [series.coefficient("w", 1).constant_term(),
                series.coefficient("w", 2).constant_term()]
    ca, cb = coords(alpha_img), coords(beta_img)
    matrix = [[ca[0], cb[0]], [ca[1], cb[1]]]   # columns = images
    square = [[sum(matrix[i][k] * matrix[k][j] for k in range(2))
               for j in range(2)] for i in range(2)]
    if square != [[1, 0], [0, 1]]:
        raise InvariantError("involution does not square to the identity")
    # basis {alpha, -alpha + beta}: e1 -> -alpha + beta = e2, e2 -> ?
    # iota(-alpha+beta) = -iota(alpha) + iota(beta)
    e2_img = [-ca[0] + cb[0], -ca[1] + cb[1]]       # in (alpha, beta) coords
    # express images in the new basis: alpha = e1, beta = e1 + e2
    def new_coords(v):
        return [v[0] + v[1], v[1]]                   # since v = v0 a + v1 b
    swap = [[0, 0], [0, 0]]
    for col, img in enumerate((ca, e2_img)):
        nc = new_coords(img)
        swap[0][col], swap[1][col] = nc[0], nc[1]
    return {"basis": ("alpha = x - 1", "beta = (x - 1)^2"),
            "matrix": matrix,
            "involution": True,
            "swap_basis": ("alpha", "-alpha + beta"),
            "swap_matrix": swap,
            "is_swap": swap == [[0, 1], [1, 0]]}
