"""Formal group law of a Weierstrass cubic in the coordinate z = -x/y.

The group law is computed by the chord construction on the branch at the
origin, entirely over the coefficient ring: no denominators ever appear.
One construction adds any two series without constant term; F(x, y), the
[n]-series and `FormalGroupLaw.add` are three uses of it.  Only the branch
w(z) is built up front; i(z) and F(x, y) are built on first use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List

from . import InvariantError
from .curves import WeierstrassCurve
from .poly import Polynomial, Ring, is_prime
from .series import TruncatedSeries


def branch_expansion(curve: WeierstrassCurve, order: int
                     ) -> TruncatedSeries:
    """w(z) = z^3 + ... with w = -1/y, z = -x/y: the unique series solution of
    w = z^3 + a1 z w + a2 z^2 w + a3 w^2 + a4 z w^2 + a6 w^3.

    Its coefficients W_k = [k = 3] + a1 W_(k-1) + a2 W_(k-2) + a3 S_k
    + a4 S_(k-1) + a6 T_k, with S_k and T_k those of w^2 and w^3, need W_j
    for j < k only, as W_j = 0 for j < 3.  One round of the equation at
    full precision must leave w as it is."""
    base = curve.ring
    ring = base.extend(("z",), (0,))
    a1, a2, a3, a4, a6 = curve.coefficients()
    zero = base.zero()

    def times(x: Polynomial, y: Polynomial) -> Polynomial:
        # a product with a zero factor is zero: no product is formed
        return zero if x.is_zero() or y.is_zero() else x * y

    W, S = [zero] * (order + 1), [zero] * (order + 1)
    terms = {}
    for k in range(3, order + 1):
        S[k] = sum((times(W[j], W[k - j]) for j in range(3, k - 2)), zero)
        t = sum((times(W[j], S[k - j]) for j in range(3, k - 5)), zero)
        W[k] = (times(a1, W[k - 1]) + times(a2, W[k - 2]) + times(a3, S[k])
                + times(a4, S[k - 1]) + times(a6, t) + int(k == 3))
        terms.update((m + (k,), c) for m, c in W[k].terms.items())
    w = TruncatedSeries._truncated(Polynomial(ring, terms), ("z",), order)
    z = TruncatedSeries(ring.gen("z"), ("z",), order)
    if (z ** 3 + a1 * (z * w) + a2 * (z * z * w) + a3 * (w * w)
            + a4 * (z * w * w) + a6 * (w ** 3)) != w:
        raise InvariantError("branch expansion is not a fixed point")
    return w


def fgl_from_curve(curve: WeierstrassCurve, order: int) -> "FormalGroupLaw":
    """Chord-construction formal group law, truncated past total order `order`
    in the two series variables.  Only the branch w(z) is built here, at
    order + 2; the formal inverse i(z) is built on first use of
    `inverse_series`, and F(x, y) on first use of `sum_series`."""
    return FormalGroupLaw(curve, branch_expansion(curve, order + 2), order)


@dataclass
class FormalGroupLaw:
    """The formal group law of `curve` at `order`, held as its branch w(z):
    i(z) and F(x, y) are cached on first use."""

    curve: WeierstrassCurve
    branch: TruncatedSeries          # w(z), series var ("z",), order + 2
    order: int

    @property
    def ring(self) -> Ring:
        """The ring of `sum_series`: the curve's ring with x and y."""
        return self.curve.ring.extend(("x", "y"), (0, 0))

    @functools.cached_property
    def inverse_series(self) -> TruncatedSeries:
        """i(z) = -z / (1 - a1 z - a3 w(z)), series var ("z",), order + 2."""
        w = self.branch
        z = TruncatedSeries(w.ring.gen("z"), ("z",), w.order)
        return -z / (1 - self.curve.a1 * z - self.curve.a3 * w)

    @functools.cached_property
    def sum_series(self) -> TruncatedSeries:
        """F(x, y), series vars ("x", "y"), truncated at `order`."""
        ring = self.ring
        x = TruncatedSeries(ring.gen("x"), ("x", "y"), self.order)
        y = TruncatedSeries(ring.gen("y"), ("x", "y"), self.order)
        return self.add(x, y)

    @functools.cached_property
    def _slopes(self) -> List[Polynomial]:
        """A_n, the coefficient of z^n in w(z), for n = 0 .. order + 2."""
        return [self.branch.coefficient("z", n).restrict(self.curve.ring)
                for n in range(self.branch.order + 1)]

    def add(self, u: TruncatedSeries, v: TruncatedSeries) -> TruncatedSeries:
        """F(u, v) for series u, v without constant term, whose ring extends
        the curve's, truncated at min(order, u.order, v.order).

        The chord through (u, w(u)) and (v, w(v)) has slope
        lam = (w(u) - w(v))/(u - v) = sum_n A_n h_(n-1)(u, v), with
        h_k = u h_(k-1) + v^k the complete homogeneous polynomials (u = v
        gives the tangent).  It meets the cubic a third time at z3, and
        F(u, v) = i(z3).  Each step is a ring operation or a substitution
        of a series without constant term, so the terms through degree n
        depend on u and v through degree n only."""
        for s in (u, v):
            if set(s.series_vars) != set(u.series_vars):
                raise ValueError("series variable mismatch")
            if s.series_degree_min() < 1:
                raise ValueError(
                    "substituted series must have no constant term")
        n = min(self.order, u.order, v.order)
        sv = u.series_vars
        u = TruncatedSeries(u.poly, sv, n)
        v = TruncatedSeries(v.poly, sv, n)
        ring = u.ring
        a1, a2, a3, a4, a6 = [a.cast(ring) for a in self.curve.coefficients()]

        # a term A_k h_(k-1) has degree >= k - 1, so A_k counts for k <= n + 1
        slopes = self._slopes
        one = TruncatedSeries(ring.one(), sv, n)
        lam = TruncatedSeries(ring.zero(), sv, n)
        h = vk = one
        for k in range(1, n + 1):
            vk = vk * v
            h = u * h + vk
            if not slopes[k + 1].is_zero():
                lam = lam + h * slopes[k + 1]
        nu = self.branch.substitute({"z": u}) - lam * u

        # third intersection of the chord w = lam*z + nu with the cubic
        lam2 = lam * lam
        c3 = 1 + a2 * lam + a4 * lam2 + a6 * (lam2 * lam)
        c2 = a1 * lam + a3 * lam2 + nu * (a2 + 2 * a4 * lam + 3 * a6 * lam2)
        z3 = -u - v - c2 / c3
        # (z3, lam*z3 + nu) is on the branch, so i(z3) = -z3 / (1 - a1 z3 -
        # a3 w(z3)) with w(z3) read off the chord
        w3 = lam * z3 + nu
        return -z3 / (1 - a1 * z3 - a3 * w3)

    def formal_inverse(self, u: TruncatedSeries) -> TruncatedSeries:
        tr = TruncatedSeries(self.inverse_series.poly,
                             ("z",), min(self.order, u.order))
        return tr.substitute({"z": u})

    def n_series(self, n: int) -> TruncatedSeries:
        """[n](z), computed by the recursion [n+1](z) = F(z, [n](z)).

        With z first, w(z) in the chord is the branch itself, and not a
        substitution of [n](z) into it."""
        base = self.curve.ring
        zring = base.extend(("z",), (0,))
        z = TruncatedSeries(zring.gen("z"), ("z",), self.order)
        if n == 0:
            return TruncatedSeries(zring.zero(), ("z",), self.order)
        neg = n < 0
        n = abs(n)
        cur = z
        for _ in range(n - 1):
            cur = self.add(z, cur)
        if neg:
            cur = self.formal_inverse(cur)
        return cur

    def check(self) -> Dict[str, bool]:
        """Unitality, commutativity, associativity (to the truncation that a
        single substitution round supports), and inverse law."""
        ring = self.ring
        sv = ("x", "y")
        f = self.sum_series
        x = TruncatedSeries(ring.gen("x"), sv, self.order)
        y = TruncatedSeries(ring.gen("y"), sv, self.order)
        zero = TruncatedSeries(ring.zero(), sv, self.order)
        out = {
            "left_unit": f.substitute({"x": zero, "y": x}) == x,
            "right_unit": f.substitute({"x": x, "y": zero}) == x,
            "commutative": f.substitute({"x": y, "y": x}) == f,
        }
        ring3 = self.curve.ring.extend(("x", "y", "w"), (0, 0, 0))
        sv3 = ("x", "y", "w")
        x3 = TruncatedSeries(ring3.gen("x"), sv3, self.order)
        y3 = TruncatedSeries(ring3.gen("y"), sv3, self.order)
        w3 = TruncatedSeries(ring3.gen("w"), sv3, self.order)
        fxy = f.substitute({"x": x3, "y": y3})
        fyw = f.substitute({"x": y3, "y": w3})
        lhs = f.substitute({"x": fxy, "y": w3})
        rhs = f.substitute({"x": x3, "y": fyw})
        out["associative"] = lhs == rhs
        zring = self.curve.ring.extend(("z",), (0,))
        z = TruncatedSeries(zring.gen("z"), ("z",), self.order)
        iz = self.formal_inverse(z)
        out["inverse_law"] = self.add(
            TruncatedSeries(z.poly, ("z",), self.order), iz).poly.is_zero()
        return out


def hasse_coefficients(curve: WeierstrassCurve, p: int, i_max: int
                       ) -> List[Polynomial]:
    """[v_0, ..., v_imax]: v_i the literal coefficient of z^(p^i) in the
    p-series (v_0 = p as a constant of the coefficient ring), from the
    formal group law truncated at order p^imax."""
    if not is_prime(p):
        raise ValueError("%d is not a prime" % p)
    if i_max < 0:
        raise ValueError("i_max must be >= 0")
    ps = fgl_from_curve(curve, p ** i_max).n_series(p)
    return [ps.coefficient("z", p ** i) for i in range(i_max + 1)]
