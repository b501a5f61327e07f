"""Formal group law of a Weierstrass cubic in the coordinate z = -x/y.

The group law is computed by the chord construction on the branch at the
origin, entirely over the coefficient ring: no denominators ever appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .curves import WeierstrassCurve
from .poly import Polynomial, Ring, is_prime
from .series import TruncatedSeries


def branch_expansion(curve: WeierstrassCurve, order: int
                     ) -> TruncatedSeries:
    """w(z) = z^3 + ... with w = -1/y, z = -x/y: the unique series solution of
    w = z^3 + a1 z w + a2 z^2 w + a3 w^2 + a4 z w^2 + a6 w^3."""
    base = curve.ring
    ring = base.extend(("z",), (0,))
    a1, a2, a3, a4, a6 = [a.cast(ring) for a in curve.coefficients()]
    z = TruncatedSeries(ring.gen("z"), ("z",), order)
    w = z ** 3
    while True:
        w2 = (z ** 3 + a1 * (z * w) + a2 * (z * z * w)
              + a3 * (w * w) + a4 * (z * w * w) + a6 * (w ** 3))
        if w2 == w:
            return w
        w = w2


def fgl_from_curve(curve: WeierstrassCurve, order: int) -> "FormalGroupLaw":
    """Chord-construction formal group law, truncated past total order `order`
    in the two series variables."""
    pad = order + 2
    base = curve.ring
    w = branch_expansion(curve, pad)
    a_coeffs: List[Polynomial] = [w.coefficient("z", n).restrict(base)
                                  for n in range(pad + 1)]

    ring = base.extend(("x", "y"), (0, 0))
    sv = ("x", "y")
    a1, a2, a3, a4, a6 = [a.cast(ring) for a in curve.coefficients()]
    x = TruncatedSeries(ring.gen("x"), sv, pad)
    y = TruncatedSeries(ring.gen("y"), sv, pad)

    # divided difference (w(x) - w(y))/(x - y) via complete homogeneous
    # symmetric polynomials: lam = sum_n A_n h_{n-1}(x, y), term by term
    # a x^i y^(n-1-i) for each term a of A_n; every term has degree < pad
    lam_terms: Dict[tuple, int] = {}
    for n in range(3, pad + 1):
        for m, c in a_coeffs[n].terms.items():
            for i in range(n):
                lam_terms[m + (i, n - 1 - i)] = c
    lam = TruncatedSeries(ring.poly(lam_terms), sv, pad)
    wx = w.substitute({"z": x})
    nu = wx - lam * x

    # third intersection of the chord w = lam*z + nu with the cubic
    lam2 = lam * lam
    c3 = 1 + a2 * lam + a4 * lam2 + a6 * (lam2 * lam)
    c2 = a1 * lam + a3 * lam2 + nu * (a2 + 2 * a4 * lam + 3 * a6 * lam2)
    z3 = -x - y - c2 * c3.unit_inverse()

    # formal inverse: i(z) = -z / (1 - a1 z - a3 w(z))
    zring = base.extend(("z",), (0,))
    zs = TruncatedSeries(zring.gen("z"), ("z",), pad)
    a1z, a3z = curve.a1.cast(zring), curve.a3.cast(zring)
    inv_series = (-zs) * (1 - a1z * zs - a3z * w).unit_inverse()

    f = inv_series.substitute({"z": z3})
    f = TruncatedSeries(f.poly, sv, order)
    return FormalGroupLaw(curve, f, inv_series, order)


@dataclass
class FormalGroupLaw:
    curve: WeierstrassCurve
    sum_series: TruncatedSeries      # F(x, y), series vars ("x", "y")
    inverse_series: TruncatedSeries  # i(z), series var ("z",)
    order: int

    @property
    def ring(self) -> Ring:
        return self.sum_series.ring

    def add(self, u: TruncatedSeries, v: TruncatedSeries) -> TruncatedSeries:
        return self.sum_series.substitute({"x": u, "y": v})

    def formal_inverse(self, u: TruncatedSeries) -> TruncatedSeries:
        tr = TruncatedSeries(self.inverse_series.poly,
                             ("z",), min(self.order, u.order))
        return tr.substitute({"z": u})

    def n_series(self, n: int) -> TruncatedSeries:
        """[n](z), computed by the recursion [n+1] = F([n](z), z)."""
        base = self.curve.ring
        zring = base.extend(("z",), (0,))
        z = TruncatedSeries(zring.gen("z"), ("z",), self.order)
        if n == 0:
            return TruncatedSeries(zring.zero(), ("z",), self.order)
        neg = n < 0
        n = abs(n)
        cur = z
        for _ in range(n - 1):
            cur = self.add(cur, z)
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


def hasse_coefficients(curve: WeierstrassCurve, p: int, i_max: int,
                       order: int = 0) -> List[Polynomial]:
    """[v_0, ..., v_imax]: v_i the literal coefficient of z^(p^i) in the
    p-series (v_0 = p as a constant of the coefficient ring)."""
    if not is_prime(p):
        raise ValueError("%d is not a prime" % p)
    if i_max < 0:
        raise ValueError("i_max must be >= 0")
    need = p ** i_max
    if order < need:
        order = need
    fgl = fgl_from_curve(curve, order)
    ps = fgl.n_series(p)
    out = []
    for i in range(i_max + 1):
        out.append(ps.coefficient("z", p ** i))
    return out
