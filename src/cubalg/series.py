"""Truncated multivariate power series over a graded polynomial base.

A series lives in a Ring some of whose generators are designated "series
variables"; truncation order counts total degree in those variables only,
so base-ring coefficients stay exact polynomials.

Invariant: a series never stores a term above its order.  The public
constructor drops such terms; a result that cannot have any (a bounded
product, or a sum of two series of the same order) is wrapped as it is.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from . import InvariantError
from .poly import Polynomial, Ring, unit_inverse


class TruncatedSeries:
    __slots__ = ("poly", "series_vars", "order")

    def __init__(self, poly: Polynomial, series_vars: Sequence[str], order: int):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        self.series_vars = tuple(series_vars)
        self.order = order
        idx = self._indices(poly.ring)
        self.poly = _drop_above(poly, idx, order)

    @classmethod
    def _truncated(cls, poly: Polynomial, series_vars: tuple, order: int
                   ) -> "TruncatedSeries":
        """Wrap a polynomial known to have no term above `order`, without
        the rescan `__init__` does."""
        s = object.__new__(cls)
        s.poly = poly
        s.series_vars = series_vars
        s.order = order
        return s

    def _indices(self, ring: Ring):
        return tuple(ring.index(v) for v in self.series_vars)

    @property
    def ring(self) -> Ring:
        return self.poly.ring

    def series_degree_min(self) -> int:
        idx = self._indices(self.ring)
        return min((sum(m[i] for i in idx) for m in self.poly.terms),
                   default=self.order + 1)

    # -- arithmetic (orders combine as the minimum) ------------------------

    def _join(self, other):
        if isinstance(other, (int, Polynomial)):
            return other, self.order
        if isinstance(other, TruncatedSeries):
            if set(other.series_vars) != set(self.series_vars):
                raise ValueError("series variable mismatch")
            return other.poly, min(self.order, other.order)
        return NotImplemented

    def _sum(self, poly: Polynomial, other, n: int) -> "TruncatedSeries":
        """The series of `poly`, a sum or difference of this and `other`:
        with two series of one order it has no term above that order."""
        if isinstance(other, TruncatedSeries) and other.order == self.order:
            return TruncatedSeries._truncated(poly, self.series_vars, n)
        return TruncatedSeries(poly, self.series_vars, n)

    def __add__(self, other):
        joined = self._join(other)
        if joined is NotImplemented:
            return NotImplemented
        p, n = joined
        return self._sum(self.poly + p, other, n)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-self.poly, self.series_vars, self.order)

    def __sub__(self, other):
        joined = self._join(other)
        if joined is NotImplemented:
            return NotImplemented
        p, n = joined
        return self._sum(self.poly - p, other, n)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries._truncated(self.poly * other,
                                              self.series_vars, self.order)
        joined = self._join(other)
        if joined is NotImplemented:
            return NotImplemented
        p, n = joined
        prod = self.poly.mul_bounded(p, self._indices(self.poly.ring), n)
        return TruncatedSeries._truncated(prod, self.series_vars, n)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = TruncatedSeries(self.ring.one(), self.series_vars, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return (self.poly == other.poly and self.order == other.order
                    and set(self.series_vars) == set(other.series_vars))
        return self.poly == other

    def __hash__(self):
        return hash((self.poly, self.order))

    # -- series operations -------------------------------------------------

    def coefficient(self, var: str, k: int) -> Polynomial:
        """Base-ring coefficient of var^k (series must be univariate in var)."""
        ring = self.ring
        i = ring.index(var)
        out = {}
        for m, c in self.poly.terms.items():
            if m[i] == k:
                m2 = tuple(0 if j == i else e for j, e in enumerate(m))
                out[m2] = out.get(m2, 0) + c
        return ring.poly(out)

    def unit_inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse of a series whose series-degree-0 part is an
        invertible constant."""
        idx = self._indices(self.ring)
        c0 = _series_part(self.poly, idx, 0)
        if not c0.is_constant():
            raise ValueError("constant term is not a scalar")
        cinv = unit_inverse(c0.constant_term(), self.ring.modulus)
        # 1/f = cinv * sum_k (1 - cinv f)^k
        one = TruncatedSeries(self.ring.one(), self.series_vars, self.order)
        g = one - self * cinv
        result = one
        power = one
        for _ in range(self.order):
            power = power * g
            if power.poly.is_zero():
                break
            result = result + power
        return result * cinv

    def substitute(self, assignments: Mapping[str, "TruncatedSeries"]
                   ) -> "TruncatedSeries":
        """Substitute series (with zero constant term) for series variables.

        Result truncation order is the minimum of all orders involved.
        """
        order = self.order
        for s in assignments.values():
            order = min(order, s.order)
            if s.series_degree_min() < 1:
                raise ValueError("substituted series must have no constant term")
        target = next(iter(assignments.values())).ring
        tvars = next(iter(assignments.values())).series_vars
        idx = self._indices(self.ring)
        sub_idx = {self.ring.index(v): s for v, s in assignments.items()}
        for i in idx:
            if i not in sub_idx:
                raise ValueError("missing substitution for %r"
                                 % self.ring.names[i])
        # powers[i][e] = s^e for the series s substituted at position i,
        # each power one product from the last
        powers = {i: [None, s] for i, s in sub_idx.items()}
        # the base generators, shared with the target ring
        images = {n: target.gen(n) for n in self.ring.names
                  if n in target.names}
        result = TruncatedSeries(target.zero(), tvars, order)
        for m, c in self.poly.terms.items():
            base = tuple(0 if i in sub_idx else e for i, e in enumerate(m))
            term = TruncatedSeries(
                Polynomial(self.ring, {base: c}).map_gens(target, images),
                tvars, order)
            for i in sub_idx:
                e = m[i]
                if not e:
                    continue
                table = powers[i]
                while len(table) <= e:
                    table.append(table[-1] * sub_idx[i])
                term = term * table[e]
            result = result + term
        return result

    def functional_inverse(self, var: str) -> "TruncatedSeries":
        """Compositional inverse of f = u*var + O(var^2), u an invertible
        constant, solved order by order."""
        ring = self.ring
        i = ring.index(var)
        if self.series_degree_min() < 1:
            raise ValueError("series has a constant term")
        u_poly = self.coefficient(var, 1)
        if not u_poly.is_constant():
            raise ValueError("linear coefficient is not a scalar")
        uinv = unit_inverse(u_poly.constant_term(), ring.modulus)
        z = TruncatedSeries(ring.gen(var), (var,), self.order)
        g = z * uinv
        for k in range(2, self.order + 1):
            err = self.substitute({var: g}) - z.poly
            ck = err.coefficient(var, k)
            if ck.is_zero():
                continue
            g = g - TruncatedSeries(ck * (ring.gen(var) ** k),
                                    (var,), self.order) * uinv
        # final check
        err = self.substitute({var: g}) - z.poly
        if not err.poly.is_zero():
            raise InvariantError("functional inverse failed to converge")
        return g

    def text(self) -> str:
        return self.poly.text()

    def __repr__(self):
        return "<%s + O(%d)>" % (self.poly.text(), self.order + 1)


def _drop_above(poly: Polynomial, indices, bound: int) -> Polynomial:
    out = {m: c for m, c in poly.terms.items()
           if sum(m[i] for i in indices) <= bound}
    if len(out) == len(poly.terms):
        return poly
    return Polynomial(poly.ring, out)


def _series_part(poly: Polynomial, indices, deg: int) -> Polynomial:
    return Polynomial(poly.ring,
                      {m: c for m, c in poly.terms.items()
                       if sum(m[i] for i in indices) == deg})
