"""Truncated multivariate power series over a graded polynomial base.

A series lives in a Ring some of whose generators are designated "series
variables"; truncation order counts total degree in those variables only,
so base-ring coefficients stay exact polynomials.

Invariant: a series never stores a term above its order.  The public
constructor drops such terms; a result that cannot have any (a product,
quotient, negation, or sum of two series of one order) is wrapped as is.
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
        return TruncatedSeries._truncated(-self.poly, self.series_vars,
                                          self.order)

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

    def __truediv__(self, other):
        """The exact quotient, one series degree at a time: q_k = c^-1 (n_k -
        sum_(j >= 1) d_j q_(k-j)), with d_0 = c a unit scalar."""
        joined = self._join(other)
        if joined is NotImplemented:
            return NotImplemented
        den, n = joined
        ring, idx = self.ring, self._indices(self.ring)
        num, den = _parts(self.poly, idx, n), _parts(ring.zero() + den, idx, n)
        if not den[0].is_constant():
            raise ValueError("constant term is not a scalar")
        cinv = unit_inverse(den[0].constant_term(), ring.modulus)
        q, out = [], {}
        for k in range(n + 1):
            acc = dict(num[k].terms)
            for j in range(1, k + 1):
                if den[j].is_zero() or q[k - j].is_zero():
                    continue
                for m, c in (den[j] * q[k - j]).terms.items():
                    acc[m] = acc.get(m, 0) - c
            q.append(Polynomial(ring, acc) * cinv)
            out.update(q[k].terms)
        return TruncatedSeries._truncated(Polynomial(ring, out),
                                          self.series_vars, n)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Polynomial)):
            return NotImplemented
        return TruncatedSeries(self.ring.zero() + other, self.series_vars,
                               self.order) / self

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
        """1 / self, for a series whose constant term is a unit scalar."""
        return 1 / self

    def substitute(self, assignments: Mapping[str, "TruncatedSeries"]
                   ) -> "TruncatedSeries":
        """Substitute series (with zero constant term) for series variables.

        Result truncation order is the minimum of all orders involved.  The
        terms of this series are grouped by their exponents e at the
        substituted positions: each group's base part c_e is carried into
        the target ring by generator position, and c_e * prod s_i^e_i costs
        one bounded product per substituted variable with e_i > 0.
        """
        if not assignments:
            raise ValueError("no substitution given")
        first = next(iter(assignments.values()))
        target, tvars = first.ring, first.series_vars
        order = self.order
        for s in assignments.values():
            order = min(order, s.order)
            if set(s.series_vars) != set(tvars):
                raise ValueError("series variable mismatch")
            if s.series_degree_min() < 1:
                raise ValueError("substituted series must have no constant term")
        ring = self.ring
        sub_idx = {ring.index(v): s for v, s in assignments.items()}
        for i in self._indices(ring):
            if i not in sub_idx:
                raise ValueError("missing substitution for %r" % ring.names[i])
        # each base generator goes to the target position of its name
        carry, missing = [], []
        for i, n in enumerate(ring.names):
            if i in sub_idx:
                continue
            if n in target.names:
                carry.append((i, target.index(n)))
            else:
                missing.append(i)
        width = len(target.names)
        modulus = target.modulus
        groups: dict = {}
        for m, c in self.poly.terms.items():
            for i in missing:
                if m[i]:
                    raise KeyError("no image for generator %r" % ring.names[i])
            if modulus:
                c %= modulus
                if not c:
                    continue
            base = [0] * width
            for i, j in carry:
                base[j] = m[i]
            # distinct terms of one group differ in their base part
            groups.setdefault(tuple(m[i] for i in sub_idx), {})[
                tuple(base)] = c
        tidx = tuple(target.index(v) for v in tvars)
        # powers[k][e] = s^e for the k-th substituted series s, each power
        # one product from the last
        powers = [[None, s] for s in sub_idx.values()]
        acc: dict = {}
        get = acc.get
        for es, c_e in groups.items():
            term = Polynomial(target, c_e)
            factors = []
            for table, e in zip(powers, es):
                if e:
                    while len(table) <= e:
                        table.append(table[-1] * table[1])
                    factors.append(table[e].poly)
            # the power with fewest terms first: it raises the series degree
            # of c_e, so the bound prunes the larger products
            factors.sort(key=lambda p: len(p.terms))
            for s_e in factors:
                term = term.mul_bounded(s_e, tidx, order)
            if not factors:
                term = _drop_above(term, tidx, order)
            for m, c in term.terms.items():
                acc[m] = get(m, 0) + c
        if modulus:
            acc = {m: c % modulus for m, c in acc.items() if c % modulus}
        else:
            acc = {m: c for m, c in acc.items() if c}
        return TruncatedSeries._truncated(Polynomial(target, acc), tvars, order)

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


def _parts(poly: Polynomial, indices, n: int) -> list:
    """The parts of `poly` of series degree 0, ..., n."""
    parts = [{} for _ in range(n + 1)]
    for m, c in poly.terms.items():
        d = sum(m[i] for i in indices)
        if d <= n:
            parts[d][m] = c
    return [Polynomial(poly.ring, p) for p in parts]
