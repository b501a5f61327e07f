"""Sparse exact multivariate polynomials with a positive weight grading.

Coefficients are plain Python ints: the ring carries an optional prime
modulus, and all residues are kept normalized to ``0..p-1``.  Monomials are
fixed-width exponent tuples indexed by an append-only generator table, so a
polynomial from a smaller ring embeds into any extension of its ring by
zero-padding the exponent vector.

The monomial basis of each graded piece is enumerated once per (weights,
degree): `monomials` and `monomial_index` are memoized and shared by every
engine that works degree by degree in that basis.  The other conventions
the engines share live here too: `monomial_text` prints a monomial,
`Ring.weight_of_monomial` weighs it, `unit_inverse` inverts a constant and
`is_prime` checks a prime.
"""

from __future__ import annotations

import functools
import re
from operator import add
from typing import Mapping, Optional, Sequence

Monomial = tuple  # tuple[int, ...]


def _mul_terms(a, b, modulus):
    """Multiply two term dicts {exponent-tuple: int}."""
    if len(a) > len(b):
        a, b = b, a
    acc = {}
    get = acc.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            acc[m] = get(m, 0) + ca * cb
    if modulus:
        return {m: c % modulus for m, c in acc.items() if c % modulus}
    return {m: c for m, c in acc.items() if c}


def _mul_terms_bounded(a, b, modulus, indices, bound):
    """Multiply, discarding products whose total degree in the designated
    variable positions exceeds `bound`.

    The terms of `b` are grouped by that degree, in ascending order, so a
    term of `a` visits only the groups it can pair with and no pair is
    formed only to be thrown away (Monagan & Pearce, CASC 2007)."""
    groups = {}
    for mb, cb in b.items():
        d = sum(mb[i] for i in indices)
        if d <= bound:
            groups.setdefault(d, []).append((mb, cb))
    groups = sorted(groups.items())
    acc = {}
    get = acc.get
    for ma, ca in a.items():
        room = bound - sum(ma[i] for i in indices)
        for d, terms in groups:
            if d > room:
                break
            for mb, cb in terms:
                m = tuple(map(add, ma, mb))
                acc[m] = get(m, 0) + ca * cb
    if modulus:
        return {m: c % modulus for m, c in acc.items() if c % modulus}
    return {m: c for m, c in acc.items() if c}


@functools.lru_cache(maxsize=None)
def monomials(weights: tuple, w: int) -> tuple:
    """The exponent tuples of weight w under the generator weights, in
    ascending lexicographic order; () when w < 0.  Shared by every call, so
    callers only read it."""
    if any(wt <= 0 for wt in weights):
        raise ValueError("generator weights must be positive to enumerate "
                         "a graded piece")
    if w < 0:
        return ()
    if not weights:
        return ((),) if w == 0 else ()
    first, rest = weights[0], weights[1:]
    return tuple((e,) + m for e in range(w // first + 1)
                 for m in monomials(rest, w - e * first))


@functools.lru_cache(maxsize=None)
def monomial_index(weights: tuple, w: int) -> dict:
    """{monomial: position} in `monomials(weights, w)`; shared, read only."""
    return {m: i for i, m in enumerate(monomials(weights, w))}


class Ring:
    """A graded polynomial ring Z[g1, ...] or (Z/p)[g1, ...].

    Generator tables are append-only: `extend` returns a new ring whose
    generator list has the old one as a prefix, and polynomials of the old
    ring embed via `Polynomial.cast`.
    """

    def __init__(self, names: Sequence[str], weights: Sequence[int],
                 modulus: Optional[int] = None):
        names = tuple(names)
        weights = tuple(int(w) for w in weights)
        if len(names) != len(weights):
            raise ValueError("names/weights length mismatch")
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        for w in weights:
            if w < 0:
                raise ValueError("generator weights must be nonnegative")
        if modulus is not None and modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.names = names
        self.weights = weights
        self.modulus = modulus
        self._index = {n: i for i, n in enumerate(names)}

    # -- construction -----------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: int) -> "Polynomial":
        c = self._norm(int(c))
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * len(self.names): c})

    def gen(self, name: str) -> "Polynomial":
        i = self._index[name]
        mono = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return Polynomial(self, {mono: 1})

    def gens(self) -> list:
        return [self.gen(n) for n in self.names]

    def poly(self, terms: Mapping[Monomial, int]) -> "Polynomial":
        out = {}
        for m, c in terms.items():
            m = tuple(int(e) for e in m)
            if len(m) != len(self.names):
                raise ValueError("exponent width mismatch")
            c = self._norm(int(c))
            if c:
                out[m] = c
        return Polynomial(self, out)

    def _norm(self, c: int) -> int:
        return c % self.modulus if self.modulus else c

    # -- structure --------------------------------------------------------

    def index(self, name: str) -> int:
        return self._index[name]

    def weight_of_monomial(self, mono: Monomial) -> int:
        return sum(e * w for e, w in zip(mono, self.weights))

    def extend(self, names: Sequence[str], weights: Sequence[int]) -> "Ring":
        return Ring(self.names + tuple(names), self.weights + tuple(weights),
                    self.modulus)

    def same_as(self, other: "Ring") -> bool:
        return (self.names == other.names and self.weights == other.weights
                and self.modulus == other.modulus)

    def extends(self, other: "Ring") -> bool:
        n = len(other.names)
        return (self.names[:n] == other.names
                and self.weights[:n] == other.weights
                and self.modulus == other.modulus)

    def monomials_of_weight(self, w: int) -> list:
        """All monomials of weight w, in ascending lexicographic order (the
        basis of the weight-w piece).  Every generator weight must be
        positive, or the piece is infinite."""
        return list(monomials(self.weights, w))

    def __repr__(self):
        base = "Z" if self.modulus is None else "Z/%d" % self.modulus
        return "%s[%s]" % (base, ", ".join(self.names))


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def constant_term(self) -> int:
        return self.terms.get((0,) * len(self.ring.names), 0)

    def weight(self) -> int:
        """Weight of a homogeneous polynomial (0 for the zero polynomial)."""
        ws = {self.ring.weight_of_monomial(m) for m in self.terms}
        if not ws:
            return 0
        if len(ws) != 1:
            raise ValueError("polynomial is not homogeneous")
        return ws.pop()

    def is_homogeneous(self) -> bool:
        return len({self.ring.weight_of_monomial(m) for m in self.terms}) <= 1

    def homogeneous_part(self, w: int) -> "Polynomial":
        r = self.ring
        return Polynomial(r, {m: c for m, c in self.terms.items()
                              if r.weight_of_monomial(m) == w})

    def max_weight(self) -> int:
        r = self.ring
        return max((r.weight_of_monomial(m) for m in self.terms), default=0)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ring.const(other)
        if isinstance(other, Polynomial):
            if other.ring is self.ring or other.ring.same_as(self.ring):
                return other
            if self.ring.extends(other.ring):
                return other.cast(self.ring)
            raise ValueError("incompatible rings: %r vs %r"
                             % (self.ring, other.ring))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        norm = self.ring._norm
        for m, c in other.terms.items():
            c2 = norm(out.get(m, 0) + c)
            if c2:
                out[m] = c2
            elif m in out:
                del out[m]
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        norm = self.ring._norm
        return Polynomial(self.ring,
                          {m: norm(-c) for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            norm = self.ring._norm
            out = {}
            for m, c in self.terms.items():
                c2 = norm(c * other)
                if c2:
                    out[m] = c2
            return Polynomial(self.ring, out)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring,
                          _mul_terms(self.terms, other.terms,
                                     self.ring.modulus))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def mul_bounded(self, other: "Polynomial", indices: Sequence[int],
                    bound: int) -> "Polynomial":
        """Product with terms of degree > bound in the given variables dropped."""
        other = self._coerce(other)
        return Polynomial(self.ring,
                          _mul_terms_bounded(self.terms, other.terms,
                                             self.ring.modulus,
                                             tuple(indices), bound))

    # -- maps --------------------------------------------------------------

    def cast(self, target: Ring) -> "Polynomial":
        """Embed into an extension of this polynomial's ring."""
        if not target.extends(self.ring):
            raise ValueError("target ring does not extend source ring")
        pad = len(target.names) - len(self.ring.names)
        return Polynomial(target,
                          {m + (0,) * pad: c for m, c in self.terms.items()})

    def restrict(self, target: Ring) -> "Polynomial":
        """Project onto a prefix ring; the dropped generators must not occur."""
        if not self.ring.extends(target):
            raise ValueError("target ring is not a prefix of source ring")
        n = len(target.names)
        out = {}
        for m, c in self.terms.items():
            if any(m[n:]):
                raise ValueError("polynomial involves dropped generators")
            out[m[:n]] = c
        return Polynomial(target, out)

    def map_gens(self, target: Ring, images: Mapping[str, "Polynomial"]
                 ) -> "Polynomial":
        """Apply the ring map sending each generator to its given image.

        Every generator occurring in this polynomial must have an image (a
        Polynomial of the target ring or an int).
        """
        imgs = {}
        for name, val in images.items():
            i = self.ring._index[name]
            imgs[i] = target.const(val) if isinstance(val, int) else val
        result = target.zero()
        pow_cache = {}
        for m, c in self.terms.items():
            term = target.const(c)
            for i, e in enumerate(m):
                if not e:
                    continue
                if i not in imgs:
                    raise KeyError("no image for generator %r"
                                   % self.ring.names[i])
                key = (i, e)
                if key not in pow_cache:
                    pow_cache[key] = imgs[i] ** e
                term = term * pow_cache[key]
            result = result + term
        return result

    # -- canonical form ----------------------------------------------------

    def sorted_terms(self) -> list:
        """Terms in the canonical monomial order: ascending weight, then
        ascending lexicographic exponent vector."""
        r = self.ring
        return sorted(self.terms.items(),
                      key=lambda mc: (r.weight_of_monomial(mc[0]), mc[0]))

    def text(self) -> str:
        if not self.terms:
            return "0"
        names = self.ring.names
        parts = []
        for m, c in self.sorted_terms():
            if not any(m):
                parts.append(str(c))
            elif c == 1:
                parts.append(monomial_text(names, m))
            else:
                parts.append("%d*%s" % (c, monomial_text(names, m)))
        return " + ".join(parts)

    __str__ = text

    def __repr__(self):
        return "<%s>" % self.text()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not (other.ring is self.ring or other.ring.same_as(self.ring)):
            if self.ring.extends(other.ring):
                other = other.cast(self.ring)
            elif other.ring.extends(self.ring):
                return self.cast(other.ring) == other
            else:
                return False
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


_TERM_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """Parse the canonical text form (and simple variants) back into a
    polynomial: terms joined by `+`, factors joined by `*`, exponents with
    `^`, leading `-` for negated terms."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    s = s.replace("+-", "-").replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    result = ring.zero()
    for chunk in s.split("+"):
        if not chunk:
            raise ValueError("malformed polynomial text: %r" % text)
        term = ring.one()
        if chunk.startswith("-"):
            term = -term
            chunk = chunk[1:]
        for factor in chunk.split("*"):
            if factor.lstrip("-").isdigit():
                term = term * int(factor)
                continue
            m = _TERM_RE.match(factor)
            if not m:
                raise ValueError("bad factor %r in %r" % (factor, text))
            name, exp = m.group(1), int(m.group(2) or 1)
            term = term * (ring.gen(name) ** exp)
        result = result + term
    return result


def monomial_text(names: Sequence[str], exps: Sequence[int]) -> str:
    """The canonical text of a monomial: factors `n` or `n^e` joined by `*`,
    zero exponents skipped, "1" for the empty product.  A negative exponent
    prints as a Laurent factor, `x1^-1`."""
    return "*".join(n if e == 1 else "%s^%d" % (n, e)
                    for n, e in zip(names, exps) if e) or "1"


def unit_inverse(c: int, modulus: Optional[int]) -> int:
    """The inverse of the constant c in Z/modulus, or in Z when modulus is
    None; ValueError when c is not a unit there."""
    if modulus is not None:
        return pow(c % modulus, -1, modulus)
    if c in (1, -1):
        return c
    raise ValueError("%d is not a unit of Z" % c)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
