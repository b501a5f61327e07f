"""Regular-sequence checking by degreewise linear algebra, and the
Landweber-criterion report for the Hasse coefficients of a curve.

All computations happen over the residue field (F_p when a prime is given,
Q otherwise).  When the sequence length matches the Krull dimension of the
ambient graded ring and the quotient ranks vanish on a trailing window wider
than every generator weight, zero-dimensionality -- hence regularity, also
p-locally by the dimension count -- is certified beyond the cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .curves import WeierstrassCurve, invariants
from .fgl import hasse_coefficients
from .intlinalg import RowSpace, field_kernel
from .poly import Polynomial, Ring, is_prime, monomial_index, monomials


class GradedIdeal:
    """Weightwise spans of a homogeneous ideal, over a field, in echelon
    form in the monomial basis `poly.monomials(ring.weights, w)`."""

    def __init__(self, ring: Ring, p: Optional[int], cutoff: int):
        self.ring = ring
        self.p = p
        self.cutoff = cutoff
        self.spans: Dict[int, RowSpace] = {
            w: RowSpace(p) for w in range(cutoff + 1)}
        self.generators: List[Polynomial] = []

    def vector(self, poly: Polynomial, w: int) -> dict:
        """{column: coefficient} of poly in the weight-w monomial basis."""
        p = self.p
        idx = monomial_index(self.ring.weights, w)
        if p:
            return {idx[m]: c % p for m, c in poly.terms.items() if c % p}
        return {idx[m]: c for m, c in poly.terms.items()}

    def quotient_images(self, x: Polynomial) -> Iterator[
            Tuple[int, List[tuple], List[dict], RowSpace]]:
        """Per weight w through cutoff - |x|: the monomials m off the pivots
        of spans[w], a basis of (R/I)_w; the vectors of the products m*x
        reduced modulo spans[w + |x|]; and their row space.  Every monomial
        is some r in that basis's span modulo I_w, and then its product
        with x is r*x modulo I_{w+|x|}, so these images span all of x*R_w
        modulo I."""
        p, weights = self.p, self.ring.weights
        d = x.weight()
        terms = [(e, c % p if p else c) for e, c in x.terms.items()]
        terms = [(e, c) for e, c in terms if c]
        for w in range(0, self.cutoff - d + 1):
            pivots, target = self.spans[w].rows, self.spans[w + d]
            basis = [m for j, m in enumerate(monomials(weights, w))
                     if j not in pivots]
            idx = monomial_index(weights, w + d)
            vecs = [target.reduce({idx[tuple(map(add, m, e))]: c
                                   for e, c in terms}) for m in basis]
            space = RowSpace(p)
            for v in vecs:
                space.insert(v)
            yield w, basis, vecs, space

    def add_generator(self, x: Polynomial):
        """Add the generator x, regular or not."""
        self.adjoin(x, [space for *_, space in self.quotient_images(x)])

    def adjoin(self, x: Polynomial, images: List[RowSpace]):
        """Add the generator x, given images[w]: the row space of the
        `quotient_images` of weight w.  Its rows avoid the pivots of
        spans[w + |x|], so the two echelon forms join with no
        elimination."""
        d = x.weight()
        self.generators.append(x)
        for w, space in enumerate(images):
            self.spans[w + d].rows.update(space.rows)

    def quotient_rank(self, w: int) -> int:
        return len(monomials(self.ring.weights, w)) - self.spans[w].rank

    def contains(self, poly: Polynomial) -> bool:
        if poly.is_zero():
            return True
        w = poly.weight()
        if w > self.cutoff:
            raise ValueError("weight beyond cutoff")
        return self.spans[w].contains(self.vector(poly, w))


@dataclass
class RegularityReport:
    ring_names: tuple
    elements: list
    prime: Optional[int]
    cutoff: int
    regular_through_cutoff: bool
    certified: bool              # regular in all weights, not just the window
    failure: Optional[dict]
    quotient_ranks: List[int]
    notes: List[str] = field(default_factory=list)
    # the ideal of the elements that passed, for further membership tests
    ideal: Optional[GradedIdeal] = field(default=None, repr=False,
                                         compare=False)

    @property
    def quotient_total_rank(self) -> Optional[int]:
        if not self.certified:
            return None
        return sum(self.quotient_ranks)


def graded_regular_sequence_check(ring: Ring, elements: Sequence[Polynomial],
                                  prime: Optional[int], cutoff: int
                                  ) -> RegularityReport:
    """Check that `elements` form a regular sequence on the graded polynomial
    ring, degreewise through `cutoff`.

    The integer prime p itself may appear as the (constant) first element
    when `prime` is p: multiplication by p is injective on the free ambient
    ring, and the remaining elements are then checked on the mod-p reduction.
    """
    if prime is not None and not is_prime(prime):
        raise ValueError("%d is not a prime" % prime)
    notes: List[str] = []
    elements = list(elements)
    if prime is not None and elements and elements[0].is_constant() \
            and not elements[0].is_zero():
        if elements[0].constant_term() != prime:
            raise ValueError("leading constant must equal the prime")
        notes.append("leading element p: injective on the free ambient "
                     "ring; remaining elements checked mod p")
        elements = elements[1:]
    ideal = GradedIdeal(ring, prime, cutoff)
    failure = None
    for x in elements:
        if not x.is_homogeneous():
            raise ValueError("sequence elements must be homogeneous")
        if x.is_zero() or (prime and all(c % prime == 0
                                         for c in x.terms.values())):
            failure = {"element": x.text(), "weight": 0, "witness": "1"}
            break
        d = x.weight()
        if d == 0 or d > cutoff:
            raise ValueError("element weight out of range")
        # x is a nonzero-divisor on the quotient in weight w when it maps
        # the basis of (R/I)_w to independent classes in (R/I)_{w+d}
        images = []
        for w, basis, vecs, space in ideal.quotient_images(x):
            if space.rank < len(vecs):
                kv = field_kernel(vecs, prime)[0]
                failure = {"element": x.text(), "weight": w,
                           "witness": _vec_to_poly(kv, basis, ring).text()}
                break
            images.append(space)
        if failure:
            break
        ideal.adjoin(x, images)
    quotient_ranks = [ideal.quotient_rank(w) for w in range(cutoff + 1)]
    certified = False
    if failure is None and ring.names \
            and len(ideal.generators) == len(ring.names):
        window = max(ring.weights)
        tail = quotient_ranks[cutoff - window:]
        if len(tail) > window and all(r == 0 for r in tail):
            certified = True
            notes.append("quotient ranks vanish on a trailing window wider "
                         "than every generator weight: the quotient is "
                         "zero-dimensional and the sequence is regular by "
                         "the dimension count")
    if failure is None and not ring.names:
        certified = True  # ambient ring is Z or Z/p itself
    return RegularityReport(
        ring_names=ring.names, elements=[x.text() for x in elements],
        prime=prime, cutoff=cutoff,
        regular_through_cutoff=failure is None,
        certified=certified, failure=failure,
        quotient_ranks=quotient_ranks, notes=notes, ideal=ideal)


def _vec_to_poly(vec: dict, monos, ring: Ring) -> Polynomial:
    """The vector as a polynomial, cleared of denominators over Q."""
    scale = lcm(*(Fraction(c).denominator for c in vec.values()))
    return ring.poly({monos[j]: int(c * scale) for j, c in vec.items()})


def landweber_report(curve: WeierstrassCurve, p: int, cutoff: int
                     ) -> dict:
    """Hasse coefficients v0=p, v1, v2 of the curve, regularity of the
    sequence (p, v1, v2), and the least powers (at most the 12th, and of
    weight at most the cutoff) of c4 and the discriminant lying in the
    ideal (p, v1, v2)."""
    w2 = 2 * (p * p - 1)
    if w2 > cutoff:
        raise ValueError("v2 has weight 2(p^2 - 1) = %d, above the cutoff "
                         "%d" % (w2, cutoff))
    ring = curve.ring
    vs = hasse_coefficients(curve, p, 2)
    v1 = vs[1].restrict(ring)
    v2 = vs[2].restrict(ring)
    seq = [ring.const(p), v1, v2]
    reg = graded_regular_sequence_check(ring, seq, p, cutoff)
    inv = invariants(curve)
    # the check added a prefix of (v1, v2); adding the rest gives the
    # ideal (v1, v2), whose reductions depend only on its spans
    ideal = reg.ideal
    for x in (v1, v2)[len(ideal.generators):]:
        if not x.is_zero():
            ideal.add_generator(x)
    powers = {}
    for name in ("c4", "delta"):
        q = inv[name]
        found = None
        for mexp in range(1, 13):
            qm = q ** mexp
            if qm.max_weight() > cutoff:
                break
            if ideal.contains(qm):
                found = mexp
                break
        powers[name] = found
    return {"prime": p,
            "v": [x.text() for x in (seq[0], v1, v2)],
            "regularity": reg,
            "c4_power_in_ideal": powers["c4"],
            "delta_power_in_ideal": powers["delta"]}
