import functools
import json

import pytest
from hypothesis import given, settings, strategies as hst

from cubalg import covers, intlinalg
from cubalg import steenrod as st
from cubalg.cli import EXIT_INVARIANT, dispatch
from cubalg.poly import (Polynomial, Ring, monomial_index, monomial_text,
                         monomials, parse_polynomial)
from elimination_reference import f2_solve


def test_ring_generators_follow_cutoff():
    assert st.xi_ring(6).names == ("xi1", "xi2")
    assert st.xi_ring(7).names == ("xi1", "xi2", "xi3")
    assert st.xi_ring(64).names == tuple("xi%d" % i for i in range(1, 7))


def test_negative_cutoff_is_rejected():
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        st.xi_ring(-1)
    assert st.xi_ring(0).names == ("xi1",)


def test_conjugate_golden():
    R = st.xi_ring(16)
    assert st.conjugate(R.gen("xi2")).text() == "xi2 + xi1^3"
    assert st.conjugate(R.gen("xi3")).text() == \
        "xi3 + xi1*xi2^2 + xi1^4*xi2 + xi1^7"


def test_conjugate_is_involution():
    R = st.xi_ring(32)
    for name in R.names:
        g = R.gen(name)
        assert st.conjugate(st.conjugate(g)) == g


def test_antipode_identity():
    assert st.antipode_identity_holds(6)


def test_coproduct_milnor():
    R = st.xi_ring(16)
    d = st.coproduct(R.gen("xi2"), 16)
    assert d.text() == "xi2@2 + xi2@1 + xi1@1^2*xi1@2"


def test_coproduct_multiplicative():
    R = st.xi_ring(16)
    x, y = R.gen("xi1"), R.gen("xi2")
    assert st.coproduct(x * y, 16) == \
        st.coproduct(x, 16) * st.coproduct(y, 16)


@pytest.mark.parametrize("k", [4, 6])
def test_dual_steenrod_is_a_hopf_algebroid(k):
    # Milnor's Delta is coassociative and counital, and chi is a two-sided
    # antipode and an involution
    checks = st.dual_steenrod(k).verify()
    assert len(checks) == 8 and all(checks.values()), checks


def test_dual_steenrod_builds_its_rings_once():
    H = st.dual_steenrod(5)
    assert st.dual_steenrod(5) is H and st.xi_ring(31) is H.gamma
    assert H.tensor_ring(2) is H.tensor_ring(2)
    assert H.tensor_ring(2).names == tuple(
        "xi%d@%d" % (i, s) for s in (1, 2) for i in range(1, 6))


# the coproduct and conjugation as written before A_* became a Hopf
# algebroid presentation: Milnor's formulas, each in its own ring


def _reference_coproduct_images(cutoff):
    """The tensor ring and Delta(xi_1), ..., Delta(xi_k)."""
    k = st.gen_count(cutoff)
    weights = tuple((1 << i) - 1 for i in range(1, k + 1))
    t2 = Ring(tuple("xi%d@1" % i for i in range(1, k + 1))
              + tuple("xi%d@2" % i for i in range(1, k + 1)), weights * 2, 2)
    images = []
    for n in range(1, k + 1):
        img = t2.gen("xi%d@1" % n)
        for i in range(1, n):
            img = img + (t2.gen("xi%d@1" % (n - i)) ** (1 << i)) \
                * t2.gen("xi%d@2" % i)
        images.append(img + t2.gen("xi%d@2" % n))
    return t2, images


def _reference_chi_images(ring):
    """chi(xi_1), ..., chi(xi_k) from sum_i xi_{n-i}^(2^i) chi(xi_i) = 0."""
    chis = [ring.one()]
    for n in range(1, len(ring.names) + 1):
        acc = ring.zero()
        for i in range(n):
            acc = acc + (ring.gen("xi%d" % (n - i)) ** (1 << i)) * chis[i]
        chis.append(acc)
    return chis[1:]


def test_coproduct_and_conjugate_match_milnor_reference():
    ring = st.xi_ring(32)
    t2, delta = _reference_coproduct_images(32)
    delta = dict(zip(ring.names, delta))
    chi = dict(zip(ring.names, _reference_chi_images(ring)))
    monos = [m for d in range(1, 33) for m in ring.monomials_of_weight(d)]
    assert len(monos) == 529
    for m in monos:
        x = ring.poly({m: 1})
        assert st.coproduct(x, 32) == x.map_gens(t2, delta)
        assert st.conjugate(x) == x.map_gens(ring, chi)


def test_primitives_of_A():
    pr = st.primitives(range(1, 17), 16)
    found = {d: v for d, v in pr.items() if v}
    assert found == {1: ["xi1"], 2: ["xi1^2"], 4: ["xi1^4"],
                     8: ["xi1^8"], 16: ["xi1^16"]}


def test_primitives_reject_a_degree_above_the_cutoff():
    # xi1^64 is primitive, but no basis of degree 64 exists at cutoff 32
    with pytest.raises(ValueError, match="degree 64 of the window exceeds "
                       "the cutoff 32"):
        st.primitives([64], 32)
    squares = st.make_spec("C", [(1, 2)], 16, conjugated=False)
    with pytest.raises(ValueError, match="degree 17 .* cutoff 16"):
        st.primitives(range(1, 18), 16, quotient_by=squares)
    assert st.primitives(range(-2, 1), 0) == {-2: [], -1: [], 0: []}


def test_primitives_of_quotient_by_squares():
    C = st.make_spec("C", [(1, 2)], 31, conjugated=False)
    pr = st.primitives(range(1, 32), 31, quotient_by=C)
    found = {d: len(v) for d, v in pr.items() if v}
    assert found == {1: 1, 3: 1, 7: 1, 15: 1, 31: 1}


def test_primitives_reject_a_quotient_spec_below_the_cutoff():
    # C's generators between its cutoff and the primitives' were never
    # instantiated: xi4^2 (degree 30) for the squares built at 16, and
    # xibar3^2 (degree 14) for H(tmf) built at 13
    squares = st.make_spec("C", [(1, 2)], 16, conjugated=False)
    with pytest.raises(ValueError, match="quotient spec built at cutoff 16, "
                       "below the cutoff 32"):
        st.primitives(range(1, 33), 32, quotient_by=squares)
    with pytest.raises(ValueError, match="quotient spec built at cutoff 13, "
                       "below the cutoff 14"):
        st.primitives(range(1, 15), 14, quotient_by=st.tmf_spec(13))
    # a window degree above the cutoff is reported first
    with pytest.raises(ValueError, match="degree 33 of the window exceeds "
                       "the cutoff 32"):
        st.primitives(range(1, 34), 32, quotient_by=squares)


@pytest.mark.parametrize("built", [40, 64, 80])
def test_quotient_spec_built_above_the_cutoff(built):
    # tmf at 64 and 80 lives in a ring with xi6, whose cap lies above the
    # cutoff
    window = range(1, 33)
    assert st.primitives(window, 32, quotient_by=st.tmf_spec(built)) == \
        st.primitives(window, 32, quotient_by=st.tmf_spec(32))


def _profile_primitives(profile):
    """The monomials xi_n^(2^j) primitive in the profile quotient
    A_*/(xi_n^(p_n)), from Delta(xi_n^(2^j)) = sum_i xi_(n-i)^(2^(i+j)) (x)
    xi_i^(2^j): xi_n^(2^j) is not capped, and every term with
    0 < i < n has a capped leg.  `profile` is {n: p_n}, uncapped n absent."""
    def cap(n):
        return profile.get(n, float("inf"))

    out = []
    for n, p in profile.items():
        j = 0
        while 1 << j < p:
            if all(1 << (i + j) >= cap(n - i) or 1 << j >= cap(i)
                   for i in range(1, n)):
                out.append(monomial_text(("xi%d" % n,), (1 << j,)))
            j += 1
    return out


# the profile quotients by name: A//H(ko) = A(1)_*, A//H(tmf) = A(2)_* and
# A//H(BP<n>) = E(n)_*, with the primitives dual to their algebra
# generators Sq^1, Sq^2 (, Sq^4), and Q_0, ..., Q_n
PROFILE_QUOTIENTS = {
    "ko": (st.ko_spec, ["xi1", "xi1^2"]),
    "tmf": (st.tmf_spec, ["xi1", "xi1^2", "xi1^4"]),
    "bp0": (lambda c: st.bp_n_homology(0, c), ["xi1"]),
    "bp1": (lambda c: st.bp_n_homology(1, c), ["xi1", "xi2"]),
    "bp2": (lambda c: st.bp_n_homology(2, c), ["xi1", "xi2", "xi3"]),
}


@pytest.mark.parametrize("cutoff", [16, 32])
@pytest.mark.parametrize("name", sorted(PROFILE_QUOTIENTS))
def test_profile_quotient_primitives(name, cutoff):
    make, named = PROFILE_QUOTIENTS[name]
    spec = make(cutoff)
    profile = {n + 1: p for n, p in spec.profile().items()}
    expected = _profile_primitives(profile)
    assert expected == named
    ring = st.xi_ring(cutoff)
    pr = st.primitives(range(1, cutoff + 1), cutoff, quotient_by=spec)
    assert {d: v for d, v in pr.items() if v} == {
        parse_polynomial(x, ring).weight(): [x] for x in expected}


def test_a_quotient_that_is_no_profile_quotient_is_rejected():
    # F_2[xibar2, xibar3, xibar4]: xibar2 = xi2 + xi1^3, and xi1^3 lies
    # outside (xi2, xi3, xi4), so A . C^+ is no monomial ideal
    bad = st.make_spec("bad", [(2, 1)], 24)
    with pytest.raises(ValueError, match="generator xibar2 has the term "
                       "xi1\\^3 outside the ideal of its profile"):
        bad.profile()
    with pytest.raises(ValueError, match="generator xibar2 has the term"):
        st.primitives(range(1, 25), 24, quotient_by=bad)


def test_closure_witness_xi1_cubed():
    bad = st.make_spec("bad", [(1, 3)], 24, conjugated=False)
    rep = st.comodule_closure_check(bad, 24)
    assert not rep["closed"]
    assert rep["witness"] == {"element": "xi1^3", "left_leg": "xi1",
                              "right_leg": "xi1^2"}


def test_bp_specs_closed():
    for n in (0, 1, 2):
        spec = st.bp_n_homology(n, 32)
        assert st.comodule_closure_check(spec, 32)["closed"]
        assert spec.gen_degrees()[0] == 2


def test_tmf_and_ko_specs_closed():
    assert st.comodule_closure_check(st.tmf_spec(32), 32)["closed"]
    assert st.comodule_closure_check(st.ko_spec(32), 32)["closed"]


@pytest.mark.parametrize("built, cutoff", [(16, 32), (32, 16)])
def test_closure_rejects_a_cutoff_of_another_generator_count(built, cutoff):
    # Delta at the cutoff is split in the spec's ring: the xi generator
    # counts of the two cutoffs must agree
    with pytest.raises(ValueError, match="cutoff %d needs .* built at cutoff "
                       "%d" % (cutoff, built)):
        st.comodule_closure_check(st.tmf_spec(built), cutoff)


def test_ku_free_over_ko():
    ku = st.bp_n_homology(1, 32)
    rep = st.freeness_rank_check(ku, st.ko_spec(32), [0, 2], 32)
    assert rep["free"] and rep["rank"] == 2


def test_bp2_free_over_tmf():
    bp2 = st.bp_n_homology(2, 32)
    rep = st.freeness_rank_check(bp2, st.tmf_spec(32),
                                 [0, 2, 4, 6, 6, 8, 10, 12], 32)
    assert rep["free"] and rep["rank"] == 8


def test_freeness_rejects_a_cell_outside_the_cutoff():
    bp2 = st.bp_n_homology(2, 11)
    with pytest.raises(ValueError, match="cell in degree 12 exceeds the "
                       "cutoff 11"):
        st.freeness_rank_check(bp2, st.tmf_spec(11),
                               [0, 2, 4, 6, 6, 8, 10, 12], 11)
    # a negative cell must not index the cell series from its end
    ku = st.bp_n_homology(1, 16)
    with pytest.raises(ValueError, match="cell in negative degree -15"):
        st.freeness_rank_check(ku, st.ko_spec(16), [0, -15], 16)


@pytest.mark.parametrize("big_cutoff, small_cutoff",
                         [(64, 32), (64, 16), (16, 64)])
def test_freeness_rejects_specs_of_other_generator_counts(big_cutoff,
                                                          small_cutoff):
    # the two specs' generators live in different xi rings
    ku = st.bp_n_homology(1, big_cutoff)
    ko = st.ko_spec(small_cutoff)
    with pytest.raises(ValueError, match="big spec built at cutoff %d with "
                       "%d xi generators, small spec at cutoff %d with %d$"
                       % (big_cutoff, st.gen_count(big_cutoff), small_cutoff,
                          st.gen_count(small_cutoff))):
        st.freeness_rank_check(ku, ko, [0, 2], min(big_cutoff, small_cutoff))


def test_freeness_wrong_cells_fails():
    ku = st.bp_n_homology(1, 24)
    rep = st.freeness_rank_check(ku, st.ko_spec(24), [0, 4], 24)
    assert not rep["free"]


def test_uniqueness_probe_ko():
    rep = st.uniqueness_probe("ko")
    assert rep["forced_generator"] == "xi1^4"


def test_uniqueness_probe_tmf():
    rep = st.uniqueness_probe("tmf")
    assert rep["forced_generator"] == "xi1^8"
    wit = rep["degree12_witness"]
    assert not wit["primitive_mod_xi1^8"]
    assert wit["offending_terms"]


def test_a2_pattern():
    quo = st.a2_pattern_series(40)
    assert all(q >= 0 for q in quo)
    assert sum(quo) == 64
    assert quo[23] == 1
    assert all(q == 0 for q in quo[24:])


def test_bitspan():
    # through `steenrod`, where perfbench/spans.py traces it
    span = st.BitSpan()
    assert span.insert(0b101)
    assert span.insert(0b011)
    assert not span.insert(0b110)
    assert span.rank == 2
    assert span.contains(0b110)
    assert not span.contains(0b100)


def test_f2_kernel():
    # columns (1,1), (1,1), (0,1): kernel = span{(1,1,0)}
    ker = intlinalg.f2_kernel([0b11, 0b11, 0b10])
    assert ker == [0b011]


# ---------------------------------------------------------------------------
# generator-level checks against the basis-level brute force they replace


class DegreeIndex:
    """Polynomial <-> bitmask conversion on the graded pieces of a ring:
    bit i of a degree-d mask is the i-th monomial of `monomials(d)`, as
    `cubalg.steenrod` indexed its F_2 spans before the profile quotients."""

    def __init__(self, ring: Ring):
        self.ring = ring

    def monomials(self, d):
        return monomials(self.ring.weights, d)

    def position(self, mono, d):
        return monomial_index(self.ring.weights, d)[mono]

    def mask(self, x, d):
        idx = monomial_index(self.ring.weights, d)
        v = 0
        for m, c in x.terms.items():
            if c % 2:
                v |= 1 << idx[m]
        return v

    def poly(self, mask, d):
        ms = self.monomials(d)
        return self.ring.poly({ms[i]: 1 for i in intlinalg.bits(mask)})


def _basis_by_degree(spec):
    """The spec's basis exponents through its cutoff, keyed by degree
    (nonempty degrees only), each degree's list in lexicographic order."""
    degs = tuple(spec.gen_degrees())
    return {d: list(expos) for d in range(spec.cutoff + 1)
            if (expos := monomials(degs, d))}


def _basis_closure_check(spec, cutoff):
    """Closure by Delta of every basis element (not only the generators)."""
    ring = spec.ring
    k = len(ring.names)
    index = DegreeIndex(ring)
    spans = {}
    basis = _basis_by_degree(spec)
    for d, expos in basis.items():
        span = st.BitSpan()
        for expo in expos:
            span.insert(index.mask(spec.basis_poly(expo), d))
        spans[d] = span
    checked = 0
    for expo in (e for expos in basis.values() for e in expos):
        x = spec.basis_poly(expo)
        d = x.weight() if not x.is_constant() else 0
        if d > cutoff or d == 0:
            continue
        dx = st.coproduct(x, cutoff)
        by_left = {}
        for mono in dx.terms:
            left, right = mono[:k], mono[k:]
            dr = sum(e * w for e, w in zip(right, ring.weights))
            ri = index.position(right, dr)
            slot = by_left.setdefault(left, {})
            slot[dr] = slot.get(dr, 0) ^ (1 << ri)
        for left, parts in by_left.items():
            for dr, rmask in parts.items():
                if not rmask or dr == 0:
                    continue
                span = spans.get(dr)
                if span is None or not span.contains(rmask):
                    return {"closed": False, "checked": checked,
                            "witness": {
                                "element": monomial_text(
                                    spec.gen_names, expo),
                                "left_leg": monomial_text(ring.names, left),
                                "right_leg":
                                    index.poly(rmask, dr).text()}}
        checked += 1
    return {"closed": True, "checked": checked, "witness": None}


def _basis_cell_lifts(big, small, small_by_deg, big_by_deg, index, cutoff):
    """Cell lifts modulo every small-basis x big-basis product."""
    lifts = []
    for d in sorted(set(big_by_deg) | {0}):
        if d > cutoff:
            continue
        span = st.BitSpan()
        for dc, expos in small_by_deg.items():
            if dc == 0 or dc > d:
                continue
            for se in expos:
                s = small.basis_poly(se)
                for be in big_by_deg.get(d - dc, []):
                    span.insert(index.mask(big.basis_poly(be) * s, d))
        for be in big_by_deg.get(d, []):
            if span.insert(index.mask(big.basis_poly(be), d)):
                lifts.append((d, big.basis_poly(be)))
    return lifts


# the quotient primitives as `cubalg.steenrod` found them before the
# profile quotients: an F_2 span of the ideal (A . C^+)_d in every degree,
# the representatives off its pivots, and each leg reduced to its residue


def _ideal_rewrite(spec, index, d, cache):
    """Echelon span of (A . spec^+)_d, which is sum_g A_{d-|g|} . g over
    the spec generators g, since A . spec = A."""
    if d not in cache:
        cache[d] = st.BitSpan(
            index.mask(Polynomial(spec.ring, {m: 1}) * g, d)
            for g, dg in zip(spec.gens, spec.gen_degrees()) if dg <= d
            for m in index.monomials(d - dg))
    return cache[d]


def _basis_ideal_rewrite(spec, index, d, cache):
    """(A . spec^+)_d from every spec-basis element x every A-monomial."""
    if d in cache:
        return cache[d]
    span = st.BitSpan()
    for dc, expos in _basis_by_degree(spec).items():
        if dc == 0 or dc > d:
            continue
        for expo in expos:
            c = spec.basis_poly(expo)
            for m in index.monomials(d - dc):
                prod = Polynomial(spec.ring, {m: 1}) * c
                span.insert(index.mask(prod, d))
    cache[d] = span
    return span


def _representatives(monos, span):
    """The monomials of one degree that are not pivots of the ideal span:
    e_i lies in span(ideal, e_0, ..., e_{i-1}) exactly when some ideal
    element has highest bit i."""
    return [m for i, m in enumerate(monos) if i not in span.rows]


def _residue(span, v):
    """Canonical residue: v with every pivot bit of the echelon span
    eliminated, from the highest bit down; one element of each coset."""
    out = 0
    while v:
        piv = v.bit_length() - 1
        row = span.rows.get(piv)
        if row is None:
            row = 1 << piv
            out |= row
        v ^= row
    return out


def _reduced_parts(mono, d, index, span):
    """Indices of the monomials in the canonical residue of `mono` mod the
    ideal span."""
    return list(intlinalg.bits(_residue(span, 1 << index.position(mono, d))))


def _span_quotient_primitives(window, cutoff, spec,
                              ideal_rewrite=_ideal_rewrite,
                              representatives=_representatives):
    """Primitives of A//C, C = `spec` (of A when it is None), as the kernel
    of the reduced coproduct on the representative monomials, both legs
    reduced mod the span of A . C+."""
    ring = st.xi_ring(cutoff)
    H = st.dual_steenrod(len(ring.names))
    index = DegreeIndex(ring)
    cache = {}

    def ideal(d):
        return st.BitSpan() if spec is None else \
            ideal_rewrite(spec, index, d, cache)

    out = {}
    for d in window:
        if d <= 0:
            out[d] = []
            continue
        reps = representatives(index.monomials(d), ideal(d))
        tindex = {}
        vecs = []
        for m in reps:
            v = 0
            for mono in st.coproduct(Polynomial(ring, {m: 1}), cutoff).terms:
                _, left, right = H.split(mono)
                dl = ring.weight_of_monomial(left)
                dr = d - dl
                if dl == 0 or dr == 0:
                    continue
                for li in _reduced_parts(left, dl, index, ideal(dl)):
                    for ri in _reduced_parts(right, dr, index, ideal(dr)):
                        key = (dl, li, dr, ri)
                        v ^= 1 << tindex.setdefault(key, len(tindex))
            vecs.append(v)
        out[d] = [ring.poly({reps[i]: 1 for i in intlinalg.bits(mask)}
                            ).text() for mask in intlinalg.f2_kernel(vecs)]
    return out


CLOSURE_SPECS = {
    "bp0": lambda c: st.bp_n_homology(0, c),
    "bp1": lambda c: st.bp_n_homology(1, c),
    "bp2": lambda c: st.bp_n_homology(2, c),
    "tmf": st.tmf_spec,
    "ko": st.ko_spec,
    "bad_xi1_cubed": lambda c: st.make_spec("bad", [(1, 3)], c,
                                            conjugated=False),
    "bad_xi1_sq_xi2": lambda c: st.make_spec("bad", [(1, 2), (2, 1)], c,
                                             conjugated=False),
    "bad_xibar1_4th_xibar2": lambda c: st.make_spec("bad", [(1, 4), (2, 1)],
                                                    c),
    # both generators fail, and xi2 (degree 3) precedes xi1^5 (degree 5)
    "bad_xi1_5th_xi2": lambda c: st.make_spec("bad", [(1, 5), (2, 1)], c,
                                              conjugated=False),
}


@pytest.mark.parametrize("cutoff", [16, 24, 32])
@pytest.mark.parametrize("name", sorted(CLOSURE_SPECS))
def test_closure_matches_basis_check(name, cutoff):
    spec = CLOSURE_SPECS[name](cutoff)
    fast = st.comodule_closure_check(spec, cutoff)
    slow = _basis_closure_check(spec, cutoff)
    assert fast["closed"] == slow["closed"]
    assert fast["closed"] == (not name.startswith("bad"))
    assert fast["witness"] == slow["witness"]


# ---------------------------------------------------------------------------
# coordinates by leading-term reduction against the whole-basis span


class _DegreeSpans:
    """Coordinates in a spec's basis as they were found before the lead
    condition: `f2_solve` over the xi-masks of the whole degree basis."""

    def __init__(self, spec):
        self.spec = spec
        self.index = DegreeIndex(spec.ring)
        self.by_deg = _basis_by_degree(spec)
        self.masks = {d: [self.index.mask(spec.basis_poly(e), d)
                          for e in expos]
                      for d, expos in self.by_deg.items()}

    def coordinates(self, x, d):
        expos = self.by_deg.get(d, [])
        sol = f2_solve(self.masks.get(d, []), self.index.mask(x, d))
        return None if sol is None else \
            sorted(expos[i] for i in intlinalg.bits(sol))


def _sorted_coordinates(spec, x):
    coords = spec.coordinates(x)
    if coords is not None:
        assert len(set(coords)) == len(coords)
        coords = sorted(coords)
    return coords


@functools.lru_cache(maxsize=None)
def _degree_spans(name, cutoff):
    return _DegreeSpans(CLOSURE_SPECS[name](cutoff))


@pytest.mark.parametrize("cutoff", [16, 24, 32])
@pytest.mark.parametrize("name", sorted(CLOSURE_SPECS))
def test_coordinates_of_every_basis_element(name, cutoff):
    ref = _degree_spans(name, cutoff)
    spec = ref.spec
    for d, expos in ref.by_deg.items():
        for e in expos:
            x = spec.basis_poly(e)
            assert spec.coordinates(x) == [e] == ref.coordinates(x, d)


@settings(max_examples=20, deadline=None)
@given(data=hst.data())
@pytest.mark.parametrize("cutoff", [16, 24, 32])
@pytest.mark.parametrize("name", sorted(CLOSURE_SPECS))
def test_coordinates_of_random_sums_match_span(name, cutoff, data):
    # a random sum of basis elements of one degree, and with a random
    # monomial of A added, mostly not in the spec
    ref = _degree_spans(name, cutoff)
    spec = ref.spec
    d = data.draw(hst.sampled_from(sorted(ref.by_deg)), label="degree")
    expos = ref.by_deg[d]
    picked = data.draw(hst.integers(0, (1 << len(expos)) - 1), label="sum")
    x = spec.ring.zero()
    for i in intlinalg.bits(picked):
        x = x + spec.basis_poly(expos[i])
    assert _sorted_coordinates(spec, x) == ref.coordinates(x, d) == \
        sorted(expos[i] for i in intlinalg.bits(picked))
    monos = ref.index.monomials(d)
    if monos:
        m = data.draw(hst.sampled_from(monos), label="monomial")
        y = x + Polynomial(spec.ring, {m: 1})
        assert _sorted_coordinates(spec, y) == ref.coordinates(y, d)


@pytest.mark.parametrize("cutoff", [16, 24, 32])
def test_xibar3_is_no_element_of_bp2(cutoff):
    # H(BP<2>) has xibar3^2 but not xibar3
    ref = _degree_spans("bp2", cutoff)
    xibar3 = st.conjugate(ref.spec.ring.gen("xi3"))
    assert ref.spec.coordinates(xibar3) is None
    assert ref.coordinates(xibar3, 7) is None
    assert ref.spec.coordinates(xibar3 * xibar3) == \
        [tuple(int(n == "xibar3^2") for n in ref.spec.gen_names)]


def test_coordinates_stop_at_the_cutoff():
    # the basis runs through the cutoff only, though xibar1^18 lies in the
    # subalgebra
    bp2 = st.bp_n_homology(2, 16)
    xibar1_sq = bp2.gens[0]
    assert bp2.coordinates(xibar1_sq ** 8) == [(8,) + (0,) * 3]
    assert bp2.coordinates(xibar1_sq ** 9) is None
    # so a small generator above big's cutoff is not in big
    ku = st.bp_n_homology(1, 20)
    squares = st.make_spec("C", [(1, 2)], 30, conjugated=False)
    assert st.freeness_rank_check(ku, squares, [0], 20)["failure"] == \
        "small generator of degree 30 not in big"


def _spec_of(gens, cutoff=16):
    ring = st.xi_ring(cutoff)
    return st.SubalgebraSpec(name="S", ring=ring,
                             gen_names=["g%d" % i for i in range(len(gens))],
                             gens=[g(ring) for g in gens], cutoff=cutoff)


def test_lead_condition_rejects_a_lead_of_two_xis():
    # xi1^3 + xi1 xi2 is not even homogeneous (degrees 3 and 4);
    # xi1^4 + xi1 xi2 is, and leads with xi1 xi2, as xi2's exponent is
    # compared first
    with pytest.raises(ValueError, match="not homogeneous"):
        _spec_of([lambda r: r.gen("xi1") ** 3 + r.gen("xi1") * r.gen("xi2")])
    spec = _spec_of([lambda r: r.gen("xi1") ** 4
                     + r.gen("xi1") * r.gen("xi2")])
    with pytest.raises(ValueError, match="generator g0 leads with xi1\\*xi2, "
                       "not with a power of one xi"):
        spec.coordinates(spec.ring.gen("xi1") ** 4)
    with pytest.raises(ValueError, match="generator g0 leads with xi1\\*xi2"):
        st.comodule_closure_check(spec, 16)


def test_lead_condition_rejects_two_generators_leading_with_xi1():
    spec = _spec_of([lambda r: r.gen("xi1") ** 2,
                     lambda r: r.gen("xi1") ** 3])
    with pytest.raises(ValueError, match="generators g0 and g1 both lead "
                       "with a power of xi1"):
        spec.coordinates(spec.ring.gen("xi1") ** 6)
    with pytest.raises(ValueError, match="generators g0 and g1 both lead"):
        st.freeness_rank_check(spec, st.ko_spec(16), [0], 16)
    # as small spec too, though both generators lie in A
    with pytest.raises(ValueError, match="generators g0 and g1 both lead"):
        st.freeness_rank_check(_a(16), spec, [0, 1], 16)


def _polynomial_freeness_check(big, small, cells, cutoff):
    """Freeness with every product formed as a polynomial in
    xi-coordinates: the embedding by span membership, the cell lifts by
    `_basis_cell_lifts`, and Nakayama by lift x small-basis products, with
    small's basis taken through the check's cutoff, past its own."""
    ps_big = st.poincare_series(big.gen_degrees(), cutoff)
    ps_small = st.poincare_series(small.gen_degrees(), cutoff)
    ps_cells = [0] * (cutoff + 1)
    for d in cells:
        if d <= cutoff:
            ps_cells[d] += 1
    conv = [sum(ps_small[i] * ps_cells[d - i] for i in range(d + 1))
            for d in range(cutoff + 1)]
    ps_ok = conv == list(ps_big)
    index = DegreeIndex(big.ring)
    big_by_deg = _basis_by_degree(big)
    small_degrees = tuple(small.gen_degrees())
    small_by_deg = {d: monomials(small_degrees, d) for d in range(cutoff + 1)}
    for g in small.gens:
        d = g.weight()
        span = st.BitSpan()
        for expo in big_by_deg.get(d, []):
            span.insert(index.mask(big.basis_poly(expo), d))
        if not span.contains(index.mask(g, d)):
            return {"free": False, "ps_identity": ps_ok,
                    "failure": "small generator of degree %d not in big"
                               % d, "cells": sorted(cells)}
    lifts = _basis_cell_lifts(big, small, small_by_deg, big_by_deg, index,
                              cutoff)
    got = sorted(d for d, _ in lifts)
    cell_multiset = sorted(cells)
    cells_ok = got == cell_multiset
    span_by_deg = {}
    for d, lift in lifts:
        for dc, expos in small_by_deg.items():
            for se in expos:
                dd = d + dc
                if dd > cutoff:
                    continue
                prod = lift * small.basis_poly(se)
                span_by_deg.setdefault(dd, st.BitSpan()).insert(
                    index.mask(prod, dd))
    surj = True
    for d, expos in big_by_deg.items():
        if d > cutoff:
            continue
        span = span_by_deg.get(d, st.BitSpan())
        for be in expos:
            if not span.contains(index.mask(big.basis_poly(be), d)):
                surj = False
                break
        if not surj:
            break
    rank_free = ps_ok and cells_ok and surj
    return {"free": rank_free, "ps_identity": ps_ok,
            "cells_found": got, "cells": cell_multiset,
            "cells_match": cells_ok, "lifts_generate": surj,
            "rank": len(cell_multiset)}


def _ko_with_xi2_squared(cutoff):
    """ko's generators with xibar2^2 replaced by xi2^2 = xibar2^2 +
    xibar1^6: two terms in ku's basis, and the same subalgebra."""
    ko = st.ko_spec(cutoff)
    xi2_sq = ko.ring.gen("xi2") ** 2
    swap = [n == "xibar2^2" for n in ko.gen_names]
    return st.SubalgebraSpec(
        name="H(ko)", ring=ko.ring,
        gen_names=["xi2^2" if s else n for s, n in zip(swap, ko.gen_names)],
        gens=[xi2_sq if s else g for s, g in zip(swap, ko.gens)],
        cutoff=cutoff)


def _bp(n):
    return lambda cutoff: st.bp_n_homology(n, cutoff)


def _a(cutoff):
    """The whole dual Steenrod algebra, on the generators xi_n."""
    return st.make_spec("A", [(1, 1)], cutoff, conjugated=False)


_ku, _bp2 = _bp(1), _bp(2)
# the pattern dual to A(2): 64 cells through degree 23
A2_CELLS = [d for d, n in enumerate(st.a2_pattern_series(23))
            for _ in range(n)]


# (big, small, cells, expected "free" or expected "failure"); a cell above
# the cutoff is dropped
FREENESS_CASES = {
    "ku_ko": (_ku, st.ko_spec, [0, 2], True),
    "bp2_tmf": (_bp2, st.tmf_spec, [0, 2, 4, 6, 6, 8, 10, 12], True),
    "ku_ko_wrong_cells": (_ku, st.ko_spec, [0, 4], False),
    "ku_ko_xi2_squared": (_ku, _ko_with_xi2_squared, [0, 2], True),
    "bp2_ko": (_bp2, st.ko_spec, [0, 2],
               "small generator of degree 7 not in big"),
    "bp0_ku": (_bp(0), _ku, [0, 3], True),
    "bp2_bp3": (_bp2, _bp(3), [0, 15], True),
    "a_tmf": (_a, st.tmf_spec, A2_CELLS, True),
}


def _filtered_cells(big, small, cutoff):
    """The cells as `freeness_rank_check` found them before the series:
    the degrees of big's basis exponents through both cutoffs with every
    e_j below the power r of y_j that leads a small generator; None when a
    small generator is not in big."""
    bounds = {}
    for g in small.gens:
        coords = big.coordinates(g)
        if coords is None:
            return None
        (j, r), = ((j, e) for j, e in enumerate(coords[0]) if e)
        bounds[j] = r
    return [d for d, expos in _basis_by_degree(big).items() if d <= cutoff
            for e in expos if all(e[j] < r for j, r in bounds.items())]


@pytest.mark.parametrize("cutoff", [16, 24, 32])
@pytest.mark.parametrize("name", sorted(FREENESS_CASES))
def test_freeness_matches_cell_lift_loop(name, cutoff):
    make_big, make_small, cells, expected = FREENESS_CASES[name]
    big, small = make_big(cutoff), make_small(cutoff)
    cells = [d for d in cells if d <= cutoff]
    fast = st.freeness_rank_check(big, small, cells, cutoff)
    slow = _polynomial_freeness_check(big, small, cells, cutoff)
    if isinstance(expected, str):
        assert fast["failure"] == expected and not fast["free"]
    else:
        assert fast["free"] == expected
        # graded Nakayama: once small lies in big, lifts of a basis of
        # big/(small^+ . big) times small's basis span big
        assert slow.pop("lifts_generate")
    assert fast == slow
    assert fast.get("cells_found") == _filtered_cells(big, small, cutoff)


@functools.lru_cache(maxsize=None)
def _freeness_spec(name, cutoff):
    return {"ku": _ku, "bp2": _bp2, "a": _a, "ko": st.ko_spec,
            "tmf": st.tmf_spec, "bp3": _bp(3)}[name](cutoff)


# big and small built at cutoffs of one xi generator count (four, 15..30,
# or five, 31..62), checked through cutoffs below, between and above them
@pytest.mark.parametrize("built", [(15, 18, 22, 26, 30), (31, 40, 48)])
@pytest.mark.parametrize("big_name, small_name", [
    ("ku", "ko"), ("bp2", "tmf"), ("bp2", "ko"), ("bp2", "bp3"),
    ("a", "tmf"), ("a", "ko")])
def test_freeness_cells_match_the_filter_at_mismatched_cutoffs(
        big_name, small_name, built):
    checks = sorted({4, 12, max(built) + 6} | set(built)
                    | {c + 2 for c in built})
    for big_cutoff in built:
        big = _freeness_spec(big_name, big_cutoff)
        for small_cutoff in built:
            small = _freeness_spec(small_name, small_cutoff)
            for cutoff in checks:
                rep = st.freeness_rank_check(big, small, [0], cutoff)
                assert rep.get("cells_found") == \
                    _filtered_cells(big, small, cutoff)


def test_freeness_takes_small_past_its_cutoff():
    # small's basis above its own cutoff still multiplies the cell lifts
    ku, ko = st.bp_n_homology(1, 20), st.ko_spec(16)
    rep = st.freeness_rank_check(ku, ko, [0, 2], 20)
    assert rep["free"]
    slow = _polynomial_freeness_check(ku, ko, [0, 2], 20)
    assert slow.pop("lifts_generate")
    assert rep == slow
    assert st.freeness_rank_check(st.bp_n_homology(2, 64), st.tmf_spec(63),
                                  [0, 2, 4, 6, 6, 8, 10, 12], 64)["free"]


@pytest.mark.parametrize("cutoff", [16, 32, 64])
def test_bp2_cells_over_tmf_are_the_cover_fiber(cutoff):
    # the level-3 description: H(BP<2>) is free over H(tmf) on a basis of
    # the fiber F_2[s, t]/(s^4, t^2), |s| = 2, |t| = 6, of the rank-8
    # cover over y^2 = x^3
    fiber = covers.cover_fiber((0, 0, 0, 0, 0), 2, "F2")
    degrees = sorted(sum(e * w for e, w in zip(m, fiber.var_weights))
                     for m in fiber.basis)
    assert degrees == [0, 2, 4, 6, 6, 8, 10, 12]
    rep = st.freeness_rank_check(st.bp_n_homology(2, cutoff),
                                 st.tmf_spec(cutoff), degrees, cutoff)
    assert rep["free"] and rep["cells_found"] == degrees


# one product per nonconstant big basis element that the reductions of the
# small generators form: `basis_poly` builds each from its prefix, so a
# generator g costs the product 1 . g
FREENESS_PRODUCTS = {"ku_ko": 6, "bp2_tmf": 9, "ku_ko_xi2_squared": 7}


@pytest.mark.parametrize("name", sorted(FREENESS_PRODUCTS))
def test_freeness_forms_one_product_per_big_basis_element(name,
                                                         monkeypatch):
    make_big, make_small, cells, _ = FREENESS_CASES[name]
    big, small = make_big(32), make_small(32)
    products = []
    mul = Polynomial.__mul__

    def counting(self, other):
        if isinstance(other, Polynomial):
            products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    assert st.freeness_rank_check(big, small, cells, 32)["free"]
    monkeypatch.undo()
    assert len(products) == FREENESS_PRODUCTS[name]
    assert len(products) <= sum(map(len, _basis_by_degree(big).values()))


@pytest.mark.parametrize("cutoff", [16, 24, 32])
def test_quotient_primitives_match_basis_ideal(cutoff):
    squares = st.make_spec("C", [(1, 2)], cutoff, conjugated=False)
    index = DegreeIndex(squares.ring)
    for d in range(1, cutoff + 1):
        fast = _ideal_rewrite(squares, index, d, {})
        slow = _basis_ideal_rewrite(squares, index, d, {})
        assert fast.rank == slow.rank
        assert all(slow.contains(row) for row in fast.rows.values())
    window = range(1, cutoff + 1)
    assert st.primitives(window, cutoff, quotient_by=squares) == \
        _span_quotient_primitives(window, cutoff, squares,
                                  ideal_rewrite=_basis_ideal_rewrite)


def test_closure_computes_one_coproduct_per_generator(monkeypatch):
    spec = st.bp_n_homology(2, 64)
    calls = []
    coproduct = st.coproduct

    def counting(x, cutoff):
        calls.append(x)
        return coproduct(x, cutoff)

    monkeypatch.setattr(st, "coproduct", counting)
    rep = st.comodule_closure_check(spec, 64)
    assert rep["closed"] and rep["checked"] == len(spec.gens)
    assert len(calls) == len(spec.gens)


def test_bp_n_homology_not_closed_is_invariant_error(monkeypatch, capsys):
    # `bp_n_homology` only builds the spec; `steenrod verify` checks its
    # closure and exits 1 when it fails
    closure = st.comodule_closure_check

    def unclosed_bp2(spec, cutoff):
        if spec.name != "H(BP<2>)":
            return closure(spec, cutoff)
        return {"closed": False, "checked": 0,
                "witness": {"element": "xibar1^2", "left_leg": "xi1@1",
                            "right_leg": "xi1@2"}}

    monkeypatch.setattr(st, "comodule_closure_check", unclosed_bp2)
    assert dispatch(["steenrod", "verify", "--cutoff", "16"]) \
        == EXIT_INVARIANT
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [k for k, ok in checks.items() if not ok] == ["bp2_closed"]


# ---------------------------------------------------------------------------
# the shared monomial basis against the enumerators it replaced


def _basis_exponents_reference(spec):
    """The recursive enumerator of the spec's basis exponents that
    `poly.monomials` replaced, sorted by (degree, exponent tuple)."""
    degs = spec.gen_degrees()
    out = []
    expo = [0] * len(degs)

    def rec(i, rem):
        if i == len(degs):
            out.append(tuple(expo))
            return
        e = 0
        while e * degs[i] <= rem:
            expo[i] = e
            rec(i + 1, rem - e * degs[i])
            e += 1
        expo[i] = 0

    rec(0, spec.cutoff)
    out.sort(key=lambda t: (sum(e * d for e, d in zip(t, degs)), t))
    return out


BASIS_SPECS = {
    "ko": st.ko_spec,
    "tmf": st.tmf_spec,
    "bp1": lambda c: st.bp_n_homology(1, c),
    "bp2": lambda c: st.bp_n_homology(2, c),
}


@pytest.mark.parametrize("cutoff", [16, 32, 64])
@pytest.mark.parametrize("name", sorted(BASIS_SPECS))
def test_basis_exponents_match_recursive_enumerator(name, cutoff):
    spec = BASIS_SPECS[name](cutoff)
    expected = _basis_exponents_reference(spec)
    by_degree = _basis_by_degree(spec)
    assert [e for expos in by_degree.values() for e in expos] == expected
    degs = spec.gen_degrees()
    assert all(sum(e * g for e, g in zip(expo, degs)) == d
               for d, expos in by_degree.items() for expo in expos)


def _representatives_reference(monos, span):
    """Representatives chosen by growing a span from the ideal rows, one
    monomial at a time: a monomial is kept when it enlarges the span."""
    if span is None:
        return list(monos)
    seen = st.BitSpan()
    for row in span.rows.values():
        seen.insert(row)
    reps = []
    for i, m in enumerate(monos):
        v = seen.reduce(1 << i)
        if not v or not seen.insert(v):
            continue
        reps.append(m)
    return reps


QUOTIENTS = {
    "none": lambda c: None,
    "squares": lambda c: st.make_spec("C", [(1, 2)], c, conjugated=False),
    "ko": st.ko_spec,
    "tmf": st.tmf_spec,
    "bp1": lambda c: st.bp_n_homology(1, c),
}


@pytest.mark.parametrize("cutoff", [16, 24, 32])
@pytest.mark.parametrize("name", sorted(QUOTIENTS))
def test_primitive_representatives_match_span_loop(name, cutoff):
    spec = QUOTIENTS[name](cutoff)
    index = DegreeIndex(st.xi_ring(cutoff))
    profile = {} if spec is None else spec.profile()
    cache = {}
    for d in range(1, cutoff + 1):
        # no ideal: the reference keeps every monomial, as the empty span
        # must
        span = st.BitSpan() if spec is None else \
            _ideal_rewrite(spec, index, d, cache)
        reps = _representatives(index.monomials(d), span)
        assert reps == _representatives_reference(
            index.monomials(d), None if spec is None else span)
        # the ideal is spanned by the monomials its profile caps
        assert reps == [m for m in index.monomials(d)
                        if all(m[n] < p for n, p in profile.items())]
    window = range(-1, cutoff + 1)
    fast = st.primitives(window, cutoff, quotient_by=spec)
    assert fast == _span_quotient_primitives(window, cutoff, spec)
    assert fast == _span_quotient_primitives(
        window, cutoff, spec, representatives=_representatives_reference)


def test_degree_index_positions_follow_the_shared_basis():
    ring = st.xi_ring(16)
    index = DegreeIndex(ring)
    for d in range(-1, 17):
        monos = index.monomials(d)
        assert list(monos) == ring.monomials_of_weight(d)
        for i, m in enumerate(monos):
            assert index.position(m, d) == i
            assert index.mask(Polynomial(ring, {m: 1}), d) == 1 << i
            assert index.poly(1 << i, d) == Polynomial(ring, {m: 1})


# ---------------------------------------------------------------------------
# primitives from the dual Sq^(2^k) action against the full coproduct


def _coproduct_primitives(window, cutoff):
    """Primitives of A as the kernel of the reduced coproduct of every
    monomial of each degree."""
    ring = st.xi_ring(cutoff)
    H = st.dual_steenrod(len(ring.names))
    index = DegreeIndex(ring)
    out = {}
    for d in window:
        if d <= 0 or d > cutoff:
            out[d] = []
            continue
        monos = index.monomials(d)
        tindex = {}
        vecs = []
        for m in monos:
            dx = st.coproduct(Polynomial(ring, {m: 1}), cutoff)
            v = 0
            for mono in dx.terms:
                _, left, right = H.split(mono)
                dl = ring.weight_of_monomial(left)
                dr = d - dl
                if dl == 0 or dr == 0:
                    continue
                key = (dl, index.position(left, dl), dr,
                       index.position(right, dr))
                v ^= 1 << tindex.setdefault(key, len(tindex))
            vecs.append(v)
        out[d] = [ring.poly({monos[i]: 1 for i in intlinalg.bits(mask)}
                            ).text() for mask in intlinalg.f2_kernel(vecs)]
    return out


@pytest.mark.parametrize("cutoff", [16, 31, 48])
def test_primitives_match_coproduct_kernel(cutoff):
    window = range(-1, cutoff + 1)
    fast = st.primitives(window, cutoff)
    assert fast == _coproduct_primitives(window, cutoff)
    assert {d: v for d, v in fast.items() if v} == {
        1 << k: ["xi1" if k == 0 else "xi1^%d" % (1 << k)]
        for k in range(cutoff.bit_length())}


_XI40 = st.xi_ring(40)
_MONOMIALS_40 = [m for d in range(1, 41)
                 for m in monomials(_XI40.weights, d)]


@settings(max_examples=80, deadline=None)
@given(expo=hst.sampled_from(_MONOMIALS_40))
def test_left_legs_are_the_xi1_power_terms_of_the_coproduct(expo):
    H = st.dual_steenrod(len(_XI40.names))
    d = _XI40.weight_of_monomial(expo)
    by_power = {}
    for mono in st.coproduct(Polynomial(_XI40, {expo: 1}), 40).terms:
        _, left, right = H.split(mono)
        if not any(right[1:]):
            by_power.setdefault(right[0], []).append(left)
    for j in range(d + 2):
        legs = st._left_legs(expo, j)
        assert len(set(legs)) == len(legs)
        assert sorted(legs) == sorted(by_power.get(j, []))


def test_primitives_form_no_coproduct(monkeypatch):
    # only the dual actions of Sq^(2^k), 2^k < d, are read
    ring = st.xi_ring(32)
    calls, asked = [], []
    coproduct, left_legs = st.coproduct, st._left_legs

    def counting(x, cutoff):
        calls.append(x)
        return coproduct(x, cutoff)

    def recording(expo, j):
        asked.append((ring.weight_of_monomial(expo), j))
        return left_legs(expo, j)

    monkeypatch.setattr(st, "coproduct", counting)
    monkeypatch.setattr(st, "_left_legs", recording)
    assert st.primitives(range(1, 33), 32)[32] == ["xi1^32"]
    assert calls == []
    assert {j for _, j in asked} == {1, 2, 4, 8, 16}
    assert all(j < d for d, j in asked)
