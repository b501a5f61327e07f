import pytest
from hypothesis import given, settings, strategies as hst

from cubalg.poly import (Polynomial, Ring, _mul_terms_bounded,
                         monomial_index, monomial_text, monomials,
                         parse_polynomial, unit_inverse)


@pytest.fixture
def R():
    return Ring(("a", "b"), (2, 4))


def test_canonical_text_ordering(R):
    p = R.gen("b") + R.gen("a") ** 2 + 3 * R.gen("a") + R.const(5)
    assert p.text() == "5 + 3*a + b + a^2"


def test_zero_and_constants(R):
    assert R.zero().is_zero()
    assert (R.const(7) - R.const(7)).is_zero()
    assert R.const(0).text() == "0"
    assert R.one().text() == "1"


def test_modulus_is_ring_level():
    R2 = Ring(("x",), (1,), 2)
    assert (R2.gen("x") + R2.gen("x")).is_zero()
    assert R2.const(5).text() == "1"
    R0 = Ring(("x",), (1,))
    with pytest.raises(ValueError):
        R2.gen("x") + R0.gen("x")


def test_extend_append_only(R):
    R3 = R.extend(("c",), (6,))
    assert R3.names[:2] == R.names
    assert R3.extends(R)
    p = R.gen("a") * R.gen("b")
    q = p.cast(R3)
    assert q.restrict(R) == p
    with pytest.raises(ValueError):
        R3.gen("c").restrict(R)


def test_weights_and_homogeneity(R):
    p = R.gen("a") ** 2 + R.gen("b")
    assert p.is_homogeneous() and p.weight() == 4
    q = p + R.gen("a")
    assert not q.is_homogeneous()
    assert q.homogeneous_part(2) == R.gen("a")
    assert q.max_weight() == 4


def test_monomials_of_weight(R):
    assert len(R.monomials_of_weight(8)) == 3   # a^4, a^2 b, b^2
    assert R.monomials_of_weight(3) == []
    assert R.monomials_of_weight(0) == [(0, 0)]


def _monomials_reference(weights, w):
    """The recursive enumerator the memoized `monomials` replaced."""
    out = []
    mono = [0] * len(weights)

    def rec(i, rem):
        if i == len(weights):
            if rem == 0:
                out.append(tuple(mono))
            return
        for e in range(rem // weights[i] + 1):
            mono[i] = e
            rec(i + 1, rem - e * weights[i])
        mono[i] = 0

    rec(0, w)
    out.sort()
    return out


@settings(max_examples=200, deadline=None)
@given(hst.lists(hst.integers(1, 8), min_size=1, max_size=5),
       hst.integers(-2, 24))
def test_monomials_match_recursive_enumerator(weights, w):
    ring = Ring(tuple("g%d" % i for i in range(len(weights))), weights)
    expected = _monomials_reference(weights, w)
    assert ring.monomials_of_weight(w) == expected
    assert list(monomials(tuple(weights), w)) == expected
    assert monomial_index(tuple(weights), w) == {
        m: i for i, m in enumerate(expected)}


def test_monomials_of_weight_returns_a_fresh_list(R):
    first = R.monomials_of_weight(8)
    first.append((9, 9))
    first[0] = (7, 7)
    assert R.monomials_of_weight(8) == [(0, 2), (2, 1), (4, 0)]


def test_monomials_of_the_empty_ring():
    ring = Ring((), ())
    assert ring.monomials_of_weight(0) == [()]
    assert ring.monomials_of_weight(2) == []
    assert ring.monomials_of_weight(-1) == []


def test_weight_zero_generator_cannot_be_enumerated():
    ring = Ring(("w", "x"), (0, 1))
    with pytest.raises(ValueError):
        ring.monomials_of_weight(2)
    with pytest.raises(ValueError):
        monomials((1, 0), 3)


def test_monomial_text():
    assert monomial_text(("a", "b"), (0, 0)) == "1"
    assert monomial_text((), ()) == "1"
    assert monomial_text(("a", "b"), (1, 0)) == "a"
    assert monomial_text(("a", "b"), (1, 1)) == "a*b"
    assert monomial_text(("a", "b"), (0, 3)) == "b^3"
    assert monomial_text(("x1", "x2"), (-1, 0)) == "x1^-1"
    assert monomial_text(("x1", "x2"), (1, -2)) == "x1*x2^-2"


def test_unit_inverse():
    assert unit_inverse(1, None) == 1
    assert unit_inverse(-1, None) == -1
    with pytest.raises(ValueError, match="2 is not a unit of Z"):
        unit_inverse(2, None)
    with pytest.raises(ValueError):
        unit_inverse(0, None)
    assert unit_inverse(3, 7) == 5
    assert unit_inverse(-1, 7) == 6
    with pytest.raises(ValueError):
        unit_inverse(0, 7)
    with pytest.raises(ValueError):
        unit_inverse(14, 7)


def test_parse_round_trip(R):
    p = 2 * R.gen("a") ** 3 - R.gen("b") + R.const(1)
    assert parse_polynomial(p.text(), R) == p


def test_map_gens_requires_all_occurring(R):
    p = R.gen("a") * R.gen("b")
    with pytest.raises(KeyError):
        p.map_gens(R, {"a": R.one()})
    q = p.map_gens(R, {"a": R.gen("a"), "b": R.gen("a") ** 2})
    assert q == R.gen("a") ** 3


small = hst.integers(min_value=-6, max_value=6)


def polys(R):
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]
    return hst.lists(hst.tuples(hst.sampled_from(monos), small),
                     max_size=5).map(
        lambda pairs: sum((c * Polynomial(R, {m: 1}) for m, c in pairs),
                          R.zero()))


@settings(max_examples=60, deadline=None)
@given(data=hst.data())
def test_ring_axioms_random(data):
    R = Ring(("a", "b"), (2, 4))
    p = data.draw(polys(R))
    q = data.draw(polys(R))
    r = data.draw(polys(R))
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p + q == q + p


@settings(max_examples=30, deadline=None)
@given(data=hst.data())
def test_mod2_reduction_matches_integer_arithmetic(data):
    R = Ring(("a", "b"), (2, 4))
    F = Ring(("a", "b"), (2, 4), 2)
    p = data.draw(polys(R))
    q = data.draw(polys(R))
    pz = R.poly(p.terms)
    prod_then_reduce = F.poly((pz * q).terms)
    reduce_then_prod = F.poly(p.terms) * F.poly(q.terms)
    assert prod_then_reduce == reduce_then_prod


def term_polys(R):
    monos = hst.tuples(*[hst.integers(0, 3)] * len(R.names))
    return hst.dictionaries(monos, small, max_size=6).map(R.poly)


@settings(max_examples=80, deadline=None)
@given(data=hst.data(), modulus=hst.sampled_from([None, 2]))
def test_mul_bounded_is_truncated_product(data, modulus):
    R = Ring(("x", "y", "t"), (1, 2, 3), modulus)
    p = data.draw(term_polys(R))
    q = data.draw(term_polys(R))
    indices = data.draw(hst.lists(hst.integers(0, 2), min_size=1,
                                  max_size=3, unique=True))
    bound = data.draw(hst.integers(-1, 6))
    kept = {m: c for m, c in (p * q).terms.items()
            if sum(m[i] for i in indices) <= bound}
    assert p.mul_bounded(q, indices, bound) == Polynomial(R, kept)


def _mul_terms_bounded_reference(a, b, modulus, indices, bound):
    """The skip-loop kernel `poly._mul_terms_bounded` replaced: it walks
    every term pair and skips those over the bound."""
    da = {m: sum(m[i] for i in indices) for m in a}
    db = {m: sum(m[i] for i in indices) for m in b}
    acc = {}
    get = acc.get
    for ma, ca in a.items():
        ra = bound - da[ma]
        for mb, cb in b.items():
            if db[mb] > ra:
                continue
            m = tuple(x + y for x, y in zip(ma, mb))
            acc[m] = get(m, 0) + ca * cb
            get = acc.get
    if modulus:
        return {m: c % modulus for m, c in acc.items() if c % modulus}
    return {m: c for m, c in acc.items() if c}


@settings(max_examples=150, deadline=None)
@given(data=hst.data(), modulus=hst.sampled_from([None, 2, 3]),
       indices=hst.sampled_from([(2,), (0,), (1, 2), (0, 2)]),
       bound=hst.sampled_from([0, 1, 2, 4, 7]))
def test_bounded_kernel_matches_skip_loop_reference(data, modulus, indices,
                                                    bound):
    R = Ring(("x", "y", "t"), (1, 2, 3), modulus)
    p = data.draw(term_polys(R))
    q = data.draw(term_polys(R))
    got = _mul_terms_bounded(p.terms, q.terms, modulus, indices, bound)
    assert got == _mul_terms_bounded_reference(p.terms, q.terms, modulus,
                                               indices, bound)
    assert all(sum(m[i] for i in indices) <= bound and c for m, c in
               got.items())
