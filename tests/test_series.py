import pytest
from hypothesis import given, settings, strategies as hst

from cubalg.poly import Polynomial, Ring
from cubalg.series import TruncatedSeries


@pytest.fixture
def R():
    return Ring(("c", "z"), (2, 0))


def zs(R, order=6):
    return TruncatedSeries(R.gen("z"), ("z",), order)


def test_truncation(R):
    z = zs(R, 3)
    p = (1 + z) ** 5
    assert p.coefficient("z", 3) == R.const(10)
    assert p.coefficient("z", 4).is_zero()


def test_unit_inverse(R):
    z = zs(R)
    f = 1 - R.gen("c") * z
    g = f.unit_inverse()
    assert (f * g - 1).poly.is_zero()
    assert g.coefficient("z", 3) == R.gen("c") ** 3


def test_unit_inverse_needs_unit(R):
    z = zs(R)
    with pytest.raises(Exception):
        (2 * z).unit_inverse()


def test_functional_inverse(R):
    z = zs(R)
    f = z + R.gen("c") * z * z
    g = f.functional_inverse("z")
    assert (f.substitute({"z": g}) - z).poly.is_zero()
    assert (g.substitute({"z": f}) - z).poly.is_zero()


def test_substitute_multivariate(R):
    R2 = R.extend(("w",), (0,))
    f = TruncatedSeries(R2.gen("z") * R2.gen("w"), ("z", "w"), 4)
    z = TruncatedSeries(R2.gen("z"), ("z", "w"), 4)
    sq = f.substitute({"z": z, "w": z})
    assert sq.coefficient("z", 2) == R2.one()


def test_coefficient_extraction(R):
    z = zs(R)
    f = 2 * z + 3 * z ** 2
    assert f.coefficient("z", 1) == R.const(2)
    assert f.coefficient("z", 2) == R.const(3)
    assert f.coefficient("z", 5).is_zero()


def _substitute_reference(f, assignments):
    """`TruncatedSeries.substitute` as it was before the power tables: each
    power s^e by binary powering, once per (variable, exponent)."""
    order = f.order
    for s in assignments.values():
        order = min(order, s.order)
        if s.series_degree_min() < 1:
            raise ValueError("substituted series must have no constant term")
    target = next(iter(assignments.values())).ring
    tvars = next(iter(assignments.values())).series_vars
    sub_idx = {f.ring.index(v): s for v, s in assignments.items()}
    pow_cache = {}
    result = TruncatedSeries(target.zero(), tvars, order)
    for m, c in f.poly.terms.items():
        base = tuple(0 if i in sub_idx else e for i, e in enumerate(m))
        term = TruncatedSeries(
            Polynomial(f.ring, {base: c}).map_gens(
                target, {n: target.gen(n) for n in f.ring.names
                         if n in target._index}),
            tvars, order)
        for i in sub_idx:
            e = m[i]
            if not e:
                continue
            key = (i, e)
            if key not in pow_cache:
                pow_cache[key] = sub_idx[i] ** e
            term = term * pow_cache[key]
        result = result + term
    return result


def _series(data, ring, svars, order, min_degree=0):
    """A random series in `ring` with at most 6 terms, none of series
    degree below `min_degree`."""
    idx = [ring.index(v) for v in svars]
    mono = hst.tuples(*[hst.integers(0, 3)] * len(ring.names)).filter(
        lambda m: sum(m[i] for i in idx) >= min_degree)
    terms = data.draw(hst.dictionaries(mono, hst.integers(-5, 5),
                                       max_size=6))
    return TruncatedSeries(ring.poly(terms), svars, order)


def _degrees(s):
    idx = [s.ring.index(v) for v in s.series_vars]
    return [sum(m[i] for i in idx) for m in s.poly.terms]


orders = hst.integers(0, 6)
moduli = hst.sampled_from([None, 3, 5])


@settings(max_examples=60, deadline=None)
@given(data=hst.data(), modulus=moduli)
def test_substitute_matches_reference_univariate(data, modulus):
    R = Ring(("c", "z"), (2, 0), modulus)
    f = _series(data, R, ("z",), data.draw(orders))
    s = _series(data, R, ("z",), data.draw(orders), min_degree=1)
    got = f.substitute({"z": s})
    want = _substitute_reference(f, {"z": s})
    assert got == want and got.poly.terms == want.poly.terms


@settings(max_examples=60, deadline=None)
@given(data=hst.data(), modulus=moduli)
def test_substitute_matches_reference_bivariate(data, modulus):
    R = Ring(("c", "x", "y"), (2, 0, 0), modulus)
    sv = ("x", "y")
    f = _series(data, R, sv, data.draw(orders))
    sx = _series(data, R, sv, data.draw(orders), min_degree=1)
    sy = _series(data, R, sv, data.draw(orders), min_degree=1)
    got = f.substitute({"x": sx, "y": sy})
    want = _substitute_reference(f, {"x": sx, "y": sy})
    assert got == want and got.poly.terms == want.poly.terms


@settings(max_examples=40, deadline=None)
@given(data=hst.data(), modulus=moduli)
def test_substitute_matches_reference_into_other_ring(data, modulus):
    # a univariate series in z, with z replaced by a series in (x, y)
    R = Ring(("c", "z"), (2, 0), modulus)
    T = Ring(("c", "x", "y"), (2, 0, 0), modulus)
    f = _series(data, R, ("z",), data.draw(orders))
    s = _series(data, T, ("x", "y"), data.draw(orders), min_degree=1)
    got = f.substitute({"z": s})
    want = _substitute_reference(f, {"z": s})
    assert got == want and got.poly.terms == want.poly.terms


@settings(max_examples=60, deadline=None)
@given(data=hst.data(), modulus=moduli, equal=hst.booleans())
def test_arithmetic_stores_no_term_above_order(data, modulus, equal):
    R = Ring(("c", "x", "y"), (2, 0, 0), modulus)
    sv = ("x", "y")
    n = data.draw(orders)
    a = _series(data, R, sv, n)
    b = _series(data, R, sv, n if equal else data.draw(orders))
    for r in (a + b, a - b, a * b, b + a, b - a, b * a):
        assert r.order == min(a.order, b.order)
        assert all(d <= r.order for d in _degrees(r))


def test_substitute_builds_each_power_from_the_last(R, monkeypatch):
    k = 8
    z = zs(R, k)
    f = sum((z ** e for e in range(2, k + 1)), z)
    s = z + R.gen("c") * z * z
    calls = []
    mul_bounded = Polynomial.mul_bounded

    def counting(self, *args):
        calls.append(1)
        return mul_bounded(self, *args)

    monkeypatch.setattr(Polynomial, "mul_bounded", counting)
    got = f.substitute({"z": s})
    # k - 1 products for s^2 .. s^k, then one for each of the k terms
    assert len(calls) == 2 * k - 1
    monkeypatch.undo()
    assert got == _substitute_reference(f, {"z": s})


@pytest.mark.parametrize("op", [
    lambda s: s + 1.5, lambda s: 1.5 + s, lambda s: s - 1.5,
    lambda s: 1.5 - s, lambda s: s * 1.5, lambda s: 1.5 * s,
])
def test_unsupported_operand_is_pythons_type_error(R, op):
    with pytest.raises(TypeError, match="unsupported operand"):
        op(zs(R))
