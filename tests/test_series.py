import pytest
from hypothesis import given, settings, strategies as hst

from cubalg.poly import Polynomial, Ring, unit_inverse
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


def _substitute_per_term(f, assignments):
    """`TruncatedSeries.substitute` as it was before the exponent groups:
    power tables, but each term carried by `map_gens` and multiplied by its
    powers on its own, one or two bounded products per term."""
    order = f.order
    for s in assignments.values():
        order = min(order, s.order)
        if s.series_degree_min() < 1:
            raise ValueError("substituted series must have no constant term")
    target = next(iter(assignments.values())).ring
    tvars = next(iter(assignments.values())).series_vars
    sub_idx = {f.ring.index(v): s for v, s in assignments.items()}
    powers = {i: [None, s] for i, s in sub_idx.items()}
    images = {n: target.gen(n) for n in f.ring.names if n in target.names}
    result = TruncatedSeries(target.zero(), tvars, order)
    for m, c in f.poly.terms.items():
        base = tuple(0 if i in sub_idx else e for i, e in enumerate(m))
        term = TruncatedSeries(
            Polynomial(f.ring, {base: c}).map_gens(target, images),
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


def _unit_inverse_reference(f):
    """`TruncatedSeries.unit_inverse` as it was before Newton iteration:
    1/f = cinv * sum_k (1 - cinv*f)^k, one product per order."""
    idx = [f.ring.index(v) for v in f.series_vars]
    c0 = f.poly.ring.poly({m: c for m, c in f.poly.terms.items()
                           if not sum(m[i] for i in idx)})
    if not c0.is_constant():
        raise ValueError("constant term is not a scalar")
    cinv = unit_inverse(c0.constant_term(), f.ring.modulus)
    one = TruncatedSeries(f.ring.one(), f.series_vars, f.order)
    g = one - f * cinv
    result = one
    power = one
    for _ in range(f.order):
        power = power * g
        if power.poly.is_zero():
            break
        result = result + power
    return result * cinv


def _series(data, ring, svars, order, min_degree=0):
    """A random series in `ring` with at most 6 terms, none of series
    degree below `min_degree`."""
    idx = [ring.index(v) for v in svars]
    mono = hst.tuples(*[hst.integers(0, 3)] * len(ring.names)).filter(
        lambda m: sum(m[i] for i in idx) >= min_degree)
    terms = data.draw(hst.dictionaries(mono, hst.integers(-5, 5),
                                       max_size=6))
    return TruncatedSeries(ring.poly(terms), svars, order)


def _grouped_series(data, ring, order):
    """A random series sum_e (sum_i a_ie c^i) z^e in ring (c, z): several
    terms share each exponent e of z."""
    terms = {}
    for e in data.draw(hst.lists(hst.integers(0, 4), max_size=4,
                                 unique=True)):
        for i in data.draw(hst.lists(hst.integers(0, 3), min_size=2,
                                     max_size=4, unique=True)):
            terms[(i, e)] = data.draw(hst.integers(-5, 5))
    return TruncatedSeries(ring.poly(terms), ("z",), order)


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


def _check_substitute(f, assignments):
    got = f.substitute(assignments)
    for reference in (_substitute_reference, _substitute_per_term):
        want = reference(f, assignments)
        assert got == want and got.poly.terms == want.poly.terms
        assert got.series_vars == want.series_vars


@settings(max_examples=60, deadline=None)
@given(data=hst.data(), modulus=moduli)
def test_substitute_matches_references_on_shared_exponents(data, modulus):
    # several terms c^i z^e in each exponent group e, substituted both
    # within the ring and into a ring of two series variables
    R = Ring(("c", "z"), (2, 0), modulus)
    T = Ring(("c", "x", "y"), (2, 0, 0), modulus)
    f = _grouped_series(data, R, data.draw(orders))
    _check_substitute(f, {"z": _series(data, R, ("z",), data.draw(orders),
                                       min_degree=1)})
    _check_substitute(f, {"z": _series(data, T, ("x", "y"),
                                       data.draw(orders), min_degree=1)})


@settings(max_examples=40, deadline=None)
@given(data=hst.data(), modulus=moduli)
def test_substitute_carries_base_generators_by_name(data, modulus):
    # c sits at position 0 in the source ring and elsewhere in the target
    R = Ring(("c", "z"), (2, 0), modulus)
    T = Ring(("x", "d", "c"), (0, 4, 2), modulus)
    f = _grouped_series(data, R, data.draw(orders))
    s = _series(data, T, ("x",), data.draw(orders), min_degree=1)
    _check_substitute(f, {"z": s})
    # a base generator that is a series variable of the target ring
    U = Ring(("y", "c"), (0, 2), modulus)
    s = _series(data, U, ("y", "c"), data.draw(orders), min_degree=1)
    _check_substitute(f, {"z": s})


def test_substitute_without_an_image_raises_the_same_key_error():
    R = Ring(("c", "d", "z"), (2, 4, 0))
    T = Ring(("c", "x"), (2, 0))
    z = TruncatedSeries(R.gen("z"), ("z",), 4)
    f = z + R.gen("c") * z * z + R.gen("d") * z ** 3
    s = TruncatedSeries(T.gen("x"), ("x",), 4)
    errors = []
    for sub in (TruncatedSeries.substitute, _substitute_reference,
                _substitute_per_term):
        with pytest.raises(KeyError) as err:
            sub(f, {"z": s})
        errors.append(str(err.value))
    assert errors == ["\"no image for generator 'd'\""] * 3
    # without the d term every generator that occurs has an image
    g = z + R.gen("c") * z * z
    assert g.substitute({"z": s}) == _substitute_per_term(g, {"z": s})


def test_substitute_needs_an_assignment(R):
    with pytest.raises(ValueError, match="no substitution given"):
        zs(R).substitute({})


@settings(max_examples=80, deadline=None)
@given(data=hst.data(), modulus=moduli, bivariate=hst.booleans(),
       order=hst.integers(0, 8))
def test_unit_inverse_matches_geometric_series(data, modulus, bivariate,
                                               order):
    if bivariate:
        R, sv = Ring(("c", "x", "y"), (2, 0, 0), modulus), ("x", "y")
    else:
        R, sv = Ring(("c", "z"), (2, 0), modulus), ("z",)
    units = [1, -1] if modulus is None else list(range(1, modulus))
    c0 = data.draw(hst.sampled_from(units))
    f = _series(data, R, sv, order, min_degree=1) + c0
    g = f.unit_inverse()
    want = _unit_inverse_reference(f)
    assert g == want and g.poly.terms == want.poly.terms
    assert (f * g - 1).poly.is_zero()


def _same(got, want):
    assert got == want and got.poly.terms == want.poly.terms


@settings(max_examples=120, deadline=None)
@given(data=hst.data(), modulus=hst.sampled_from([None, 2, 3, 5]),
       bivariate=hst.booleans())
def test_division_matches_the_geometric_series(data, modulus, bivariate):
    if bivariate:
        R, sv = Ring(("c", "x", "y"), (2, 0, 0), modulus), ("x", "y")
    else:
        R, sv = Ring(("c", "z"), (2, 0), modulus), ("z",)
    units = [1, -1] if modulus is None else list(range(1, modulus))
    unit = hst.sampled_from(units)
    orders8 = hst.integers(0, 8)
    a = _series(data, R, sv, data.draw(orders8))
    b = _series(data, R, sv, data.draw(orders8), min_degree=1) + data.draw(
        unit)
    inv = _unit_inverse_reference(b)
    _same(a / b, a * inv)
    # int and Polynomial numerators take the denominator's order
    k = data.draw(hst.integers(-5, 5))
    _same(k / b, inv * k)
    p = _series(data, R, sv, 8).poly
    _same(p / b, TruncatedSeries(p, sv, b.order) * inv)
    # int and Polynomial denominators take the numerator's order
    c = data.draw(unit)
    _same(a / c, a * unit_inverse(c, modulus))
    _same(a / b.poly,
          a * _unit_inverse_reference(TruncatedSeries(b.poly, sv, a.order)))


@pytest.mark.parametrize("modulus", [None, 3])
def test_division_needs_a_unit_constant_term(modulus):
    R = Ring(("c", "z"), (2, 0), modulus)
    z, c = zs(R), R.gen("c")
    # a constant term that is not a scalar, or a scalar that is no unit:
    # 2 over Z, and 0 or 3 (= 0 over F_3)
    dens = [c + z, 1 + c * c + z, z, 3 * z - 3, 2 * z * z]
    if modulus is None:
        dens.append(2 + z)
    for den in dens:
        with pytest.raises(ValueError) as want:
            _unit_inverse_reference(den)
        for divide in (lambda: (1 + z) / den, lambda: 1 / den,
                       lambda: R.gen("c") / den, den.unit_inverse):
            with pytest.raises(ValueError) as got:
                divide()
            assert str(got.value) == str(want.value)


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
    # k - 1 products for s^2 .. s^k, then one for each of the k exponent
    # groups z^1 .. z^k, one term each
    assert len(calls) == 2 * k - 1
    monkeypatch.undo()
    assert got == _substitute_reference(f, {"z": s})


def test_substitute_makes_one_product_per_exponent_group(monkeypatch):
    R = Ring(("c", "d", "z"), (2, 4, 0))
    c, d = R.gen("c"), R.gen("d")
    z = TruncatedSeries(R.gen("z"), ("z",), 8)
    # 9 terms in 4 exponent groups z^0, z^2, z^3, z^5; three of them need a
    # product, and the power table s^2 .. s^5 takes four
    f = (c + d + (1 + c + c * c) * z ** 2 + (d + c * d) * z ** 3
         + (3 + d * d) * z ** 5)
    s = z + c * z * z
    groups = {m[2] for m in f.poly.terms}
    assert len(f.poly.terms) == 9 and len(groups) == 4
    calls, mapped = [], []
    mul_bounded = Polynomial.mul_bounded
    map_gens = Polynomial.map_gens

    def counting(self, *args):
        calls.append(1)
        return mul_bounded(self, *args)

    def counting_map(self, *args):
        mapped.append(1)
        return map_gens(self, *args)

    monkeypatch.setattr(Polynomial, "mul_bounded", counting)
    monkeypatch.setattr(Polynomial, "map_gens", counting_map)
    got = f.substitute({"z": s})
    assert len(calls) == (len(groups) - 1) + (max(groups) - 1)
    assert mapped == []
    monkeypatch.undo()
    assert got.poly.terms == _substitute_per_term(f, {"z": s}).poly.terms


@pytest.mark.parametrize("op", [
    lambda s: s + 1.5, lambda s: 1.5 + s, lambda s: s - 1.5,
    lambda s: 1.5 - s, lambda s: s * 1.5, lambda s: 1.5 * s,
    lambda s: s / 1.5, lambda s: 1.5 / s,
])
def test_unsupported_operand_is_pythons_type_error(R, op):
    with pytest.raises(TypeError, match="unsupported operand"):
        op(zs(R))
