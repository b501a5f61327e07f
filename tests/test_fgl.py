import functools
import time

import pytest
from hypothesis import given, settings, strategies as hst

from cubalg.curves import WeierstrassCurve, universal_curve, \
    universal_curve_ring
from cubalg import fgl
from cubalg.fgl import branch_expansion, fgl_from_curve, hasse_coefficients
from cubalg.poly import Polynomial, parse_polynomial
from cubalg.series import TruncatedSeries


def test_fgl_axioms_universal_curve():
    f = fgl_from_curve(universal_curve(), 4)
    assert all(f.check().values())


def test_two_series_golden():
    # [2](z) = 2z - a1 z^2 - 2 a2 z^3 + (a1 a2 - 7 a3) z^4
    ring = universal_curve_ring()
    f = fgl_from_curve(universal_curve(), 4)
    ps = f.n_series(2)
    golden = ["2", "-1*a1", "-2*a2", "a1*a2 - 7*a3"]
    for k, text in enumerate(golden, start=1):
        assert ps.coefficient("z", k) == parse_polynomial(text, ring)


def test_negative_series_is_inverse():
    f = fgl_from_curve(universal_curve(), 4)
    one = f.n_series(1)
    neg = f.n_series(-1)
    assert f.add(one, neg).poly.is_zero()


def test_hasse_p2():
    # the alpha-curve y^2 + a1 x y + a3 y = x^3
    ring = universal_curve_ring()
    curve = WeierstrassCurve(ring.gen("a1"), ring.zero(), ring.gen("a3"),
                             ring.zero(), ring.zero())
    vs = [v.restrict(ring) for v in hasse_coefficients(curve, 2, 2)]
    assert vs[0] == ring.const(2)
    assert vs[1] == -ring.gen("a1")
    assert vs[2] == -7 * ring.gen("a3")


def test_hasse_p3_sage_reproduction():
    # y^2 = x^3 + a2 x^2 + a4 x: v1 = -8 a2, v2 = 2432 a4^2 mod (a2)
    t0 = time.time()
    ring = universal_curve_ring()
    curve = WeierstrassCurve(ring.zero(), ring.gen("a2"), ring.zero(),
                             ring.gen("a4"), ring.zero())
    vs = [v.restrict(ring) for v in hasse_coefficients(curve, 3, 2)]
    assert vs[1] == -8 * ring.gen("a2")
    v2_mod_a2 = v2_without_a2 = ring.zero()
    for mono, c in vs[2].terms.items():
        if mono[ring.index("a2")]:
            v2_mod_a2 += ring.poly({mono: c})
        else:
            v2_without_a2 += ring.poly({mono: c})
    assert v2_without_a2 == 2432 * ring.gen("a4") ** 2
    assert time.time() - t0 < 10.0


@pytest.mark.parametrize("p, i_max, message", [
    (4, 2, "4 is not a prime"), (1, 2, "1 is not a prime"),
    (0, 1, "0 is not a prime"), (2, -1, "i_max must be >= 0"),
])
def test_hasse_rejects_bad_input(p, i_max, message):
    with pytest.raises(ValueError, match=message):
        hasse_coefficients(universal_curve(), p, i_max)


# -- the construction the chord on series replaced, kept as the reference --


def _branch_reference(curve, order):
    """`branch_expansion` as it was: iterate at full precision until w is
    fixed."""
    ring = curve.ring.extend(("z",), (0,))
    a1, a2, a3, a4, a6 = [a.cast(ring) for a in curve.coefficients()]
    z = TruncatedSeries(ring.gen("z"), ("z",), order)
    w = z ** 3
    while True:
        w2 = (z ** 3 + a1 * (z * w) + a2 * (z * z * w)
              + a3 * (w * w) + a4 * (z * w * w) + a6 * (w ** 3))
        if w2 == w:
            return w
        w = w2


@functools.lru_cache(maxsize=None)
def _fgl_reference(curve, order):
    """(F(x, y), i(z)) as `fgl_from_curve` built them before: the slope's
    terms a x^i y^(n-1-i) laid out by hand and every product at order + 2,
    F truncated to `order` at the end."""
    pad = order + 2
    base = curve.ring
    w = _branch_reference(curve, pad)
    a_coeffs = [w.coefficient("z", n).restrict(base) for n in range(pad + 1)]
    ring = base.extend(("x", "y"), (0, 0))
    sv = ("x", "y")
    a1, a2, a3, a4, a6 = [a.cast(ring) for a in curve.coefficients()]
    x = TruncatedSeries(ring.gen("x"), sv, pad)
    y = TruncatedSeries(ring.gen("y"), sv, pad)
    lam_terms = {}
    for n in range(3, pad + 1):
        for m, c in a_coeffs[n].terms.items():
            for i in range(n):
                lam_terms[m + (i, n - 1 - i)] = c
    lam = TruncatedSeries(ring.poly(lam_terms), sv, pad)
    nu = w.substitute({"z": x}) - lam * x
    lam2 = lam * lam
    c3 = 1 + a2 * lam + a4 * lam2 + a6 * (lam2 * lam)
    c2 = a1 * lam + a3 * lam2 + nu * (a2 + 2 * a4 * lam + 3 * a6 * lam2)
    z3 = -x - y - c2 * c3.unit_inverse()
    zring = base.extend(("z",), (0,))
    zs = TruncatedSeries(zring.gen("z"), ("z",), pad)
    a1z, a3z = curve.a1.cast(zring), curve.a3.cast(zring)
    inv_series = (-zs) * (1 - a1z * zs - a3z * w).unit_inverse()
    f = inv_series.substitute({"z": z3})
    return TruncatedSeries(f.poly, sv, order), inv_series


def _add_reference(curve, order, u, v):
    """`FormalGroupLaw.add` as it was: u and v substituted into F(x, y)."""
    return _fgl_reference(curve, order)[0].substitute({"x": u, "y": v})


def _formal_inverse_reference(curve, order, u):
    inv = TruncatedSeries(_fgl_reference(curve, order)[1].poly, ("z",),
                          min(order, u.order))
    return inv.substitute({"z": u})


def _n_series_reference(curve, order, n):
    """[n](z) by [n+1] = F([n](z), z), F(x, y) substituted each time."""
    zring = curve.ring.extend(("z",), (0,))
    z = TruncatedSeries(zring.gen("z"), ("z",), order)
    if n == 0:
        return TruncatedSeries(zring.zero(), ("z",), order)
    cur = z
    for _ in range(abs(n) - 1):
        cur = _add_reference(curve, order, cur, z)
    return _formal_inverse_reference(curve, order, cur) if n < 0 else cur


def _same(got, want):
    assert got == want and got.poly.terms == want.poly.terms
    assert set(got.series_vars) == set(want.series_vars)


@pytest.mark.parametrize("modulus", [None, 2, 3])
@pytest.mark.parametrize("order", range(0, 9))
def test_chord_matches_reference(modulus, order):
    curve = universal_curve(modulus)
    f = fgl_from_curve(curve, order)
    sum_ref, inv_ref = _fgl_reference(curve, order)
    _same(f.inverse_series, inv_ref)
    _same(f.branch, _branch_reference(curve, order + 2))
    for n in range(-3, 6):
        _same(f.n_series(n), _n_series_reference(curve, order, n))
    for n in (1, 2):
        u = f.n_series(n)
        _same(f.formal_inverse(u),
              _formal_inverse_reference(curve, order, u))
    _same(f.sum_series, sum_ref)
    assert f.sum_series.text() == sum_ref.text()


@pytest.mark.parametrize("curve", [
    universal_curve(), universal_curve(2), universal_curve(3),
    WeierstrassCurve.from_constants((0, 0, 1, 0, 0)),
    WeierstrassCurve.from_constants((1, 0, 0, -1, 0)),
], ids=["Z", "F2", "F3", "0,0,1,0,0", "1,0,0,-1,0"])
def test_branch_matches_reference(curve):
    for order in range(17):
        w = branch_expansion(curve, order)
        _same(w, _branch_reference(curve, order))
        assert w.order == order


def _series(data, ring, svars, order):
    """A random series in `ring` without constant term: at most 5 terms,
    exponents at most 2 in each generator."""
    idx = [ring.index(v) for v in svars]
    mono = hst.tuples(*[hst.integers(0, 2)] * len(ring.names)).filter(
        lambda m: sum(m[i] for i in idx) >= 1)
    terms = data.draw(hst.dictionaries(mono, hst.integers(-5, 5),
                                       max_size=5))
    return TruncatedSeries(ring.poly(terms), svars, order)


@settings(max_examples=60, deadline=None)
@given(data=hst.data(), modulus=hst.sampled_from([None, 2, 3]),
       order=hst.integers(0, 5), same=hst.booleans(),
       svars=hst.sampled_from([("z",), ("x", "y")]))
def test_add_matches_reference(data, modulus, order, same, svars):
    # u = v runs the chord as the tangent
    curve = universal_curve(modulus)
    f = fgl_from_curve(curve, order)
    ring = curve.ring.extend(svars, (0,) * len(svars))
    u = _series(data, ring, svars, data.draw(hst.integers(0, 6)))
    v = u if same else _series(data, ring, svars,
                               data.draw(hst.integers(0, 6)))
    _same(f.add(u, v), _add_reference(curve, order, u, v))


def test_add_raises_the_reference_errors():
    curve = universal_curve()
    f = fgl_from_curve(curve, 4)
    zring = curve.ring.extend(("z",), (0,))
    xyring = curve.ring.extend(("x", "y"), (0, 0))
    z = TruncatedSeries(zring.gen("z"), ("z",), 4)
    x = TruncatedSeries(xyring.gen("x"), ("x", "y"), 4)
    for u, v, message in [
            (z + 1, z, "no constant term"), (z, 1 + z, "no constant term"),
            (z, x, "series variable mismatch"),
            (x, z, "series variable mismatch")]:
        for add in (f.add, functools.partial(_add_reference, curve, 4)):
            with pytest.raises(ValueError, match=message):
                add(u, v)


@pytest.mark.parametrize("p, expected", [(3, "0"), (5, "2*a4"),
                                         (7, "3*a6")])
def test_v1_is_the_hasse_invariant(p, expected):
    # y^2 = x^3 + a4 x + a6: v1 mod p is the coefficient of x^(p-1) in
    # (x^3 + a4 x + a6)^((p-1)/2), the Hasse invariant
    ring = universal_curve_ring()
    curve = WeierstrassCurve(ring.zero(), ring.zero(), ring.zero(),
                             ring.gen("a4"), ring.gen("a6"))
    v1 = hasse_coefficients(curve, p, 1)[1].restrict(ring)
    fp = universal_curve_ring(p)
    rx = fp.extend(("x",), (4,))
    x = rx.gen("x")
    cubic = x ** 3 + rx.gen("a4") * x + rx.gen("a6")
    hasse = fp.poly({m[:-1]: c
                     for m, c in (cubic ** ((p - 1) // 2)).terms.items()
                     if m[-1] == p - 1})
    assert fp.poly(v1.terms) == hasse
    assert hasse == parse_polynomial(expected, fp)


def test_n_series_does_not_build_the_sum_series(monkeypatch):
    f = fgl_from_curve(universal_curve(), 6)
    for n in range(4):
        f.n_series(n)
    assert "inverse_series" not in vars(f)
    f.formal_inverse(f.n_series(2))
    assert "inverse_series" in vars(f)
    f.n_series(-2)
    assert "sum_series" not in vars(f)
    f.check()
    assert "sum_series" in vars(f)
    # the Hasse coefficients read the p-series only
    built = []

    def recording(curve, order):
        built.append(fgl_from_curve(curve, order))
        return built[-1]

    monkeypatch.setattr(fgl, "fgl_from_curve", recording)
    hasse_coefficients(universal_curve(), 2, 2)
    hasse_coefficients(universal_curve(3), 3, 1)
    assert len(built) == 2
    assert all("inverse_series" not in vars(g) for g in built)


def test_no_polynomial_product_has_a_zero_factor(monkeypatch):
    # the division recurrence and the branch recurrence skip d_j q_(k-j),
    # W_j W_(k-j), W_j S_(k-j) and a_i W_j when a factor is zero
    mul = Polynomial.__mul__
    zero_factor = []

    def checking(self, other):
        if isinstance(other, Polynomial) and (self.is_zero()
                                              or other.is_zero()):
            zero_factor.append((self.text(), other.text()))
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", checking)
    curves = [universal_curve(),
              WeierstrassCurve.from_constants((0, 0, 1, 0, 0)),
              WeierstrassCurve.from_constants((1, 0, 0, -1, 0))]
    for curve in curves:
        f = fgl_from_curve(curve, 8)
        f.n_series(3)
        f.formal_inverse(f.n_series(2))
    hasse_coefficients(universal_curve(3), 3, 2)
    assert zero_factor == []
