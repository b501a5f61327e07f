import random

from cubalg.curves import (CoordinateChange, WeierstrassCurve, invariants,
                           transform, universal_curve, universal_curve_ring)


def test_universal_invariants_identity():
    inv = invariants(universal_curve())
    assert inv["c4_c6_delta_identity"]


def test_invariants_mod2_alpha_curve():
    # y^2 + a1 x y + a3 y = x^3 over F_2
    ring = universal_curve_ring(2)
    curve = WeierstrassCurve(ring.gen("a1"), ring.zero(), ring.gen("a3"),
                             ring.zero(), ring.zero())
    inv = invariants(curve)
    assert inv["c4"].text() == "a1^4"
    assert inv["delta"].text() == "a3^4 + a1^3*a3^3"


def test_invariants_random_integer_curves():
    rng = random.Random(5)
    for _ in range(100):
        coeffs = tuple(rng.randrange(-50, 51) for _ in range(5))
        curve = WeierstrassCurve.from_constants(coeffs)
        assert invariants(curve)["c4_c6_delta_identity"]


def test_transform_laws_match_golden():
    ring = universal_curve_ring().extend(("r", "s", "t"), (4, 2, 6))
    curve = universal_curve()
    ch = CoordinateChange(ring.gen("r"), ring.gen("s"), ring.gen("t"))
    moved = transform(curve, ch)
    a1, a2 = moved.a1, moved.a2
    assert a1.text() == (ring.gen("a1") + 2 * ring.gen("s")).text()
    expect_a2 = (ring.gen("a2") - ring.gen("s") * ring.gen("a1")
                 + 3 * ring.gen("r") - ring.gen("s") ** 2)
    assert a2 == expect_a2


def test_transform_invariance_of_invariants():
    # u = 1 changes leave c4, c6, delta fixed
    ring = universal_curve_ring().extend(("r", "s", "t"), (4, 2, 6))
    curve = universal_curve()
    ch = CoordinateChange(ring.gen("r"), ring.gen("s"), ring.gen("t"))
    inv0 = invariants(curve)
    inv1 = invariants(transform(curve, ch))
    for name in ("c4", "c6", "delta"):
        assert inv1[name] == inv0[name].cast(ring)


def test_compose_and_inverse():
    ring = universal_curve_ring().extend(
        ("r1", "s1", "t1", "r2", "s2", "t2"), (4, 2, 6, 4, 2, 6))
    c1 = CoordinateChange(ring.gen("r1"), ring.gen("s1"), ring.gen("t1"))
    c2 = CoordinateChange(ring.gen("r2"), ring.gen("s2"), ring.gen("t2"))
    comp = c1.compose(c2)
    curve = universal_curve()
    assert transform(transform(curve, c1), c2).coefficients() == \
        transform(curve, comp).coefficients()
    for ident in (c1.compose(c1.inverse()), c1.inverse().compose(c1)):
        assert all(x.is_zero() for x in (ident.r, ident.s, ident.t))


def test_identity_change():
    ring = universal_curve_ring()
    ident = CoordinateChange(ring.zero(), ring.zero(), ring.zero())
    curve = universal_curve()
    assert transform(curve, ident).coefficients() == curve.coefficients()

