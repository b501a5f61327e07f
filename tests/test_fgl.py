import time

import pytest

from cubalg.curves import WeierstrassCurve, universal_curve, \
    universal_curve_ring
from cubalg.fgl import fgl_from_curve, hasse_coefficients
from cubalg.poly import parse_polynomial


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
