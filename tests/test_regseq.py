import pytest

from cubalg.curves import (WeierstrassCurve, invariants, universal_curve,
                           universal_curve_ring)
from cubalg.fgl import hasse_coefficients
from cubalg.poly import Ring
from cubalg import regseq
from cubalg.regseq import graded_regular_sequence_check, landweber_report


def test_c4_delta_a_even_regular_at_2():
    ring = universal_curve_ring()
    inv = invariants(universal_curve())
    seq = [inv["c4"], inv["delta"], ring.gen("a2"), ring.gen("a4"),
           ring.gen("a6")]
    rep = graded_regular_sequence_check(ring, seq, 2, 48)
    assert rep.regular_through_cutoff
    assert rep.certified
    # quotient is Z/2[a1, a3] / (a1^4, a1^3 a3^3 + a3^4): total rank 4*8/...
    # the certified total rank equals |c4| * |delta| / (|a1| * |a3|) = 16
    assert rep.quotient_total_rank == 16


def test_non_regular_sequence_detected():
    ring = Ring(("x", "y"), (1, 1))
    x, y = ring.gen("x"), ring.gen("y")
    rep = graded_regular_sequence_check(ring, [x * y, x * x], None, 8)
    assert not rep.regular_through_cutoff
    assert rep.failure is not None


def test_p5_quotient_rank_is_four():
    # Z_(5)[A, B], |A| = 8, |B| = 12; v1, v2 from y^2 = x^3 + Ax + B.
    # The honest total rank of the quotient by (5, v1, v2) is 4
    # (= (p-1)(p^2-1)/24), not 8.
    ring = Ring(("A", "B"), (8, 12))
    curve = WeierstrassCurve(ring.zero(), ring.zero(), ring.zero(),
                             ring.gen("A"), ring.gen("B"))
    vs = [v.restrict(ring) for v in hasse_coefficients(curve, 5, 2)]
    a, b = ring.gen("A"), ring.gen("B")
    assert vs[1].homogeneous_part(8).terms == (-1248 * a).terms
    # v2 = 4 B^4 modulo (5, A)
    v2_no_a = ring.poly({m: c for m, c in vs[2].terms.items()
                         if not m[ring.index("A")]})
    diff = v2_no_a - 4 * b ** 4
    assert all(c % 5 == 0 for c in diff.terms.values())
    rep = graded_regular_sequence_check(ring, [ring.const(5), vs[1], vs[2]],
                                        5, 60)
    assert rep.regular_through_cutoff
    assert rep.certified
    assert rep.quotient_total_rank == 4


def test_inhomogeneous_rejected():
    ring = Ring(("x",), (1,))
    with pytest.raises(ValueError):
        graded_regular_sequence_check(
            ring, [ring.gen("x") + ring.one()], None, 4)


def test_landweber_report_p2():
    rep = landweber_report(universal_curve(), 2, 24)
    assert rep["regularity"].regular_through_cutoff
    assert rep["c4_power_in_ideal"] == 1
    assert rep["delta_power_in_ideal"] == 1


def test_landweber_report_builds_one_ideal(monkeypatch):
    built = []

    class Counting(regseq.GradedIdeal):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(regseq, "GradedIdeal", Counting)
    rep = landweber_report(universal_curve(), 3, 24)
    assert len(built) == 1
    assert rep["regularity"].ideal is not None
    assert len(rep["regularity"].ideal.generators) == 2


def _landweber_sequence_at_3():
    ring = universal_curve_ring()
    vs = hasse_coefficients(universal_curve(), 3, 2)
    return ring, [v.restrict(ring) for v in vs[1:]]


def _invariant_sequence():
    ring = universal_curve_ring()
    inv = invariants(universal_curve())
    return ring, [inv["c4"], inv["delta"], ring.gen("a2"), ring.gen("a4")]


def _failing_sequence():
    ring = Ring(("x", "y"), (1, 1))
    x, y = ring.gen("x"), ring.gen("y")
    return ring, [x * y, x * x]


@pytest.mark.parametrize("build, prime, cutoff, regular", [
    (_invariant_sequence, 2, 24, True),
    (_invariant_sequence, None, 28, True),
    (_landweber_sequence_at_3, 3, 36, True),
    (_failing_sequence, None, 8, False),
])
def test_check_builds_the_spans_add_generator_builds(build, prime, cutoff,
                                                     regular):
    # the check inserts the reduced images m*x of its kernel test; a
    # reduced echelon form depends only on its span, so the rows agree
    ring, seq = build()
    rep = graded_regular_sequence_check(ring, seq, prime, cutoff)
    assert rep.regular_through_cutoff is regular
    passed = seq if regular else seq[:1]
    assert rep.ideal.generators == passed
    ideal = regseq.GradedIdeal(ring, prime, cutoff)
    for x in passed:
        ideal.add_generator(x)
    for w in range(cutoff + 1):
        assert rep.ideal.spans[w].rows == ideal.spans[w].rows


def test_regularity_report_ideal_is_kept_out_of_repr_and_eq():
    ring = Ring(("x", "y"), (1, 1))
    x, y = ring.gen("x"), ring.gen("y")
    a = graded_regular_sequence_check(ring, [x, y], None, 6)
    b = graded_regular_sequence_check(ring, [x, y], None, 6)
    assert a.ideal is not b.ideal and a == b
    assert "ideal" not in repr(a)
    assert a.ideal.contains(x * y) and not a.ideal.contains(ring.one())


@pytest.mark.parametrize("prime", [0, 1, 4, 9])
def test_regular_sequence_rejects_a_non_prime(prime):
    ring = Ring(("x",), (1,))
    with pytest.raises(ValueError, match="%d is not a prime" % prime):
        graded_regular_sequence_check(ring, [ring.gen("x")], prime, 4)
