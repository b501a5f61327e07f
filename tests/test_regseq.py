import json

import pytest
from hypothesis import given, settings, strategies as hst

from cubalg.curves import (WeierstrassCurve, invariants, universal_curve,
                           universal_curve_ring)
from cubalg.fgl import hasse_coefficients
from cubalg.intlinalg import field_kernel
from cubalg.poly import Polynomial, Ring, monomials, parse_polynomial
from cubalg import regseq
from cubalg.cli import dispatch, parse_curve
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


@pytest.mark.parametrize("text", ["a1,a2,0,0,0", "0,0,a3,0,0"])
def test_landweber_report_adds_the_rest_of_v1_v2_past_a_failure(text,
                                                               capsys):
    # v2 = a1 a2 lies in (v1) = (a1), or v1 = 0: the check stops early and
    # the report adds the rest of (v1, v2) to the ideal it kept; its spans
    # and the powers found are those of a span of every m * v_i
    curve = parse_curve(text)
    rep = landweber_report(curve, 2, 24)
    assert not rep["regularity"].regular_through_cutoff
    ring = curve.a1.ring
    vs = [v.restrict(ring) for v in hasse_coefficients(curve, 2, 2)[1:]]
    ref = regseq.GradedIdeal(ring, 2, 24)
    for v in vs:
        if any(c % 2 for c in v.terms.values()):
            d = v.weight()
            for w in range(24 - d + 1):
                for m in monomials(ring.weights, w):
                    ref.spans[w + d].insert(
                        ref.vector(Polynomial(ring, {m: 1}) * v, w + d))
    ideal = rep["regularity"].ideal
    assert all(set(ideal.spans[w].rows) == set(ref.spans[w].rows)
               for w in range(25))
    inv = invariants(curve)
    powers = [next((e for e in range(1, 13)
                    if (inv[name] ** e).max_weight() <= 24
                    and ref.contains(inv[name] ** e)), None)
              for name in ("c4", "delta")]
    assert [rep["c4_power_in_ideal"], rep["delta_power_in_ideal"]] \
        == powers == [1, 1]
    argv = ["curve", "landweber", "--curve", text, "--cutoff", "24"]
    assert dispatch(argv) == 1
    out = json.loads(capsys.readouterr().out)
    assert [out["c4_power_in_ideal"], out["delta_power_in_ideal"]] == powers


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
    # the check adjoins the images of the quotient basis only; the pivot
    # sets and the reductions depend only on the spans, so they agree
    ring, seq = build()
    rep = graded_regular_sequence_check(ring, seq, prime, cutoff)
    assert rep.regular_through_cutoff is regular
    passed = seq if regular else seq[:1]
    assert rep.ideal.generators == passed
    ideal = regseq.GradedIdeal(ring, prime, cutoff)
    for x in passed:
        ideal.add_generator(x)
    for w in range(cutoff + 1):
        fast, slow = rep.ideal.spans[w], ideal.spans[w]
        assert set(fast.rows) == set(slow.rows)
        n = len(monomials(ring.weights, w))
        probes = [{j: 1} for j in range(n)] + [dict.fromkeys(range(n), 1)]
        for v in probes:
            assert fast.reduce(v) == slow.reduce(v)


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


# ---------------------------------------------------------------------------
# the check on the quotient basis against the all-monomials kernel check


def _reference_check(ring, elements, prime, cutoff):
    """(failing element, failure weight, quotient ranks) by the kernel of
    multiplication on every monomial of each weight: x is a zero-divisor
    in weight w when a kernel vector of the images m*x modulo I_{w+d}
    does not lie in I_w."""
    ideal = regseq.GradedIdeal(ring, prime, cutoff)
    failure = None
    for x in elements:
        if all((c % prime if prime else c) == 0 for c in x.terms.values()):
            failure = (x.text(), 0)
            break
        d = x.weight()
        products = [[ideal.vector(Polynomial(ring, {m: 1}) * x, w + d)
                     for m in monomials(ring.weights, w)]
                    for w in range(cutoff - d + 1)]
        for w, vecs in enumerate(products):
            images = [ideal.spans[w + d].reduce(v) for v in vecs]
            if any(not ideal.spans[w].contains(kv)
                   for kv in field_kernel(images, prime)):
                failure = (x.text(), w)
                break
        if failure:
            break
        for w, vecs in enumerate(products):
            for v in vecs:
                ideal.spans[w + d].insert(v)
    ranks = [ideal.quotient_rank(w) for w in range(cutoff + 1)]
    return failure, ranks


@hst.composite
def _graded_sequences(draw):
    n = draw(hst.integers(1, 3), label="variables")
    weights = tuple(draw(hst.lists(hst.integers(1, 3), min_size=n,
                                   max_size=n), label="weights"))
    ring = Ring(("x", "y", "z")[:n], weights)
    elements = []
    for _ in range(draw(hst.integers(1, n + 1), label="length")):
        d = draw(hst.integers(1, 4), label="weight")
        monos = monomials(weights, d) or monomials(weights, weights[0])
        coeffs = draw(hst.lists(hst.sampled_from([0, 1, -1, 2]),
                                min_size=len(monos), max_size=len(monos)),
                      label="coefficients")
        # a unit coefficient somewhere keeps x nonzero mod 2 and 3
        coeffs[draw(hst.integers(0, len(monos) - 1), label="unit")] = 1
        elements.append(ring.poly({m: c for m, c in zip(monos, coeffs)
                                   if c}))
    return ring, elements


@settings(max_examples=150, deadline=None)
@given(case=_graded_sequences(), prime=hst.sampled_from([2, 3, None]),
       cutoff=hst.integers(4, 9))
def test_check_matches_the_all_monomials_reference(case, prime, cutoff):
    ring, elements = case
    rep = graded_regular_sequence_check(ring, elements, prime, cutoff)
    failure, ranks = _reference_check(ring, elements, prime, cutoff)
    assert rep.quotient_ranks == ranks
    assert rep.regular_through_cutoff is (failure is None)
    if failure is not None:
        assert (rep.failure["element"], rep.failure["weight"]) == failure
        # the witness is nonzero in the quotient and killed by x
        x = next(x for x in elements if x.text() == failure[0])
        witness = parse_polynomial(rep.failure["witness"], ring)
        assert not rep.ideal.contains(witness)
        assert rep.ideal.contains(witness * x)


@pytest.mark.parametrize("prime", [2, 3, None])
def test_failure_witness_is_a_nonzero_class_killed_by_x(prime):
    # x*y kills y modulo (z, y^2); the ideal is nonzero in the failure
    # weight, so the quotient basis there is not every monomial
    ring = Ring(("x", "y", "z"), (1, 1, 1))
    x, y, z = ring.gen("x"), ring.gen("y"), ring.gen("z")
    rep = graded_regular_sequence_check(ring, [z, y * y, x * y], prime, 6)
    assert rep.failure["element"] == (x * y).text()
    assert rep.failure["weight"] == 1
    assert rep.ideal.spans[1].rank == 1
    witness = parse_polynomial(rep.failure["witness"], ring)
    assert witness.weight() == 1
    assert not rep.ideal.contains(witness)
    assert rep.ideal.contains(witness * x * y)


def test_check_runs_the_kernel_only_on_failure(monkeypatch):
    calls = []

    def counting(cols, p):
        calls.append(len(cols))
        return field_kernel(cols, p)

    monkeypatch.setattr(regseq, "field_kernel", counting)
    ring, seq = _landweber_sequence_at_3()
    assert graded_regular_sequence_check(ring, seq, 3, 36) \
        .regular_through_cutoff
    assert calls == []
    ring, seq = _failing_sequence()
    assert not graded_regular_sequence_check(ring, seq, None, 8) \
        .regular_through_cutoff
    assert len(calls) == 1
