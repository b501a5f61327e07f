"""Acceptance criteria 1-11.  Each test prints exactly one pass/fail line.

Criterion 6 checks the rank of Z_(p)[c4, c6] over Z_(p)[v1, v2] at p = 5,
which is the total rank of the quotient of Z_(5)[A, B] by the regular
sequence (5, v1, v2).  For a regular sequence the quotient is a complete
intersection over F_p with Hilbert series
(1 - t^|v1|)(1 - t^|v2|) / ((1 - t^|A|)(1 - t^|B|)), so its total rank is
|v1| |v2| / (|A| |B|) = 2(p-1) 2(p^2-1) / (8 * 12) = (p-1)(p^2-1)/24,
which is 4 at p = 5 (the quotient is F_5[B]/(B^4)).
"""

import random
import time
from math import prod

from cubalg.cobar import CobarComplex, cobar_cohomology, extended_comodule, \
    trivial_comodule
from cubalg.covers import cech_weighted_projective, cover_fiber, \
    descent_assemble
from cubalg.curves import WeierstrassCurve, invariants, universal_curve, \
    universal_curve_ring
from cubalg.fgl import fgl_from_curve, hasse_coefficients
from cubalg.hopf import builtin_algebroid, invariants_h0, ku_cp2_involution
from cubalg.poincare import poincare_series, series_product
from cubalg.poly import Ring, parse_polynomial
from cubalg.regseq import graded_regular_sequence_check
from cubalg import steenrod as st
from cubalg.cli import dispatch
import io
import contextlib


def _report(n: int, ok: bool, detail: str):
    print("criterion %d: %s - %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (n, detail)


def test_criterion_1_two_series():
    ring = universal_curve_ring()
    ps = fgl_from_curve(universal_curve(), 4).n_series(2)
    golden = {1: "2", 2: "-1*a1", 3: "-2*a2", 4: "a1*a2 - 7*a3"}
    ok = all(ps.coefficient("z", k) == parse_polynomial(v, ring)
             for k, v in golden.items())
    _report(1, ok, "[2](z) = 2z - a1 z^2 - 2 a2 z^3 + (a1 a2 - 7 a3) z^4")


def test_criterion_2_three_series():
    t0 = time.time()
    ring = universal_curve_ring()
    curve = WeierstrassCurve(ring.zero(), ring.gen("a2"), ring.zero(),
                             ring.gen("a4"), ring.zero())
    vs = [v.restrict(ring)
          for v in hasse_coefficients(curve, 3, 2)]
    ok_v1 = vs[1] == -8 * ring.gen("a2")
    v2_no_a2 = ring.poly({m: c for m, c in vs[2].terms.items()
                          if not m[ring.index("a2")]})
    ok_v2 = v2_no_a2 == 2432 * ring.gen("a4") ** 2
    elapsed = time.time() - t0
    _report(2, ok_v1 and ok_v2 and elapsed <= 10.0,
            "v1 = -8 a2, v2 = 2432 a4^2 mod (a2) in %.1fs" % elapsed)


def test_criterion_3_cover_fibers():
    fib2 = cover_fiber((0, 0, 0, 0, 0), 2)
    ok = fib2.rank == 8 and set(fib2.basis_text()) == {
        "1", "s", "s^2", "s^3", "t", "s*t", "s^2*t", "s^3*t"}
    fib3 = cover_fiber((0, 0, 0, 0, 0), 3)
    ok = ok and fib3.rank == 3 and set(fib3.basis_text()) == {"1", "r",
                                                              "r^2"}
    for coeffs in ((1, 0, 1, 0, 0), (0, 1, 0, 1, 1), (1, 2, 3, 4, 5)):
        for field in ("Q", "F5"):
            ok = ok and cover_fiber(coeffs, 2, field).rank == 8
    _report(3, ok, "cusp fibers Z/2[s,t]/(s^4,t^2) and Z/3[r]/(r^3); "
            "rank 8 over Q and F5 for three non-cuspidal curves")


def test_criterion_4_invariants_mod2():
    ring = universal_curve_ring(2)
    curve = WeierstrassCurve(ring.gen("a1"), ring.zero(), ring.gen("a3"),
                             ring.zero(), ring.zero())
    inv = invariants(curve)
    ok = inv["c4"].text() == "a1^4" \
        and inv["delta"].text() == "a3^4 + a1^3*a3^3"
    rng = random.Random(0)
    for _ in range(100):
        c = WeierstrassCurve.from_constants(
            tuple(rng.randrange(-99, 100) for _ in range(5)))
        ok = ok and invariants(c)["c4_c6_delta_identity"]
    _report(4, ok, "c4 = a1^4, delta = a1^3 a3^3 + a3^4 mod 2; "
            "c4^3 - c6^2 = 1728 delta on 100 random integer curves")


def test_criterion_5_cech_descent():
    page = cech_weighted_projective((1, 3), range(-2, 26))
    table = descent_assemble(page, range(0, 49))
    ps = poincare_series((2, 6), 48)
    ok = all(table[d]["rank"] == (ps[d] if d % 2 == 0 else 0)
             for d in range(0, 49))
    neg_page = cech_weighted_projective((1, 3), range(-8, 1))
    neg = descent_assemble(neg_page, range(-12, 0))
    ok = ok and all(neg[d]["rank"] == 0 for d in range(-8, 0))
    ok = ok and neg[-9]["generators"] == [("h1", "x1^-1*x2^-1")]
    p46 = descent_assemble(cech_weighted_projective((4, 6), range(-12, 1)),
                           range(-21, 0))
    ok = ok and all(p46[d]["rank"] == 0 for d in range(-20, 0))
    ok = ok and p46[-21]["rank"] == 1
    _report(5, ok, "pi_{>=0} = Z[alpha1, alpha3] additively through 48, "
            "first negative class alpha1^-1 alpha3^-1; P(4,6) gap "
            "-21 < j < 0 with a class at -21")


def test_criterion_6_regular_sequences():
    ring = universal_curve_ring()
    inv = invariants(universal_curve())
    seq = [inv["c4"], inv["delta"], ring.gen("a2"), ring.gen("a4"),
           ring.gen("a6")]
    rep = graded_regular_sequence_check(ring, seq, 2, 48)
    ok = rep.regular_through_cutoff and rep.certified

    p, cutoff = 5, 60
    ring5 = Ring(("A", "B"), (8, 12))
    curve = WeierstrassCurve(ring5.zero(), ring5.zero(), ring5.zero(),
                             ring5.gen("A"), ring5.gen("B"))
    vs = [v.restrict(ring5) for v in hasse_coefficients(curve, p, 2)]
    rep5 = graded_regular_sequence_check(
        ring5, [ring5.const(p), vs[1], vs[2]], p, cutoff)
    ok = ok and rep5.regular_through_cutoff and rep5.certified
    # closed form (p-1)(p^2-1)/24 = |v1| |v2| / (|A| |B|), with
    # |v1| = 2(p-1) and |v2| = 2(p^2-1)
    expected = (p - 1) * (p * p - 1) // 24
    v_weights = [vs[1].weight(), vs[2].weight()]
    ok = ok and v_weights == [2 * (p - 1), 2 * (p * p - 1)]
    ok = ok and prod(v_weights) == expected * prod(ring5.weights)
    # regular, so the quotient ranks are the complete-intersection Hilbert
    # series prod (1 - t^|v_i|) / prod (1 - t^|gen|), degree by degree
    hilbert = poincare_series(ring5.weights, cutoff)
    for w in v_weights:
        hilbert = series_product(hilbert, [1] + [0] * (w - 1) + [-1], cutoff)
    ok = ok and rep5.quotient_ranks == hilbert
    rank = rep5.quotient_total_rank
    ok = ok and rank == expected
    _report(6, ok, "(c4, delta, a2, a4, a6) regular at p=2 through 48; "
            "(5, v1, v2) regular on Z_(5)[A,B]; quotient ranks match the "
            "Hilbert series; quotient total rank computed = %s, expected "
            "(p-1)(p^2-1)/24 = %d" % (rank, expected))


def test_criterion_7_hopf_algebroids():
    W = builtin_algebroid("weierstrass")
    checks = W.verify()
    ok = all(checks.values())
    for H in (W, builtin_algebroid("mqd")):
        oracle = invariants_h0(H, range(-12, 13))
        for j in range(-12, 13):
            cx = CobarComplex(H, trivial_comodule(), 2 * j, 0)
            rank, torsion = cx.cohomology()[0]
            ok = ok and rank == len(oracle[j]) and torsion == []
        M = extended_comodule(H, 8)
        h = CobarComplex(H, M, 8, 2).cohomology()
        ok = ok and h[0][0] == len(H.A.monomials_of_weight(8)) \
            and h[1] == (0, []) and h[2] == (0, [])
    _report(7, ok, "Weierstrass axioms verified symbolically (all "
            "weights, hence through 24); cobar H^0 = ker(eta_R - eta_L) "
            "oracle for |j| <= 12 on Weierstrass and M_qd; extended "
            "comodules cobar-acyclic")


def test_criterion_8_z2_chart():
    H = builtin_algebroid("z2_group")
    chart = cobar_cohomology(H, range(-4, 5), 6)
    ok = True
    for j in range(-4, 5):
        for s in range(0, 7):
            cell = chart.cell(s, 2 * j)
            if s == 0:
                expect = (1, ()) if j % 2 == 0 else (0, ())
            elif (s - j) % 2 == 0:
                expect = (0, (2,))
            else:
                expect = (0, ())
            ok = ok and cell == expect
    for (s, t), (rank, torsion) in chart.cells.items():
        x = t - s
        if rank:
            ok = ok and s == 0 and x % 4 == 0    # boxes: s=0, x = 0 mod 4
        if torsion:
            ok = ok and (x - s) % 4 == 0         # dots: x = s mod 4
    _report(8, ok, "Z/2 descent chart matches closed-form group "
            "cohomology and the box/dot placements for s <= 6")


def test_criterion_9_ku_cp2():
    out = ku_cp2_involution()
    ok = out["matrix"] == [[-1, 0], [1, 1]] and out["is_swap"]
    _report(9, ok, "involution [alpha -> -alpha + beta, beta -> beta], "
            "conjugate to the swap in basis {alpha, -alpha + beta}")


def test_criterion_10_steenrod():
    t0 = time.time()
    R = st.xi_ring(64)
    ok = st.conjugate(R.gen("xi2")).text() == "xi2 + xi1^3"
    ok = ok and st.antipode_identity_holds(6)
    pr = st.primitives(range(1, 17), 16)
    ok = ok and {d: v for d, v in pr.items() if v} == {
        1: ["xi1"], 2: ["xi1^2"], 4: ["xi1^4"], 8: ["xi1^8"],
        16: ["xi1^16"]}
    bp2 = st.bp_n_homology(2, 64)
    ok = ok and st.comodule_closure_check(bp2, 64)["closed"]
    tmf = st.tmf_spec(64)
    ok = ok and st.comodule_closure_check(tmf, 64)["closed"]
    ku = st.bp_n_homology(1, 64)
    ko = st.ko_spec(64)
    rep = st.freeness_rank_check(ku, ko, [0, 2], 64)
    ok = ok and rep["free"] and rep["rank"] == 2
    rep = st.freeness_rank_check(bp2, tmf, [0, 2, 4, 6, 6, 8, 10, 12], 64)
    ok = ok and rep["free"] and rep["rank"] == 8
    ok = ok and st.uniqueness_probe("ko")["forced_generator"] == "xi1^4"
    probe = st.uniqueness_probe("tmf")
    ok = ok and probe["forced_generator"] == "xi1^8"
    ok = ok and not probe["degree12_witness"]["primitive_mod_xi1^8"]
    elapsed = time.time() - t0
    ok = ok and elapsed <= 300.0
    _report(10, ok, "conjugates, antipode, primitives, closure and "
            "freeness (ku/ko rank 2, BP<2>/tmf rank 8), uniqueness "
            "probes at cutoff 64 in %.0fs" % elapsed)


def test_criterion_11_cli_determinism():
    def run(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = dispatch(args)
        return rc, buf.getvalue()

    ok = True
    for args in (
        ["curve", "nseries", "--curve", "a1,0,a3,0,0", "--n", "2",
         "--order", "4"],
        ["curve", "invariants", "--curve", "1,2,3,4,5", "--format", "tsv"],
        ["cover", "fiber", "--cusp", "--prime", "2", "--field", "F2"],
        ["cech", "--weights", "1,3", "--twists=-6..6"],
        ["descent", "--weights", "1,3", "--degrees", "0..12"],
        ["tmf-mu", "--specialize", "--window=-40..8"],
        ["hopf", "cobar", "--algebroid", "z2_group", "--twists=-4..4",
         "--smax", "6"],
        ["hopf", "kucp2"],
        ["steenrod", "primitives", "--window", "1..16", "--cutoff", "16"],
    ):
        rc1, out1 = run(args)
        rc2, out2 = run(args)
        ok = ok and rc1 == 0 and rc2 == 0 and out1 == out2
    _report(11, ok, "every CLI command re-run with the same config is "
            "byte-identical")
