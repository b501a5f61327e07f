import heapq

import pytest

from cubalg import InvariantError, covers, regseq
from cubalg.cli import EXIT_ERROR, EXIT_INVARIANT, dispatch
from cubalg.covers import (cech_weighted_projective, cover_fiber,
                           descent_assemble, tmf_mu_page)
from cubalg.intlinalg import RowSpace
from elimination_reference import FieldOps


def test_cusp_fiber_p2():
    fib = cover_fiber((0, 0, 0, 0, 0), 2)
    assert fib.rank == 8
    assert fib.field == "F2"
    assert set(fib.basis_text()) == {
        "1", "s", "s^2", "s^3", "t", "s*t", "s^2*t", "s^3*t"}


def test_cusp_fiber_p3():
    fib = cover_fiber((0, 0, 0, 0, 0), 3)
    assert fib.rank == 3
    assert set(fib.basis_text()) == {"1", "r", "r^2"}


@pytest.mark.parametrize("coeffs", [(1, 0, 1, 0, 0), (0, 1, 0, 1, 1),
                                    (1, 2, 3, 4, 5)])
@pytest.mark.parametrize("field", ["Q", "F5"])
def test_noncuspidal_fiber_rank8(coeffs, field):
    assert cover_fiber(coeffs, 2, field).rank == 8


def test_off_prime_not_invertible():
    with pytest.raises(ValueError):
        cover_fiber((0, 0, 0, 0, 0), 2, "F3")
    with pytest.raises(ValueError):
        cover_fiber((0, 0, 0, 0, 0), 5)


def test_cech_p13():
    page = cech_weighted_projective((1, 3), range(-6, 7))
    assert page.h0_ranks[0] == 1 and page.h0[0] == ["1"]
    assert page.h0_ranks[6] == 3                 # x1^6, x1^3 x2, x2^2
    assert page.h1_ranks[-1] == 0                # no lattice points
    assert page.h1_ranks[-4] == 1
    assert page.h1[-4] == ["x1^-1*x2^-1"]
    for j in range(0, 7):
        assert page.h1_ranks[j] == 0


def test_descent_pi_table():
    page = cech_weighted_projective((1, 3), range(-8, 8),
                                    gen_names=("alpha1", "alpha3"))
    table = descent_assemble(page, range(0, 13))
    ranks = [table[d]["rank"] for d in range(13)]
    assert ranks == [1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 2, 0, 3]
    neg = descent_assemble(page, range(-12, 0))
    assert all(neg[d]["rank"] == 0 for d in range(-8, 0))
    assert neg[-9]["rank"] == 1
    assert neg[-9]["generators"] == [("h1", "alpha1^-1*alpha3^-1")]


def test_cech_p46_gap():
    page = cech_weighted_projective((4, 6), range(-14, 2))
    table = descent_assemble(page, range(-24, 1))
    for d in range(-20, 0):
        assert table[d]["rank"] == 0
    assert table[-21]["rank"] == 1


def test_tmf_mu_specialized_matches_p13():
    out = tmf_mu_page((-40, 8), 3, specialize_p13=True, validate_h0=True)
    page = cech_weighted_projective((1, 3), range(-20, 5))
    for w in range(-40, 9):
        if w % 2 == 0:
            assert out["h0"][w] == page.h0_ranks[w // 2]
            assert out["h1"][w] == page.h1_ranks[w // 2]
    assert out["h0_validated"]


def test_tmf_mu_full_ring_generators():
    out = tmf_mu_page((-70, 12), 8)
    for w in range(0, 13):
        assert out["h1"].get(w, 0) == 0
    gens = out["h1_generators"]
    assert gens[-32] == ["c4^-1*delta^-1"]
    assert set(gens[-64]) == {"c4^-2*delta^-2", "c4^-5*delta^-1"}
    assert "module generators" in out["h1_meaning"] \
        or "generators" in out["h1_meaning"]


def test_tmf_mu_window_needs_cutoff():
    with pytest.raises(ValueError):
        tmf_mu_page((0, 100), 1)


@pytest.mark.parametrize("prime", [0, 1, 4])
def test_tmf_mu_rejects_a_non_prime(prime):
    with pytest.raises(ValueError, match="%d is not a prime" % prime):
        tmf_mu_page((-8, 8), 3, prime=prime, validate_h0=True)


# ---------------------------------------------------------------------------
# brute-force reference: the dict-polynomial relations and echelon rewriting
# that `cover_fiber` used before it moved onto `curves.transform` and
# `intlinalg.RowSpace`


class _FieldElt:
    """Coefficient helpers for a named base field."""

    def __init__(self, spec: str):
        spec = spec.upper()
        if spec == "Q":
            self.p = None
        elif spec.startswith("F"):
            self.p = int(spec[1:])
        else:
            raise ValueError("unknown field %r (use Q or F<p>)" % spec)
        self.name = spec
        self.ops = FieldOps(self.p)

    def of(self, c) -> object:
        return self.ops.of_int(int(c))


def _relations_p2(k: _FieldElt, a):
    """Relations in k[s, t] after eliminating r = (s^2 + s a1 - a2)/3.

    The cover classifies coordinate changes onto curves with a2'=a4'=a6'=0;
    the three relations are the transformation laws with zero left sides.
    """
    a1, a2, a3, a4, a6 = a
    names = ("s", "t")
    weights = (2, 6)
    inv3 = k.ops.inv(k.of(3))

    def poly(d):
        return {m: c for m, c in d.items() if not k.ops.is_zero(c)}

    def add(p, q):
        out = dict(p)
        for m, c in q.items():
            c2 = k.ops.add(out.get(m, k.of(0)), c)
            if k.ops.is_zero(c2):
                out.pop(m, None)
            else:
                out[m] = c2
        return out

    def mul(p, q):
        out = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                m = (m1[0] + m2[0], m1[1] + m2[1])
                c = k.ops.add(out.get(m, k.of(0)), k.ops.mul(c1, c2))
                if k.ops.is_zero(c):
                    out.pop(m, None)
                else:
                    out[m] = c
        return out

    def scal(p, c):
        return poly({m: k.ops.mul(cc, c) for m, cc in p.items()})

    const = lambda c: poly({(0, 0): k.of(c)})
    s = {(1, 0): k.of(1)}
    t = {(0, 1): k.of(1)}
    # r = (s^2 + a1 s - a2)/3
    r = scal(add(add(mul(s, s), scal(s, k.of(a1))), const(-a2)), inv3)
    ca = {n: const(v) for n, v in
          zip(("a1", "a2", "a3", "a4", "a6"), (a1, a2, a3, a4, a6))}
    # a4' = 0:  a4 - s a3 + 2 a2 r - (t + r s) a1 + 3 r^2 - 2 s t
    rel4 = add(add(add(const(a4), scal(mul(s, ca["a3"]), k.of(-1))),
                   scal(mul(r, ca["a2"]), k.of(2))),
               add(scal(add(t, mul(r, s)), k.of(-a1)),
                   add(scal(mul(r, r), k.of(3)), scal(mul(s, t), k.of(-2)))))
    # a6' = 0:  a6 + r a4 + r^2 a2 + r^3 - t a3 - t^2 - r t a1
    r2 = mul(r, r)
    rel6 = add(add(add(const(a6), scal(r, k.of(a4))),
                   add(scal(r2, k.of(a2)), mul(r2, r))),
               add(add(scal(t, k.of(-a3)), scal(mul(t, t), k.of(-1))),
                   scal(mul(r, t), k.of(-a1))))
    return names, weights, [rel4, rel6]


def _relations_p3(k: _FieldElt, a):
    """Relations in k[r, s, t] forcing a1' = a3' = a6' = 0 (u = 1)."""
    a1, a2, a3, a4, a6 = a
    names = ("r", "s", "t")
    weights = (4, 2, 6)

    def mono(er, es, et, c=1):
        return {(er, es, et): k.of(c)}

    def combine(*polys):
        out = {}
        for p in polys:
            for m, c in p.items():
                c2 = k.ops.add(out.get(m, k.of(0)), c)
                if k.ops.is_zero(c2):
                    out.pop(m, None)
                else:
                    out[m] = c2
        return out

    rel1 = combine(mono(0, 0, 0, a1), mono(0, 1, 0, 2))          # a1 + 2s
    rel3 = combine(mono(0, 0, 0, a3), mono(1, 0, 0, a1),
                   mono(0, 0, 1, 2))                             # a3 + r a1 + 2t
    rel6 = combine(mono(0, 0, 0, a6), mono(1, 0, 0, a4),
                   mono(2, 0, 0, a2), mono(3, 0, 0, 1),
                   mono(0, 0, 1, -a3), mono(0, 0, 2, -1),
                   mono(1, 0, 1, -a1))
    return names, weights, [rel1, rel3, rel6]


def _monomials_below(weights, wmax):
    out = []
    mono = [0] * len(weights)

    def rec(i, rem):
        if i == len(weights):
            out.append(tuple(mono))
            return
        for e in range(rem // weights[i] + 1):
            mono[i] = e
            rec(i + 1, rem - e * weights[i])
        mono[i] = 0

    rec(0, wmax)
    return out


def _reduction_rules(k, names, weights, rels, bound):
    """Echelon rewrite rules {pivot monomial: lower-term dict} from all
    monomial multiples of the relations with top weight <= bound."""
    def wt(m):
        return sum(e * w for e, w in zip(m, weights))

    def key(m):
        return (wt(m), m)

    rows = []
    for rel in rels:
        reltop = max(wt(m) for m in rel)
        for m in _monomials_below(weights, bound - reltop):
            row = {tuple(x + y for x, y in zip(m, mm)): c
                   for mm, c in rel.items()}
            rows.append(row)
    rows.sort(key=lambda row: max(key(m) for m in row))
    rules = {}
    for row in rows:
        row = _reduce_poly(k, row, rules, weights)
        if not row:
            continue
        piv = max(row, key=key)
        cinv = k.ops.inv(row[piv])
        rest = {m: k.ops.neg(k.ops.mul(c, cinv))
                for m, c in row.items() if m != piv}
        # keep existing rules reduced against the new one: rewrite the
        # pivot where a rule holds it
        for p2, terms in rules.items():
            if piv in terms:
                rules[p2] = _reduce_poly(k, terms, {piv: rest}, weights)
        rules[piv] = rest
    return rules


def _reduce_poly(k, poly: dict, rules: dict, weights) -> dict:
    """`poly` with each rule's pivot monomial rewritten by its lower
    terms, in one pass down the (weight, exponent) order: a rule's terms
    lie below its pivot, so a rewrite adds only terms not yet passed."""
    def down(m):
        return (-sum(e * w for e, w in zip(m, weights)), [-e for e in m])

    out = dict(poly)
    todo = [(down(m), m) for m in out if m in rules]
    heapq.heapify(todo)
    while todo:
        m = heapq.heappop(todo)[1]
        c = out.pop(m, None)
        if c is None:           # cancelled since it was queued
            continue
        for m2, c2 in rules[m].items():
            cc = k.ops.add(out.get(m2, k.of(0)), k.ops.mul(c, c2))
            if k.ops.is_zero(cc):
                out.pop(m2, None)
            else:
                if m2 not in out and m2 in rules:
                    heapq.heappush(todo, (down(m2), m2))
                out[m2] = cc
    return out


def _reference_fiber(a, p, field):
    """(var names, weights, basis, mult_table) by the reference rewriting."""
    k = _FieldElt(field)
    if p == 2:
        names, weights, rels = _relations_p2(k, a)
    else:
        names, weights, rels = _relations_p3(k, a)

    def wt(m):
        return sum(e * w for e, w in zip(m, weights))

    top = max(wt(m) for rel in rels for m in rel)
    bound = 4 * top + 2 * max(weights)
    rules = _reduction_rules(k, names, weights, rels, bound)
    nonpiv = [m for m in _monomials_below(weights, bound - top)
              if m not in rules]
    weights_present = {wt(m) for m in nonpiv}
    wmax = max(weights)
    cut = next(w0 for w0 in range(0, bound - top - wmax)
               if all(w not in weights_present
                      for w in range(w0 + 1, w0 + wmax + 1)))
    basis = sorted((m for m in nonpiv if wt(m) <= cut),
                   key=lambda m: (wt(m), m))
    index = {m: i for i, m in enumerate(basis)}
    table = {}
    for i, mi in enumerate(basis):
        for j, mj in enumerate(basis):
            prod = tuple(x + y for x, y in zip(mi, mj))
            red = _reduce_poly(k, {prod: k.of(1)}, rules, weights)
            table[(i, j)] = {index[m]: c for m, c in red.items()}
    return names, weights, basis, table


CURVES = [(0, 0, 0, 0, 0), (1, 0, 1, 0, 0), (0, 1, 0, 1, 1),
          (1, 2, 3, 4, 5), (1, -1, 0, 2, -3)]


@pytest.mark.parametrize("coeffs", CURVES)
@pytest.mark.parametrize("field", ["Q", "F5", "F7", "F11"])
@pytest.mark.parametrize("p", [2, 3])
def test_fiber_matches_reference(p, field, coeffs):
    fib = cover_fiber(coeffs, p, field)
    names, weights, basis, table = _reference_fiber(coeffs, p, field)
    assert (fib.var_names, fib.var_weights) == (names, weights)
    assert fib.basis == basis
    assert fib.rank == len(basis)
    assert fib.mult_table == table


def test_fiber_not_stabilizing_is_invariant_error(monkeypatch):
    # with no relation ever inserted every monomial stays irreducible
    monkeypatch.setattr(RowSpace, "insert", lambda self, vec: False)
    with pytest.raises(InvariantError, match="did not stabilize"):
        cover_fiber((0, 0, 0, 0, 0), 2)
    assert dispatch(["cover", "fiber", "--cusp"]) == EXIT_INVARIANT


def test_koszul_limit_not_stabilizing_is_invariant_error(monkeypatch):
    # a quadratic "Hilbert function" makes every Koszul stage rank 384 m^2
    monkeypatch.setattr(covers, "_ring_rank", lambda weights, w: w * w)
    with pytest.raises(InvariantError, match="Koszul limit"):
        tmf_mu_page((-8, 8), 3, specialize_p13=True)
    assert dispatch(["tmf-mu", "--specialize",
                     "--window=-8..8"]) == EXIT_INVARIANT


def test_c4_delta_regularity_failure_is_invariant_error(monkeypatch):
    def not_regular(ring, elements, prime, cutoff):
        return regseq.RegularityReport(
            ring_names=ring.names, elements=[], prime=prime, cutoff=cutoff,
            regular_through_cutoff=False, certified=False,
            failure={"element": "delta", "weight": 0, "witness": "1"},
            quotient_ranks=[])

    monkeypatch.setattr(regseq, "graded_regular_sequence_check", not_regular)
    with pytest.raises(InvariantError, match="regularity check failed"):
        tmf_mu_page((-8, 8), 3, specialize_p13=True, validate_h0=True)
    assert dispatch(["tmf-mu", "--specialize", "--window=-8..8",
                     "--validate"]) == EXIT_INVARIANT


@pytest.mark.parametrize("prime, field", [(3, "F9"), (3, "F15"), (3, "F25"),
                                          (2, "F25"), (2, "F4")])
def test_fiber_rejects_composite_field(prime, field, capsys):
    # Z/q is not a field for composite q, and F_{p^k} is not Z/p^k
    with pytest.raises(ValueError, match="not a prime field"):
        cover_fiber((0, 0, 0, 0, 0), prime, field)
    assert dispatch(["cover", "fiber", "--cusp", "--prime", str(prime),
                     "--field", field]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and "not a prime field" in err
