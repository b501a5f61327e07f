import pytest

import elimination_reference as ref
from cubalg import InvariantError, cobar
from cubalg.cli import dispatch
from cubalg.cobar import (CobarComplex, cobar_cohomology,
                          extended_comodule, trivial_comodule,
                          twist_comodule)
from cubalg.hopf import (builtin_algebroid, invariants_h0,
                         synthesize_weierstrass_algebroid)
from cubalg.intlinalg import homology, p_local_part
from cubalg.poly import Ring, monomial_text
from cubalg.steenrod import dual_steenrod


@pytest.fixture(scope="module")
def W():
    return builtin_algebroid("weierstrass")


@pytest.fixture(scope="module")
def Z2():
    return builtin_algebroid("z2_group")


def test_d_squared_is_zero_assembled(W):
    # assembly asserts d^2 = 0 internally; this exercises the assertion
    CobarComplex(W, trivial_comodule(), 8, 3)


def test_d_squared_check_catches_corrupted_entry(W):
    cx = CobarComplex(W, trivial_comodule(), 8, 3)
    # bump the sparse entry (i, 0) of d_s where column i of d_{s+1} is
    # nonzero: d_{s+1} d_s then gains that column in its column 0
    s, i = next((s, i) for s in range(cx.s_max) if cx.columns[s]
                for i, col in enumerate(cx.columns[s + 1]) if col)
    first = cx.columns[s][0]
    first[i] = first.get(i, 0) + 1
    with pytest.raises(InvariantError,
                       match=r"d\^2 != 0 at cochain degree %d," % s):
        cx._check_d_squared()


def test_dense_view_matches_the_sparse_columns(W):
    cx = CobarComplex(W, extended_comodule(W, 4), 6, 2)
    for s, (cols, mat) in enumerate(zip(cx.columns, cx.matrices)):
        assert len(mat) == len(cx.bases[s + 1])
        assert all(len(row) == len(cx.bases[s]) for row in mat)
        assert cols == [{i: row[j] for i, row in enumerate(mat) if row[j]}
                        for j in range(len(cx.bases[s]))]


# Ext_A^{s,t}(F_2, F_2) for t <= 10 and s <= 3 (Adams 1960; the tables of
# Bruner & Rognes, The Adams spectral sequence for topological modular
# forms, AMS 2021): one F_2 for each class, at (s, t)
EXT_A_THROUGH_T10 = {
    "1": (0, 0), "h0": (1, 1), "h1": (1, 2), "h0^2": (2, 2),
    "h0^3": (3, 3), "h2": (1, 4), "h1^2": (2, 4), "h0h2": (2, 5),
    "h1^3 = h0^2h2": (3, 6), "h3": (1, 8), "h2^2": (2, 8),
    "h0h3": (2, 9), "h1h3": (2, 10), "h0^2h3": (3, 10),
}


def test_ext_over_the_dual_steenrod_algebra_mod_2():
    # Gamma has modulus 2: d^2 vanishes only mod 2, and assembly checks it
    # so; the classes are those listed, and no others
    H = dual_steenrod(4)
    expect = {}
    for s, t in EXT_A_THROUGH_T10.values():
        expect[(s, t)] = expect.get((s, t), 0) + 1
    for t in range(11):
        cx = CobarComplex(H, trivial_comodule(), t, 3)
        for s, (dim, torsion) in enumerate(cx.cohomology(2)):
            assert (dim, torsion) == (expect.get((s, t), 0), []), (s, t)


@pytest.mark.parametrize("prime", [None, 3])
def test_cohomology_over_a_modulus_needs_that_prime(prime):
    H = dual_steenrod(4)
    cx = CobarComplex(H, trivial_comodule(), 4, 2)
    with pytest.raises(ValueError, match="modulus 2: cohomology needs "
                                         "prime=2"):
        cx.cohomology(prime)


@pytest.mark.parametrize("name", ["weierstrass", "mqd", "z2_group"])
def test_h0_matches_oracle(name, capsys):
    H = builtin_algebroid(name)
    twists = range(-4, 13)
    h0 = [CobarComplex(H, twist_comodule(H, j), 2 * j, 0).cohomology()[0]
          for j in twists]
    if name != "z2_group":
        oracle = invariants_h0(H, twists)
        assert h0 == [(len(oracle[j]), []) for j in twists]
        return
    # H^0(Z/2; sign^j) = Z for even j and 0 for odd j; the sign twist lives
    # in the comodule, where ker(eta_R - eta_L) on A = Z cannot see it, so
    # the oracle refuses the presentation rather than answer Z in twist 0
    # and 0 elsewhere
    assert h0 == [(1 - j % 2, []) for j in twists]
    message = ("z2_group has a base ring with no generators, so its twist "
               "is not a weight of A; use `hopf cobar` for its H^0")
    with pytest.raises(ValueError) as exc:
        invariants_h0(H, twists)
    assert str(exc.value) == message
    assert dispatch(["hopf", "h0", "--algebroid", name,
                     "--twists=-2..2"]) == 2
    assert capsys.readouterr() == ("", "cubalg: error: %s\n" % message)


def _presentation(name):
    return dual_steenrod(4) if name == "dual_steenrod(4)" \
        else builtin_algebroid(name)


# (presentation, max weight of the extended comodule, strands, s_max,
# prime); dual_steenrod(4) has Gamma mod 2, so its cohomology is over F_2
EXTENDED_CASES = [
    ("weierstrass", 8, [8], 2, None),
    ("mqd", 8, [8], 2, None),
    ("z2_group", 0, range(-4, 5), 3, None),
    ("dual_steenrod(4)", 8, range(0, 9), 3, 2),
]


@pytest.mark.parametrize("name, max_weight, strands, s_max, prime",
                         EXTENDED_CASES, ids=[c[0] for c in EXTENDED_CASES])
def test_extended_comodule_acyclic(name, max_weight, strands, s_max, prime):
    # Gamma is cofree: Ext = A_t in s = 0 (the weight-t part of A), and
    # nothing above
    H = _presentation(name)
    M = extended_comodule(H, max_weight)
    for t in strands:
        h = CobarComplex(H, M, t, s_max).cohomology(prime)
        assert h == [(len(H.A.monomials_of_weight(t)), [])] \
            + [(0, [])] * s_max, t


@pytest.mark.parametrize("name, max_weight",
                         [c[:2] for c in EXTENDED_CASES],
                         ids=[c[0] for c in EXTENDED_CASES])
def test_extended_coaction_is_delta_less_the_counit_term(name, max_weight):
    # each label's triples (c, p, q) are the terms c . p (x) q of
    # Delta(m) - 1 (x) m, term for term
    H = _presentation(name)
    M = extended_comodule(H, max_weight)
    t2 = H.tensor_ring(2)
    unit = (0,) * len(H.gamma_names)
    monos = {monomial_text(H.gamma_names, m): m
             for w in range(max_weight + 1)
             for m in H.gamma_monomials(w, nonconstant=False)}
    assert sorted(M.coaction) == sorted(monos) \
        == sorted(label for label, _ in M.basis)
    for label, triples in M.coaction.items():
        m = monos[label]
        reduced = H.delta_map(H.gamma.poly({H.join((m,)): 1})) \
            - t2.poly({H.join((unit, m)): 1})
        assert sorted((H.join((p, monos[q])), c) for c, p, q in triples) \
            == sorted(reduced.terms.items()), label


def test_extended_comodule_rejects_a_negative_weight(W):
    with pytest.raises(ValueError, match="max_weight must be >= 0"):
        extended_comodule(W, -1)
    assert [b for b in extended_comodule(W, 0).basis] == [("1", 0)]


def test_z2_chart_closed_form(Z2):
    # group cohomology of Z/2 with sign/trivial coefficients:
    # Z at (s=0, j even); Z/2 at (s>0, s = j mod 2)
    chart = cobar_cohomology(Z2, range(-4, 5), 6)
    for j in range(-4, 5):
        for s in range(0, 7):
            cell = chart.cell(s, 2 * j)
            if s == 0:
                expect = (1, ()) if j % 2 == 0 else (0, ())
            elif (s - j) % 2 == 0:
                expect = (0, (2,))
            else:
                expect = (0, ())
            assert cell == expect, (s, j, cell)


def test_z2_chart_fig2_placement(Z2):
    # in Adams coordinates x = t - s: boxes on s = 0 at x = 0 mod 4,
    # dots where x = s mod 4
    chart = cobar_cohomology(Z2, range(-4, 5), 6)
    for (s, t), (rank, torsion) in chart.cells.items():
        x = t - s
        if rank:
            assert s == 0 and x % 4 == 0
        if torsion:
            assert torsion == (2,) and (x - s) % 4 == 0


def test_p_local_strips_off_prime(W):
    chart = cobar_cohomology(W, [2], 2, p_local=2)
    for (s, t), (rank, torsion) in chart.cells.items():
        for q in torsion:
            assert q % 2 == 0 and q & (q - 1) == 0


def test_fp_coefficients(Z2):
    chart = cobar_cohomology(Z2, [1], 4, prime=2)
    for s in range(5):
        assert chart.cell(s, 2) == (1, ())


def test_twist_comodule_weights(Z2, W):
    assert twist_comodule(Z2, 3).basis == [("1", 6)]
    assert twist_comodule(Z2, 2).basis == [("1", 4)]
    assert twist_comodule(W, 3).basis == [("1", 0)]


# ---------------------------------------------------------------------------
# cochain bases against the enumeration the shared monomial basis replaced


def _gamma_monomials_reference(H, w, nonconstant=True):
    """Gamma monomials from a ring of the gamma generators alone."""
    if H.reduce_hook is not None:
        return H.gamma_monomials(w, nonconstant)
    monos = Ring(H.gamma_names, H.gamma_weights).monomials_of_weight(w)
    if nonconstant:
        monos = [m for m in monos if any(m)]
    return sorted(monos)


def _a_monomials(H, w):
    if w < 0:
        return []
    if not H.A.names:
        return [()] if w == 0 else []
    return H.A.monomials_of_weight(w)


def _slot_weight_options(H, cap):
    return [w for w in range(cap + 1) if _gamma_monomials_reference(H, w)]


def _bases_reference(H, M, strand, s_max):
    bases = []
    for s in range(s_max + 2):
        out = []
        for label, wl in M.basis:
            rem = strand - wl
            if rem < 0:
                continue

            def rec(i, budget, slots):
                if i == s:
                    for amono in _a_monomials(H, budget):
                        out.append((amono, slots, label))
                    return
                for w in _slot_weight_options(H, budget):
                    for m in _gamma_monomials_reference(H, w):
                        rec(i + 1, budget - w, slots + (m,))

            rec(0, rem, ())
        out.sort()
        bases.append(out)
    return bases


@pytest.mark.parametrize("algebroid", ["z2_group", "mqd", "weierstrass"])
def test_bases_match_reference_enumeration(algebroid):
    H = builtin_algebroid(algebroid)
    comodules = [twist_comodule(H, j) for j in range(-2, 5)] \
        + [extended_comodule(H, 6)]
    for M in comodules:
        for strand in (-4, 0, 4, 8):
            cx = CobarComplex(H, M, strand, 2)
            assert cx.bases == _bases_reference(H, M, strand, 2)
    for w in range(-2, 13):
        for nonconstant in (True, False):
            assert H.gamma_monomials(w, nonconstant) == \
                _gamma_monomials_reference(H, w, nonconstant)


# ---------------------------------------------------------------------------
# the differential from face tables against the per-term loop


def _differential_reference(cx, s):
    """d_s as columns, each face worked out afresh for every basis
    element, term by term."""
    H = cx.H
    mod = H.gamma.modulus
    index = {b: i for i, b in enumerate(cx.bases[s + 1])}
    cols = []
    for amono, slots, label in cx.bases[s]:
        acc = {}

        def add(target, c):
            if c:
                acc[target] = acc.get(target, 0) + c

        # face 0: left coefficient through eta_R into a fresh slot
        for mono, c in H.eta_R_monomial(amono).terms.items():
            delta_a, eps = H.split(mono)
            if any(eps):
                add((delta_a, (eps,) + slots, label), c)
        # faces 1..s: Delta on slot i
        for i, m in enumerate(slots):
            sign = -1 if (i + 1) % 2 else 1
            for c, p, q in H.delta_monomial(m):
                if any(p) and any(q):
                    new = slots[:i] + (p, q) + slots[i + 1:]
                    add((amono, new, label), sign * c)
        # face s+1: the reduced coaction on the comodule element
        sign = -1 if (s + 1) % 2 else 1
        for c, eps, label2 in cx.M.coaction[label]:
            add((amono, slots + (eps,), label2), sign * c)
        if mod:
            acc = {t: c % mod for t, c in acc.items()}
        cols.append({index[t]: c for t, c in acc.items() if c})
    return cols


def _face_table_cases():
    W = builtin_algebroid("weierstrass")
    for strand in range(17):
        yield W, twist_comodule(W, strand // 2), strand, 2
    for weight in (6, 12):
        for strand in (6, 12):
            yield W, extended_comodule(W, weight), strand, 2
    H = builtin_algebroid("mqd")
    for strand in range(13):
        yield H, twist_comodule(H, strand // 2), strand, 3
    yield H, extended_comodule(H, 6), 8, 2
    Z2 = builtin_algebroid("z2_group")
    for j in range(-3, 4):
        # odd j: the sign coaction; every Gamma passes the reduce_hook
        yield Z2, twist_comodule(Z2, j), 2 * j, 4
    A = dual_steenrod(4)
    for t in range(11):
        yield A, trivial_comodule(), t, 3


def test_face_tables_match_the_per_term_loop():
    cases = 0
    for H, M, strand, s_max in _face_table_cases():
        cx = CobarComplex(H, M, strand, s_max)
        for s in range(s_max + 1):
            # the same columns, dict for dict, in the same entry order
            expect = _differential_reference(cx, s)
            assert [list(c.items()) for c in cx.columns[s]] == \
                [list(c.items()) for c in expect], (H.name, strand, s)
            cases += any(expect)
    assert cases == 93   # differentials with a nonzero column


# ---------------------------------------------------------------------------
# cohomology against the loop that eliminated every differential twice


def _fp_rank(mat, prime):
    if not mat or not mat[0]:
        return 0
    return ref.dense_field_rank([[c % prime for c in row] for row in mat],
                                len(mat[0]), ref.FieldOps(prime))


def _reference_cohomology(cx, prime=None):
    """Per s: homology(d_s, d_{s-1}) over Z, or n - rank d_s - rank d_{s-1}
    over F_p, with both differentials eliminated afresh for each s."""
    out = []
    for s in range(cx.s_max + 1):
        dout = cx.matrices[s]
        din = cx.matrices[s - 1] if s else []
        n = len(cx.bases[s])
        if prime is None:
            has_out = bool(dout and dout[0])
            has_in = bool(din and din[0])
            if not has_out and not has_in:
                out.append((n, []))
            else:
                out.append(homology(dout if has_out else [],
                                    din if has_in else []))
        else:
            rk_out = _fp_rank(dout, prime)
            rk_in = _fp_rank(din, prime)
            out.append((n - rk_out - rk_in, []))
    return out


@pytest.mark.parametrize("extended", [False, True], ids=["twist", "Gamma"])
@pytest.mark.parametrize("algebroid", ["weierstrass", "mqd", "z2_group"])
def test_cohomology_matches_reference(algebroid, extended):
    H = builtin_algebroid(algebroid)
    twists = range(0, 7)
    M = extended_comodule(H, 6) if extended else None
    over_z = {}
    for j in twists:
        cx = CobarComplex(H, M or twist_comodule(H, j), 2 * j, 2)
        for prime in (None, 2, 3):
            assert cx.cohomology(prime) == _reference_cohomology(cx, prime)
        over_z[j] = _reference_cohomology(cx)
    for p in (2, 3):
        expect = {}
        for j in twists:
            for s, (rank, torsion) in enumerate(over_z[j]):
                rank, torsion = p_local_part(rank, torsion, p)
                if rank or torsion:
                    expect[(s, 2 * j)] = (rank, tuple(torsion))
        chart = cobar_cohomology(H, twists, 2, p_local=p, comodule=M)
        assert chart.cells == expect


@pytest.mark.parametrize("strand", [0, 4, 8])
def test_cohomology_eliminates_each_differential_once(W, monkeypatch,
                                                      strand):
    expected = {p: _reference_cohomology(
        CobarComplex(W, extended_comodule(W, 6), strand, 2), p)
        for p in (None, 3)}
    cx = CobarComplex(W, extended_comodule(W, 6), strand, 2)
    calls = {"invariant_factors": 0, "field_rank": 0}

    def counting(name):
        original = getattr(cobar, name)

        def wrapped(*args):
            calls[name] += 1
            return original(*args)
        return wrapped

    def no_recheck(self):
        raise AssertionError("d^2 = 0 is checked once, at assembly")

    for name in calls:
        monkeypatch.setattr(cobar, name, counting(name))
    monkeypatch.setattr(CobarComplex, "_check_d_squared", no_recheck)
    n = len(cx.columns)
    assert cx.cohomology() == expected[None]
    assert calls == {"invariant_factors": n, "field_rank": 0}
    assert cx.cohomology(3) == expected[3]
    assert calls == {"invariant_factors": n, "field_rank": n}
    # the sparse columns alone: the dense view is never built
    assert "matrices" not in vars(cx)


def test_each_delta_is_computed_once(monkeypatch):
    # Delta of a slot monomial is memoized on the presentation: one
    # delta_map call per distinct monomial, over every twist's complex
    # and the extended comodule's coaction; the shared presentation has
    # filled its memo already, so count on a fresh build
    H = synthesize_weierstrass_algebroid()
    calls = []
    delta_map = type(H).delta_map

    def counting(self, x):
        (mono,) = x.terms
        calls.append(self.split(mono)[1])
        return delta_map(self, x)

    monkeypatch.setattr(type(H), "delta_map", counting)
    twists, s_max = range(0, 5), 2
    M = extended_comodule(H, 4)
    cobar_cohomology(H, twists, s_max, comodule=M)
    n = len(calls)
    slots = {m for j in twists
             for basis in CobarComplex(H, M, 2 * j, s_max).bases[:s_max + 1]
             for _, ms, _ in basis for m in ms}
    assert len(calls) == n    # the rebuilt complexes read the memo
    coaction = {m for w in range(5)
                for m in H.gamma_monomials(w, nonconstant=False)}
    assert sorted(calls) == sorted(slots | coaction)


def test_tmf_e2_page_matches_bauer(W):
    # Bauer, "Computation of the homotopy of the spectrum tmf" (2008): at
    # p = 3 the Adams-Novikov E_2 page is Z_(3)[c4, c6, Delta] in s = 0
    # plus Z/3 on alpha^e beta^k (e <= 1, e + k >= 1), with |c4| = (0, 8),
    # |c6| = (0, 12), |alpha| = (1, 4) and |beta| = (2, 12); through
    # t = 16 neither Delta (t = 24) nor the relation on c6^2 enters
    twists, s_max = range(0, 9), 3
    ts = {2 * j for j in twists}
    want = {}
    for t in ts:
        rank = sum(1 for i in range(t // 8 + 1) for j in range(t // 12 + 1)
                   if 8 * i + 12 * j == t)
        if rank:
            want[(0, t)] = (rank, ())
    for e in (0, 1):
        for k in range(s_max // 2 + 1):
            s, t = e + 2 * k, 4 * e + 12 * k
            if 0 < s <= s_max and t in ts:
                want[(s, t)] = (0, (3,))
    assert cobar_cohomology(W, twists, s_max, p_local=3).cells == want
    # at p = 2: eta at (1, 2), Z/4 at (1, 4), eta^2 and eta^3
    two = cobar_cohomology(W, twists, s_max, p_local=2)
    assert {st: two.cell(*st) for st in ((1, 2), (1, 4), (2, 4), (3, 6))} \
        == {(1, 2): (0, (2,)), (1, 4): (0, (4,)), (2, 4): (0, (2,)),
            (3, 6): (0, (2,))}
