import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as hst

import elimination_reference as ref
from cubalg import InvariantError, intlinalg
from cubalg.intlinalg import (BitSpan, RowSpace, cokernel_structure,
                              f2_kernel, field_kernel, field_rank,
                              homology, integer_kernel, invariant_factors,
                              mat_mul, p_local_part, smith_normal_form,
                              solve_integer)


def test_snf_factorization():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    u, d, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0


def _det(m):
    """Determinant by Fraction elimination."""
    rows = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(len(rows)):
        piv = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


@settings(max_examples=200, deadline=None)
@given(data=hst.data())
def test_snf_properties(data):
    rows = data.draw(hst.integers(1, 5))
    cols = data.draw(hst.integers(1, 5))
    a = data.draw(hst.lists(hst.lists(hst.integers(-9, 9), min_size=cols,
                                      max_size=cols),
                            min_size=rows, max_size=rows))
    u, d, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert all(d[i][j] == 0 for i in range(rows) for j in range(cols)
               if i != j)
    diag = [d[i][i] for i in range(min(rows, cols))]
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert diag[:len(nonzero)] == nonzero   # zeros come last
    assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
    assert abs(_det(u)) == 1 and abs(_det(v)) == 1


def test_invariant_factors_divisibility():
    rng = random.Random(11)
    for _ in range(20):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = [[rng.randrange(-9, 10) for _ in range(cols)]
             for _ in range(rows)]
        facs = invariant_factors(ref.sparse_rows(a))
        for x, y in zip(facs, facs[1:]):
            assert y % x == 0


def test_integer_kernel_saturated():
    a = [[2, -2]]          # kernel generated by (1, 1), not (2, 2)
    ker = integer_kernel(ref.sparse_rows(a), 2)
    assert len(ker) == 1
    v = ker[0]
    assert abs(v[0]) == 1 and v[0] == v[1]


def test_solve_integer():
    a = [[2, 0], [0, 3]]
    assert solve_integer(a, [4, 9]) == [2, 3]
    assert solve_integer(a, [1, 0]) is None


def test_cokernel_structure():
    a = [[2, 0], [0, 3], [0, 0]]
    free, torsion = cokernel_structure(a, 3)
    assert free == 1
    assert sorted(torsion) == [2, 3] or torsion == [6]


def test_homology_circle():
    # simplicial circle: ker(d1)/im(d2) with d2 = 0
    d1 = [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    free, torsion = homology(d1, [])
    assert (free, torsion) == (1, [])


def test_homology_torsion():
    # Z --2--> Z --0--> 0 gives Z/2 at the middle spot
    free, torsion = homology([], [[2]])
    assert (free, torsion) == (0, [2])


def test_homology_rejects_nonzero_composite():
    # A*B = [[1]] != 0: the image of B is not in the kernel of A
    with pytest.raises(InvariantError):
        homology([[1, 0]], [[1], [0]])


def _kernel_coordinates_homology(a, b):
    """ker(A)/im(B) by putting each column of B into kernel coordinates:
    the brute force that `homology` replaces, kept as its reference."""
    n = len(a[0]) if (a and a[0]) else (len(b) if b else 0)
    if n == 0:
        return 0, []
    if a and a[0]:
        kbasis = integer_kernel(ref.sparse_rows(a), n)
    else:
        kbasis = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    k = len(kbasis)
    if k == 0:
        return 0, []
    if not b or not b[0]:
        return k, []
    kmat = [[kbasis[j][i] for j in range(k)] for i in range(n)]
    q = len(b[0])
    x = [[0] * q for _ in range(k)]
    for col in range(q):
        sol = solve_integer(kmat, [b[i][col] for i in range(n)])
        assert sol is not None
        for i in range(k):
            x[i][col] = sol[i]
    return cokernel_structure(x, k)


def _complex(a, n, m):
    """B = K*M with the columns of K a basis of ker A (all of Z^n when A
    has no rows), so A*B = 0."""
    kbasis = integer_kernel(ref.sparse_rows(a), n) if a else [
        [1 if i == j else 0 for i in range(n)] for j in range(n)]
    return mat_mul([list(row) for row in zip(*kbasis)], m)


@settings(max_examples=150, deadline=None)
@given(data=hst.data())
def test_homology_matches_kernel_coordinates(data):
    n = data.draw(hst.integers(1, 5))
    p = data.draw(hst.integers(0, 4))
    q = data.draw(hst.integers(0, 5))
    a = [data.draw(hst.lists(hst.integers(-3, 3), min_size=n, max_size=n))
         for _ in range(p)]
    k = len(integer_kernel(ref.sparse_rows(a), n)) if a else n
    entries = hst.sampled_from([0, 0, 1, -1, 2, -2, 3, 4, 6, -6])
    m = [data.draw(hst.lists(entries, min_size=q, max_size=q))
         for _ in range(k)]
    b = _complex(a, n, m)
    assert homology(a, b) == _kernel_coordinates_homology(a, b)


@pytest.mark.parametrize("q", [1, 8])
def test_homology_snf_calls_constant_in_columns(monkeypatch, q):
    a = [[1, -1, 0, 0, 0], [0, 2, -2, 0, 0]]
    rng = random.Random(q)
    m = [[rng.choice([0, 1, 2, 3, 4, 6]) for _ in range(q)]
         for _ in range(3)]
    b = _complex(a, 5, m)
    expected = _kernel_coordinates_homology(a, b)
    calls = []
    factors = intlinalg.invariant_factors

    def counting(d):
        calls.append(d)
        return factors(d)

    monkeypatch.setattr(intlinalg, "invariant_factors", counting)
    assert homology(a, b) == expected
    assert len(calls) <= 2


def test_p_local_part():
    assert p_local_part(2, [6, 35], 2) == (2, [2])
    assert p_local_part(0, [9, 3], 3) == (0, [3, 9])
    assert p_local_part(1, [5], 2) == (1, [])


@pytest.mark.parametrize("p", [-2, 0, 1, 4, 9])
def test_p_local_part_rejects_non_prime(p):
    with pytest.raises(ValueError, match="needs a prime"):
        p_local_part(0, [2, 6], p)


# ---------------------------------------------------------------------------
# reference: the Smith form that always tracked U and V and scanned the
# whole block for its pivot


def _reference_smith_normal_form(a):
    """Return (U, D, V) with U*A*V = D, U and V unimodular, D diagonal with
    nonnegative entries forming a divisibility chain d1 | d2 | ...
    """
    m = len(a)
    n = len(a[0]) if a else 0
    d = [row[:] for row in a]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        drow, srow = d[dst], d[src]
        for j in range(n):
            drow[j] += c * srow[j]
        urow, usrow = u[dst], u[src]
        for j in range(m):
            urow[j] += c * usrow[j]

    def add_col(dst, src, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < m and t < n:
        # pick the nonzero pivot of least magnitude in the remaining block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            done = True
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t]:
                        swap_rows(i, t)
                        done = False
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j]:
                        swap_cols(j, t)
                        done = False
            if done:
                break
        if d[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce divisibility chain
    r = t
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            if d[i + 1][i + 1] % d[i][i] != 0:
                # fold entry i+1 into row/column i and re-clear
                add_col(i, i + 1, 1)
                g_i = i
                while True:
                    done = True
                    if d[g_i + 1][g_i]:
                        q = d[g_i + 1][g_i] // d[g_i][g_i]
                        add_row(g_i + 1, g_i, -q)
                        if d[g_i + 1][g_i]:
                            swap_rows(g_i + 1, g_i)
                            done = False
                    if d[g_i][g_i + 1]:
                        q = d[g_i][g_i + 1] // d[g_i][g_i]
                        add_col(g_i + 1, g_i, -q)
                        if d[g_i][g_i + 1]:
                            swap_cols(g_i + 1, g_i)
                            done = False
                    if done:
                        break
                if d[g_i][g_i] < 0:
                    negate_row(g_i)
                if d[g_i + 1][g_i + 1] < 0:
                    negate_row(g_i + 1)
                changed = True
    return u, d, v


# entries with a unit (the pivot scan stops early) and without one (it
# scans the whole block every time)
_WITH_UNIT = [0, 0, 1, -1, 2, -3, 4, 6, -9]
_WITHOUT_UNIT = [0, 0, 2, -2, 3, -4, 6, 9, -10]


@settings(max_examples=300, deadline=None)
@given(data=hst.data())
def test_elimination_matches_reference(data):
    shape = data.draw(hst.sampled_from(["wide", "square", "tall"]))
    small, big = hst.integers(1, 4), hst.integers(5, 9)
    rows = data.draw(small if shape == "wide" else
                     big if shape == "tall" else hst.integers(1, 5))
    cols = rows if shape == "square" else data.draw(
        big if shape == "wide" else small)
    entries = hst.sampled_from(data.draw(hst.sampled_from(
        [_WITH_UNIT, _WITHOUT_UNIT])))
    a = data.draw(hst.lists(hst.lists(entries, min_size=cols,
                                      max_size=cols),
                            min_size=rows, max_size=rows))
    ref_u, ref_d, ref_v = _reference_smith_normal_form(a)
    # same pivots, so the same transforms, entry for entry
    assert smith_normal_form(a) == (ref_u, ref_d, ref_v)
    diag = [ref_d[i][i] for i in range(min(rows, cols))]
    assert invariant_factors(ref.sparse_rows(a)) == [x for x in diag if x]
    assert invariant_factors(_sparse_columns(a, cols)) == \
        [x for x in diag if x]
    assert integer_kernel(ref.sparse_rows(a), cols) == [
        [row[j] for row in ref_v] for j in range(cols)
        if j >= len(diag) or diag[j] == 0]


# h0-like matrices: tall, about 20% nonzero, a unit-rich pool with one
# large entry, or a unit-free one.  An exact elimination (the reference's
# and the sparse one alike) can grow its entries without bound on a
# unit-free block of 7 or more columns, so unit-free draws keep to 6.
_TALL_WITH_UNIT = [1, -1, 1, 2, -3, 4, 6, -8, 12, 24, -48, 99991]
_TALL_WITHOUT_UNIT = [2, -3, 4, 6, -9, 12, -16, 27, 36, 99991]


@settings(max_examples=60, deadline=None)
@given(data=hst.data())
def test_sparse_elimination_matches_reference_on_tall_sparse(data):
    pool = data.draw(hst.sampled_from([_TALL_WITH_UNIT, _TALL_WITHOUT_UNIT]))
    rows = data.draw(hst.integers(30, 60))
    cols = data.draw(hst.integers(4, 10 if pool is _TALL_WITH_UNIT else 6))
    entries = hst.sampled_from([0] * (4 * len(pool)) + pool)
    a = data.draw(hst.lists(hst.lists(entries, min_size=cols,
                                      max_size=cols),
                            min_size=rows, max_size=rows))
    if data.draw(hst.booleans()):
        # rank-deficient: one column a combination of two others
        i, j, k = data.draw(hst.permutations(range(cols)))[:3]
        for row in a:
            row[k] = row[i] - 2 * row[j]
    ref_u, ref_d, ref_v = _reference_smith_normal_form(a)
    assert smith_normal_form(a) == (ref_u, ref_d, ref_v)
    diag = [ref_d[i][i] for i in range(cols)]
    kernel = [[row[j] for row in ref_v] for j in range(cols) if not diag[j]]
    assert integer_kernel(ref.sparse_rows(a), cols) == kernel
    assert invariant_factors(ref.sparse_rows(a)) == [x for x in diag if x]


def _determinantal_factors(a):
    """The invariant factors D_k / D_(k-1), D_k the gcd of the k x k
    minors of A, for k up to the rank."""
    m, n = len(a), len(a[0]) if a else 0
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, int(_det([[a[i][j] for j in cols]
                                     for i in rows])))
        if not g:
            break
        divisors.append(g)
    return [y // x for x, y in zip(divisors, divisors[1:])]


def test_invariant_factors_do_not_blow_up():
    # an exact Smith elimination of this matrix has 784-bit entries by its
    # third step and then does not finish
    a = [[-4, 6, 12, 9, 12, 6], [0, 6, 6, 9, -15, 12],
         [9, 6, 9, -4, -15, 0], [9, -4, 9, 6, 2, 0],
         [0, 12, 12, 0, 12, 6], [0, 0, 0, -4, -15, 0]]
    expected = _determinantal_factors(a)
    assert expected == [1, 1, 1, 6, 6, 37674]
    start = time.perf_counter()
    assert invariant_factors(ref.sparse_rows(a)) == expected
    assert invariant_factors(_sparse_columns(a, 6)) == expected
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("as_columns", [False, True],
                         ids=["rows", "columns"])
def test_invariant_factors_of_a_unimodular_matrix_without_a_unit(as_columns):
    # no entry is a unit, so the whole matrix is the residual; its minor
    # is det = 1, every residue mod 1 is 0, and the chain is all 1s
    a = [[2, 3], [3, 5]]
    assert intlinalg._rank_and_minor(ref.sparse_rows(a)) == (2, 1)
    vectors = _sparse_columns(a, 2) if as_columns else ref.sparse_rows(a)
    assert invariant_factors(vectors) == _determinantal_factors(a) == [1, 1]


# unit-free entries, one of them large: a nonzero minor of such a matrix
# is a large modulus
_LARGE_WITHOUT_UNIT = [0, 0, 2, -4, 6, 9, 12, -15, 100000]


@settings(max_examples=200, deadline=None)
@given(data=hst.data())
def test_invariant_factors_match_determinantal_divisors(data):
    # empty matrices, zero columns and columns with and without units,
    # each matrix given by its rows and by its columns; half the draws are
    # unit-free in every column, so every nonzero minor is a large modulus
    rows = data.draw(hst.integers(0, 5), label="rows")
    cols = data.draw(hst.integers(0, 5), label="cols")
    pools = data.draw(hst.sampled_from(
        [[_WITH_UNIT, _LARGE_WITHOUT_UNIT, None], [_LARGE_WITHOUT_UNIT]]))
    a = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        pool = data.draw(hst.sampled_from(pools))
        if pool is not None:
            for i in range(rows):
                a[i][j] = data.draw(hst.sampled_from(pool))
    expected = _determinantal_factors(a)
    for vectors in (ref.sparse_rows(a), _sparse_columns(a, cols)):
        before = [dict(v) for v in vectors]
        assert invariant_factors(vectors) == expected
        assert vectors == before
    # the modulus is a nonzero maximal minor: a multiple of d_1 ... d_r
    rank, delta = intlinalg._rank_and_minor(ref.sparse_rows(a))
    assert rank == len(expected)
    assert delta and delta % prod(expected) == 0


@settings(max_examples=300, deadline=None)
@given(data=hst.data())
def test_sparse_invariant_factors_match_dense(data):
    # empty matrices, zero columns and columns with and without units: the
    # factors of the sparse columns are those of the sparse rows and, where
    # the exact dense Smith form is sure to finish, its nonzero diagonal
    rows = data.draw(hst.integers(0, 7), label="rows")
    cols = data.draw(hst.integers(0, 7), label="cols")
    a = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        kind = data.draw(hst.sampled_from(["unit", "no unit", "zero"]))
        if kind == "zero":
            continue
        entries = hst.sampled_from(_WITH_UNIT if kind == "unit"
                                   else _WITHOUT_UNIT)
        for i in range(rows):
            a[i][j] = data.draw(entries)
    sparse = _sparse_columns(a, cols)
    before = [dict(c) for c in sparse]
    factors = invariant_factors(sparse)
    assert sparse == before
    assert factors == invariant_factors(ref.sparse_rows(a))
    # the exact elimination can grow its entries without bound on a
    # unit-free block of 5 x 6 or more (a few draws in a hundred there),
    # but not on 5 x 5 or with 4 rows or columns
    if min(rows, cols) <= 4 or max(rows, cols) <= 5:
        _, d, _ = smith_normal_form(a)
        assert factors == [d[i][i] for i in range(min(rows, cols)) if d[i][i]]


def test_invariant_factors_leave_no_unit_to_the_residual(monkeypatch):
    seen = []
    rank_and_minor = intlinalg._rank_and_minor

    def residual(vectors):
        seen.append([dict(v) for v in vectors])
        return rank_and_minor(vectors)

    monkeypatch.setattr(intlinalg, "_rank_and_minor", residual)
    # two units, then a 2 x 2 block without one: Smith form diag(1, 1, 2, 6)
    cols = [{0: 1, 1: 5}, {1: -1, 2: 3}, {2: 2, 3: 2}, {3: 6}]
    assert invariant_factors(cols) == [1, 1, 2, 6]
    # the residual stays sparse, keyed as the input was, with no unit left
    assert seen == [[{2: 2, 3: 2}, {3: 6}]]
    assert not any(abs(x) == 1 for v in seen[0] for x in v.values())
    # a unimodular matrix never reaches it
    seen.clear()
    assert invariant_factors([{0: 1, 1: 1}, {0: 1, 1: 2}]) == [1, 1]
    assert seen == []


def _smith_of_diagonal(diag):
    """The invariant factors of diag(diag): for each prime, the k-th
    factor takes the k-th least of its exponents in the nonzero entries."""
    nonzero = [abs(x) for x in diag if x]
    factors = [1] * len(nonzero)
    for p in range(2, max(nonzero, default=1) + 1):
        if all(p % q for q in range(2, p)):
            exps = []
            for x in nonzero:
                e = 0
                while x % p == 0:
                    x, e = x // p, e + 1
                exps.append(e)
            for k, e in enumerate(sorted(exps)):
                factors[k] *= p ** e
    return factors


def _unimodular_mix(a, ops, draw):
    """`ops` random elementary operations on a: add +-1 or +-2 times one
    row (column) to another, or swap two rows (columns)."""
    rows, cols = len(a), len(a[0])
    for _ in range(ops):
        by_row = draw(hst.booleans()) or cols < 2
        n = rows if by_row else cols
        if n < 2:
            continue
        i, j = draw(hst.permutations(range(n)))[:2]
        c = draw(hst.sampled_from([1, -1, 2, -2, 0]))
        if by_row:
            if c:
                a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            else:
                a[i], a[j] = a[j], a[i]
        else:
            for row in a:
                if c:
                    row[i] += c * row[j]
                else:
                    row[i], row[j] = row[j], row[i]


# mostly +-1: the unit stage runs many pivots, and the costs of the units
# it leaves in the heap change under it
_UNIT_RICH = [1, -1, 1, -1, 1, 2, -2, 3]


@settings(max_examples=200, deadline=None)
@given(data=hst.data())
def test_heap_ordered_unit_stage_matches_references(data):
    # random sparse matrices given by rows and by columns: up to 5 x 5,
    # unit-rich or mixed entries against the determinantal divisors; up to
    # 14 x 14, U D V for a diagonal D and unimodular U, V, whose Smith form
    # is that of D.  The residual is the one a scan of every vector per
    # pivot leaves, entry for entry, with no unit in it.
    if data.draw(hst.booleans()):
        pool = data.draw(hst.sampled_from([_UNIT_RICH, _WITH_UNIT]))
        rows = data.draw(hst.integers(0, 5), label="rows")
        cols = data.draw(hst.integers(0, 5), label="cols")
        entries = hst.sampled_from(
            [0] * data.draw(hst.integers(1, 3)) * len(pool) + pool)
        a = [[data.draw(entries) for _ in range(cols)]
             for _ in range(rows)]
        expected = _determinantal_factors(a)
    else:
        rows = data.draw(hst.integers(1, 14), label="rows")
        cols = data.draw(hst.integers(1, 14), label="cols")
        diag = data.draw(hst.lists(hst.sampled_from([1, 1, 1, 2, 3, 4, 0]),
                                   min_size=min(rows, cols),
                                   max_size=min(rows, cols)))
        a = [[diag[i] if i == j else 0 for j in range(cols)]
             for i in range(rows)]
        _unimodular_mix(a, data.draw(hst.integers(0, 2 * (rows + cols))),
                        data.draw)
        expected = _smith_of_diagonal(diag)
    residuals = []
    rank_and_minor = intlinalg._rank_and_minor

    def residual(vectors):
        residuals.append([dict(v) for v in vectors])
        return rank_and_minor(vectors)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intlinalg, "_rank_and_minor", residual)
        for vectors in (ref.sparse_rows(a), _sparse_columns(a, cols)):
            if data.draw(hst.booleans()):
                # entries held in descending index order
                vectors = [dict(sorted(v.items(), reverse=True))
                           for v in vectors]
            residuals.clear()
            assert invariant_factors(vectors) == expected
            _, left = ref.scanned_unit_stage(vectors)
            assert residuals == ([left] if left else [])
            assert not any(abs(x) == 1 for v in left for x in v.values())


def test_factors_and_kernel_skip_the_full_smith_form(monkeypatch):
    def unread_transforms(a):
        raise AssertionError("smith_normal_form called")

    monkeypatch.setattr(intlinalg, "smith_normal_form", unread_transforms)
    assert invariant_factors(ref.sparse_rows(
        [[2, 4, 4], [-6, 6, 12], [10, 4, 16]])) == [2, 2, 156]
    assert invariant_factors([{0: 4}, {1: 6}]) == [2, 12]
    assert integer_kernel([{0: 2, 1: -2}, {1: 3, 2: -3}], 3) == [[1, 1, 1]]


def test_field_ops_fp_and_q():
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1}]
    assert field_rank(rows, 2) == 1
    ker = field_kernel(rows, 2)     # the matrix is symmetric
    assert ker == [{0: 1, 1: 1}]
    assert field_rank([{0: 2, 1: 4}], None) == 1
    assert field_rank([], 3) == 0 and field_kernel([], 3) == []
    assert field_kernel([{}, {1: 2}, {}], 3) == [{0: 1}, {2: 1}]


# ---------------------------------------------------------------------------
# sparse RowSpace, field_kernel and field_rank against the dense reference


def _sparse(vec) -> dict:
    return {j: x for j, x in enumerate(vec) if x}


def _sparse_columns(rows, width: int):
    return [{i: r[j] for i, r in enumerate(rows) if r[j]}
            for j in range(width)]


@settings(max_examples=300, deadline=None)
@given(data=hst.data())
def test_rowspace_matches_dense_reference(data):
    p = data.draw(hst.sampled_from([2, 3, 7, None]), label="p")
    ops = ref.FieldOps(p)
    width = data.draw(hst.integers(1, 8), label="width")
    if p is None:
        entry = hst.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        entry = hst.integers(0, p - 1)
    vector = hst.lists(entry, min_size=width, max_size=width)
    # up to 6 rows: up to 4 random ones, an all-zero row and a repeat
    rows = data.draw(hst.lists(vector, min_size=1, max_size=4), label="rows")
    rows += [[ops.of_int(0)] * width, rows[0]]
    probes = rows + data.draw(hst.lists(vector, max_size=3), label="probes")

    sparse = RowSpace(p)
    dense = ref.DenseRowSpace(ops, width)
    for r in data.draw(hst.permutations(rows), label="order"):
        before = {piv: dict(row) for piv, row in sparse.rows.items()}
        assert sparse.insert(_sparse(r)) == dense.insert(r)
        assert sparse.rank == dense.rank
        # echelon form, rows never back-substituted
        assert all(sparse.rows[piv] == row for piv, row in before.items())
    assert set(sparse.rows) == set(dense.rows)
    for piv, row in sparse.rows.items():
        assert min(row) == piv and row[piv] == 1
        assert dense.contains([row.get(j, 0) for j in range(width)])
    for v in probes:
        assert sparse.reduce(_sparse(v)) == _sparse(dense.reduce(v))
        assert sparse.contains(_sparse(v)) == dense.contains(v)
    assert field_rank(map(_sparse, rows), p) == \
        ref.dense_field_rank(rows, width, ops)
    assert field_kernel(_sparse_columns(rows, width), p) == \
        [_sparse(k) for k in ref.dense_field_kernel(rows, width, ops)]


@settings(max_examples=200, deadline=None)
@given(data=hst.data())
def test_f2_rank_on_bitmasks_matches_rowspace(data):
    # field_rank(..., 2) packs each vector into a bitmask for BitSpan; up
    # to 14 vectors on at most 12 columns spread over 0..300 are often
    # dependent
    cols = data.draw(hst.lists(hst.integers(0, 300), min_size=1,
                               max_size=12, unique=True), label="columns")
    vectors = data.draw(hst.lists(hst.dictionaries(
        hst.sampled_from(cols), hst.just(1)), max_size=14), label="vectors")
    space = RowSpace(2)
    for v in vectors:
        space.insert(v)
    assert field_rank(vectors, 2) == space.rank
    assert field_rank(iter(vectors), 2) == space.rank


# ---------------------------------------------------------------------------
# F_2 bitmask spans against the reduced echelon form they replace


@settings(max_examples=300, deadline=None)
@given(masks=hst.lists(hst.integers(0, (1 << 12) - 1), max_size=14),
       probes=hst.lists(hst.integers(0, (1 << 12) - 1), max_size=6))
def test_bitspan_matches_reduced_reference(masks, probes):
    span, reduced = BitSpan(), ref.ReducedBitSpan()
    for v in masks:
        before = dict(span.rows)
        assert span.insert(v) == reduced.insert(v)
        # echelon form, rows never back-substituted
        assert all(span.rows[piv] == row for piv, row in before.items())
        assert all(row.bit_length() - 1 == piv
                   for piv, row in span.rows.items())
    assert BitSpan(masks).rows == span.rows
    assert set(span.rows) == set(reduced.rows)
    assert span.rank == reduced.rank
    for v in masks + probes:
        assert span.contains(v) == reduced.contains(v)
    assert f2_kernel(masks) == ref.f2_kernel(masks)


@settings(max_examples=200, deadline=None)
@given(rows=hst.lists(hst.lists(hst.integers(-4, 4), min_size=5, max_size=5),
                      min_size=1, max_size=6))
def test_rowspace_over_q_takes_integer_vectors(rows):
    # ints are exact: no entry becomes a float, and the rows are those the
    # same vectors give as Fractions
    rows = [_sparse(r) for r in rows]
    as_fractions = [{j: Fraction(c) for j, c in r.items()} for r in rows]
    ints, fracs = RowSpace(None), RowSpace(None)
    for r, f in zip(rows, as_fractions):
        assert ints.insert(r) == fracs.insert(f)
    assert ints.rows == fracs.rows
    for r, f in zip(rows + [{0: 1}], as_fractions + [{0: Fraction(1)}]):
        red = ints.reduce(r)
        assert red == fracs.reduce(f)
        assert all(isinstance(c, (int, Fraction)) for c in red.values())
    assert all(isinstance(c, Fraction)
               for row in ints.rows.values() for c in row.values())
    assert field_kernel(rows, None) == field_kernel(as_fractions, None)
