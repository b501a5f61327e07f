"""Exact linear algebra: Smith normal form over Z, integer kernels and
homology of chain maps, and Gaussian elimination over F_p and Q."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import InvariantError
from .poly import is_prime

Matrix = List[List[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    cols_b = len(b[0])
    out = [[0] * cols_b for _ in a]
    for i, row in enumerate(a):
        for k, aik in enumerate(row):
            if aik:
                brow = b[k]
                orow = out[i]
                for j in range(cols_b):
                    orow[j] += aik * brow[j]
    return out


def mat_vec(a: Matrix, v: Sequence[int]) -> List[int]:
    return [sum(aij * vj for aij, vj in zip(row, v)) for row in a]


def _pivot(d: Matrix, t: int, m: int, n: int) -> Optional[Tuple[int, int]]:
    """The first nonzero entry of least magnitude in the block d[t:, t:],
    in row-major order; a unit is least, so the scan stops at the first."""
    piv = None
    best = None
    for i in range(t, m):
        row = d[i]
        for j in range(t, n):
            x = row[j]
            if x and (best is None or abs(x) < best):
                best = abs(x)
                piv = (i, j)
                if best == 1:
                    return piv
    return piv


def _diagonalize(d: Matrix, u: Optional[Matrix] = None,
                 v: Optional[Matrix] = None) -> None:
    """Bring d to Smith normal form in place by unimodular row and column
    operations.  The row operations are applied to u and the column
    operations to v, each only when given.  The pivots depend on d alone,
    so d and v come out the same whichever transforms are tracked.
    """
    m = len(d)
    n = len(d[0]) if d else 0

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        drow, srow = d[dst], d[src]
        for j in range(n):
            drow[j] += c * srow[j]
        if u is not None:
            urow, usrow = u[dst], u[src]
            for j in range(m):
                urow[j] += c * usrow[j]

    def add_col(dst, src, c):
        for row in d:
            row[dst] += c * row[src]
        if v is not None:
            for row in v:
                row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    t = 0
    while t < m and t < n:
        piv = _pivot(d, t, m, n)
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


def smith_normal_form(a: Matrix) -> Tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U*A*V = D, U and V unimodular, D diagonal with
    nonnegative entries forming a divisibility chain d1 | d2 | ...

    Tracks both transforms; callers that read only D or only V use
    `invariant_factors` or `integer_kernel`.
    """
    d = [row[:] for row in a]
    u = _identity(len(a))
    v = _identity(len(a[0]) if a else 0)
    _diagonalize(d, u, v)
    return u, d, v


def diagonal_of(d: Matrix) -> List[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def invariant_factors(a: Matrix) -> List[int]:
    """The nonzero diagonal of the Smith form of A, d1 | d2 | ...; tracks
    neither transform."""
    d = [row[:] for row in a]
    _diagonalize(d)
    return [x for x in diagonal_of(d) if x]


def sparse_invariant_factors(cols: Sequence[Dict[int, int]]) -> List[int]:
    """`invariant_factors` of the integer matrix with the given sparse
    columns {row: nonzero entry}.

    Unit pivots are eliminated on the sparse columns first.  Each clears
    its row by column operations, leaving its column and row to
    contribute one invariant factor 1, so the Smith form is diag(1, ..., 1,
    D) with D that of the residual, which alone is made dense.  Of the
    units left, the next pivot minimises (column nnz - 1) * (row nnz - 1),
    the most entries its elimination can fill in (Markowitz's rule).
    """
    cols = [dict(c) for c in cols]
    where: Dict[int, set] = {}          # row -> columns holding it
    for k, col in enumerate(cols):
        for r in col:
            where.setdefault(r, set()).add(k)
    units = 0
    while True:
        best = None
        for k, col in enumerate(cols):
            fill = len(col) - 1
            for r, c in col.items():
                if c == 1 or c == -1:
                    cost = fill * (len(where[r]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, k, r)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, k, r = best
        pivot = cols[k]
        cols[k] = {}
        for i in pivot:
            where[i].discard(k)
        u = pivot.pop(r)
        # column j -= (a_rj / u) * column k, where 1 / u = u
        for j in where.pop(r):
            col = cols[j]
            f = col.pop(r) * u
            for i, x in pivot.items():
                y = col.get(i, 0) - f * x
                if y:
                    if i not in col:
                        where[i].add(j)
                    col[i] = y
                else:
                    del col[i]
                    where[i].discard(j)
        units += 1
    rows = sorted(r for r, ks in where.items() if ks)
    residual = [[col.get(r, 0) for col in cols if col] for r in rows]
    return [1] * units + (invariant_factors(residual) if rows else [])


def integer_kernel(a: Matrix) -> List[List[int]]:
    """Basis (list of column vectors) of the integer kernel of A: the
    columns of the Smith form's V at zero diagonal entries.  Tracks V only,
    so the basis is the one `smith_normal_form` would give."""
    n = len(a[0]) if a else 0
    d = [row[:] for row in a]
    v = _identity(n)
    _diagonalize(d, v=v)
    diag = diagonal_of(d)
    return [[row[j] for row in v] for j in range(n)
            if j >= len(diag) or diag[j] == 0]


def solve_integer(a: Matrix, b: Sequence[int]) -> Optional[List[int]]:
    """One integer solution x of A x = b, or None."""
    if not a:
        return None if any(b) else []
    u, d, v = smith_normal_form(a)
    n = len(a[0])
    c = mat_vec(u, list(b))
    diag = diagonal_of(d)
    y = [0] * n
    for i, ci in enumerate(c):
        di = diag[i] if i < len(diag) else 0
        if di:
            q, r = divmod(ci, di)
            if r:
                return None
            y[i] = q
        elif ci:
            return None
    return mat_vec(v, y)


def cokernel_structure(a: Matrix, rows: int) -> Tuple[int, List[int]]:
    """Structure of Z^rows / col-span(A): (free rank, torsion orders > 1)."""
    if not a or not a[0]:
        return rows, []
    facs = invariant_factors(a)
    free = rows - len(facs)
    torsion = [f for f in facs if f != 1]
    return free, torsion


def homology(a: Matrix, b: Matrix) -> Tuple[int, List[int]]:
    """Structure of ker(A)/im(B) as (free rank, torsion orders > 1).

    A: p x n, B: n x q with A*B = 0.  A or B may be empty (no rows/cols).

    Z^n / ker A = im A is torsion-free, so ker A is a direct summand of
    Z^n and ker A / im B has the torsion of Z^n / im B: the invariant
    factors of B above 1.  Its free rank is n - rank A - rank B.
    """
    n = len(a[0]) if (a and a[0]) else (len(b) if b else 0)
    if n == 0:
        return 0, []
    if any(map(any, mat_mul(a, b))):
        raise InvariantError("image does not lie in kernel")
    free, torsion = cokernel_structure(b, n)
    return free - len(invariant_factors(a)), torsion


def p_local_part(free: int, torsion: List[int], p: int) -> Tuple[int, List[int]]:
    """Strip torsion prime to p (p-localization of a finitely generated group)."""
    if not is_prime(p):
        raise ValueError("p-localization needs a prime, got %d" % p)
    out = []
    for t in torsion:
        e = 0
        while t % p == 0:
            t //= p
            e += 1
        if e:
            out.append(p ** e)
    return free, sorted(out)


# ---------------------------------------------------------------------------
# F_2 linear algebra on bitmasks


def bits(mask: int):
    """The positions of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BitSpan:
    """F_2 span of the given bitmask vectors, kept in echelon form: each
    row's pivot is its highest set bit, and no two rows share a pivot.

    The pivot set, membership and the canonical residue depend only on
    the span, so rows are never back-substituted."""

    def __init__(self, vectors: Iterable[int] = ()):
        self.rows: Dict[int, int] = {}   # pivot bit index -> row mask
        for v in vectors:
            self.insert(v)

    def reduce(self, v: int) -> int:
        """v with pivot top bits cleared until its top bit is no pivot."""
        while v:
            row = self.rows.get(v.bit_length() - 1)
            if row is None:
                return v
            v ^= row
        return 0

    def insert(self, v: int) -> bool:
        """Insert a vector; returns True if it enlarged the space."""
        v = self.reduce(v)
        if not v:
            return False
        self.rows[v.bit_length() - 1] = v
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def residue(self, v: int) -> int:
        """Canonical residue: v with every pivot bit eliminated.  Bits are
        taken from the highest down, so a row never sets a bit already
        passed; the residue has no pivot bit, and there is one such
        element in each coset of the span."""
        rows = self.rows
        out = 0
        while v:
            piv = v.bit_length() - 1
            row = rows.get(piv)
            if row is None:
                row = 1 << piv
                out |= row
            v ^= row
        return out

    @property
    def rank(self) -> int:
        return len(self.rows)


def f2_kernel(cols: Sequence[int]) -> List[int]:
    """Kernel of the F_2 matrix whose columns are the given masks, as masks
    over column indices: augmented elimination of v << n | 1 << i, where
    a row whose column part alone survives is a kernel vector."""
    n = len(cols)
    span = BitSpan()
    out: List[int] = []
    for i, v in enumerate(cols):
        r = span.reduce(v << n | 1 << i)
        if r >> n:
            span.rows[r.bit_length() - 1] = r
        else:
            out.append(r)
    return out


def f2_solve(cols: Sequence[int], v: int) -> Optional[int]:
    """A mask over column indices whose columns XOR to v, or None when v
    is not in their span: the kernel vector `f2_kernel` finds for v put
    last, which exists exactly when v reduces to zero."""
    n = len(cols)
    ker = f2_kernel(list(cols) + [v])
    return ker[-1] ^ (1 << n) if ker and ker[-1] >> n else None


# ---------------------------------------------------------------------------
# F_p and Q linear algebra
#
# `p` is a prime for F_p, whose elements are the residues 0..p-1, or None
# for Q, whose elements are ints and Fractions.  A vector is a dict
# {column: nonzero element}; columns are ints, and a row's pivot is its
# least column.  Elimination reduces mod p only the entries a row touches.


class RowSpace:
    """Reduced row space over F_p or Q, supporting incremental insertion
    and reduction of sparse vectors.

    Each stored row has coefficient 1 at its pivot and is zero in every
    other row's pivot column.  So reducing a vector subtracts exactly the
    rows whose pivots it meets, each once, and cost grows with the
    nonzeros, never with a width; the rows do not depend on the order of
    insertion.
    """

    def __init__(self, p: Optional[int]):
        self.p = p
        self.rows: Dict[int, Dict[int, object]] = {}   # pivot -> row

    def reduce(self, vec: Dict[int, object]) -> Dict[int, object]:
        p = self.p
        rows = self.rows
        v = dict(vec)
        # subtracting a row leaves the other pivot columns as they were
        for piv in [j for j in vec if j in rows]:
            c = v[piv]
            for j, x in rows[piv].items():
                y = v.get(j, 0) - c * x
                if p:
                    y %= p
                if y:
                    v[j] = y
                else:
                    del v[j]
        return v

    def insert(self, vec: Dict[int, object]) -> bool:
        """Insert a vector; returns True if it enlarged the space."""
        p = self.p
        new = self.reduce(vec)
        if not new:
            return False
        piv = min(new)
        inv = pow(new[piv], -1, p) if p else 1 / Fraction(new[piv])
        new = {j: inv * x % p if p else inv * x for j, x in new.items()}
        # back-substitute into existing rows
        for row in self.rows.values():
            c = row.get(piv)
            if c is not None:
                for j, x in new.items():
                    y = row.get(j, 0) - c * x
                    if p:
                        y %= p
                    if y:
                        row[j] = y
                    else:
                        row.pop(j, None)
        self.rows[piv] = new
        return True

    def contains(self, vec: Dict[int, object]) -> bool:
        return not self.reduce(vec)

    @property
    def rank(self) -> int:
        return len(self.rows)


def field_kernel(cols: Sequence[Dict[int, object]], p: Optional[int]
                 ) -> List[Dict[int, object]]:
    """Kernel basis of the linear map sending the i-th unit vector to
    cols[i], over F_p (p prime) or Q (p None), as sparse vectors over the
    indices of `cols`."""
    # augment each image with its unit vector at m + i, past every image
    # row; kernel vectors are those whose image part reduces to zero
    m = 1 + max((max(col) for col in cols if col), default=-1)
    space = RowSpace(p)
    kernel = []
    for i, col in enumerate(cols):
        aug = dict(col)
        aug[m + i] = 1
        red = space.reduce(aug)
        if min(red) >= m:
            kernel.append({j - m: x for j, x in red.items()})
        else:
            # pivot lands in the image part, so tails stay consistent
            space.insert(red)
    return kernel


def field_rank(vectors: Iterable[Dict[int, object]], p: Optional[int]
               ) -> int:
    """Rank of the sparse vectors over F_p or Q."""
    space = RowSpace(p)
    for v in vectors:
        space.insert(v)
    return space.rank
