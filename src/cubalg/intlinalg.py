"""Exact linear algebra: Smith normal form over Z, integer kernels and
homology of chain maps, and Gaussian elimination over F_p and Q."""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import count
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import InvariantError
from .poly import is_prime

Matrix = List[List[int]]
Row = Dict[int, int]            # sparse vector {index: nonzero entry}


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


def _sparse_rows(a: Matrix) -> List[Row]:
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def _residue(x: int, mod: int) -> int:
    """The symmetric residue of x mod `mod`, in (-mod/2, mod/2]."""
    x %= mod
    return x - mod if x > mod >> 1 else x


def _axpy(dst: Row, src: Row, c: int, mod: int = 0) -> None:
    """dst += c * src, keeping only nonzero entries; with a modulus, every
    entry touched becomes its symmetric residue."""
    get = dst.get
    if mod:
        half = mod >> 1
        for k, x in src.items():
            y = (get(k, 0) + c * x) % mod
            if y > half:
                y -= mod
            if y:
                dst[k] = y
            else:
                dst.pop(k, None)
    else:
        for k, x in src.items():
            y = get(k, 0) + c * x
            if y:
                dst[k] = y
            else:
                del dst[k]


def _pivot(rows: List[Row], t: int, pos: List[int], unitless: List[bool]
           ) -> Optional[Tuple[int, int]]:
    """The first nonzero entry of least magnitude in rows[t:], in
    row-major order of logical columns (pos[k] is the logical column of
    key k).  A unit is least, so the first row holding one has it; rows
    flagged in `unitless` are known to hold none, and the rows the scan
    passes are flagged."""
    best = at = None
    for i in range(t, len(rows)):
        if unitless[i]:
            continue
        vals = rows[i].values()
        if 1 in vals or -1 in vals:
            best, at = 1, i
            break
        unitless[i] = True
    else:
        for i in range(t, len(rows)):
            if rows[i]:
                x = min(map(abs, rows[i].values()))
                if at is None or x < best:
                    best, at = x, i
        if at is None:
            return None
    return at, min(pos[k] for k, x in rows[at].items() if abs(x) == best)


def _diagonalize(rows: List[Row], n: int, u: Optional[List[Row]] = None,
                 v: Optional[List[Row]] = None, mod: int = 0) -> List[int]:
    """Bring the m x n matrix with sparse rows `rows` to Smith normal form
    in place by unimodular row and column operations, and return `col`:
    logical column j of the result is stored under key col[j], so a column
    swap moves no entry.

    The row operations are applied to u (the rows of U) and the column
    operations to v (the columns of V, keyed like the rows' entries), each
    only when given.  The pivots depend on the matrix alone, so it and v
    come out the same whichever transforms are tracked.  Each step pivots
    on the first entry of least magnitude, clears its column and row by
    Euclid's algorithm, and a last pass makes the diagonal a divisibility
    chain.

    With a modulus (and no transform), entries are symmetric residues and
    the divisibility pass is skipped: the diagonal is then a Smith form of
    the matrix mod `mod` up to the order of its entries.

    Before step t, every row from t down holds entries in logical columns
    t and beyond only, so the pivot scan reads whole rows; below the
    diagonal of a row pass, and right of it in a column pass, no entry is
    touched before the pass reaches it, so each pass lists its targets
    once.
    """
    m = len(rows)
    col = list(range(n))
    pos = list(range(n))
    unitless = [False] * m          # rows known to hold no unit

    def swap_rows(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        unitless[i], unitless[j] = unitless[j], unitless[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        col[i], col[j] = col[j], col[i]
        pos[col[i]], pos[col[j]] = i, j

    def add_row(dst, src, c):
        if c:
            unitless[dst] = False
            _axpy(rows[dst], rows[src], c, mod)
            if u is not None:
                _axpy(u[dst], u[src], c)

    def add_col(dst, src, c, among):
        # among: the rows that can hold an entry in column src
        if not c:
            return
        kd, ks = col[dst], col[src]
        for i in among:
            row = rows[i]
            x = row.get(ks)
            if x:
                unitless[i] = False
                y = row.get(kd, 0) + c * x
                if mod:
                    y = _residue(y, mod)
                if y:
                    row[kd] = y
                else:
                    row.pop(kd, None)
        if v is not None:
            _axpy(v[kd], v[ks], c)

    def holders(t):
        k = col[t]
        return [i for i in range(t, m) if k in rows[i]]

    def negate_row(i):
        rows[i] = {k: -x for k, x in rows[i].items()}
        if u is not None:
            u[i] = {k: -x for k, x in u[i].items()}

    def clear(t):
        # Euclid's algorithm on row and column t until both are clear
        while True:
            done = True
            kt = col[t]
            for i in [i for i in range(t + 1, m) if kt in rows[i]]:
                add_row(i, t, -(rows[i][kt] // rows[t][kt]))
                if kt in rows[i]:
                    swap_rows(i, t)
                    done = False
            # the rows holding column t: row t alone unless rows were
            # swapped; a column operation changes them only by a swap
            among = [t] if done else holders(t)
            for j in sorted(pos[k] for k in rows[t])[1:]:
                x = rows[t].get(col[j])
                if x:
                    add_col(j, t, -(x // rows[t][col[t]]), among)
                    if col[j] in rows[t]:
                        swap_cols(j, t)
                        done = False
                        among = holders(t)
            if done:
                break
        if rows[t][col[t]] < 0:
            negate_row(t)

    t = 0
    while t < m and t < n:
        piv = _pivot(rows, t, pos, unitless)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        kt = col[t]
        p = rows[t][kt]
        if p == 1 or p == -1:
            # a unit leaves no remainder: one pass clears column and row,
            # the same operations `clear` makes
            rest = rows[t]
            del rest[kt]
            for i in [i for i in range(t + 1, m) if kt in rows[i]]:
                c = -rows[i].pop(kt) * p
                unitless[i] = False
                _axpy(rows[i], rest, c, mod)
                if u is not None:
                    _axpy(u[i], u[t], c)
            if v is not None:
                for k, x in rest.items():
                    _axpy(v[k], v[kt], -x * p)
            rows[t] = {kt: p}
            if p < 0:
                negate_row(t)
        else:
            clear(t)
        t += 1
    if mod:
        return col

    # enforce the divisibility chain on the diagonal d_0 .. d_{t-1}: fold
    # entry i+1 into column i and clear again, which can only meet rows
    # and columns i and i+1
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            a, b = rows[i][col[i]], rows[i + 1][col[i + 1]]
            if b % a:
                add_col(i, i + 1, 1, (i + 1,))
                clear(i)
                if rows[i + 1][col[i + 1]] < 0:
                    negate_row(i + 1)
                changed = True
    return col


def smith_normal_form(a: Matrix) -> Tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U*A*V = D, U and V unimodular, D diagonal with
    nonnegative entries forming a divisibility chain d1 | d2 | ...

    Tracks both transforms; callers that read only D or only V use
    `invariant_factors` or `integer_kernel`.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    rows = _sparse_rows(a)
    u = [{i: 1} for i in range(m)]
    v = [{j: 1} for j in range(n)]
    col = _diagonalize(rows, n, u, v)
    d = [[rows[i].get(k, 0) for k in col] for i in range(m)]
    return ([[row.get(k, 0) for k in range(m)] for row in u], d,
            [[v[k].get(i, 0) for k in col] for i in range(n)])


def _rank_and_minor(rows: Sequence[Row]) -> Tuple[int, int]:
    """The rank r of the matrix with these sparse rows and the absolute
    value of a nonzero r x r minor (1 when r = 0), by fraction-free
    (Bareiss) elimination.

    After step k every entry of a row not yet used as a pivot is a
    (k+1) x (k+1) minor divided by p_k, the k-th pivot, itself a k x k
    minor (Sylvester's identity), so the divisions are exact.  A row with
    no entry in the pivot column is only scaled by p_k / p_{k-1}; that is
    left implicit, and a row brought up to date from step s multiplies by
    p_k / p_s, the product telescoping.
    """
    live = [r for r in rows if r]  # read, never changed in place
    stamp = [0] * len(live)        # the step each stored row is exact at
    pivots = [1]

    def current(i):
        s, k = stamp[i], len(pivots) - 1
        if s == k:
            return live[i]
        ps, pk = pivots[s], pivots[k]
        return {j: x * pk // ps for j, x in live[i].items()}

    while live:
        # the sparsest row, on its entry of least magnitude
        at = min(range(len(live)), key=lambda i: len(live[i]))
        prow = current(at)
        c = min(prow, key=lambda j: abs(prow[j]))
        p, prev = prow[c], pivots[-1]
        live[at], stamp[at] = live[-1], stamp[-1]
        live.pop()
        stamp.pop()
        step = len(pivots)
        keep = []
        for i in range(len(live)):
            if c in live[i]:
                row = current(i)
                f = row[c]
                num = {j: p * x for j, x in row.items()}
                for j, x in prow.items():
                    num[j] = num.get(j, 0) - f * x
                live[i] = {j: y // prev for j, y in num.items() if y}
                stamp[i] = step
            if live[i]:
                keep.append(i)
        live = [live[i] for i in keep]
        stamp = [stamp[i] for i in keep]
        pivots.append(p)
    return len(pivots) - 1, abs(pivots[-1])


def invariant_factors(vectors: Sequence[Row]) -> List[int]:
    """The nonzero diagonal d1 | d2 | ... of the Smith form of the integer
    matrix with these sparse vectors {index: nonzero entry} as its rows,
    or as its columns: a matrix and its transpose have the same Smith
    form.  Tracks neither transform.

    Unit pivots are eliminated on the vectors first.  Each clears the
    entries of its index by operations on vectors, leaving its vector and
    index to contribute one invariant factor 1, so the Smith form is
    diag(1, ..., 1, D) with D that of the residual.  Of the units left,
    the next pivot minimises (vector nnz - 1) * (index nnz - 1), the most
    entries its elimination can fill in (Markowitz's rule), ties going to
    the least vector and in it to the entry held longest.  The unit
    entries wait in a heap keyed by (cost, vector, age).  An elimination
    pushes again every unit entry whose cost it changed: those of the
    vectors it touched and those in the pivot's indices.  A popped entry
    that is no longer a unit, or was removed and refilled since, is
    dropped; one whose cost grew is pushed back.  So the pivots are those
    of a scan of all vectors per pivot, without the scan.

    The residual is then eliminated modulo delta, a nonzero r x r minor
    (r its rank).  Its Smith form mod delta is diag(gcd(d_i, delta)) with
    d_i = 0 past r, and every d_i | d_1 ... d_r | delta; so, once the
    diagonal x_i of the elimination mod delta is read off as gcd(x_i,
    delta) (0 gives delta) and put into a divisibility chain by gcd/lcm
    swaps, its first r entries are d_1 .. d_r.  The residues keep every
    entry below delta in size, where an exact elimination can grow them
    without bound.
    """
    vecs = [dict(v) for v in vectors]
    where: Dict[int, set] = {}          # index -> vectors holding it
    for k, vec in enumerate(vecs):
        for r in vec:
            where.setdefault(r, set()).add(k)
    # born[k][r] orders the entries of vector k as the vector holds them,
    # so that of the entries of least cost the heap gives the first one a
    # scan of the vectors would meet
    clock = count()
    born = [{r: next(clock) for r in vec} for vec in vecs]
    heap: List[Tuple[int, int, int, int]] = []

    def push(k, r):
        heappush(heap, ((len(vecs[k]) - 1) * (len(where[r]) - 1), k,
                        born[k][r], r))

    for k, vec in enumerate(vecs):
        for r, c in vec.items():
            if c == 1 or c == -1:
                push(k, r)
    units = 0
    while heap:
        cost, k, b, r = heappop(heap)
        pivot = vecs[k]
        u = pivot.get(r)
        if (u != 1 and u != -1) or born[k][r] != b:
            continue
        now = (len(pivot) - 1) * (len(where[r]) - 1)
        if now > cost:
            heappush(heap, (now, k, b, r))
            continue
        vecs[k] = {}
        for i in pivot:
            where[i].discard(k)
        del pivot[r]
        touched = where.pop(r)
        # vector j -= (a_rj / u) * vector k, where 1 / u = u
        for j in touched:
            vec = vecs[j]
            f = vec.pop(r) * u
            for i, x in pivot.items():
                y = vec.get(i, 0) - f * x
                if y:
                    if i not in vec:
                        where[i].add(j)
                        born[j][i] = next(clock)
                    vec[i] = y
                else:
                    del vec[i]
                    where[i].discard(j)
        # the costs that changed: every entry of a touched vector, and
        # every entry in an index of the pivot, whose holders changed
        for j in touched:
            for i, c in vecs[j].items():
                if c == 1 or c == -1:
                    push(j, i)
        for i in pivot:
            for j in where[i]:
                c = vecs[j][i]
                if (c == 1 or c == -1) and j not in touched:
                    push(j, i)
        units += 1

    residual = [vec for vec in vecs if vec]
    if not residual:
        return [1] * units
    rank, delta = _rank_and_minor(residual)
    if delta == 1:
        return [1] * (units + rank)
    # the indices still held, renumbered 0 .. n-1 for `_diagonalize`
    key = {i: j for j, i in enumerate(sorted(i for i, ks in where.items()
                                             if ks))}
    rows = [{key[i]: y for i, x in vec.items() if (y := _residue(x, delta))}
            for vec in residual]
    col = _diagonalize(rows, len(key), mod=delta)
    chain = [gcd(rows[i].get(col[i], 0), delta)
             for i in range(min(len(rows), len(key)))]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            x, y = chain[i], chain[j]
            g = gcd(x, y)
            chain[i], chain[j] = g, x // g * y
    return [1] * units + chain[:rank]


def integer_kernel(a: Sequence[Row], n: int) -> List[List[int]]:
    """Basis (list of column vectors) of the integer kernel of the matrix
    of width n with sparse rows {column: nonzero entry}: the columns of
    the Smith form's V at zero diagonal entries.  Tracks V only, exactly,
    so the basis is the one `smith_normal_form` would give."""
    rows = [dict(row) for row in a]
    v = [{j: 1} for j in range(n)]
    col = _diagonalize(rows, n, v=v)
    return [[v[k].get(i, 0) for i in range(n)]
            for j, k in enumerate(col) if j >= len(rows) or k not in rows[j]]


def solve_integer(a: Matrix, b: Sequence[int]) -> Optional[List[int]]:
    """One integer solution x of A x = b, or None."""
    if not a:
        return None if any(b) else []
    u, d, v = smith_normal_form(a)
    n = len(a[0])
    c = mat_vec(u, list(b))
    y = [0] * n
    for i, ci in enumerate(c):
        di = d[i][i] if i < n else 0
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
    facs = invariant_factors(_sparse_rows(a))
    return rows - len(facs), [f for f in facs if f != 1]


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
    return free - len(invariant_factors(_sparse_rows(a))), torsion


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

    The pivot set and membership depend only on the span, so rows are
    never back-substituted."""

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


# ---------------------------------------------------------------------------
# F_p and Q linear algebra
#
# `p` is a prime for F_p, whose elements are the residues 0..p-1, or None
# for Q, whose elements are ints and Fractions.  A vector is a dict
# {column: nonzero element}; columns are ints, and a row's pivot is its
# least column.  Elimination reduces mod p only the entries a row touches.


class RowSpace:
    """Row space over F_p or Q of sparse vectors, kept in echelon form:
    each stored row has coefficient 1 at its least column, its pivot, and
    no two rows share a pivot.  As in `BitSpan`, rows are never
    back-substituted: a row may hold entries in pivot columns added after
    it.  `reduce` clears the pivot columns in ascending order, so its
    result -- the one element of the coset with no pivot column -- and the
    pivot set depend only on the span, not on the order of insertion.
    """

    def __init__(self, p: Optional[int]):
        self.p = p
        self.rows: Dict[int, Dict[int, object]] = {}   # pivot -> row

    def reduce(self, vec: Dict[int, object]) -> Dict[int, object]:
        """The residue of vec: vec minus the rows that clear its pivot
        columns.  A row only adds columns past its pivot, so the pivots are
        taken least first from a heap of those the vector meets."""
        p = self.p
        rows = self.rows
        v = dict(vec)
        heap = [j for j in v if j in rows]
        heapify(heap)
        while heap:
            piv = heappop(heap)
            c = v.get(piv)
            if c is None:
                continue            # cancelled, then pushed again
            for j, x in rows[piv].items():
                old = v.get(j)
                y = (old or 0) - c * x
                if p:
                    y %= p
                if y:
                    v[j] = y
                    if old is None and j in rows:
                        heappush(heap, j)
                elif old is not None:
                    del v[j]
        return v

    def insert(self, vec: Dict[int, object]) -> bool:
        """Insert a vector; returns True if it enlarged the space.  Stores
        its residue, scaled to 1 at its least column, and touches no other
        row."""
        p = self.p
        new = self.reduce(vec)
        if not new:
            return False
        piv = min(new)
        inv = pow(new[piv], -1, p) if p else 1 / Fraction(new[piv])
        self.rows[piv] = {j: inv * x % p if p else inv * x
                          for j, x in new.items()}
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
    """Rank of the sparse vectors over F_p or Q.  Over F_2 each vector is
    packed into a bitmask and ranked by `BitSpan`, a row operation being
    one XOR (as in M4RI: Albrecht, Bard & Hart, ACM TOMS 2010)."""
    if p == 2:
        return BitSpan(sum(1 << j for j, x in v.items() if x % 2)
                       for v in vectors).rank
    space = RowSpace(p)
    for v in vectors:
        space.insert(v)
    return space.rank
