"""Elimination code that `cubalg.intlinalg` replaced, kept as the reference
for differential tests:

- `FieldOps`, the field abstraction `RowSpace`, `field_kernel` and
  `field_rank` used to take, and the dense row space and its kernel and
  rank loops, which took dense vectors of a fixed width;
- the F_2 bitmask span in *reduced* echelon form and the augmented kernel
  loop, as `cubalg.steenrod` kept them privately;
- `sparse_rows`, which turns a dense integer matrix into the sparse rows
  {column: nonzero entry} that `invariant_factors` and `integer_kernel`
  take;
- `scanned_unit_stage`, the unit stage of `invariant_factors` as it
  searched every vector for each Markowitz pivot.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple


def sparse_rows(a: Sequence[Sequence[int]]) -> List[Dict[int, int]]:
    """The rows of a dense matrix as sparse vectors {column: entry}."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def scanned_unit_stage(vectors: Sequence[Dict[int, int]]
                       ) -> Tuple[int, List[Dict[int, int]]]:
    """Eliminate +-1 pivots, each the first entry of least (vector nnz - 1)
    * (index nnz - 1) in a scan of all vectors; returns the number of
    pivots and the nonzero vectors left."""
    vecs = [dict(v) for v in vectors]
    where: Dict[int, set] = {}
    for k, vec in enumerate(vecs):
        for r in vec:
            where.setdefault(r, set()).add(k)
    units = 0
    while True:
        best = None
        for k, vec in enumerate(vecs):
            fill = len(vec) - 1
            for r, c in vec.items():
                if c == 1 or c == -1:
                    cost = fill * (len(where[r]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, k, r)
        if best is None:
            return units, [vec for vec in vecs if vec]
        _, k, r = best
        pivot = vecs[k]
        vecs[k] = {}
        for i in pivot:
            where[i].discard(k)
        u = pivot.pop(r)
        for j in where.pop(r):
            vec = vecs[j]
            f = vec.pop(r) * u
            for i, x in pivot.items():
                y = vec.get(i, 0) - f * x
                if y:
                    if i not in vec:
                        where[i].add(j)
                    vec[i] = y
                else:
                    del vec[i]
                    where[i].discard(j)
        units += 1


class FieldOps:
    """Tiny field abstraction so one elimination routine serves F_p and Q.

    Elements are kept normalized (residues 0..p-1, or Fractions), so an
    element is zero exactly when it is falsy."""

    def __init__(self, p: Optional[int]):
        self.p = p

    def of_int(self, c: int):
        return c % self.p if self.p else Fraction(c)

    def add(self, x, y):
        return (x + y) % self.p if self.p else x + y

    def mul(self, x, y):
        return (x * y) % self.p if self.p else x * y

    def neg(self, x):
        return (-x) % self.p if self.p else -x

    def inv(self, x):
        return pow(x, -1, self.p) if self.p else 1 / x

    def is_zero(self, x) -> bool:
        return (x % self.p == 0) if self.p else x == 0


class DenseRowSpace:
    """Reduced row space with dense rows (lists of `width` entries)."""

    def __init__(self, ops: FieldOps, width: int):
        self.ops = ops
        self.width = width
        self.rows = {}  # pivot index -> reduced row (pivot coefficient 1)

    def reduce(self, vec):
        ops = self.ops
        v = list(vec)
        for piv in sorted(self.rows):
            c = v[piv]
            if not ops.is_zero(c):
                row = self.rows[piv]
                nc = ops.neg(c)
                for j in range(piv, self.width):
                    v[j] = ops.add(v[j], ops.mul(nc, row[j]))
        return v

    def insert(self, vec) -> bool:
        """Insert a vector; returns True if it enlarged the space."""
        ops = self.ops
        v = self.reduce(vec)
        piv = next((j for j in range(self.width)
                    if not ops.is_zero(v[j])), None)
        if piv is None:
            return False
        inv = ops.inv(v[piv])
        v = [ops.mul(inv, x) for x in v]
        # back-substitute into existing rows
        for p2, row in list(self.rows.items()):
            c = row[piv]
            if not ops.is_zero(c):
                nc = ops.neg(c)
                self.rows[p2] = [ops.add(row[j], ops.mul(nc, v[j]))
                                 for j in range(self.width)]
        self.rows[piv] = v
        return True

    def contains(self, vec) -> bool:
        return all(self.ops.is_zero(x) for x in self.reduce(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)


def dense_field_kernel(rows, width: int, ops: FieldOps):
    """Kernel basis of x -> M x, where `rows` are the rows of M (each of
    length `width`), as dense vectors of length `width`: augmented
    elimination on the transpose."""
    m = len(rows)
    space = DenseRowSpace(ops, m + width)
    kernel = []
    for j in range(width):
        aug = [r[j] for r in rows] + [ops.of_int(0)] * width
        aug[m + j] = ops.of_int(1)
        red = space.reduce(aug)
        if all(ops.is_zero(x) for x in red[:m]):
            kernel.append(red[m:])
        else:
            # pivot lands in the leading block, so tails stay consistent
            space.insert(red)
    return kernel


def dense_field_rank(rows, width: int, ops: FieldOps) -> int:
    space = DenseRowSpace(ops, width)
    for r in rows:
        space.insert(r)
    return space.rank


class ReducedBitSpan:
    """F_2 row space of bitmask vectors in reduced echelon form, with the
    highest set bit of each row as its pivot."""

    def __init__(self):
        self.rows: Dict[int, int] = {}   # pivot bit index -> row mask

    def reduce(self, v: int) -> int:
        while v:
            piv = v.bit_length() - 1
            row = self.rows.get(piv)
            if row is None:
                return v
            v ^= row
        return 0

    def insert(self, v: int) -> bool:
        v = self.reduce(v)
        if not v:
            return False
        piv = v.bit_length() - 1
        for p, row in list(self.rows.items()):
            if (row >> piv) & 1:
                self.rows[p] = row ^ v
        self.rows[piv] = v
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def rank(self) -> int:
        return len(self.rows)


def f2_kernel(cols: List[int]) -> List[int]:
    """Kernel of the F_2 matrix whose columns are the given masks;
    kernel vectors returned as masks over column indices (augmented
    Gaussian elimination, echelonized by highest row bit)."""
    out: List[int] = []
    rows: Dict[int, Tuple[int, int]] = {}   # pivot -> (row-part, col-part)
    for i, v in enumerate(cols):
        cpart = 1 << i
        while v:
            piv = v.bit_length() - 1
            hit = rows.get(piv)
            if hit is None:
                rows[piv] = (v, cpart)
                break
            v ^= hit[0]
            cpart ^= hit[1]
        else:
            out.append(cpart)
    return out


def f2_solve(cols: Sequence[int], v: int) -> Optional[int]:
    """A mask over column indices whose columns XOR to v, or None when v
    is not in their span."""
    ker = f2_kernel(list(cols) + [v])
    n = len(cols)
    if ker and (ker[-1] >> n) & 1:
        return ker[-1] ^ (1 << n)
    return None
