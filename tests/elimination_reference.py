"""Elimination code that `cubalg.intlinalg` replaced, kept as the reference
for differential tests:

- `FieldOps`, the field abstraction `RowSpace`, `field_kernel` and
  `field_rank` used to take;
- the F_2 bitmask span in *reduced* echelon form, its canonical residue
  and the augmented kernel loop, as `cubalg.steenrod` kept them privately.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple


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


def residue(v: int, span: ReducedBitSpan) -> int:
    """Canonical residue: eliminate every pivot bit of the span from v."""
    for piv in sorted(span.rows, reverse=True):
        if (v >> piv) & 1:
            v ^= span.rows[piv]
    return v


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
