"""Graded rank bookkeeping: Poincare series of free graded-commutative
polynomial algebras, as integer coefficient lists."""

from __future__ import annotations

from typing import List, Sequence


def poincare_series(gen_weights: Sequence[int], d_max: int) -> List[int]:
    """Coefficients [r_0, ..., r_dmax] of prod 1/(1 - q^w) over the given
    generator weights."""
    for w in gen_weights:
        if w <= 0:
            raise ValueError("generator weights must be positive")
    coeffs = [0] * (d_max + 1)
    coeffs[0] = 1
    for w in gen_weights:
        for d in range(w, d_max + 1):
            coeffs[d] += coeffs[d - w]
    return coeffs


def quotient_series(gen_weights: Sequence[int], sub_weights: Sequence[int],
                    d_max: int) -> List[int]:
    """Coefficients through d_max of the Poincare series of `gen_weights`
    times prod (1 - q^w) over `sub_weights`: PS(B)/PS(C) for polynomial
    algebras C in B, when C's generators have the degrees `sub_weights`."""
    coeffs = poincare_series(gen_weights, d_max)
    for w in sub_weights:
        for d in range(d_max, w - 1, -1):
            coeffs[d] -= coeffs[d - w]
    return coeffs


def series_product(a: Sequence[int], b: Sequence[int], d_max: int) -> List[int]:
    out = [0] * (d_max + 1)
    for i, ai in enumerate(a[:d_max + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[:d_max + 1 - i]):
            out[i + j] += ai * bj
    return out
