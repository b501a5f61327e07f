import random

import pytest

from cubalg import InvariantError
from cubalg.intlinalg import (FieldOps, cokernel_structure, field_kernel,
                              field_rank, homology, integer_kernel,
                              invariant_factors, mat_mul, p_local_part,
                              smith_normal_form, solve_integer)


def test_snf_factorization():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    u, d, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0


def test_invariant_factors_divisibility():
    rng = random.Random(11)
    for _ in range(20):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = [[rng.randrange(-9, 10) for _ in range(cols)]
             for _ in range(rows)]
        facs = invariant_factors(a)
        for x, y in zip(facs, facs[1:]):
            assert y % x == 0


def test_integer_kernel_saturated():
    a = [[2, -2]]          # kernel generated by (1, 1), not (2, 2)
    ker = integer_kernel(a)
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


def test_p_local_part():
    assert p_local_part(2, [6, 35], 2) == (2, [2])
    assert p_local_part(0, [9, 3], 3) == (0, [3, 9])
    assert p_local_part(1, [5], 2) == (1, [])


def test_field_ops_fp_and_q():
    f2 = FieldOps(2)
    rows = [[f2.of_int(1), f2.of_int(1)], [f2.of_int(1), f2.of_int(1)]]
    assert field_rank(rows, 2, f2) == 1
    ker = field_kernel(rows, 2, f2)
    assert len(ker) == 1
    fq = FieldOps(None)
    rows = [[fq.of_int(2), fq.of_int(4)]]
    assert field_rank(rows, 2, fq) == 1
