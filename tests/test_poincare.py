from cubalg.poincare import poincare_series, quotient_series, series_product


def test_single_generator():
    assert poincare_series((2,), 7) == [1, 0, 1, 0, 1, 0, 1, 0]


def test_two_generators_alpha():
    # Z[alpha1, alpha3], |alpha1| = 2, |alpha3| = 6
    ps = poincare_series((2, 6), 12)
    assert ps == [1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 2, 0, 3]


def test_product_is_union_of_generators():
    a = poincare_series((2,), 10)
    b = poincare_series((6,), 10)
    assert series_product(a, b, 10) == poincare_series((2, 6), 10)


def test_weights_with_multiplicity():
    ps = poincare_series((2, 2), 4)
    assert ps == [1, 0, 2, 0, 3]


def test_quotient_series_divides_by_the_subalgebra():
    # F[x]/(x^4) with |x| = 2; and PS(B) = quotient * PS(C) for
    # B = F[y1, y2, y3] and C = F[y1^2, y2, y3], the degrees of H(ku) and
    # H(ko) through 14, free on cells 0 and 2
    assert quotient_series((2,), (8,), 10) == [1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0]
    big, small = (2, 6, 7), (4, 6, 7)
    quo = quotient_series(big, small, 40)
    assert series_product(quo, poincare_series(small, 40), 40) == \
        poincare_series(big, 40)
    assert [d for d, n in enumerate(quo) if n] == [0, 2]
