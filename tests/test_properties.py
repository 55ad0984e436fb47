"""Property tests of the exact elimination, of field descent and lift, of
the field axioms, and of exact matrix products against numpy.

Inverse, rank and descent share one row reduction (scalar._row_reduce);
these tests pin it on small matrices whose entries are small integers
times roots of unity of order 3 or 4, so products mix the two fields.
The field axioms, lift and the sign of real elements are checked on sums
of roots of unity of mixed orders.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfbraid.floatback import matrix_complex
from hopfbraid.linalg import (EXACT, Matrix, SingularMatrixError, exact_rank, invert_matrix,
                              kron)
from hopfbraid.scalar import rational, root_of_unity


@st.composite
def scalars(draw):
    order = draw(st.sampled_from((3, 4)))
    return draw(st.integers(-2, 2)) * root_of_unity(order, draw(st.integers(0, order - 1)))


@st.composite
def square_matrices(draw, min_size=1):
    n = draw(st.integers(min_size, 4))
    return Matrix(n, n, draw(st.lists(scalars(), min_size=n * n, max_size=n * n)))


def _columns_rank(m: Matrix, count: int) -> int:
    """Numerical rank of the first count columns of m (numpy oracle)."""
    dense = np.array(m.to_complex(), dtype=complex)[:, :count]
    return int(np.linalg.matrix_rank(dense))


@given(square_matrices())
def test_inverse_exists_exactly_at_full_rank(a):
    n = a.rows
    full = exact_rank(a) == n
    assert EXACT.invertible(a) is full
    if full:
        inv = invert_matrix(a)
        assert inv @ a == Matrix.identity(n)
        assert a @ inv == Matrix.identity(n)
    else:
        with pytest.raises(SingularMatrixError):
            invert_matrix(a)


@given(square_matrices(min_size=2), st.data())
def test_repeated_column_names_the_first_column_without_pivot(a, data):
    n = a.rows
    j = data.draw(st.integers(1, n - 1))
    i = data.draw(st.integers(0, j - 1))
    entries = list(a.entries)
    for row in range(n):
        entries[row * n + j] = entries[row * n + i]
    b = Matrix(n, n, entries)
    # the first column lying in the span of the columns before it
    first = next(k for k in range(n) if _columns_rank(b, k + 1) <= k)
    with pytest.raises(SingularMatrixError) as err:
        invert_matrix(b)
    assert err.value.column == first


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_exact_rank_of_integer_matrices_matches_numpy(rows, cols, data):
    values = data.draw(st.lists(st.integers(-3, 3), min_size=rows * cols,
                                max_size=rows * cols))
    expected = np.linalg.matrix_rank(np.array(values, dtype=float).reshape(rows, cols))
    assert exact_rank(Matrix(rows, cols, values)) == expected


@given(st.lists(scalars(), min_size=1, max_size=4), st.integers(1, 4))
def test_descend_undoes_lift(parts, factor):
    x = sum(parts[1:], parts[0]).descend()
    y = x.lift(x.order * factor).descend()
    assert y == x
    assert y.order == x.order


# -- field axioms ---------------------------------------------------------------


@st.composite
def field_elements(draw):
    """Sums of small rational multiples of roots of unity of orders 1, 3, 4
    and 6, so operands of one test usually live in different fields."""
    total = rational(0)
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.sampled_from((1, 3, 4, 6)))
        c = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        total = total + c * root_of_unity(order, draw(st.integers(0, order - 1)))
    return total


@given(field_elements(), field_elements(), field_elements())
def test_addition_and_multiplication_are_associative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(field_elements(), field_elements(), field_elements())
def test_multiplication_distributes_over_addition(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(field_elements())
def test_nonzero_elements_have_a_multiplicative_inverse(a):
    if a.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.invert()
    else:
        inv = a.invert()
        assert a * inv == rational(1)
        assert inv * a == rational(1)


@given(field_elements(), field_elements())
def test_sign_of_real_elements_is_decided_exactly(a, b):
    # a conj(a) - b conj(b) is real; its sign flips under negation and
    # matches the complex embedding wherever that is far from 0
    x = a * a.conjugate() - b * b.conjugate()
    assert x.is_real()
    if x.is_zero:
        assert not x.is_positive() and not (-x).is_positive()
        return
    assert x.is_positive() is not (-x).is_positive()
    value = x.to_complex().real
    if abs(value) > 1e-9:
        assert x.is_positive() is (value > 0)
    assert (a * a.conjugate()).is_positive() is not a.is_zero
    assert not (a * root_of_unity(4, 1) * a.conjugate()).is_positive()


# -- lift on its own -------------------------------------------------------------


@given(field_elements(), st.integers(1, 4), st.integers(1, 3))
def test_lift_keeps_the_value_and_composes(x, k, j):
    once = x.lift(x.order * k)
    assert once.order == x.order * k
    assert once == x
    assert abs(once.to_complex() - x.to_complex()) < 1e-12
    # lifting in two steps gives the very representation of one step
    twice = once.lift(x.order * k * j)
    direct = x.lift(x.order * k * j)
    assert (twice.order, twice.coeffs) == (direct.order, direct.coeffs)


# -- exact against float ---------------------------------------------------------


@st.composite
def matrix_pairs(draw):
    """Two random exact matrices of one side."""
    a = draw(square_matrices())
    n = a.rows
    return a, Matrix(n, n, draw(st.lists(scalars(), min_size=n * n, max_size=n * n)))


@given(matrix_pairs())
def test_exact_product_matches_numpy(pair):
    a, b = pair
    assert np.allclose(matrix_complex(a @ b), matrix_complex(a) @ matrix_complex(b),
                       rtol=0, atol=1e-9)


@given(square_matrices(), square_matrices())
def test_exact_kron_matches_numpy(a, b):
    assert np.allclose(matrix_complex(kron(a, b)),
                       np.kron(matrix_complex(a), matrix_complex(b)), rtol=0, atol=1e-9)


@given(square_matrices())
def test_exact_inverse_matches_numpy_at_full_rank(a):
    if exact_rank(a) == a.rows:
        assert np.allclose(matrix_complex(invert_matrix(a)),
                           np.linalg.inv(matrix_complex(a)), rtol=0, atol=1e-9)
