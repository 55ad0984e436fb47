"""Property tests of the exact elimination, of field descent and lift, of
the field axioms, and of exact matrix products against numpy.

Inverse, rank and descent share one row reduction (scalar._row_reduce);
these tests pin it on small matrices whose entries are small integers
times roots of unity of order 3 or 4, so products mix the two fields.
The field axioms, lift and the sign of real elements are checked on sums
of roots of unity of mixed orders.  Every scalar operation is compared
with a small independent reference kept here: Fraction polynomials
reduced modulo the cyclotomic polynomial, built from the Moebius product.
Gates applied to chosen qudits, and Schmidt ranks, are compared with
dense Kronecker-placed products and with numpy's rank.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfbraid.floatback import matrix_complex
from hopfbraid.linalg import (EXACT, IntegerMatrix, Matrix, SingularMatrixError, apply_on_qudits,
                              exact_rank, invert_matrix, kron)
from hopfbraid.quantum import StateVector, apply_gate, schmidt_rank
from hopfbraid.scalar import CyclotomicNumber, cyclotomic_polynomial, rational, root_of_unity


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


# -- the scalar layer against a reference ---------------------------------------
#
# A reference value is (order, list of Fraction coefficients in the power
# basis).  Phi_n is the Moebius product prod_{d | n} (x^d - 1)^mu(n/d), a
# different construction from the repeated division the package uses.

ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)
# composite orders with two or three prime factors, and degree 32 at order 64
WIDE_ORDERS = (15, 16, 20, 21, 24, 30, 64)


def _mobius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _ref_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ref_poly_divmod(a, b):
    """Quotient and remainder of a by the monic b."""
    a, q = list(a), [Fraction(0)] * max(1, len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1]
        q[k] = c
        for j, y in enumerate(b):
            a[k + j] -= c * y
    return q, a[:len(b) - 1]


@lru_cache(maxsize=None)
def _ref_phi(n: int) -> tuple:
    num, den = [Fraction(1)], [Fraction(1)]
    for d in range(1, n + 1):
        if n % d == 0 and _mobius(n // d):
            factor = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
            if _mobius(n // d) > 0:
                num = _ref_poly_mul(num, factor)
            else:
                den = _ref_poly_mul(den, factor)
    quotient, rest = _ref_poly_divmod(num, den)
    assert not any(rest)
    return tuple(quotient)


def _ref_reduce(n: int, powers: dict) -> tuple:
    """The reference value sum c zeta_n^k over (k, c) in powers."""
    poly = [Fraction(0)] * (max(powers, default=0) + 1)
    for k, c in powers.items():
        poly[k] += c
    phi = _ref_phi(n)
    rest = _ref_poly_divmod(poly, phi)[1] if len(poly) >= len(phi) else poly
    return n, rest + [Fraction(0)] * (len(phi) - 1 - len(rest))


def _ref(x: CyclotomicNumber) -> tuple:
    return x.order, list(x.coeffs)


def _ref_lift(a, n):
    m, c = a
    return _ref_reduce(n, {k * (n // m): v for k, v in enumerate(c)})


def _ref_galois(a, t):
    """The automorphism zeta -> zeta^t."""
    n, c = a
    powers: dict = {}
    for k, v in enumerate(c):
        powers[k * t % n] = powers.get(k * t % n, 0) + v
    return _ref_reduce(n, powers)


def _ref_add(a, b):
    n = lcm(a[0], b[0])
    return n, [x + y for x, y in zip(_ref_lift(a, n)[1], _ref_lift(b, n)[1])]


def _ref_mul(a, b):
    n = lcm(a[0], b[0])
    poly = _ref_poly_mul(_ref_lift(a, n)[1], _ref_lift(b, n)[1])
    return _ref_reduce(n, dict(enumerate(poly)))


def _ref_equal(a, b):
    n = lcm(a[0], b[0])
    return _ref_lift(a, n) == _ref_lift(b, n)


def _ref_smallest_order(a):
    """The least divisor m of the order with the value in Q(zeta_m): the
    value is fixed by every zeta -> zeta^t with t = 1 mod m."""
    n = a[0]
    return next(m for m in range(1, n + 1) if n % m == 0 and all(
        _ref_galois(a, t) == a for t in range(1, n + 1, m) if gcd(t, n) == 1))


def _ref_str(a) -> str:
    n, c = a
    parts = []
    for k, v in enumerate(c):
        if v:
            base = f"z{n}" if k == 1 else f"z{n}^{k}"
            parts.append(str(v) if k == 0 else base if v == 1 else f"-{base}"
                         if v == -1 else f"({v})*{base}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def _assert_canonical(x: CyclotomicNumber) -> None:
    """Integer numerators over one positive denominator, sharing no factor
    with it; zero is 0/1; ``coeffs`` is still the tuple of Fractions."""
    deg = len(_ref_phi(x.order)) - 1
    assert type(x.den) is int and x.den >= 1
    assert type(x.nums) is tuple and len(x.nums) == deg
    assert all(type(v) is int for v in x.nums)
    assert gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1
    assert type(x.coeffs) is tuple and len(x.coeffs) == deg
    assert all(type(c) is Fraction for c in x.coeffs)
    assert x.coeffs == tuple(Fraction(v, x.den) for v in x.nums)


@st.composite
def cyclotomic_values(draw, orders=ORDERS):
    """A value of one of the orders, with coefficients whose denominators
    differ (such as 1/2 + (1/3) z), some of them zero."""
    order = draw(st.sampled_from(orders))
    coeffs = [Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 6))) * draw(
        st.sampled_from((0, 1, 1))) for _ in range(len(_ref_phi(order)) - 1)]
    return CyclotomicNumber(order, tuple(coeffs))


@given(cyclotomic_values(), cyclotomic_values())
def test_ring_operations_match_the_reference(a, b):
    for x in (a, b):
        _assert_canonical(x)
    n = lcm(a.order, b.order)
    expected = {"+": _ref_add(_ref(a), _ref(b)),
                "-": _ref_add(_ref(a), (b.order, [-c for c in b.coeffs])),
                "*": _ref_mul(_ref(a), _ref(b))}
    for op, got in (("+", a + b), ("-", a - b), ("*", a * b)):
        _assert_canonical(got)
        # a zero operand of a sum may leave the other operand's order
        assert n % got.order == 0
        assert _ref_lift(_ref(got), n) == expected[op], op
        if op == "*" or got.order == n:
            assert got.order == n
    assert (a == b) is _ref_equal(_ref(a), _ref(b))
    assert (a == a.lift(a.order * b.order)) and (a + b - b == a)


@given(cyclotomic_values())
def test_invert_conjugate_and_negation_match_the_reference(a):
    neg = -a
    _assert_canonical(neg)
    assert _ref(neg) == (a.order, [-c for c in a.coeffs])
    conj = a.conjugate()
    _assert_canonical(conj)
    assert _ref(conj) == _ref_galois(_ref(a), -1 % a.order)
    if not any(a.coeffs):
        assert a.is_zero
        with pytest.raises(ZeroDivisionError):
            a.invert()
        return
    assert not a.is_zero
    inv = a.invert()
    _assert_canonical(inv)
    assert inv.order == a.order
    assert _ref_mul(_ref(a), _ref(inv)) == _ref_reduce(a.order, {0: Fraction(1)})


@given(cyclotomic_values(WIDE_ORDERS))
def test_invert_at_wide_orders_matches_the_reference(a):
    if a.is_zero:
        return
    inv = a.invert()
    _assert_canonical(inv)
    assert inv.order == a.order
    assert a * inv == 1
    assert _ref_mul(_ref(a), _ref(inv)) == _ref_reduce(a.order, {0: Fraction(1)})


def _invert_conjugate_by_conjugate(x: CyclotomicNumber) -> CyclotomicNumber:
    """The inverse as the product of the other Galois conjugates, taken one
    at a time, over the norm."""
    n = x.order
    others = rational(1).lift(n)
    for k in range(2, n):
        if gcd(k, n) == 1:
            others = others * x._galois(k)
    return others * rational(Fraction(1) / (x * others).coeffs[0])


@given(cyclotomic_values(tuple(range(1, 13)) + (105, 120)))
def test_invert_by_doubling_matches_the_conjugate_product(a):
    if a.is_zero:
        return
    inv, expected = a.invert(), _invert_conjugate_by_conjugate(a)
    _assert_canonical(inv)
    assert (inv.order, inv.nums, inv.den) == (expected.order, expected.nums, expected.den)


def test_cyclotomic_polynomial_matches_the_moebius_product():
    for n in range(1, 121):
        phi = cyclotomic_polynomial(n)
        assert all(type(c) is int for c in phi)
        assert phi == _ref_phi(n), n


@given(cyclotomic_values(), st.sampled_from((1, 2, 3, 5)))
def test_lift_and_descend_match_the_reference(a, k):
    up = a.lift(a.order * k)
    _assert_canonical(up)
    assert _ref(up) == _ref_lift(_ref(a), a.order * k)
    for x in (a, up):
        down = x.descend()
        _assert_canonical(down)
        assert down.order == _ref_smallest_order(_ref(x))
        assert _ref_lift(_ref(down), x.order) == _ref(x)


@given(cyclotomic_values(), cyclotomic_values())
def test_json_and_text_match_the_reference(a, b):
    for x in (a, b, a * b):
        data = x.to_json()
        assert data == {"order": x.order,
                        "coeffs": [[c.numerator, c.denominator] for c in _ref(x)[1]]}
        back = CyclotomicNumber.from_json(data)
        _assert_canonical(back)
        assert _ref(back) == _ref(x)
        assert str(x) == _ref_str(_ref(x))


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


# -- gates on chosen qudits ------------------------------------------------------


@st.composite
def placements(draw):
    """A local dimension d, a qudit count n <= 4 and a random exact gate on
    the adjacent pair (i, i+1), with columns of width 1 to 3."""
    d = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(2, 4 if d == 2 else 3))
    i = draw(st.integers(0, n - 2))
    gate = Matrix(d * d, d * d, draw(st.lists(scalars(), min_size=d ** 4, max_size=d ** 4)))
    width = draw(st.integers(1, 3))
    columns = Matrix(d ** n, width, draw(st.lists(scalars(), min_size=d ** n * width,
                                                  max_size=d ** n * width)))
    return d, n, i, gate, columns


@given(placements())
def test_gate_on_an_adjacent_pair_is_the_kron_placed_product(case):
    d, n, i, gate, columns = case
    placed = kron(kron(Matrix.identity(d ** i), gate), Matrix.identity(d ** (n - i - 2)))
    lift = IntegerMatrix.from_matrix
    applied = apply_on_qudits(lift(gate), lift(columns), d, n, (i, i + 1))
    assert applied == lift(placed @ columns)
    # lowered once: every nonzero entry at one order
    assert len({e.order for e in applied.to_matrix().entries if not e.is_zero}) <= 1


def _move_to_front(d: int, n: int, targets) -> Matrix:
    """The permutation |x_0 ... x_(n-1)> -> |x_t1 ... x_tk, the other digits in order>."""
    order = list(targets) + [p for p in range(n) if p not in targets]
    size = d ** n
    entries = [0] * (size * size)
    for j in range(size):
        digits = [(j // d ** (n - 1 - p)) % d for p in range(n)]
        i = 0
        for p in order:
            i = i * d + digits[p]
        entries[i * size + j] = 1
    return Matrix(size, size, entries)


@given(st.data())
def test_apply_gate_on_any_targets_is_the_permuted_kron_product(data):
    d = data.draw(st.sampled_from((2, 3)))
    n = data.draw(st.integers(2, 4 if d == 2 else 3))
    targets = data.draw(st.permutations(range(n)).map(tuple))[:data.draw(st.integers(1, 2))]
    k = len(targets)
    gate = Matrix(d ** k, d ** k, data.draw(st.lists(scalars(), min_size=d ** (2 * k),
                                                      max_size=d ** (2 * k))))
    amps = data.draw(st.lists(scalars(), min_size=d ** n, max_size=d ** n))
    if all(a.is_zero for a in amps):
        amps[0] = rational(1)
    p = _move_to_front(d, n, targets)
    expected = p.transpose() @ kron(gate, Matrix.identity(d ** (n - k))) @ p \
        @ Matrix(d ** n, 1, amps)
    if all(a.is_zero for a in expected.entries):
        with pytest.raises(ValueError, match="zero state"):
            apply_gate(gate, StateVector(d, n, amps), targets)
    else:
        assert apply_gate(gate, StateVector(d, n, amps), targets).amps == expected.entries


@given(st.data())
def test_schmidt_rank_matches_numpy(data):
    d = data.draw(st.sampled_from((2, 3)))
    n = data.draw(st.integers(2, 4 if d == 2 else 3))
    amps = data.draw(st.lists(st.integers(-2, 2), min_size=d ** n, max_size=d ** n))
    if not any(amps):
        amps[-1] = 1
    cut = data.draw(st.one_of(
        st.integers(1, n - 1),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True).map(tuple)))
    left = list(range(cut)) if isinstance(cut, int) else sorted(cut)
    right = [p for p in range(n) if p not in left]
    # the amplitude tensor, left qudits as rows and right qudits as columns
    split = np.array(amps, dtype=float).reshape((d,) * n).transpose(left + right)
    expected = np.linalg.matrix_rank(split.reshape(d ** len(left), d ** len(right)))
    assert schmidt_rank(StateVector(d, n, amps), cut) == expected
