import cmath
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfbraid import scalar
from hopfbraid.scalar import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    rational,
    root_of_unity,
)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def random_value(rng, order, span=6):
    total = rational(0)
    deg = len(cyclotomic_polynomial(order)) - 1
    for k in range(deg):
        q = Fraction(rng.randint(-span, span), rng.randint(1, span))
        total = total + q * root_of_unity(order, k)
    return total


def test_cyclotomic_polynomial_base_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)


def test_cyclotomic_polynomial_order_six():
    # divide x^6 - 1 by the order 1, 2, 3 polynomials by hand: x^2 - x + 1
    assert cyclotomic_polynomial(6) == (1, -1, 1)


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_divisor_product_rebuilds_x_pow_n_minus_one(n):
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
    expected = [-1] + [0] * (n - 1) + [1]
    assert prod == expected


def test_root_of_unity_examples():
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(4, 1).coeffs == (Fraction(0), Fraction(1))
    assert root_of_unity(3, 1) + root_of_unity(3, 2) == -1


@pytest.mark.parametrize("n", range(2, 13))
def test_full_power_sum_vanishes(n):
    total = rational(0)
    for k in range(n):
        total = total + root_of_unity(n, k)
    assert total.is_zero


def test_multiplication_examples():
    i_ = root_of_unity(4, 1)
    assert i_ * i_ == -1
    rng = random.Random(7)
    x = random_value(rng, 12)
    assert x + rational(0) == x
    s = root_of_unity(8, 1) + root_of_unity(8, 7)
    assert s * s == 2


def test_invert_examples():
    assert rational(-1).invert() == -1
    i_ = root_of_unity(4, 1)
    assert i_.invert() == -i_
    assert i_.invert() == root_of_unity(4, 3)
    v = rational(1) + i_
    assert v * v.invert() == 1
    assert v.invert() == (rational(1) - i_) * Fraction(1, 2)


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        rational(0).invert()


def test_conjugate_examples():
    i_ = root_of_unity(4, 1)
    assert i_.conjugate() == -i_
    assert rational(Fraction(3, 2)).conjugate() == Fraction(3, 2)
    assert root_of_unity(3, 1).conjugate() == root_of_unity(3, 2)


def test_conjugate_is_involution():
    rng = random.Random(11)
    for _ in range(50):
        x = random_value(rng, rng.choice([1, 2, 3, 4, 6, 8, 12]))
        assert x.conjugate().conjugate() == x


def test_conjugate_matches_complex_conjugation():
    rng = random.Random(13)
    for _ in range(50):
        x = random_value(rng, rng.choice([3, 5, 8, 12]))
        assert abs(x.conjugate().to_complex() - x.to_complex().conjugate()) < 1e-12


def test_to_complex_examples():
    assert root_of_unity(2, 1).to_complex() == pytest.approx(-1.0)
    assert root_of_unity(4, 1).to_complex() == pytest.approx(1j)
    s = root_of_unity(8, 1) + root_of_unity(8, 7)
    assert abs(s.to_complex() - cmath.sqrt(2)) < 1e-12


def test_field_axioms_on_random_triples():
    rng = random.Random(20260810)
    orders = [1, 2, 3, 4, 6, 8, 12]
    for _ in range(1000):
        a = random_value(rng, rng.choice(orders), span=4)
        b = random_value(rng, rng.choice(orders), span=4)
        c = random_value(rng, rng.choice(orders), span=4)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_inverse_is_two_sided_on_random_values():
    rng = random.Random(99)
    count = 0
    while count < 200:
        x = random_value(rng, rng.choice([2, 3, 4, 5, 6, 8, 12]))
        if x.is_zero:
            continue
        assert x * x.invert() == 1
        assert x.invert() * x == 1
        count += 1


def test_exact_zero_agrees_with_numeric_zero():
    # canonical forms are identical for equal values built differently, and
    # exactly distinct small values never collide numerically
    rng = random.Random(5)
    for _ in range(100):
        order = rng.choice([2, 3, 4, 6, 8, 12])
        a = random_value(rng, order, span=4)
        cycle = rational(0)
        for k in range(order):
            cycle = cycle + root_of_unity(order, k)
        b = a + cycle * Fraction(rng.randint(1, 5), rng.randint(1, 5))
        assert a == b
        assert abs(a.to_complex() - b.to_complex()) < 1e-14
        c = random_value(rng, order, span=4)
        if a != c:
            assert abs((a - c).to_complex()) > 1e-14


def test_mixed_order_arithmetic_lifts_to_lcm():
    x = root_of_unity(2, 1) + root_of_unity(3, 1)
    assert x.order == 6
    assert abs(x.to_complex() - (-1 + cmath.exp(2j * cmath.pi / 3))) < 1e-12


def test_descend():
    s = root_of_unity(8, 1) + root_of_unity(8, 7)
    two = s * s
    assert two.order == 8
    d = two.descend()
    assert d.order == 1 and d == 2
    assert root_of_unity(6, 2).descend().order == 3
    assert root_of_unity(8, 1).descend().order == 8


def test_powers():
    z8 = root_of_unity(8, 1)
    assert z8 ** 8 == 1
    assert z8 ** -1 == z8.conjugate()
    assert z8 ** 0 == 1


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        x = random_value(rng, rng.choice([1, 4, 6, 8]))
        data = x.to_json()
        assert set(data) == {"order", "coeffs"}
        assert all(len(pair) == 2 for pair in data["coeffs"])
        assert CyclotomicNumber.from_json(data) == x


@st.composite
def json_pairs(draw):
    # any integer pairs: negative and unreduced denominators, zeros, large values
    order = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]))
    deg = len(cyclotomic_polynomial(order)) - 1
    value = st.integers(-2 ** 70, 2 ** 70)
    pair = st.tuples(value, value.filter(bool) | st.sampled_from([-12, -4, -1, 6, 18]))
    return order, draw(st.lists(pair, min_size=deg, max_size=deg))


@given(json_pairs())
def test_from_json_reads_pairs_as_their_fractions(case):
    order, pairs = case
    got = CyclotomicNumber.from_json({"order": order, "coeffs": [list(p) for p in pairs]})
    want = CyclotomicNumber(order, tuple(Fraction(n, d) for n, d in pairs))
    # the same canonical form, not only an equal value
    assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)


def test_division():
    i_ = root_of_unity(4, 1)
    assert (rational(2) / (rational(1) + i_)) * (rational(1) + i_) == 2
    assert rational(1) / i_ == -i_


@pytest.mark.parametrize("data", [
    {"coeffs": [[1, 1]]},
    {"order": 1},
    {"order": 1, "coeffs": [[1, 0]]},
    {"order": 1, "coeffs": [["a", 1]]},
    {"order": 1, "coeffs": [[1, 2, 3]]},
    {"order": 1, "coeffs": 7},
    "z",
    # every field is a JSON integer: nothing is truncated or parsed
    {"order": 1, "coeffs": [[1.5, 2]]},
    {"order": 1, "coeffs": [[1, 2.0]]},
    {"order": 2.7, "coeffs": [[1, 1]]},
    {"order": True, "coeffs": [[1, 1]]},
    {"order": 1, "coeffs": [[True, 1]]},
    {"order": "3", "coeffs": [[1, 1], [0, 1]]},
    {"order": 1, "coeffs": [["3", 1]]},
    {"order": 0, "coeffs": [[1, 1]]},
    {"order": 3, "coeffs": [[1, 1]]},
])
def test_from_json_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        CyclotomicNumber.from_json(data)


def test_from_json_caps_the_order():
    cap = scalar.MAX_JSON_ORDER
    with pytest.raises(ValueError, match="above the limit"):
        CyclotomicNumber.from_json({"order": cap + 1, "coeffs": [[1, 1]]})
    # zeta at the cap still decodes
    deg = len(cyclotomic_polynomial(cap)) - 1
    coeffs = [[int(k == 1), 1] for k in range(deg)]
    assert CyclotomicNumber.from_json({"order": cap, "coeffs": coeffs}) == \
        root_of_unity(cap, 1)


@pytest.mark.parametrize("coeff", [0.5, 1.0, 1j, "1", None])
def test_constructor_rejects_inexact_coefficients(coeff):
    with pytest.raises(TypeError):
        CyclotomicNumber(2, (coeff,))
    with pytest.raises(TypeError):
        rational(coeff)


def test_residue_table_is_built_once_under_threads():
    order = 193  # no other test uses this order
    barrier = threading.Barrier(4)
    tables = [None] * 4

    def build(i):
        barrier.wait(timeout=60)
        tables[i] = scalar._residues(order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    try:
        published = scalar._RESIDUES.pop(order)
        single = scalar._residues(order)
    finally:
        scalar._RESIDUES.pop(order, None)
    assert all(t is published for t in tables)
    assert published == single
