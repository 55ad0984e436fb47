"""The integer-array backend (linalg.IntegerOps) against the dense exact oracle.

IntegerMatrix holds a matrix over Q(zeta_L) as integer numerators over the
phi(L) powers of zeta_L with one denominator, and multiplies in float64,
int64 or Python integers, whichever a bound on every partial sum allows.
Products, Kronecker products and equality are compared with linalg.EXACT on
random matrices whose entries mix the orders 1, 2, 3, 4, 5, 8 and 12 and
carry their own denominators, at sizes that reach each of the three
integer types.  The verdicts of the checks that ``check`` runs densely are
compared with EXACT for R' of every spec with d <= 4 and for seeded
one-entry perturbations of it; where EXACT would take minutes (d^N = 256)
the float backend stands in, as in test_monomial.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_properties import _move_to_front

from hopfbraid import floatback, linalg
from hopfbraid.braidrep import (BraidedRMatrix, ModuleAction, braided_r, check_braid_relations,
                                check_hexagon, check_module_morphism)
from hopfbraid.groupalg import specs_up_to, universal_r, universal_r_fused_phase
from hopfbraid.linalg import EXACT, INTEGER, IntegerMatrix, Matrix, kron
from hopfbraid.quantum import check_bell_actions
from hopfbraid.scalar import CyclotomicNumber, cyclotomic_polynomial, root_of_unity

ORDERS = (1, 2, 3, 4, 5, 8, 12)
# numerator scales: float64 products, products past 2^53 in int64, and
# products past 2^63 in Python integers
SCALES = (1, 2 ** 14, 2 ** 40)
DENSE_BUDGET = 81  # largest d^N the dense oracle runs at


@st.composite
def values(draw, scale=1):
    """A value of one of ORDERS whose coefficients have their own
    denominators, some of them zero."""
    order = draw(st.sampled_from(ORDERS))
    coeffs = [Fraction(draw(st.integers(-4, 4)) * scale, draw(st.integers(1, 6)))
              * draw(st.sampled_from((0, 1, 1)))
              for _ in range(len(cyclotomic_polynomial(order)) - 1)]
    return CyclotomicNumber(order, tuple(coeffs))


@st.composite
def matrices(draw, rows=None, cols=None, scale=None):
    rows = draw(st.integers(1, 3)) if rows is None else rows
    cols = draw(st.integers(1, 3)) if cols is None else cols
    scale = draw(st.sampled_from(SCALES)) if scale is None else scale
    return Matrix(rows, cols, [draw(values(scale)) for _ in range(rows * cols)])


@st.composite
def products(draw):
    a = draw(matrices())
    return a, draw(matrices(rows=a.cols))


def lifted(m: Matrix) -> IntegerMatrix:
    return INTEGER.matrix(m)


@given(matrices())
def test_round_trip(a):
    assert lifted(a).to_matrix() == a


@given(products())
def test_product_matches_the_oracle(pair):
    a, b = pair
    assert (lifted(a) @ lifted(b)).to_matrix() == a @ b


@given(matrices(), matrices())
def test_kron_matches_the_oracle(a, b):
    assert INTEGER.kron(lifted(a), lifted(b)).to_matrix() == kron(a, b)


@given(matrices(), st.data())
def test_equality_matches_the_oracle(a, data):
    b = data.draw(matrices(rows=a.rows, cols=a.cols))
    assert (lifted(a) == lifted(b)) is (a == b)
    # the same values written at another order and over another denominator
    k = data.draw(st.sampled_from((2, 3, 5)))
    same = Matrix(a.rows, a.cols, [e.lift(e.order * k) for e in a.entries])
    assert lifted(a) == lifted(same)
    assert lifted(a) @ INTEGER.identity(a.cols) == lifted(same)
    # scaled copies differ in their denominators, and equal a only at zero
    for c in (2, Fraction(1, 2)):
        assert (lifted(a) == lifted(a * c)) is (a == Matrix.zeros(a.rows, a.cols))
    cell = data.draw(st.integers(0, len(a.entries) - 1))
    changed = list(a.entries)
    changed[cell] = changed[cell] + data.draw(st.sampled_from((1, root_of_unity(8, 3))))
    assert lifted(a) != lifted(Matrix(a.rows, a.cols, changed))


@given(st.data())
def test_gate_on_qudits_matches_the_oracle(data):
    # apply_on_qudits on lifted operands, at adjacent, spread and reordered
    # positions, against the permuted kron product: the same values
    d, n = data.draw(st.sampled_from(((2, 3), (3, 2), (2, 4))))
    positions = data.draw(st.permutations(range(n)).map(tuple))[:data.draw(st.integers(1, 2))]
    size = d ** len(positions)
    gate = data.draw(matrices(rows=size, cols=size))
    columns = data.draw(matrices(rows=d ** n))
    applied = linalg.apply_on_qudits(lifted(gate), lifted(columns), d, n, positions)
    p = _move_to_front(d, n, positions)
    expected = p.transpose() @ kron(gate, Matrix.identity(d ** n // size)) @ p @ columns
    assert applied.to_matrix() == expected


def test_each_integer_type_is_reached_and_exact(monkeypatch):
    chosen = []
    pick = linalg._exact_dtype

    def spy(bound, blas=False):
        chosen.append(pick(bound, blas))
        return chosen[-1]

    monkeypatch.setattr(linalg, "_exact_dtype", spy)
    for scale, dtype in ((1, np.float64), (2 ** 24, np.int64), (2 ** 40, object)):
        # numerators near scale * 12 over the powers of zeta_12
        a = Matrix(2, 2, [(3 * scale + i) * root_of_unity(12, i) + 7 for i in range(4)])
        chosen.clear()
        product = lifted(a) @ lifted(a)
        assert chosen[-1] is dtype, scale
        assert product.to_matrix() == a @ a
        assert product == lifted(a @ a)


def test_the_most_negative_int64_numerator_is_multiplied_exactly():
    # the int64 abs of -2^63 is -2^63: the height must not read it as negative
    a, b = Matrix(1, 1, [-2 ** 63]), Matrix(1, 1, [3])
    assert _same_arrays(lifted(a), _reference_lift(1, 1, enumerate(a.entries)))
    assert (lifted(a) @ lifted(b)).to_matrix() == a @ b


def _reference_lift(rows: int, cols: int, entries) -> IntegerMatrix:
    """IntegerMatrix._lift of (index, value) pairs as one Python loop over
    the nonzero numerators: the reference for its vectorised lift."""
    entries = [(i, v) for i, v in entries if not v.is_zero]
    big = lcm(*(v.order for _, v in entries))
    den = lcm(*(v.den for _, v in entries))
    cells, powers, ints = [], [], []
    for i, v in entries:
        step, scale_v = big // v.order, den // v.den
        for k, x in enumerate(v.nums):
            if x:
                cells.append(i)
                powers.append(k * step)
                ints.append(x * scale_v)
    bound = max(map(abs, ints), default=0) * big * linalg._residue_table(big)[1]
    dtype = linalg._exact_dtype(bound)
    arr = np.zeros((big, rows * cols), dtype=dtype)
    arr[powers, cells] = np.array(ints, dtype=dtype)
    return IntegerMatrix(big, linalg._reduce(arr, big).reshape(-1, rows, cols), den)


def _same_arrays(a: IntegerMatrix, b: IntegerMatrix) -> bool:
    return (a.order, a.den, a.nums.dtype) == (b.order, b.den, b.nums.dtype) \
        and np.array_equal(a.nums, b.nums)


# numerator scales up to 2^62, so the lift's own array (before the product
# bounds) reaches Python integers too
@given(st.sampled_from((1, 2 ** 40, 2 ** 62)).flatmap(lambda scale: matrices(scale=scale)),
       st.data())
def test_lift_matches_the_loop_reference(a, data):
    assert _same_arrays(lifted(a), _reference_lift(a.rows, a.cols, enumerate(a.entries)))
    # sparse pairs in any order, some of them zeros of another order
    cells = data.draw(st.permutations(range(len(a.entries))))
    pairs = [(i, a.entries[i] if i % 2 else CyclotomicNumber(8, (0,) * 4)) for i in cells]
    assert _same_arrays(IntegerMatrix._lift(a.rows, a.cols, np.array(cells, dtype=np.intp),
                                            [v for _, v in pairs]),
                        _reference_lift(a.rows, a.cols, pairs))


def test_lift_of_large_numerators_and_denominators_matches_the_loop_reference():
    # Python integers in the numerators, in the denominators, and in their product
    for big in (2 ** 40, 2 ** 62, 2 ** 70):
        m = Matrix(2, 2, [CyclotomicNumber(4, (Fraction(big + 1, 3), Fraction(-big, 7))),
                          CyclotomicNumber(3, (Fraction(1, big + 5), 2)),
                          CyclotomicNumber(1, (0,)), root_of_unity(12, 5)])
        assert _same_arrays(lifted(m), _reference_lift(2, 2, enumerate(m.entries))), big
        assert lifted(m).to_matrix() == m
    assert lifted(m).nums.dtype == object


def test_zero_and_identity():
    zero = lifted(Matrix.zeros(2, 3))
    assert zero.den == 1 and not zero.nums.any()
    assert (zero @ lifted(Matrix.identity(3))).to_matrix() == Matrix.zeros(2, 3)
    assert INTEGER.identity(3) == lifted(Matrix.identity(3))
    assert INTEGER.invertible(INTEGER.identity(3))
    assert not INTEGER.invertible(zero)


# -- verdicts -------------------------------------------------------------------


SMALL_SPECS = specs_up_to(4)
SPEC_IDS = [",".join(map(str, s.orders)) for s in SMALL_SPECS]


def _perturbed(gate: BraidedRMatrix, seed: int) -> BraidedRMatrix:
    """R' with one seeded entry raised by a seeded root of unity."""
    rng = random.Random(seed)
    entries = list(gate.matrix.entries)
    cell = rng.randrange(len(entries))
    entries[cell] = entries[cell] + root_of_unity(rng.choice((1, 2, 4, 8, 12)), rng.randrange(8))
    return BraidedRMatrix(gate.dimension, Matrix(gate.matrix.rows, gate.matrix.cols, entries))


def _oracle(side: int):
    return EXACT if side <= DENSE_BUDGET else floatback.NumpyOps()


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=SPEC_IDS)
def test_verdicts_on_r_prime_match_the_oracle(spec, seed):
    gate = braided_r(spec)
    if seed is not None:
        gate = _perturbed(gate, seed)
    d = spec.dimension
    reg = ModuleAction.regular(spec)
    for strands in (3, 4):
        assert check_braid_relations(strands, gate, INTEGER) == \
            check_braid_relations(strands, gate, _oracle(d ** strands)), strands
    assert check_module_morphism(gate.matrix, reg, reg, INTEGER) == \
        check_module_morphism(gate.matrix, reg, reg, EXACT)
    if d == 2:
        assert check_bell_actions(gate.matrix, INTEGER) == \
            check_bell_actions(gate.matrix, EXACT)


@pytest.mark.parametrize("form", (universal_r, universal_r_fused_phase),
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=SPEC_IDS)
def test_hexagon_verdicts_match_the_oracle(spec, form):
    reg = ModuleAction.regular(spec)
    r = form(spec)
    assert check_hexagon(reg, reg, reg, r, INTEGER) == check_hexagon(reg, reg, reg, r, EXACT)
