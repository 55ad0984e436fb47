import random
from fractions import Fraction

import pytest

from hopfbraid.groupalg import AlgebraElement, GroupSpec, specs_up_to, universal_r
from hopfbraid.linalg import (
    Matrix,
    SingularMatrixError,
    conjugate_transpose,
    cyclic_shift,
    exact_rank,
    flip_operator,
    flip_pair,
    flip_rows,
    invert_matrix,
    kron,
    matrix_from_json,
    matrix_to_json,
    regular_representation,
)
from hopfbraid.scalar import rational, root_of_unity


def random_matrix(rng, rows, cols, order=4, span=3):
    entries = []
    for _ in range(rows * cols):
        q = Fraction(rng.randint(-span, span), rng.randint(1, span))
        entries.append(q * root_of_unity(order, rng.randrange(order)))
    return Matrix(rows, cols, entries)


def test_matmul_identity():
    rng = random.Random(0)
    a = random_matrix(rng, 3, 3)
    assert Matrix.identity(3) @ a == a
    assert a @ Matrix.identity(3) == a


def test_matmul_permutations_compose():
    p = cyclic_shift(3)
    assert p @ p @ p == Matrix.identity(3)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        Matrix.identity(2) @ Matrix.identity(3)


def test_kron_identities():
    assert kron(Matrix.identity(2), Matrix.identity(2)) == Matrix.identity(4)
    rng = random.Random(1)
    a = random_matrix(rng, 2, 2)
    b = random_matrix(rng, 3, 3)
    assert kron(a, b).rows == 6 and kron(a, b).cols == 6


def test_kron_associative_up_to_flattening():
    rng = random.Random(2)
    a = random_matrix(rng, 2, 2)
    b = random_matrix(rng, 2, 2)
    c = random_matrix(rng, 2, 2)
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


def test_regular_rep_two_qubit_permutation_images():
    spec = GroupSpec((2, 2))
    rep = regular_representation(spec)
    x_i = kron(cyclic_shift(2), Matrix.identity(2))
    i_x = kron(Matrix.identity(2), cyclic_shift(2))
    x_x = kron(cyclic_shift(2), cyclic_shift(2))
    assert rep.on_basis((0, 0)) == Matrix.identity(4)
    assert rep.on_basis((1, 0)) == x_i
    assert rep.on_basis((0, 1)) == i_x
    assert rep.on_basis((1, 1)) == x_x
    # explicit shape of the first shift factor: swap of block halves
    assert x_i == Matrix.from_rows([
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ])


def test_regular_image_of_universal_r_order_two():
    spec = GroupSpec((2,))
    rep = regular_representation(spec)
    h = Fraction(1, 2)
    expected = Matrix.from_rows([
        [h, h, h, -h],
        [h, h, -h, h],
        [h, -h, h, h],
        [-h, h, h, h],
    ])
    assert rep.on_tensor(universal_r(spec)) == expected


def test_regular_rep_order_three_shift():
    rep = regular_representation(GroupSpec((3,)))
    p = rep.on_basis((1,))
    assert p == cyclic_shift(3)
    assert p @ p @ p == Matrix.identity(3)


def test_regular_rep_is_algebra_homomorphism():
    rng = random.Random(3)
    for spec in specs_up_to(6):
        rep = regular_representation(spec)
        for _ in range(200 // len(specs_up_to(6)) + 5):
            a = AlgebraElement.from_terms(
                spec,
                [(e, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                 for e in spec.basis() if rng.random() < 0.5],
            )
            b = AlgebraElement.from_terms(
                spec,
                [(e, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                 for e in spec.basis() if rng.random() < 0.5],
            )
            assert rep.on_element(a * b) == rep.on_element(a) @ rep.on_element(b)


def test_regular_image_of_r_unitary_small_specs():
    for spec in specs_up_to(6):
        rep = regular_representation(spec)
        g = rep.on_tensor(universal_r(spec))
        assert g @ conjugate_transpose(g) == Matrix.identity(spec.dimension ** 2), spec


def test_flip_operator_explicit():
    assert flip_operator(2) == Matrix.from_rows([
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ])
    assert flip_operator(1) == Matrix.identity(1)
    t3 = flip_operator(3)
    assert t3 @ t3 == Matrix.identity(9)


def test_flip_conjugates_kron_factors():
    rng = random.Random(4)
    for d in (2, 3):
        tau = flip_operator(d)
        a = random_matrix(rng, d, d)
        b = random_matrix(rng, d, d)
        assert tau @ kron(a, b) @ tau == kron(b, a)


def test_flip_pair_rectangular():
    t = flip_pair(1, 3)
    assert t @ t.transpose() == Matrix.identity(3)


def test_flip_rows_is_the_flip_product():
    rng = random.Random(5)
    for p, q, cols in ((1, 3, 2), (2, 3, 1), (3, 2, 6), (2, 2, 4)):
        m = random_matrix(rng, p * q, cols)
        flipped = flip_rows(m, p, q)
        assert flipped == flip_pair(p, q) @ m
        assert [e.to_json() for e in flipped.entries] == [
            e.to_json() for e in (flip_pair(p, q) @ m).entries]
    # a zero of order 2 comes out as the rational zero, as from the product
    zero2 = root_of_unity(2, 1) + 1
    assert zero2.is_zero and zero2.order == 2
    out = flip_rows(Matrix(2, 1, [zero2, 1]), 2, 1)
    assert [e.order for e in out.entries] == [1, 1]
    with pytest.raises(ValueError):
        flip_rows(Matrix.identity(3), 2, 2)


def test_invert_identity():
    assert invert_matrix(Matrix.identity(4)) == Matrix.identity(4)


def test_invert_regular_image_is_conjugate_transpose():
    spec = GroupSpec((2,))
    rep = regular_representation(spec)
    g = rep.on_tensor(universal_r(spec))
    assert invert_matrix(g) == conjugate_transpose(g)
    assert g @ invert_matrix(g) == Matrix.identity(4)


def test_invert_singular_reports_pivot_column():
    with pytest.raises(SingularMatrixError) as err:
        invert_matrix(Matrix.zeros(2, 2))
    assert err.value.column == 0


def test_invert_random_matrices():
    rng = random.Random(5)
    count = 0
    while count < 10:
        a = random_matrix(rng, 3, 3)
        try:
            inv = invert_matrix(a)
        except SingularMatrixError:
            continue
        assert a @ inv == Matrix.identity(3)
        count += 1


def test_conjugate_transpose_properties():
    assert conjugate_transpose(Matrix.identity(3)) == Matrix.identity(3)
    rng = random.Random(6)
    a = random_matrix(rng, 2, 3)
    b = random_matrix(rng, 3, 2)
    assert conjugate_transpose(a @ b) == conjugate_transpose(b) @ conjugate_transpose(a)


def test_exact_rank():
    assert exact_rank(Matrix.identity(3)) == 3
    assert exact_rank(Matrix.zeros(2, 2)) == 0
    m = Matrix.from_rows([[1, 2], [2, 4]])
    assert exact_rank(m) == 1


def test_matrix_json_round_trip():
    spec = GroupSpec((2,))
    g = regular_representation(spec).on_tensor(universal_r(spec))
    data = matrix_to_json(g)
    assert set(data) == {"rows", "cols", "entries"}
    assert matrix_from_json(data) == g


def test_matrix_json_float_export():
    # older versions exported [re, im] pairs; they are refused by the scalar reader
    pairs = [[z.real, z.imag] for z in (e.to_complex() for e in flip_operator(2).entries)]
    data = {"rows": 4, "cols": 4, "entries": pairs}
    with pytest.raises(ValueError, match="^cyclotomic number JSON needs"):
        matrix_from_json(data)


@pytest.mark.parametrize("data", [
    {"rows": 1, "cols": 1},
    {"rows": "x", "cols": 1, "entries": []},
    {"rows": 1, "cols": 1, "entries": 5},
    [1, 2],
])
def test_matrix_from_json_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        matrix_from_json(data)


@pytest.mark.parametrize("shape", [{"rows": 1.9}, {"cols": "1"}, {"rows": 1.0},
                                   {"cols": True}])
def test_matrix_from_json_accepts_only_integer_shapes(shape):
    data = {"rows": 1, "cols": 1, "entries": [{"order": 1, "coeffs": [[1, 1]]}]}
    assert matrix_from_json(data) == Matrix.identity(1)
    with pytest.raises(ValueError, match="integer 'rows' and 'cols'"):
        matrix_from_json({**data, **shape})
