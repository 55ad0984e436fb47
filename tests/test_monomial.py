"""The monomial backend (linalg.MonomialOps) against the dense exact oracle.

Every element of a cyclic group algebra acts diagonally in the character
basis, and every braided matrix built from a two-leg element is monomial
there, so the algebra-level identities can be decided on diagonals and the
braid relations, module morphism and hexagon on monomial matrices.  These
tests compare the diagonals with the dense regular images, and the verdicts
with linalg.EXACT wherever the dense check is cheap (d^N <= 64), with the
integer-array backend linalg.INTEGER up to d^N = 512, with the float
backend above, and on random elements whose identities mostly fail.  The
array-backed MonomialMatrix is compared with dense EXACT matrices on
random weights that mix orders, denominators, integer sizes and zeros.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfbraid import floatback, linalg
from hopfbraid.braidrep import (
    BraidedRMatrix,
    ModuleAction,
    braided_r,
    braiding_map,
    check_braid_relations,
    check_hexagon,
    check_module_morphism,
)
from hopfbraid.groupalg import (
    AlgebraElement,
    GroupSpec,
    TensorElement,
    as_single_leg,
    check_algebraic_ybe,
    check_hopf_axioms,
    check_quasi_cocommutative,
    check_quasitriangular,
    coproduct_on_leg,
    counit_on_leg,
    leg_embedding,
    specs_up_to,
    universal_r,
    universal_r_fused_phase,
)
from hopfbraid.linalg import (
    EXACT,
    INTEGER,
    IntegerMatrix,
    Matrix,
    MonomialMatrix,
    MonomialOps,
    NotMonomialError,
    character_basis,
    check_character_basis,
    invert_matrix,
    kron,
    regular_representation,
)
from hopfbraid.scalar import CyclotomicNumber, cyclotomic_polynomial, rational, root_of_unity

FORMS = (universal_r, universal_r_fused_phase)
DENSE_BUDGET = 64  # largest d^N the dense oracle runs at
INTEGER_BUDGET = 512  # largest d^N the integer-array oracle runs at


def _verdicts(spec, r, strands, ops):
    reg = ModuleAction.regular(spec)
    gate = BraidedRMatrix(spec.dimension, braiding_map(reg, reg, r))
    out = [check_braid_relations(n, gate, ops) for n in strands]
    out.append(check_module_morphism(gate.matrix, reg, reg, ops))
    if 3 in strands:
        out.append(check_hexagon(reg, reg, reg, r, ops))
    return out


def _oracle(side: int):
    # integer arrays, then the float backend, stand in where the dense
    # exact check is too slow
    if side <= DENSE_BUDGET:
        return EXACT
    return INTEGER if side <= INTEGER_BUDGET else floatback.NumpyOps()


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("spec", specs_up_to(6), ids=lambda s: ",".join(map(str, s.orders)))
def test_monomial_verdicts_match_the_oracle(spec, form):
    r = form(spec)
    d = spec.dimension
    reg = ModuleAction.regular(spec)
    gate = BraidedRMatrix(d, braiding_map(reg, reg, r))
    mono = MonomialOps(spec)
    for n in (2, 3, 4):
        assert check_braid_relations(n, gate, mono) == \
            check_braid_relations(n, gate, _oracle(d ** n)), n
    # dense at every d: the float backend decides invertibility by a
    # determinant threshold, which a 36 x 36 braiding can fall under
    assert check_module_morphism(gate.matrix, reg, reg, mono) == \
        check_module_morphism(gate.matrix, reg, reg, EXACT)
    assert check_hexagon(reg, reg, reg, r, mono) == \
        check_hexagon(reg, reg, reg, r, _oracle(d ** 3))


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("spec", specs_up_to(8), ids=lambda s: ",".join(map(str, s.orders)))
def test_hexagon_on_three_regular_modules_is_the_braid_relation_of_r_prime(spec, form):
    # check reads the hexagon as the braid relation of the R' it has built
    r = form(spec)
    reg = ModuleAction.regular(spec)
    gate = braided_r(spec, r)
    for ops in (MonomialOps(spec), floatback.NumpyOps(), _oracle(spec.dimension ** 3)):
        assert check_hexagon(reg, reg, reg, r, ops) == check_braid_relations(3, gate, ops), ops


def _character_basis(spec: GroupSpec, power: int) -> Matrix:
    f = Matrix.identity(1)
    for _ in range(power):
        for n in spec.orders:
            f = kron(f, Matrix(n, n, [root_of_unity(n, j * c) for j in range(n)
                                      for c in range(n)]))
    return f


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("spec", specs_up_to(6), ids=lambda s: ",".join(map(str, s.orders)))
def test_certificate_is_the_conjugate_in_the_character_basis(spec, form):
    m = braided_r(spec, form(spec)).matrix
    p = MonomialOps(spec).matrix(m)
    f = _character_basis(spec, 2)
    assert m @ f == f @ p.to_matrix()
    assert MonomialMatrix.from_matrix(p.to_matrix()) == p


# -- diagonals of tensor elements ---------------------------------------------


def _elements(r: TensorElement) -> dict:
    """Elements with 1, 2 and 3 legs built from r; R13 has an identity leg."""
    return {1: [counit_on_leg(r, 1)], 2: [r],
            3: [coproduct_on_leg(r, 0), leg_embedding(r, 3, (0, 2))]}


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("spec", specs_up_to(6), ids=lambda s: ",".join(map(str, s.orders)))
def test_diagonal_is_the_regular_image_in_the_character_basis(spec, form):
    rep = regular_representation(spec)
    ops = MonomialOps(spec)
    for legs, elements in _elements(form(spec)).items():
        if legs == 3 and spec.dimension > 4:
            continue
        f = _character_basis(spec, legs)
        for t in elements:
            diagonal = ops.tensor(t)
            assert diagonal.perm == tuple(range(spec.dimension ** legs))
            assert rep.on_tensor(t) @ f == f @ diagonal.to_matrix(), (legs, t)


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("spec", specs_up_to(6), ids=lambda s: ",".join(map(str, s.orders)))
def test_algebra_verdicts_match_the_oracle(spec, form):
    r = form(spec)
    ops = MonomialOps(spec)
    for check in (check_quasi_cocommutative, check_quasitriangular, check_algebraic_ybe):
        assert check(spec, r, ops) == check(spec, r, EXACT), check.__name__
    assert check_hopf_axioms(spec, ops) == check_hopf_axioms(spec, EXACT)


def test_zero_weights_are_not_invertible():
    spec = GroupSpec((2,))
    ops = MonomialOps(spec)
    one_plus_g = AlgebraElement.from_terms(spec, [((0,), 1), ((1,), 1)])
    diagonal = ops.tensor(as_single_leg(one_plus_g))  # characters give 2 and 0
    assert diagonal.weights == (2, 0)
    assert not ops.invertible(diagonal)
    assert not EXACT.invertible(regular_representation(spec).on_element(one_plus_g))
    assert ops.invertible(ops.tensor(as_single_leg(AlgebraElement.unit(spec))))
    zero = ops.tensor(TensorElement.zero(spec, 2))
    assert not ops.invertible(zero)
    # a zero row equals a zero row wherever its column is
    assert MonomialMatrix((1, 0), zero.weights[:2]) == MonomialMatrix((0, 1), zero.weights[:2])


def _diagonalises_the_shift(f: Matrix) -> bool:
    n = f.rows
    diag = Matrix(n, n, [root_of_unity(n, -c) if j == c else 0
                         for j in range(n) for c in range(n)])
    return linalg.cyclic_shift(n) @ f == f @ diag


def test_character_basis_proof_obligation():
    for n in range(1, 9):
        assert check_character_basis(n, character_basis(n))
    f = character_basis(4)
    conjugated = Matrix(4, 4, [e.conjugate() for e in f.entries])  # diagonalises rho(g)^-1
    swapped = Matrix(4, 4, [f[j, (1, 0, 2, 3)[c]] for j in range(4) for c in range(4)])
    scaled = Matrix(4, 4, [e * (2 if i % 4 == 3 else 1) for i, e in enumerate(f.entries)])
    # unitary and diagonalises rho(g), but its columns are not the characters
    twisted = f @ Matrix(4, 4, [root_of_unity(4, c * c) if j == c else 0
                                for j in range(4) for c in range(4)])
    assert twisted @ twisted.conjugate_transpose() == Matrix.identity(4) * 4
    for wrong in (conjugated, swapped):
        assert not check_character_basis(4, wrong)
    # these still diagonalise rho(g) as claimed
    for wrong in (scaled, twisted):
        assert _diagonalises_the_shift(wrong) and not check_character_basis(4, wrong)


@cache
def _checked(n: int) -> MonomialOps:
    return MonomialOps(GroupSpec((n,)))


def _transform(shape, signs, entries, scale: int = 1) -> list[CyclotomicNumber]:
    """linalg._transform of a sparse array, one cyclic factor per axis, on the
    checked bases of MonomialOps: its character table conj(F)^T for sign -1
    and F^T for sign +1, so out[c] is the sum of in[a] zeta^(sign a c)."""
    bases = [_checked(n)._table if sign < 0 else _checked(n)._columns
             for n, sign in zip(shape, signs)]
    x = IntegerMatrix._lift(1, prod(shape), np.array([i for i, _ in entries], dtype=np.intp),
                            [v for _, v in entries])
    return linalg._transform(x, bases, scale).to_matrix().entries


def test_large_coefficients_leave_int64():
    # 2^62 fits int64 but the sum 2^63 would wrap; 2^70 does not fit at all
    half = rational(2 ** 62)
    assert _transform((2,), (-1,), [(0, half), (1, half)]) == [2 * half, 0]
    big = rational(2 ** 70)
    assert _transform((2,), (-1,), [(0, big), (1, rational(3))]) == [big + 3, big - 3]
    assert _transform((2, 2), (1, -1), [(3, big)], scale=4) == \
        [big / 4, -big / 4, -big / 4, big / 4]


def test_a_failed_obligation_stops_the_backend(monkeypatch):
    monkeypatch.setattr(linalg, "character_basis",
                        lambda n: Matrix(n, n, [root_of_unity(n, -j * c) for j in range(n)
                                                for c in range(n)]))
    with pytest.raises(ArithmeticError):
        MonomialOps(GroupSpec((2, 3)))
    MonomialOps(GroupSpec((2,)))  # zeta_2 is its own conjugate
    monkeypatch.setattr(linalg, "character_basis",
                        lambda n: Matrix(n, n, [root_of_unity(n, j * c + c * c)
                                                for j in range(n) for c in range(n)]))
    with pytest.raises(ArithmeticError):  # F diag(zeta_n^(c^2)) transforms wrongly
        MonomialOps(GroupSpec((2, 3)))
    monkeypatch.undo()
    # a regular representation whose generator shifts the wrong way
    on_basis = linalg.RegularRepresentation.on_basis
    monkeypatch.setattr(linalg.RegularRepresentation, "on_basis",
                        lambda self, exps: on_basis(self, tuple(-e for e in exps)))
    with pytest.raises(ArithmeticError):
        MonomialOps(GroupSpec((3,)))


# -- R' lifted from its source ------------------------------------------------


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("spec", specs_up_to(8), ids=lambda s: ",".join(map(str, s.orders)))
def test_source_lift_equals_the_lift_of_the_dense_r_prime(spec, form, braiding_builds):
    r = form(spec)
    reg = regular_representation(spec)
    dense = braiding_map(reg, reg, r)  # this module's own name: not counted
    gate = braided_r(spec, r)
    ops = MonomialOps(spec)
    lifted, certified = ops.braided(gate), ops.matrix(dense)
    assert lifted.perm == certified.perm and lifted.weights == certified.weights
    floated = floatback.NumpyOps().braided(gate)
    assert np.max(np.abs(floated - floatback.matrix_complex(dense))) <= 1e-12
    assert not braiding_builds  # neither lift built the dense R'
    assert gate.matrix == dense and len(braiding_builds) == 1


@pytest.mark.parametrize("spec", specs_up_to(8), ids=lambda s: ",".join(map(str, s.orders)))
def test_source_lifts_of_an_element_not_symmetric_in_its_legs(spec):
    # R and its fused form are symmetric in their legs, so they cannot tell
    # the flip's two legs apart
    basis = list(spec.basis())
    r = TensorElement.from_terms(spec, 2, [((a, b), 1 + i + 3 * j * j) for i, a in enumerate(basis)
                                           for j, b in enumerate(basis)])
    reg = regular_representation(spec)
    dense = braiding_map(reg, reg, r)
    gate = BraidedRMatrix(spec.dimension, source=r)
    f = _character_basis(spec, 2)
    assert dense @ f == f @ MonomialOps(spec).braided(gate).to_matrix()
    floated = floatback.NumpyOps().braided(gate)
    assert np.max(np.abs(floated - floatback.matrix_complex(dense))) <= 1e-12


def test_matrices_without_a_source_are_certified():
    spec = GroupSpec((2, 2))
    ops = MonomialOps(spec)
    dense = braided_r(spec).matrix
    assert ops.braided(BraidedRMatrix(4, dense)) is ops.matrix(dense)
    # a source over another spec of the same dimension is certified in this
    # spec's character basis
    other = braided_r(GroupSpec((4,)))
    assert ops.braided(other) is ops.matrix(other.matrix)


def test_identity_of_side_zero_is_refused(in_subprocess):
    # side //= d kept a side 0 at 0, so identity(0) never returned
    done = in_subprocess("from hopfbraid.groupalg import GroupSpec\n"
                         "from hopfbraid.linalg import MonomialOps, NotMonomialError\n"
                         "try:\n"
                         "    MonomialOps(GroupSpec((2,))).identity(0)\n"
                         "except NotMonomialError as exc:\n"
                         "    print(exc)\n", timeout=10)
    assert (done.returncode, done.stdout) == (0, "side 0 is not a power of the local dimension 2\n")


def test_non_monomial_matrices_are_refused():
    spec = GroupSpec((2,))
    ops = MonomialOps(spec)
    with pytest.raises(NotMonomialError):  # side 3 is no power of 2
        ops.matrix(Matrix.identity(3))
    with pytest.raises(NotMonomialError):
        ops.identity(6)
    shear = Matrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(NotMonomialError):  # F^-1 shear F has a row with two entries
        ops.matrix(shear)
    for rows in ([[1, 1], [0, 1]], [[1, 0], [0, 0]], [[1, 0], [1, 0]]):
        with pytest.raises(NotMonomialError):
            MonomialMatrix.from_matrix(Matrix.from_rows(rows))


def test_conversions_are_cached_per_instance():
    spec = GroupSpec((3,))
    ops = MonomialOps(spec)
    reg = ModuleAction.regular(spec)
    r = universal_r(spec)
    assert ops.matrix(braided_r(spec, r).matrix) is ops.matrix(braiding_map(reg, reg, r))


def test_an_element_over_another_spec_is_refused():
    ops, spec = MonomialOps(GroupSpec((2,))), GroupSpec((4,))
    g, r = TensorElement.from_terms(spec, 1, [(((1,),), 1)]), universal_r(spec)
    for lift in (lambda: ops.tensor(g), lambda: ops.coproduct_on_leg(g, 0),
                 lambda: ops.embed(r, 3, (0, 2))):
        with pytest.raises(ValueError, match="group spec mismatch"):
            lift()


# -- random inputs -----------------------------------------------------------


ORDERS = (1, 2, 3, 4, 5, 8, 12)
# numerator scales: weight products in float64, in int64 past 2^53, and in
# Python integers past 2^63
SCALES = (1, 2 ** 14, 2 ** 40)


@st.composite
def scalars(draw, scale=1, orders=ORDERS):
    """A value of one of the orders whose coefficients have their own
    denominators, some of them zero (and some values zero)."""
    order = draw(st.sampled_from(orders))
    coeffs = [Fraction(draw(st.integers(-4, 4)) * scale, draw(st.integers(1, 6)))
              * draw(st.sampled_from((0, 1, 1)))
              for _ in range(len(cyclotomic_polynomial(order)) - 1)]
    return CyclotomicNumber(order, tuple(coeffs))


@st.composite
def monomials(draw, size=None, scale=None, zeros=True, orders=ORDERS):
    """A monomial matrix whose weights mix orders and denominators within
    one matrix; with zeros, some weights may be zero."""
    n = size if size is not None else draw(st.integers(1, 4))
    scale = draw(st.sampled_from(SCALES)) if scale is None else scale
    perm = tuple(draw(st.permutations(range(n))))
    weight = scalars(scale, orders)
    if not zeros:
        weight = weight.filter(lambda w: not w.is_zero)
    return MonomialMatrix(perm, tuple(draw(weight) for _ in range(n)))


@settings(max_examples=30)
@given(st.data())
def test_character_transform_is_the_defining_sum(data):
    shape = data.draw(st.sampled_from(((1,), (2,), (3,), (2, 3), (4, 2), (3, 1, 2))))
    signs = tuple(data.draw(st.sampled_from((-1, 1))) for _ in shape)
    scale = data.draw(st.integers(1, 6))
    indices = list(itertools.product(*map(range, shape)))
    chosen = data.draw(st.lists(st.integers(0, len(indices) - 1), max_size=5, unique=True))
    entries = [(i, data.draw(scalars(scale=data.draw(st.sampled_from(SCALES))))) for i in chosen]
    expected = []
    for c in indices:
        total = rational(0)
        for i, value in entries:
            for n, sign, a_x, c_x in zip(shape, signs, indices[i], c):
                value = value * root_of_unity(n, sign * a_x * c_x)
            total = total + value
        expected.append(total / scale)
    assert _transform(shape, signs, entries, scale) == expected


@st.composite
def two_leg_elements(draw):
    spec = GroupSpec(draw(st.sampled_from(((2,), (3,), (1,)))))
    basis = list(spec.basis())
    # few orders: the dense oracle multiplies d^3-sided matrices of them
    terms = {(a, b): draw(scalars(orders=(3, 4))) for a in basis for b in basis}
    return spec, TensorElement(spec, 2, {k: c for k, c in terms.items() if not c.is_zero})


@settings(max_examples=10)
@given(two_leg_elements())
def test_random_elements_agree_with_the_oracle(case):
    # flip . diagonal solves the braid relation for every diagonal, so
    # these verdicts pass whenever the braiding is invertible
    spec, r = case
    reg = ModuleAction.regular(spec)
    c = braiding_map(reg, reg, r)
    try:
        MonomialOps(spec).matrix(c)
    except NotMonomialError:
        # a braiding of regular modules is flip times a diagonal matrix in
        # the character basis, so only a zero eigenvalue stops it
        assert not EXACT.invertible(c)
        return
    assert _verdicts(spec, r, (3,), MonomialOps(spec)) == \
        _verdicts(spec, r, (3,), EXACT)


@st.composite
def tensor_pairs(draw):
    """Two elements with the same spec and legs; the second is the first
    with at most one coefficient redrawn, so about half the pairs are equal."""
    spec = GroupSpec(draw(st.sampled_from(((1,), (2,), (3,), (2, 2)))))
    legs = draw(st.integers(1, 2))
    keys = [tuple(k) for k in itertools.product(list(spec.basis()), repeat=legs)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=6, unique=True))
    terms = {k: draw(scalars()) for k in chosen}
    a = TensorElement.from_terms(spec, legs, terms.items())
    if chosen and draw(st.booleans()):
        terms[draw(st.sampled_from(chosen))] = draw(scalars())
    return a, TensorElement.from_terms(spec, legs, terms.items())


@given(tensor_pairs())
def test_transform_is_an_injective_homomorphism(pair):
    a, b = pair
    ops = MonomialOps(a.spec)
    ta, tb = ops.tensor(a), ops.tensor(b)
    assert ops.tensor(a * b) == ops.mul(ta, tb)
    assert ops.tensor(a + b) == ta + tb
    assert ops.equal(ta, tb) == (a == b)


@st.composite
def character_monomials(draw):
    """A spec and a d^2-sided monomial matrix in its character basis; half
    of them are the flip times a diagonal, which solves the braid relation."""
    spec = GroupSpec(draw(st.sampled_from(((2,), (3,)))))
    d = spec.dimension
    p = draw(monomials(d * d, scale=1, zeros=False, orders=(3, 4)))
    if draw(st.booleans()):
        p = MonomialMatrix(tuple((i % d) * d + i // d for i in range(d * d)), p.weights)
    return spec, p


@settings(max_examples=20)
@given(character_monomials())
def test_random_character_monomials_agree_with_the_oracle(case):
    spec, p = case
    f = _character_basis(spec, 2)
    gate = BraidedRMatrix(spec.dimension, f @ p.to_matrix() @ invert_matrix(f))
    reg = ModuleAction.regular(spec)
    mono = MonomialOps(spec)
    assert check_braid_relations(3, gate, mono) == check_braid_relations(3, gate, EXACT)
    assert check_module_morphism(gate.matrix, reg, reg, mono) == \
        check_module_morphism(gate.matrix, reg, reg, EXACT)


# -- the monomial type against dense matrices --------------------------------


@st.composite
def monomial_pairs(draw):
    n = draw(st.integers(1, 4))
    a, b = draw(monomials(n)), draw(monomials(n))
    if draw(st.booleans()):  # one pattern, so that the pair can be added
        b = MonomialMatrix(a.perm, b.weights)
    return a, b


OPS = MonomialOps(GroupSpec((1,)))


@given(monomials())
def test_dense_round_trip(a):
    dense = a.to_matrix()
    assert MonomialMatrix(a.perm, a.weights) == a
    assert MonomialMatrix(a.perm, a.weights).to_matrix() == dense
    if all(not w.is_zero for w in a.weights):
        assert MonomialMatrix.from_matrix(dense) == a
    else:  # a zero row holds no entry
        with pytest.raises(NotMonomialError):
            MonomialMatrix.from_matrix(dense)
    assert OPS.invertible(a) == EXACT.invertible(dense)


@given(monomials(), monomials())
def test_kron_matches_dense(a, b):
    assert OPS.kron(a, b).to_matrix() == kron(a.to_matrix(), b.to_matrix())


@given(monomial_pairs())
def test_product_and_equality_match_dense(pair):
    a, b = pair
    assert (a @ b).to_matrix() == a.to_matrix() @ b.to_matrix()
    assert OPS.equal(a, b) == (a.to_matrix() == b.to_matrix())
    assert OPS.equal(a, a) and OPS.equal(a @ b, a @ b)
    if a.perm == b.perm:
        assert (a + b).to_matrix() == a.to_matrix() + b.to_matrix()
    else:
        with pytest.raises(NotMonomialError):
            a + b
    # equal numerators over another denominator are another matrix
    halved = MonomialMatrix(a.perm, tuple(w / 2 for w in a.weights))
    assert OPS.equal(a, halved) == all(w.is_zero for w in a.weights)


def test_diagonal_products_make_no_scalar_products(monkeypatch):
    spec = GroupSpec((12,))
    ops = MonomialOps(spec)
    r12, r13, r23 = (ops.tensor(leg_embedding(universal_r(spec), 3, pos))
                     for pos in ((0, 1), (0, 2), (1, 2)))
    two = ops.tensor(2 * TensorElement.unit(spec, 3))
    calls = []
    mul = CyclotomicNumber.__mul__
    monkeypatch.setattr(CyclotomicNumber, "__mul__",
                        lambda self, other: calls.append(1) or mul(self, other))
    left = ops.mul(ops.mul(r12, r13), r23)
    assert ops.equal(left, ops.mul(ops.mul(r23, r13), r12))
    assert ops.equal(ops.kron(r12, ops.identity(12)), ops.kron(r12, ops.identity(12)))
    assert ops.equal(left + left, ops.mul(left, two))
    assert calls == []


def test_identity_is_the_dense_identity():
    ops = MonomialOps(GroupSpec((2,)))
    assert ops.identity(8).to_matrix() == Matrix.identity(8)
    assert ops.identity(8).weights[0] == rational(1)
