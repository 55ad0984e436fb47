"""The monomial backend (linalg.MonomialOps) against the dense exact oracle.

Every braided matrix built from a two-leg element of a cyclic group algebra
is monomial in the character basis, so the braid relations, module
morphism and hexagon can be decided on monomial matrices.  These tests
compare those verdicts with linalg.EXACT wherever the dense check is cheap
(d^N <= 64), with the float backend where it is not, and on random
two-leg elements whose identities mostly fail.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfbraid import floatback
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
    GroupSpec,
    TensorElement,
    specs_up_to,
    universal_r,
    universal_r_fused_phase,
)
from hopfbraid.linalg import (
    EXACT,
    Matrix,
    MonomialMatrix,
    MonomialOps,
    NotMonomialError,
    invert_matrix,
    kron,
)
from hopfbraid.scalar import rational, root_of_unity

FORMS = (universal_r, universal_r_fused_phase)
DENSE_BUDGET = 64  # largest d^N the dense oracle runs at


def _verdicts(spec, r, strands, ops):
    reg = ModuleAction.regular(spec)
    gate = BraidedRMatrix(spec.dimension, braiding_map(reg, reg, r))
    out = [check_braid_relations(n, gate, ops) for n in strands]
    out.append(check_module_morphism(gate.matrix, reg, reg, ops))
    if 3 in strands:
        out.append(check_hexagon(reg, reg, reg, r, ops))
    return out


def _oracle(side: int):
    # the float backend stands in where the dense exact check is too slow
    return EXACT if side <= DENSE_BUDGET else floatback.NumpyOps()


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


def _character_basis(spec: GroupSpec, power: int) -> Matrix:
    f = Matrix.identity(1)
    for _ in range(power):
        for n in spec.orders:
            f = kron(f, Matrix(n, n, [root_of_unity(n, j * c) for j in range(n)
                                      for c in range(n)]))
    return f


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("spec", [s for s in specs_up_to(6) if s.dimension <= 4],
                         ids=lambda s: ",".join(map(str, s.orders)))
def test_certificate_is_the_conjugate_in_the_character_basis(spec, form):
    m = braided_r(spec, form(spec)).matrix
    p = MonomialOps(spec).matrix(m)
    f = _character_basis(spec, 2)
    assert m @ f == f @ p.to_matrix()
    assert MonomialMatrix.from_matrix(p.to_matrix()) == p


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


# -- random inputs -----------------------------------------------------------


@st.composite
def scalars(draw):
    order = draw(st.sampled_from((3, 4)))
    return draw(st.integers(-2, 2)) * root_of_unity(order, draw(st.integers(0, order - 1)))


@st.composite
def monomials(draw, size=None):
    n = size if size is not None else draw(st.integers(1, 4))
    perm = tuple(draw(st.permutations(range(n))))
    weights = tuple(draw(scalars().filter(lambda w: not w.is_zero)) for _ in range(n))
    return MonomialMatrix(perm, weights)


@st.composite
def two_leg_elements(draw):
    spec = GroupSpec(draw(st.sampled_from(((2,), (3,), (1,)))))
    basis = list(spec.basis())
    terms = {(a, b): draw(scalars()) for a in basis for b in basis}
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
def character_monomials(draw):
    """A spec and a d^2-sided monomial matrix in its character basis; half
    of them are the flip times a diagonal, which solves the braid relation."""
    spec = GroupSpec(draw(st.sampled_from(((2,), (3,)))))
    d = spec.dimension
    p = draw(monomials(d * d))
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
    return draw(monomials(n)), draw(monomials(n))


OPS = MonomialOps(GroupSpec((1,)))


@given(monomials())
def test_dense_round_trip(a):
    dense = a.to_matrix()
    assert MonomialMatrix.from_matrix(dense) == a
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


def test_identity_is_the_dense_identity():
    ops = MonomialOps(GroupSpec((2,)))
    assert ops.identity(8).to_matrix() == Matrix.identity(8)
    assert ops.identity(8).weights[0] == rational(1)
