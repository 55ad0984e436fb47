import numpy as np
import pytest

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
from hopfbraid.linalg import EXACT, Matrix, MonomialOps, character_basis, flip_operator
from hopfbraid.quantum import check_bell_actions

FLOAT = floatback.NumpyOps()


def test_matrix_complex_conversion():
    m = floatback.matrix_complex(flip_operator(2))
    assert m.shape == (4, 4)
    assert m[1, 2] == 1.0 + 0j


def _algebra_verdicts(spec, r, ops):
    return (check_hopf_axioms(spec, ops), check_quasi_cocommutative(spec, r, ops),
            check_quasitriangular(spec, r, ops), check_algebraic_ybe(spec, r, ops))


def _matrix_verdicts(spec, r, ops):
    gate = braided_r(spec, r)
    reg = ModuleAction.regular(spec)
    verdicts = (check_braid_relations(3, gate, ops),
                check_module_morphism(braiding_map(reg, reg, r), reg, reg, ops),
                check_hexagon(reg, reg, reg, r, ops))
    if spec.dimension == 2:
        verdicts += (check_bell_actions(gate, ops),)
    return verdicts


@pytest.mark.parametrize("make_r", [universal_r, universal_r_fused_phase],
                         ids=["universal_r", "universal_r_fused_phase"])
def test_float_backend_agrees_with_exact_on_small_specs(make_r):
    for spec in specs_up_to(6):
        r = make_r(spec)
        assert _algebra_verdicts(spec, r, FLOAT) == _algebra_verdicts(spec, r, EXACT)
        if spec.dimension <= 4:
            assert _matrix_verdicts(spec, r, FLOAT) == _matrix_verdicts(spec, r, EXACT)
    # the fused-form braiding for orders 2,3 has |det| about 2e-17 but smallest
    # singular value 1/6: invertible, which a determinant test within tol misses
    spec = GroupSpec((2, 3))
    r = make_r(spec)
    assert _matrix_verdicts(spec, r, FLOAT) == _matrix_verdicts(spec, r, MonomialOps(spec))


def test_float_backend_flags_fused_form_failure():
    spec = GroupSpec((2, 2))
    r = universal_r_fused_phase(spec)
    assert check_algebraic_ybe(spec, r, FLOAT)
    assert not check_quasitriangular(spec, r, FLOAT)


def test_braided_checks_float():
    gate = braided_r(GroupSpec((2,)))
    mat = floatback.matrix_complex(gate.matrix)
    assert check_braid_relations(3, gate, FLOAT)
    assert check_braid_relations(4, gate, FLOAT)
    assert check_bell_actions(gate, FLOAT)
    assert FLOAT.equal(mat @ mat.conj().T, FLOAT.identity(4))


def test_braided_checks_float_negative():
    bad = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    badf = floatback.matrix_complex(bad)
    assert not check_braid_relations(3, BraidedRMatrix(2, bad), FLOAT)
    assert not FLOAT.equal(badf @ badf.conj().T, FLOAT.identity(4))
    assert not check_bell_actions(Matrix.identity(4), FLOAT)


def test_hexagon_and_morphism_float():
    spec = GroupSpec((2,))
    reg = ModuleAction.regular(spec)
    r = universal_r(spec)
    cmap = braiding_map(reg, reg, r)
    assert check_hexagon(reg, reg, reg, r, FLOAT)
    assert check_module_morphism(cmap, reg, reg, FLOAT)
    assert not check_module_morphism(Matrix.zeros(4, 4), reg, reg, FLOAT)


def _kron_sum(spec, t):
    """The definition: sum over terms of c * kron of per-leg regular images."""
    from hopfbraid.linalg import regular_representation

    rep = regular_representation(spec)
    size = spec.dimension ** t.legs
    out = np.zeros((size, size), dtype=complex)
    for key, c in t.terms.items():
        m = np.ones((1, 1))
        for exps in key:
            m = np.kron(m, floatback.matrix_complex(rep.on_basis(exps)))
        out += c.to_complex() * m
    return out


def _character_conjugate(spec, t):
    """F^-k rho(t) F^k in numpy, F the Kronecker product of the factors'
    character bases, in spec basis order."""
    f = np.ones((1, 1))
    for n in spec.orders:
        f = np.kron(f, floatback.matrix_complex(character_basis(n)))
    fk = np.ones((1, 1))
    for _ in range(t.legs):
        fk = np.kron(fk, f)
    return np.linalg.solve(fk, _kron_sum(spec, t) @ fk)


@pytest.mark.parametrize("form", [universal_r, universal_r_fused_phase],
                         ids=lambda f: f.__name__)
def test_tensor_complex_is_the_character_diagonal_of_the_kron_sum(form):
    for spec in specs_up_to(6):
        r = form(spec)
        elements = [counit_on_leg(r, 1), r, TensorElement(spec, 2, {})]
        if spec.dimension <= 4:
            elements += [coproduct_on_leg(r, 0), leg_embedding(r, 3, (0, 2))]
        for t in elements:
            lifted = floatback.tensor_complex(spec, t)
            assert lifted.shape == (spec.dimension ** t.legs,)
            image = _character_conjugate(spec, t)
            assert np.allclose(image, np.diag(lifted), rtol=0, atol=1e-12), (spec, t.legs)


@pytest.mark.parametrize("form", [universal_r, universal_r_fused_phase],
                         ids=lambda f: f.__name__)
def test_tensor_complex_matches_the_exact_character_diagonal(form):
    # numpy's FFT against the exact transform of MonomialOps, up to d = 8
    for spec in specs_up_to(8):
        r = form(spec)
        mono = MonomialOps(spec)
        for t in (counit_on_leg(r, 1), r, leg_embedding(r, 3, (0, 2))):
            exact = [w.to_complex() for w in mono.tensor(t).weights]
            assert np.max(np.abs(floatback.tensor_complex(spec, t) - exact)) < 1e-12, \
                (spec, t.legs)


def test_no_float_lift_has_more_than_two_legs(monkeypatch):
    # coassociativity compares the protocol's gathers of D(x), and R_ij and
    # the coproducts of r are gathers too: no three-leg FFT is taken
    legs = []
    lift = floatback.tensor_complex

    def spy(spec, t):
        legs.append(t.legs)
        return lift(spec, t)

    monkeypatch.setattr(floatback, "tensor_complex", spy)
    for spec in (GroupSpec((6,)), GroupSpec((2, 3))):
        ops, r = floatback.NumpyOps(), universal_r(spec)
        assert check_hopf_axioms(spec, ops)
        assert check_quasitriangular(spec, r, ops) and check_algebraic_ybe(spec, r, ops)
    assert legs and max(legs) == 2


def test_lifts_are_kept_per_spec_and_read_only():
    # g over Z/2 and over Z/4 have equal term dicts, so the key holds the spec
    ops = floatback.NumpyOps()
    for n in (2, 4, 2):
        spec = GroupSpec((n,))
        g = TensorElement.from_terms(spec, 1, [(((1,),), 1)])
        lifted = ops.tensor(g)
        assert lifted.shape == (n,) and np.array_equal(lifted, floatback.tensor_complex(spec, g))
        assert ops.tensor(g) is lifted and not lifted.flags.writeable


def test_invertible_refuses_a_non_square_matrix():
    wide = np.array([[1, 0, 0], [0, 1, 0]], dtype=complex)
    assert not FLOAT.invertible(wide) and not FLOAT.invertible(wide.T)
    assert not EXACT.invertible(Matrix.from_rows(wide.real.astype(int).tolist()))
    # a square matrix and a lifted diagonal keep their rules
    assert FLOAT.invertible(np.eye(3, dtype=complex))
    assert FLOAT.invertible(np.ones(3, dtype=complex))
    assert not FLOAT.invertible(np.array([1, 0, 1], dtype=complex))
