import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfbraid.groupalg import (
    AlgebraElement,
    GroupSpec,
    TensorElement,
    antipode,
    as_single_leg,
    check_algebraic_ybe,
    check_hopf_axioms,
    check_quasi_cocommutative,
    check_quasitriangular,
    coproduct,
    counit,
    leg_embedding,
    opposite_coproduct,
    specs_up_to,
    tensor_from_json,
    tensor_to_json,
    universal_r,
    universal_r_fused_phase,
    universal_r_inverse,
)
from hopfbraid.scalar import rational, root_of_unity

S2 = GroupSpec((2,))
S3 = GroupSpec((3,))
S22 = GroupSpec((2, 2))
S23 = GroupSpec((2, 3))


def random_element(rng, spec, span=4):
    pairs = []
    for exps in spec.basis():
        if rng.random() < 0.6:
            pairs.append((exps, Fraction(rng.randint(-span, span), rng.randint(1, span))))
    return AlgebraElement.from_terms(spec, pairs)


def test_multiply_involution_generator():
    x = AlgebraElement.basis(S2, (1,))
    assert x * x == AlgebraElement.unit(S2)


def test_multiply_unit_law():
    rng = random.Random(1)
    a = random_element(rng, S23)
    assert AlgebraElement.unit(S23) * a == a
    assert a * AlgebraElement.unit(S23) == a


def test_multiply_exponents_mod_order():
    g1 = AlgebraElement.basis(S3, (1,))
    g2 = AlgebraElement.basis(S3, (2,))
    assert g1 * g2 == AlgebraElement.unit(S3)


def test_multiply_spec_mismatch_raises():
    with pytest.raises(ValueError):
        AlgebraElement.unit(S2) * AlgebraElement.unit(S3)


def test_coproduct_examples():
    e = AlgebraElement.unit(S2)
    x = AlgebraElement.basis(S2, (1,))
    assert coproduct(e) == TensorElement.unit(S2, 2)
    assert coproduct(x) == TensorElement.from_terms(S2, 2, [(((1,), (1,)), 1)])
    assert coproduct(e + x) == TensorElement.from_terms(
        S2, 2, [(((0,), (0,)), 1), (((1,), (1,)), 1)]
    )


def test_counit_examples():
    x = AlgebraElement.basis(S2, (1,))
    e = AlgebraElement.unit(S2)
    assert counit(x) == 1
    assert counit(AlgebraElement.zero(S2)) == 0
    assert counit(e - x) == 0


def test_antipode_examples():
    assert antipode(AlgebraElement.basis(S2, (1,))) == AlgebraElement.basis(S2, (1,))
    assert antipode(AlgebraElement.basis(S3, (1,))) == AlgebraElement.basis(S3, (2,))
    assert antipode(AlgebraElement.unit(S3)) == AlgebraElement.unit(S3)


def test_opposite_coproduct_equals_coproduct():
    # the cyclic group algebra is cocommutative; structural equality must hold
    rng = random.Random(2)
    for spec in (S2, S3, S22, S23):
        assert opposite_coproduct(AlgebraElement.zero(spec)) == TensorElement.zero(spec, 2)
        for _ in range(10):
            a = random_element(rng, spec)
            assert opposite_coproduct(a) == coproduct(a)


def test_universal_r_two_element_group():
    h = Fraction(1, 2)
    expected = TensorElement.from_terms(
        S2, 2,
        [(((0,), (0,)), h), (((1,), (0,)), h), (((0,), (1,)), h), (((1,), (1,)), -h)],
    )
    assert universal_r(S2) == expected


def test_universal_r_trivial_group():
    s1 = GroupSpec((1,))
    assert universal_r(s1) == TensorElement.unit(s1, 2)


def test_universal_r_two_two_sign_pattern():
    # independent oracle: coefficient is (-1)^(a1 b1 + a2 b2) / 4
    r = universal_r(S22)
    q = Fraction(1, 4)
    for a in S22.basis():
        for b in S22.basis():
            sign = (-1) ** (a[0] * b[0] + a[1] * b[1])
            assert r.terms[(a, b)] == sign * q


@pytest.mark.parametrize("orders", [(2, 2), (2, 3), (3, 3)])
def test_universal_r_interleaves_single_factor_elements(orders):
    # oracle: build the element by interleaving the single-factor ones
    spec = GroupSpec(orders)
    singles = [universal_r(GroupSpec((n,))) for n in orders]
    pairs = []
    keys = [list(s.terms.items()) for s in singles]

    def rec(i, a_acc, b_acc, coeff):
        if i == len(orders):
            pairs.append(((tuple(a_acc), tuple(b_acc)), coeff))
            return
        for ((a,), (b,)), c in keys[i]:
            rec(i + 1, a_acc + [a], b_acc + [b], coeff * c)

    rec(0, [], [], rational(1))
    assert universal_r(spec) == TensorElement.from_terms(spec, 2, pairs)


def test_universal_r_identity_coefficient():
    for spec in (S2, S3, S22, S23, GroupSpec((4,))):
        r = universal_r(spec)
        key = (spec.identity, spec.identity)
        assert r.terms[key] == Fraction(1, spec.dimension)


def test_universal_r_inverse_small_specs():
    for spec in specs_up_to(12):
        assert universal_r(spec) * universal_r_inverse(spec) == TensorElement.unit(spec, 2)


def test_fused_phase_single_factor_matches():
    assert universal_r_fused_phase(S2) == universal_r(S2)
    s5 = GroupSpec((5,))
    assert universal_r_fused_phase(s5) == universal_r(s5)


def test_fused_phase_two_two_coefficient():
    # direct evaluation of the fused exponent: zeta_4^(-1) / 4 = -i/4
    r = universal_r_fused_phase(S22)
    assert r.terms[((1, 1), (1, 1))] == root_of_unity(4, 3) * Fraction(1, 4)
    assert r != universal_r(S22)


def test_fused_phase_two_two_check_results():
    # the commutative algebra makes the triple-product identity hold for any
    # element, while the coproduct identities genuinely fail for the fused form
    r = universal_r_fused_phase(S22)
    assert check_algebraic_ybe(S22, r) is True
    assert check_quasitriangular(S22, r) is False
    assert check_quasi_cocommutative(S22, r) is True


def test_check_quasi_cocommutative():
    assert check_quasi_cocommutative(S2, universal_r(S2))
    assert check_quasi_cocommutative(S3, universal_r(S3))
    # any element passes over a commutative algebra; the checker still runs
    lone = TensorElement.from_terms(S2, 2, [(((1,), (0,)), 1)])
    assert check_quasi_cocommutative(S2, lone)


def test_check_quasitriangular():
    assert check_quasitriangular(S2, universal_r(S2))
    assert check_quasitriangular(S23, universal_r(S23))
    bad = TensorElement.from_terms(S2, 2, [(((0,), (1,)), 1)])
    assert not check_quasitriangular(S2, bad)


def test_check_algebraic_ybe():
    assert check_algebraic_ybe(S2, universal_r(S2))
    s5 = GroupSpec((5,))
    assert check_algebraic_ybe(s5, universal_r(s5))
    s1 = GroupSpec((1,))
    assert check_algebraic_ybe(s1, TensorElement.unit(s1, 2))


def test_check_hopf_axioms_small():
    assert check_hopf_axioms(S2)
    assert check_hopf_axioms(S3)
    assert check_hopf_axioms(S22)


def test_axiom_suite_dimension_up_to_twelve():
    for spec in specs_up_to(12):
        r = universal_r(spec)
        assert check_quasi_cocommutative(spec, r), spec
        assert check_quasitriangular(spec, r), spec
        assert check_algebraic_ybe(spec, r), spec


def test_specs_up_to_enumeration():
    specs = {s.orders for s in specs_up_to(6)}
    assert specs == {(1,), (2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3)}
    assert all(s.dimension <= 12 for s in specs_up_to(12))


def test_degenerate_order_one_factor():
    spec = GroupSpec((1, 2))
    r = universal_r(spec)
    assert check_quasitriangular(spec, r)
    assert spec.dimension == 2


def test_leg_embedding_shapes():
    r = universal_r(S2)
    r13 = leg_embedding(r, 3, (0, 2))
    assert r13.legs == 3
    ident = S2.identity
    assert r13.terms[((0,), ident, (0,))] == Fraction(1, 2)
    with pytest.raises(ValueError):
        leg_embedding(r, 3, (2, 0))


def test_tensor_json_round_trip():
    for t in (universal_r(S23), universal_r_fused_phase(S22)):
        data = tensor_to_json(t)
        assert set(data) == {"orders", "legs", "terms"}
        assert tensor_from_json(data) == t


_ONE_JSON = {"order": 1, "coeffs": [[1, 1]]}


@pytest.mark.parametrize("data", [
    {"orders": [2], "legs": 1},
    {"orders": 2, "legs": 1, "terms": []},
    {"orders": [2], "legs": "x", "terms": []},
    {"orders": [2], "legs": 1, "terms": [{"coeff": _ONE_JSON}]},
    {"orders": [2], "legs": 1, "terms": [{"exps": [[1]]}]},
    {"orders": [2], "legs": 1, "terms": [{"exps": [["a"]], "coeff": _ONE_JSON}]},
    {"orders": [2], "legs": 1, "terms": [{"exps": [[1]], "coeff": {"order": 1}}]},
    {"orders": [2], "legs": 2, "terms": [{"exps": [[1]], "coeff": _ONE_JSON}]},
    {"orders": [2], "legs": 1, "terms": [[1]]},
    [2, 1],
])
def test_tensor_from_json_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        tensor_from_json(data)


@pytest.mark.parametrize("field", [
    {"orders": [2.0]}, {"orders": ["2"]}, {"legs": 1.0}, {"legs": True},
    # an exponent of 1.7 used to be read as 1, a different tensor element
    {"terms": [{"exps": [[1.7]], "coeff": _ONE_JSON}]},
    {"terms": [{"exps": [["1"]], "coeff": _ONE_JSON}]},
])
def test_tensor_from_json_accepts_only_integer_fields(field):
    data = {"orders": [2], "legs": 1, "terms": [{"exps": [[1]], "coeff": _ONE_JSON}]}
    assert len(tensor_from_json(data).terms) == 1
    with pytest.raises(ValueError, match="integer 'orders' and 'legs'"):
        tensor_from_json({**data, **field})


def coefficients():
    return st.builds(lambda k, n, p: k * root_of_unity(n, p),
                     st.integers(-2, 2), st.sampled_from((1, 2, 3, 4)), st.integers(0, 11))


@st.composite
def algebra_elements(draw, spec):
    exps = draw(st.lists(st.sampled_from(list(spec.basis())), max_size=5))
    coeffs = draw(st.lists(coefficients(), min_size=len(exps), max_size=len(exps)))
    return AlgebraElement.from_terms(spec, zip(exps, coeffs))


@given(st.data())
def test_as_single_leg_commutes_with_the_algebra_operations(data):
    spec = data.draw(st.sampled_from(specs_up_to(12)), label="spec")
    x = data.draw(algebra_elements(spec), label="x")
    # an equal copy of x or a fresh element, so == is drawn both ways
    y = data.draw(st.one_of(st.just(AlgebraElement.from_terms(spec, x.terms.items())),
                            algebra_elements(spec)), label="y")
    c = data.draw(coefficients(), label="c")
    one = as_single_leg
    assert one(x + y) == one(x) + one(y)
    assert one(x - y) == one(x) - one(y) and one(-x) == -one(x)
    assert one(x * y) == one(x) * one(y)
    assert one(x * c) == one(x) * c and one(c * x) == c * one(x)
    assert (x == y) == (one(x) == one(y))
    assert repr(x) == repr(one(x)) and repr(x * y) == repr(one(x) * one(y))
