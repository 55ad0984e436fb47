import random
from fractions import Fraction
from itertools import product

import pytest

from hopfbraid.braidrep import BraidedRMatrix, braided_r, check_braided_ybe
from hopfbraid.groupalg import GroupSpec
from hopfbraid.linalg import (IntegerMatrix, Matrix, apply_on_qudits, conjugate_transpose,
                              flip_operator)
from hopfbraid.quantum import (
    BELL_KINDS,
    INV_SQRT2,
    StateVector,
    apply_gate,
    bell_matrix,
    bell_state,
    concurrence,
    kauffman_lomonaco_r,
    kl_entangling_test,
    proportional_positive,
    schmidt_rank,
    state_from_json,
    state_to_json,
    verify_bell_actions,
)
from hopfbraid.scalar import rational, root_of_unity

GATE2 = braided_r(GroupSpec((2,)))


def test_inv_sqrt2_is_exact():
    assert INV_SQRT2 * INV_SQRT2 == Fraction(1, 2)


def test_bell_state_amplitudes():
    z = rational(0)
    s = INV_SQRT2
    assert bell_state("phi+").amps == [s, z, z, s]
    assert bell_state("psi-").amps == [z, s, -s, z]
    for kind in BELL_KINDS:
        assert bell_state(kind).norm_squared() == 1
    with pytest.raises(ValueError):
        bell_state("phi")


def test_apply_gate_identity():
    s = bell_state("phi+")
    assert apply_gate(Matrix.identity(4), s) == s


def test_apply_gate_on_selected_target():
    x = Matrix.from_rows([[0, 1], [1, 0]])
    s00 = StateVector.computational(2, "00")
    assert apply_gate(x, s00, targets=(0,)) == StateVector.computational(2, "10")
    assert apply_gate(x, s00, targets=(1,)) == StateVector.computational(2, "01")


def test_apply_gate_validation():
    s = bell_state("phi+")
    with pytest.raises(ValueError):
        apply_gate(Matrix.identity(2), s)
    with pytest.raises(ValueError):
        apply_gate(Matrix.identity(4), s, targets=(0, 0))
    with pytest.raises(ValueError):
        apply_gate(Matrix.identity(4), s, targets=(0, 2))


def test_apply_gate_on_reordered_targets():
    # targets (2, 0): qudit 2 is the gate's most significant digit, so |b0 b1 b2>
    # goes to sum over (x2, x0) of gate[(x2, x0), (b2, b0)] |x0 b1 x2>
    gate = Matrix(4, 4, range(1, 17))
    for digits in product(range(2), repeat=3):
        b0, b1, b2 = digits
        expected = [0] * 8
        for x2, x0 in product(range(2), repeat=2):
            expected[4 * x0 + 2 * b1 + x2] = gate[2 * x2 + x0, 2 * b2 + b0]
        image = apply_gate(gate, StateVector.computational(2, digits), targets=(2, 0))
        assert image == StateVector(2, 3, expected), digits
    with pytest.raises(ValueError):
        apply_gate(gate, StateVector.computational(2, "000"), targets=(2, 2))
    with pytest.raises(ValueError, match="distinct"):
        apply_on_qudits(IntegerMatrix.from_matrix(gate),
                        IntegerMatrix.from_matrix(Matrix(8, 1, range(8))), 2, 3, (2, 2))
    # dense operands are lifted by the caller, as apply_gate does
    with pytest.raises(TypeError, match="IntegerMatrix"):
        apply_on_qudits(gate, Matrix(8, 1, range(8)), 2, 3, (2, 0))


def test_apply_gate_lowers_once():
    # diag(1, zeta_4) on |0> + |1>: both amplitudes at order 4, the
    # dense product's values
    gate = Matrix.from_rows([[1, 0], [0, root_of_unity(4, 1)]])
    state = StateVector(2, 1, [1, 1])
    image = apply_gate(gate, state)
    assert [a.order for a in image.amps] == [4, 4]
    assert image.amps == (gate @ Matrix(2, 1, state.amps)).entries


def test_braided_gate_bell_actions_exact():
    results = verify_bell_actions(GATE2)
    assert [r.ok for r in results] == [True, True, True, True]
    assert results[0].image == bell_state("psi+")
    assert results[3].image == -bell_state("psi-")


def test_bell_actions_of_flip_gate():
    # the flip fixes the symmetric states: phi-parity checks pass, the
    # phi+ <-> psi+ swaps fail
    results = verify_bell_actions(flip_operator(2))
    by_source = {r.source: r for r in results}
    assert not by_source["phi+"].ok
    assert by_source["phi+"].image == bell_state("phi+")
    assert not by_source["psi+"].ok
    assert by_source["phi-"].ok
    assert by_source["psi-"].ok  # flip negates psi-, matching the expected sign


def test_bell_actions_of_identity_gate():
    results = verify_bell_actions(Matrix.identity(4))
    by_source = {r.source: r.ok for r in results}
    assert by_source == {"phi+": False, "psi+": False, "phi-": True, "psi-": False}


def test_concurrence_examples():
    for kind in BELL_KINDS:
        assert concurrence(bell_state(kind)) == pytest.approx(1.0)
    assert concurrence(StateVector.computational(2, "00")) == 0.0
    h = Fraction(1, 2)
    s = StateVector(2, 2, [h, h, h, -h])
    assert concurrence(s) == pytest.approx(1.0)


def test_concurrence_scale_invariance():
    rng = random.Random(17)
    for _ in range(20):
        amps = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(4)]
        if all(a == 0 for a in amps):
            continue
        s = StateVector(2, 2, amps)
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        assert concurrence(lam * s) == pytest.approx(concurrence(s))


def test_schmidt_rank_examples():
    assert schmidt_rank(StateVector.computational(2, "00")) == 1
    assert schmidt_rank(bell_state("phi+")) == 2
    one = rational(1)
    z = rational(0)
    qutrit_pair = StateVector(3, 2, [one, z, z, z, one, z, z, z, one])
    assert schmidt_rank(qutrit_pair) == 3


def test_schmidt_rank_agrees_with_concurrence():
    rng = random.Random(23)
    checked = 0
    while checked < 500:
        amps = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
        if all(a == 0 for a in amps):
            continue
        s = StateVector(2, 2, amps)
        entangled = concurrence(s) > 1e-9
        assert (schmidt_rank(s) == 2) == entangled
        checked += 1


def test_zero_state_rejected():
    with pytest.raises(ValueError):
        StateVector(2, 2, [0, 0, 0, 0])


def test_kauffman_lomonaco_matrix_form():
    m = kauffman_lomonaco_r(1, 1, 1, 1)
    assert m == Matrix.from_rows([
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ])
    with pytest.raises(ValueError):
        kauffman_lomonaco_r(2, 1, 1, 1)


def test_kauffman_lomonaco_rejects_near_unit_scalar():
    with pytest.raises(ValueError):
        kauffman_lomonaco_r(Fraction(10000000001, 10000000000), 1, 1, 1)


def test_kauffman_lomonaco_satisfies_braid_relation():
    for scalars in [(1, 1, 1, 1), (1, -1, 1, 1)]:
        wrapped = BraidedRMatrix(2, kauffman_lomonaco_r(*scalars))
        assert check_braided_ybe(wrapped)


def test_kl_entangling_examples():
    entangled, value = kl_entangling_test(1, 1, 1, 1)
    assert not entangled and value == pytest.approx(0.0)

    entangled, value = kl_entangling_test(1, -1, 1, 1)
    assert entangled and value == pytest.approx(1.0)
    image = apply_gate(kauffman_lomonaco_r(1, -1, 1, 1), StateVector(2, 2, [1, 1, 1, 1]))
    assert image == StateVector(2, 2, [1, 1, 1, -1])

    i_ = root_of_unity(4, 1)
    entangled, _ = kl_entangling_test(1, 1, i_, i_)
    assert entangled


def test_kl_entangling_sweep_is_exact_product_criterion():
    i_ = root_of_unity(4, 1)
    pool = [rational(1), rational(-1), i_, -i_]
    for a, b, c, d in product(pool, repeat=4):
        entangled, _ = kl_entangling_test(a, b, c, d)
        assert entangled == (a * b != c * d), (a, b, c, d)


def test_bell_matrix_basis_actions_at_ray_level():
    b = bell_matrix()
    cases = [
        ("00", bell_state("phi-")),
        ("01", bell_state("psi+")),
        ("10", -bell_state("psi-")),
        ("11", bell_state("phi+")),
    ]
    for digits, target in cases:
        image = apply_gate(b, StateVector.computational(2, digits))
        assert proportional_positive(image, target), digits
        assert concurrence(image) == pytest.approx(1.0)


def test_bell_matrix_braided_ybe_recorded():
    assert check_braided_ybe(BraidedRMatrix(2, bell_matrix())) is True
    # the half prefactor makes it non-unitary; that is recorded, not hidden
    assert bell_matrix() @ conjugate_transpose(bell_matrix()) != Matrix.identity(4)


def test_proportional_positive_rejects_sign_flip_and_phase():
    phi = bell_state("phi+")
    assert proportional_positive(rational(3) * phi, phi)
    assert not proportional_positive(-phi, phi)
    assert not proportional_positive(root_of_unity(4, 1) * phi, phi)


# 2 cos(2 pi / 7) = zeta_7 + zeta_7^6 to 45 digits, a root of x^3 + x^2 - 2x - 1
TWO_COS_2PI_7 = Fraction("1.246979603717467061050009768008479621264549462")


@pytest.mark.parametrize("sign", [1, -1])
def test_proportional_positive_decides_a_sign_below_float_resolution(sign):
    x = TWO_COS_2PI_7
    assert abs(x ** 3 + x ** 2 - 2 * x - 1) < Fraction(1, 10 ** 40)
    # lam is within 1e-20 of 0, far below the spacing of doubles near 1.25
    lam = rational(x + sign * Fraction(1, 10 ** 20)) - (root_of_unity(7, 1) + root_of_unity(7, 6))
    assert lam.is_real() and not lam.is_zero
    phi = bell_state("phi+")
    assert proportional_positive(lam * phi, phi) is (sign > 0)
    assert proportional_positive(-lam * phi, phi) is (sign < 0)


def test_state_json_round_trip():
    for kind in BELL_KINDS:
        s = bell_state(kind)
        data = state_to_json(s)
        assert set(data) == {"d", "n", "amps"}
        assert state_from_json(data) == s


@pytest.mark.parametrize("data", [
    {"d": 2, "n": 1},
    {"d": "x", "n": 1, "amps": []},
    {"d": 2, "n": 1, "amps": 5},
    {"d": 2, "n": 1, "amps": ["a", "b"]},
    {"d": 2, "n": 1, "amps": [{"order": 1, "coeffs": [[1, 1]]}]},
    {"d": 2, "n": 1, "amps": [{"order": 1, "coeffs": [[0, 1]]}] * 2},
    [2, 1],
])
def test_state_from_json_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        state_from_json(data)


@pytest.mark.parametrize("field", [{"d": 2.0}, {"d": "2"}, {"n": 1.5}, {"n": True}])
def test_state_from_json_accepts_only_integer_d_and_n(field):
    data = state_to_json(StateVector.computational(2, "1"))
    assert state_from_json(data) == StateVector.computational(2, "1")
    with pytest.raises(ValueError, match="integer 'd' and 'n'"):
        state_from_json({**data, **field})


def test_state_json_with_a_huge_qudit_count_is_refused(in_subprocess):
    # d ** n was taken before it was compared with the amplitude count
    done = in_subprocess("from hopfbraid.quantum import state_from_json\n"
                         "one = {'order': 1, 'coeffs': [[1, 1]]}\n"
                         "try:\n"
                         "    state_from_json({'d': 3, 'n': 10 ** 9, 'amps': [one]})\n"
                         "except ValueError as exc:\n"
                         "    print(exc)\n", timeout=10)
    assert (done.returncode, done.stdout) == (0, "amplitude count does not match d^n\n")
    one = rational(1)
    assert StateVector(1, 10 ** 9, [one]).n == 10 ** 9
    for d, n, count in ((2, 3, 4), (2, 2, 3), (3, 2, 8)):
        with pytest.raises(ValueError, match="amplitude count"):
            StateVector(d, n, [one] * count)
