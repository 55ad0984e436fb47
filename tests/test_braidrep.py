import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfbraid.braidrep import (
    BraidedRMatrix,
    BraidWord,
    ModuleAction,
    braid_generator,
    braided_r,
    braiding_map,
    check_braid_relations,
    check_braided_ybe,
    check_hexagon,
    check_module_morphism,
    evaluate_braid_word,
)
from hopfbraid.floatback import NumpyOps
from hopfbraid.groupalg import (
    GroupSpec,
    TensorElement,
    check_quasi_cocommutative,
    leg_embedding,
    specs_up_to,
    universal_r,
    universal_r_fused_phase,
)
from hopfbraid.linalg import (EXACT, Matrix, MonomialOps, conjugate_transpose, flip_operator,
                              invert_matrix, kron, regular_representation)
from hopfbraid.quantum import BELL_KINDS, StateVector, bell_state
from hopfbraid.scalar import rational, root_of_unity

S2 = GroupSpec((2,))
S3 = GroupSpec((3,))

EXPECTED_BRAIDED_2 = Matrix.from_rows([
    [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)],
    [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)],
    [Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)],
    [Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)],
])


def test_braided_r_order_two_matrix():
    assert braided_r(S2).matrix == EXPECTED_BRAIDED_2


def test_braided_r_trivial_spec():
    r = braided_r(GroupSpec((1,)))
    assert r.matrix == Matrix.identity(1)


def test_braided_r_order_three_entry_formula():
    # independent oracle: after the flip, the entry at row (i', j'), column
    # (i, j) is zeta_3^(-(j'-i)(i'-j)) / 3
    r = braided_r(S3).matrix
    third = Fraction(1, 3)
    for ip in range(3):
        for jp in range(3):
            for i in range(3):
                for j in range(3):
                    expected = root_of_unity(3, (-(jp - i) * (ip - j)) % 3) * third
                    assert r[ip * 3 + jp, i * 3 + j] == expected


def test_braided_r_order_two_is_involution():
    m = braided_r(S2).matrix
    assert m @ m == Matrix.identity(4)
    # real symmetric, so equal to its own conjugate transpose
    assert conjugate_transpose(m) == m


def test_braided_r_unitary_small_specs():
    for spec in specs_up_to(6):
        m = braided_r(spec).matrix
        assert m @ conjugate_transpose(m) == Matrix.identity(spec.dimension ** 2), spec


def test_check_braided_ybe():
    assert check_braided_ybe(braided_r(S2))
    assert check_braided_ybe(braided_r(S3))
    assert check_braided_ybe(BraidedRMatrix(2, flip_operator(2)))


def test_braid_generator_placement():
    r = braided_r(S2)
    assert braid_generator(1, 2, r) == r.matrix
    assert braid_generator(1, 3, r) == kron(r.matrix, Matrix.identity(2))
    assert braid_generator(2, 3, r) == kron(Matrix.identity(2), r.matrix)
    with pytest.raises(ValueError):
        braid_generator(3, 3, r)
    with pytest.raises(ValueError):
        braid_generator(0, 3, r)


def test_check_braid_relations():
    assert check_braid_relations(3, braided_r(S2))
    assert check_braid_relations(4, braided_r(S2))
    assert check_braid_relations(2, braided_r(S2))
    assert check_braid_relations(3, braided_r(S3))


def test_far_commutation_is_exercised():
    # four strands include the |i-j| = 2 pair (1, 3)
    r = braided_r(S2)
    g1 = braid_generator(1, 4, r)
    g3 = braid_generator(3, 4, r)
    assert g1 @ g3 == g3 @ g1


def test_evaluate_braid_word_basics():
    r = braided_r(S2)
    assert evaluate_braid_word(BraidWord(2, ()), r) == Matrix.identity(4)
    # the empty word checks the columns' shape, as every other word does
    for letters in ((), (1,)):
        with pytest.raises(ValueError, match="8 rows"):
            evaluate_braid_word(BraidWord(3, letters), r, Matrix(2, 1, [1, 0]))
    assert evaluate_braid_word(BraidWord(2, (1, -1)), r) == Matrix.identity(4)
    lhs = evaluate_braid_word(BraidWord(3, (1, 2, 1)), r)
    rhs = evaluate_braid_word(BraidWord(3, (2, 1, 2)), r)
    assert lhs == rhs


def test_evaluate_braid_word_concatenation():
    # letters apply to states in written order, so concatenation composes
    # with the second segment on the left of the matrix product
    rng = random.Random(8)
    r = braided_r(S2)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        letters = lambda: tuple(
            rng.choice([s * i for i in range(1, n) for s in (1, -1)])
            for _ in range(rng.randint(0, 4))
        )
        w1, w2 = letters(), letters()
        combined = evaluate_braid_word(BraidWord(n, w1 + w2), r)
        split = evaluate_braid_word(BraidWord(n, w2), r) @ evaluate_braid_word(BraidWord(n, w1), r)
        assert combined == split


# specs of the dense-oracle comparison, each on 2 to 4 strands wherever d^N <= 64
ORACLE_CASES = [(orders, strands)
                for orders in ((1,), (2,), (3,), (4,), (5,), (2, 2), (2, 3))
                for strands in (2, 3, 4) if GroupSpec(orders).dimension ** strands <= 64]


@pytest.mark.parametrize("orders,strands", ORACLE_CASES,
                         ids=[f"{','.join(map(str, o))}-on-{n}" for o, n in ORACLE_CASES])
def test_word_equals_the_product_of_dense_generators(orders, strands):
    # letters run on lifted integer arrays; the oracle multiplies the dense
    # EXACT generators, R'^-1 by Gauss-Jordan, first letter on the right
    r = braided_r(GroupSpec(orders))
    d = r.dimension
    inverse = BraidedRMatrix(d, invert_matrix(r.matrix))
    rng = random.Random(27 * strands + d)
    letters = [rng.randint(1, strands - 1) for _ in range(6)]
    letters[1:4] = [-x for x in letters[1:4]]
    rng.shuffle(letters)
    word = BraidWord(strands, letters)
    digits = [rng.randrange(d) for _ in range(strands)]
    columns = [None, Matrix(d ** strands, 1, StateVector.computational(d, digits).amps)]
    if d == 2 and strands == 2:  # order-8 amplitudes against an order-2 gate
        columns += [Matrix(4, 1, bell_state(kind).amps) for kind in BELL_KINDS]
    for c in columns:
        expected = Matrix.identity(d ** strands) if c is None else c
        for letter in letters:
            gate = r if letter > 0 else inverse
            expected = braid_generator(abs(letter), strands, gate) @ expected
        assert evaluate_braid_word(word, r, c) == expected, (letters, c)


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(1, ())


def test_module_action_regular_validates():
    action = ModuleAction.regular(GroupSpec((2, 2)))
    assert action.validate()
    broken = dict(action._matrices)
    broken[(1, 1)] = Matrix.zeros(4, 4)
    assert not ModuleAction(action.spec, broken).validate()


@pytest.mark.parametrize("make_r", [universal_r, universal_r_fused_phase],
                         ids=["universal_r", "universal_r_fused_phase"])
def test_braided_r_is_the_flip_times_the_regular_image(make_r):
    # the route gen-r exports (gamma(r) and the flip separately); the same
    # entries in the same representation, so exported JSON is unchanged
    for spec in specs_up_to(6):
        r = make_r(spec)
        expected = flip_operator(spec.dimension) @ regular_representation(spec).on_tensor(r)
        got = braided_r(spec, r).matrix
        assert [(e.order, e.coeffs) for e in got.entries] == \
            [(e.order, e.coeffs) for e in expected.entries], spec


def test_braiding_map_on_regular_modules_matches_braided_r():
    for spec in specs_up_to(6):
        reg = ModuleAction.regular(spec)
        assert braiding_map(reg, reg, universal_r(spec)) == braided_r(spec).matrix, spec


def test_braiding_map_trivial_modules():
    triv = ModuleAction.trivial(S2)
    assert braiding_map(triv, triv, universal_r(S2)) == Matrix.identity(1)


def test_braiding_map_fused_form_two_two_oracle():
    # independent oracle: expand the action sum directly from the fused
    # phases, mapping e_u (x) e_v to sum over (a, b) of
    # zeta_4^(-a1 b1 a2 b2)/4 * e_(v+b) (x) e_(u+a)
    spec = GroupSpec((2, 2))
    reg = ModuleAction.regular(spec)
    r = universal_r_fused_phase(spec)
    got = braiding_map(reg, reg, r)

    idx = {exps: i for i, exps in enumerate(spec.basis())}
    size = 16
    cells = {}
    quarter = Fraction(1, 4)
    for u in spec.basis():
        for v in spec.basis():
            col = idx[u] * 4 + idx[v]
            for a in spec.basis():
                for b in spec.basis():
                    phase = root_of_unity(4, (-(a[0] * b[0] * a[1] * b[1])) % 4) * quarter
                    vb = tuple((x + y) % 2 for x, y in zip(v, b))
                    ua = tuple((x + y) % 2 for x, y in zip(u, a))
                    row = idx[vb] * 4 + idx[ua]
                    key = row * size + col
                    cells[key] = cells.get(key, rational(0)) + phase
    entries = [rational(0)] * (size * size)
    for key, value in cells.items():
        entries[key] = value
    assert got == Matrix(size, size, entries)


def test_check_module_morphism():
    reg2 = ModuleAction.regular(S2)
    assert check_module_morphism(braiding_map(reg2, reg2, universal_r(S2)), reg2, reg2)
    reg3 = ModuleAction.regular(S3)
    assert check_module_morphism(braiding_map(reg3, reg3, universal_r(S3)), reg3, reg3)
    assert not check_module_morphism(Matrix.zeros(4, 4), reg2, reg2)


def _braidings(spec):
    # both forms of r, and r ((1 - g) (x) 1), whose braiding is singular
    ident, g = spec.identity, spec.reduce((1,) + spec.identity[1:])
    kernel = TensorElement.from_terms(spec, 2, [((ident, ident), 1), ((g, ident), -1)])
    r = universal_r(spec)
    return [("product", r), ("fused", universal_r_fused_phase(spec)), ("singular", r * kernel)]


@pytest.mark.parametrize("spec", specs_up_to(8), ids=lambda s: ",".join(map(str, s.orders)))
def test_module_morphism_is_quasi_cocommutativity_and_invertibility(spec):
    # check decides the module morphism of R' this way: its braiding commutes
    # with the diagonal action iff r quasi-cocommutes, as rho x rho is faithful
    # with R' invertible iff r's character diagonal has no zero (P Gamma(R) = P T D T^-1)
    reg = ModuleAction.regular(spec)
    for name, r in _braidings(spec):
        gate = braided_r(spec, r).matrix
        assert check_module_morphism(gate, reg, reg, EXACT) == \
            (check_quasi_cocommutative(spec, r) and EXACT.invertible(gate)), name
        for ops in (MonomialOps(spec), NumpyOps()):
            assert ops.invertible(ops.tensor(r)) == EXACT.invertible(gate), (name, ops)


def test_check_hexagon_regular_triples():
    reg2 = ModuleAction.regular(S2)
    assert check_hexagon(reg2, reg2, reg2, universal_r(S2))
    reg3 = ModuleAction.regular(S3)
    assert check_hexagon(reg3, reg3, reg3, universal_r(S3))


def test_hexagon_on_equal_modules_matches_braided_ybe():
    reg = ModuleAction.regular(S2)
    assert check_hexagon(reg, reg, reg, universal_r(S2)) == check_braided_ybe(braided_r(S2))


def test_hexagon_braids_each_distinct_pair_of_modules_once(braiding_builds):
    reg = ModuleAction.regular(S3)
    triv = ModuleAction.trivial(S3)
    r = universal_r(S3)
    # on three copies of one module the hexagon is the braid relation of one R'
    assert check_hexagon(reg, reg, reg, r, MonomialOps(S3))
    assert len(braiding_builds) == 1
    # (triv, reg) twice and (reg, reg) once
    assert check_hexagon(triv, reg, reg, r)
    assert len(braiding_builds) == 3


def test_hexagon_mixed_modules():
    reg = ModuleAction.regular(S2)
    triv = ModuleAction.trivial(S2)
    assert check_hexagon(triv, reg, reg, universal_r(S2))
    assert check_hexagon(reg, triv, reg, universal_r(S2))


def test_braided_rmatrix_shape_validation():
    with pytest.raises(ValueError):
        BraidedRMatrix(3, Matrix.identity(4))
    r = universal_r(S2)
    for bad in (lambda: BraidedRMatrix(2),  # neither a matrix nor a source
                lambda: BraidedRMatrix(2, flip_operator(2), r),  # both
                lambda: BraidedRMatrix(3, source=r),  # a source of another dimension
                lambda: BraidedRMatrix(2, source=leg_embedding(r, 3, (0, 1))),  # three legs
                lambda: braided_r(GroupSpec((3,)), r)):  # a source over another spec
        with pytest.raises(ValueError):
            bad()


def test_braided_r_builds_its_matrix_on_first_read(braiding_builds):
    gate = braided_r(S2)
    assert gate.source == universal_r(S2) and not braiding_builds
    assert gate.matrix is gate.matrix and len(braiding_builds) == 1


# (orders, strands) of the word evaluations compared below
APPLY_CASES = (((2,), 2), ((2,), 3), ((2,), 4), ((3,), 3), ((2, 2), 3))
APPLY_GATES = {orders: braided_r(GroupSpec(orders)) for orders, _ in APPLY_CASES}
APPLY_INVERSES = {orders: BraidedRMatrix(r.dimension, invert_matrix(r.matrix))
                  for orders, r in APPLY_GATES.items()}


@st.composite
def words_on_columns(draw):
    """A braid word of mixed-sign letters, the orders of its gate, and one
    or two states as columns: basis states, or Bell states on two qubits."""
    orders, strands = draw(st.sampled_from(APPLY_CASES))
    r = APPLY_GATES[orders]
    d = r.dimension
    letter = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    word = BraidWord(strands, draw(st.lists(letter, max_size=6)))
    states = []
    for _ in range(draw(st.integers(1, 2))):
        if d == 2 and strands == 2 and draw(st.booleans()):
            states.append(bell_state(draw(st.sampled_from(BELL_KINDS))))
        else:
            digits = draw(st.lists(st.integers(0, d - 1), min_size=strands, max_size=strands))
            states.append(StateVector.computational(d, digits))
    entries = [s.amps[i] for i in range(d ** strands) for s in states]
    return word, orders, Matrix(d ** strands, len(states), entries)


@given(words_on_columns())
def test_word_applied_to_columns_equals_its_matrix_times_them(case):
    word, orders, columns = case
    r = APPLY_GATES[orders]
    applied = evaluate_braid_word(word, r, columns)
    assert applied == evaluate_braid_word(word, r) @ columns
    # oracle: the generators, first letter on the right of the product
    expected = columns
    for letter in word.letters:
        gate = r if letter > 0 else APPLY_INVERSES[orders]
        expected = braid_generator(abs(letter), word.strands, gate) @ expected
    assert applied == expected
