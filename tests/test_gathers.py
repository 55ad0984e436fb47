"""R_ij and coproducts as gathers of r's character diagonal.

In the character basis a tensor element is a diagonal, and so are its leg
embeddings and coproducts: R_ij reads r's entry at the characters of legs
i and j, and the coproduct on a leg reads the entry at c + c', the dual
group's law.  MonomialOps and NumpyOps gather them from ``tensor(t)``
(``embed``, ``coproduct_on_leg``); these tests compare each gather with
the transform of the element it stands for, on inputs that are not
symmetric in their legs.  The index layer under them (linalg's
term_positions, flip_index and addition_table) is compared with plain
loops, and exponents outside 0..n-1 must lift as their reduction does.
"""

from __future__ import annotations

import itertools
from operator import add

import numpy as np
import pytest
from test_braidrep import _braidings
from test_exponent_tables import tables

from hopfbraid.floatback import NumpyOps
from hopfbraid.groupalg import (EXACT_ALGEBRA, GroupSpec, TensorElement, coproduct_on_leg,
                                counit_on_leg, leg_embedding, specs_up_to, universal_r)
from hopfbraid.linalg import MonomialOps, addition_table, flip_index, term_positions
from hopfbraid.scalar import rational

# order-1 factors too: their characters are trivial, one digit of the law
GATHER_SPECS = specs_up_to(12) + [GroupSpec((1, 2)), GroupSpec((3, 1))]


def _ids(spec: GroupSpec) -> str:
    return ",".join(map(str, spec.orders))


def _two_leg(spec: GroupSpec) -> list:
    """The exponent tables' r, most not symmetric in their legs, and r ((1 - g) (x) 1)."""
    return [r for _, r in tables(spec)] + [r for name, r in _braidings(spec) if name == "singular"]


@pytest.mark.parametrize("spec", GATHER_SPECS, ids=_ids)
def test_gathers_equal_the_transform_of_what_they_stand_for(spec):
    elements = _two_leg(spec)
    # a three-leg element on which no two legs play the same part
    three = leg_embedding(elements[0], 3, (0, 1)) * leg_embedding(elements[-1], 3, (1, 2))
    for ops in (MonomialOps(spec), NumpyOps()):
        for r in elements:
            for pos in ((0, 1), (0, 2), (1, 2)):
                assert ops.equal(ops.embed(r, 3, pos),
                                 ops.tensor(leg_embedding(r, 3, pos))), (ops, pos)
        for t in (elements[0], elements[-1], three):
            for leg in range(t.legs):
                assert ops.equal(ops.coproduct_on_leg(t, leg),
                                 ops.tensor(coproduct_on_leg(t, leg))), (ops, t.legs, leg)



# -- the index layer: term positions, the flip and the group law -------------


def _digit_loop(t) -> dict:
    """The reference for term_positions on reduced exponents: one digit loop
    per term, the first leg and the first factor most significant."""
    orders = t.spec.orders * t.legs
    out = {}
    for key, c in t.terms.items():
        flat = 0
        for e, n in zip(itertools.chain.from_iterable(key), orders):
            flat = flat * n + e
        out[flat] = c
    return out


def _spread(spec: GroupSpec, legs: int) -> TensorElement:
    """An element of legs legs over spec with many distinct coefficients: at
    most 97 keys, taken at a stride through the basis of the power."""
    keys = list(itertools.product(spec.basis(), repeat=legs))
    step = max(1, len(keys) // 97)
    return TensorElement(spec, legs, {key: rational(k + 1) for k, key in enumerate(keys[::step])})


LAYER_SPECS = GATHER_SPECS + [GroupSpec((1,) * 62 + (2, 2))]


@pytest.mark.parametrize("spec", LAYER_SPECS, ids=_ids)
def test_term_positions_equal_the_digit_loop(spec):
    for legs in (1, 2, 3):
        for t in (_spread(spec, legs), TensorElement.zero(spec, legs)):
            cells, values = term_positions(t)
            assert cells.dtype == np.intp
            assert dict(zip(cells.tolist(), values)) == _digit_loop(t), legs


@pytest.mark.parametrize("spec", LAYER_SPECS, ids=_ids)
def test_addition_table_is_the_group_law(spec):
    basis = list(spec.basis())
    index = {exps: k for k, exps in enumerate(basis)}
    law = addition_table(spec)
    assert law.shape == (len(basis), len(basis))
    assert all(law[index[a], index[b]] == index[spec.reduce(map(add, a, b))]
               for a in basis for b in basis)


def test_addition_table_is_built_once_per_spec():
    law = addition_table(GroupSpec((2, 3)))
    assert addition_table(GroupSpec((2, 3))) is law and not law.flags.writeable


def test_flip_index_swaps_the_factors():
    for p, q in ((1, 1), (1, 3), (2, 3), (3, 2), (4, 4)):
        assert flip_index(p, q).tolist() == [i * q + j for j in range(q) for i in range(p)]


def _unreduced(spec: GroupSpec, legs: int) -> list:
    """Elements whose exponents are at or above their order, or negative,
    some of them landing on one basis key (and one such pair cancelling)."""
    shifted = [tuple(e + k * n for e, n in zip(exps, spec.orders))
               for k, exps in zip((1, -1, 2, -3), itertools.cycle(spec.basis()))]
    one = rational(1)
    out = [TensorElement(spec, legs, {(exps,) * legs: one}) for exps in shifted]
    ident, top = spec.identity, tuple(n for n in spec.orders)
    out.append(TensorElement(spec, legs, {(ident,) * legs: one, (top,) * legs: rational(2)}))
    out.append(TensorElement(spec, legs, {(ident,) * legs: one, (top,) * legs: -one,
                                          (shifted[0],) * legs: rational(3)}))
    if legs == 2:
        minus = tuple(-1 for _ in spec.orders)
        out += [TensorElement(spec, 2, {(ident, top): one}),
                TensorElement(spec, 2, {(minus, shifted[2]): rational(5), (top, ident): one})]
    return out


@pytest.mark.parametrize("orders", [(2,), (4,), (2, 3), (1, 2)], ids=str)
def test_unreduced_exponents_lift_and_gather_as_their_reduction(orders):
    # TensorElement takes exponents as given and the oracle reads them mod
    # their order; the character-basis lifts and gathers must do the same
    spec = GroupSpec(orders)
    for ops in (MonomialOps(spec), NumpyOps()):
        for legs in (1, 2):
            for t in _unreduced(spec, legs):
                reduced = TensorElement.from_terms(spec, legs, t.terms.items())
                assert ops.equal(ops.tensor(t), ops.tensor(reduced)), (ops, t)
                for leg in range(legs):
                    assert ops.equal(ops.coproduct_on_leg(t, leg),
                                     ops.coproduct_on_leg(reduced, leg)), (ops, t, leg)
                if legs == 2:
                    for pos in ((0, 1), (0, 2), (1, 2)):
                        assert ops.equal(ops.embed(t, 3, pos), ops.embed(reduced, 3, pos))


def test_a_leg_out_of_range_raises():
    spec = GroupSpec((2, 3))
    r = universal_r(spec)
    for leg in (-1, r.legs):
        message = f"leg {leg} is not one of the 2 legs"
        with pytest.raises(ValueError, match=message):
            counit_on_leg(r, leg)
        for ops in (EXACT_ALGEBRA, MonomialOps(spec), NumpyOps()):
            with pytest.raises(ValueError, match=message):
                ops.coproduct_on_leg(r, leg)
