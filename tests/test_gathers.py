"""R_ij and coproducts as gathers of r's character diagonal.

In the character basis a tensor element is a diagonal, and so are its leg
embeddings and coproducts: R_ij reads r's entry at the characters of legs
i and j, and the coproduct on a leg reads the entry at c + c', the dual
group's law.  MonomialOps and NumpyOps gather them from ``tensor(t)``
(``embed``, ``coproduct_on_leg``); these tests compare each gather with
the transform of the element it stands for, on inputs that are not
symmetric in their legs.
"""

from __future__ import annotations

import pytest
from test_braidrep import _braidings
from test_exponent_tables import tables

from hopfbraid.floatback import NumpyOps
from hopfbraid.groupalg import GroupSpec, coproduct_on_leg, leg_embedding, specs_up_to
from hopfbraid.linalg import MonomialOps

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

