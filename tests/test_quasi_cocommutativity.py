"""Quasi-cocommutativity decided on the k generators of G.

check_quasi_cocommutative tests Dop(g) R = R D(g) only for the generators
g_i = e_i of the cyclic factors; D and Dop are algebra maps, so the
identity then holds for every product of generators, that is for every
basis element.  Over abelian C[G] every r quasi-cocommutes, so a
comparison of verdicts cannot catch a skipped generator: the tests below
also count the backend's equal calls and make each one fail in turn.
"""

from __future__ import annotations

import pytest
from test_exponent_tables import tables

from hopfbraid.floatback import NumpyOps
from hopfbraid.groupalg import (
    EXACT_ALGEBRA,
    AlgebraElement,
    GroupSpec,
    check_quasi_cocommutative,
    coproduct,
    opposite_coproduct,
    specs_up_to,
    universal_r,
    universal_r_fused_phase,
)
from hopfbraid.linalg import MonomialOps

ORDER_ONE = [GroupSpec((1,)), GroupSpec((1, 2))]


def basis_loop(spec: GroupSpec, r, ops) -> bool:
    """The literal reference: the identity decided on every basis element x."""
    rl = ops.tensor(r)
    for exps in spec.basis():
        x = AlgebraElement.basis(spec, exps)
        if not ops.equal(ops.mul(ops.tensor(opposite_coproduct(x)), rl),
                         ops.mul(rl, ops.tensor(coproduct(x)))):
            return False
    return True


class _Counted:
    """A backend that forwards to ops and counts its equal calls; the
    fail_at-th call (from 1) returns False."""

    def __init__(self, ops, fail_at: int = 0):
        self.ops, self.fail_at, self.calls = ops, fail_at, 0

    def __getattr__(self, name):
        return getattr(self.ops, name)

    def equal(self, a, b) -> bool:
        self.calls += 1
        return self.calls != self.fail_at and self.ops.equal(a, b)


def _backends(spec: GroupSpec):
    yield MonomialOps(spec)
    yield NumpyOps()
    if spec.dimension <= 6:  # the exact expansion costs d^2 per product
        yield EXACT_ALGEBRA


def _ids(spec: GroupSpec) -> str:
    return ",".join(map(str, spec.orders))


@pytest.mark.parametrize("spec", [GroupSpec((2, 2, 3)), GroupSpec((2, 6)), *ORDER_ONE],
                         ids=_ids)
def test_each_generator_is_one_decided_equality(spec):
    k, r = len(spec.orders), universal_r(spec)
    for ops in _backends(spec):
        counted = _Counted(ops)
        assert check_quasi_cocommutative(spec, r, counted)
        assert counted.calls == k
        for j in range(1, k + 1):
            failing = _Counted(ops, fail_at=j)
            assert not check_quasi_cocommutative(spec, r, failing), (ops, j)
            assert failing.calls == j


@pytest.mark.parametrize("spec", [*specs_up_to(12), ORDER_ONE[1]], ids=_ids)
def test_generators_give_the_basis_loop_verdict(spec):
    cases = [universal_r(spec), universal_r_fused_phase(spec)]
    if spec.dimension <= 8:  # the specs that test_exponent_tables builds tables on
        cases += [r for _, r in tables(spec)]
    for ops in _backends(spec):
        for r in cases:
            assert check_quasi_cocommutative(spec, r, ops) is basis_loop(spec, r, ops), ops
    # below double rounding a float verdict depends on which products round,
    # so the two loops may differ; the generators are basis elements, so a
    # pass of the basis loop is still a pass of the generators
    tiny = NumpyOps(tol=1e-300)
    for r in cases:
        assert check_quasi_cocommutative(spec, r, tiny) or not basis_loop(spec, r, tiny)
