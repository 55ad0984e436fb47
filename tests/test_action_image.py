"""The shared action routine against the dense Kronecker definition.

Every regular image (on_element, on_tensor) and every braiding map is one
call of linalg._action_image.  The oracle below is the definition written
out densely: the sum over terms of c * kron(rho_1(g_1), ..., rho_k(g_k)),
composed with the flip for a braiding map.
"""

from __future__ import annotations

from math import prod

import pytest

from hopfbraid.braidrep import ModuleAction, braiding_map, check_module_morphism
from hopfbraid.groupalg import (
    AlgebraElement,
    GroupSpec,
    TensorElement,
    as_single_leg,
    coproduct_on_leg,
    specs_up_to,
    universal_r,
    universal_r_fused_phase,
)
from hopfbraid.linalg import (INTEGER, Matrix, MonomialOps, flip_pair, kron,
                              regular_representation)
from hopfbraid.scalar import rational, root_of_unity

R_BUILDERS = [universal_r, universal_r_fused_phase]


def dense_image(modules, t: TensorElement) -> Matrix:
    size = prod(m.dimension for m in modules)
    acc = Matrix.zeros(size, size)
    for key, c in t.terms.items():
        m = Matrix.identity(1) * c
        for module, exps in zip(modules, key):
            m = kron(m, module.on_basis(exps))
        acc = acc + m
    return acc


def dense_braiding(v, w, r: TensorElement) -> Matrix:
    return flip_pair(v.dimension, w.dimension) @ dense_image([v, w], r)


def character_module(spec: GroupSpec) -> ModuleAction:
    """g^a acts as diag(prod_k zeta_(n_k)^(a_k j_k)) over the basis j: a
    module whose matrices are not permutations."""
    big = spec.field_order
    mats = {}
    for a in spec.basis():
        phases = [root_of_unity(big, sum(ak * jk * (big // n)
                                         for ak, jk, n in zip(a, j, spec.orders)))
                  for j in spec.basis()]
        d = len(phases)
        mats[a] = Matrix(d, d, [phases[i] if i == k else 0
                                for i in range(d) for k in range(d)])
    return ModuleAction(spec, mats)


def one_leg(r: TensorElement) -> TensorElement:
    """The row of r at the last basis element of its first leg."""
    last = max(r.spec.basis())
    return TensorElement(r.spec, 1, {(b,): c for (a, b), c in r.terms.items() if a == last})


def _zero_cells_are_rational(m: Matrix) -> bool:
    return all(e.order == 1 for e in m.entries if e.is_zero)


@pytest.mark.parametrize("build", R_BUILDERS, ids=lambda f: f.__name__)
def test_on_tensor_matches_dense_kron_sum(build):
    for spec in specs_up_to(6):
        rep = regular_representation(spec)
        r = build(spec)
        cases = [one_leg(r), r]
        if spec.dimension <= 4:
            cases.append(coproduct_on_leg(r, 0))
        for t in cases:
            image = rep.on_tensor(t)
            assert image == dense_image([rep] * t.legs, t), (spec, t.legs)
            assert _zero_cells_are_rational(image)


def test_on_element_matches_dense_sum():
    for spec in (GroupSpec((3,)), GroupSpec((2, 2))):
        t = one_leg(universal_r(spec))
        x = AlgebraElement(spec, {b: c for (b,), c in t.terms.items()})
        for module in (regular_representation(spec), character_module(spec)):
            assert module.on_element(x) == dense_image([module], as_single_leg(x))


@pytest.mark.parametrize("build", R_BUILDERS, ids=lambda f: f.__name__)
def test_braiding_map_on_regular_and_trivial_modules(build):
    for spec in specs_up_to(6):
        r = build(spec)
        reg, triv = ModuleAction.regular(spec), ModuleAction.trivial(spec)
        for v, w in ((reg, reg), (reg, triv), (triv, reg)):
            c = braiding_map(v, w, r)
            assert c == dense_braiding(v, w, r), spec
            assert _zero_cells_are_rational(c)


def test_regular_module_builds_each_matrix_on_first_read():
    spec = GroupSpec((2, 3))
    reg = ModuleAction.regular(spec)
    assert reg._matrices == {}
    g = reg.on_basis((1, 5))
    assert list(reg._matrices) == [(1, 2)] and reg.on_basis((-1, 2)) is g
    assert g == kron(regular_representation(GroupSpec((2,))).on_basis((1,)),
                     regular_representation(GroupSpec((3,))).on_basis((2,)))


@pytest.mark.parametrize("spec", specs_up_to(8), ids=lambda s: ",".join(map(str, s.orders)))
def test_dict_backed_copy_of_the_regular_module_acts_alike(spec):
    reg = ModuleAction.regular(spec)
    copy = ModuleAction(spec, {e: regular_representation(spec).on_basis(e)
                               for e in spec.basis()})
    x = AlgebraElement.from_terms(spec, [(e, root_of_unity(spec.field_order, i))
                                         for i, e in enumerate(spec.basis())])
    assert reg.on_element(x) == copy.on_element(x)
    assert reg.validate() and copy.validate()
    for build in R_BUILDERS:
        r = build(spec)
        assert reg.on_tensor(r) == copy.on_tensor(r)
        c = braiding_map(reg, reg, r)
        assert c == braiding_map(copy, copy, r)
    # R' is monomial in the character basis; I + E_01 is invertible but no morphism
    c = braiding_map(reg, reg, universal_r(spec))
    monomial = MonomialOps(spec)
    assert check_module_morphism(c, reg, reg, monomial)
    assert check_module_morphism(c, copy, copy, monomial)
    d = spec.dimension
    if d > 1:
        bad = Matrix.identity(d * d)
        bad.entries[1] = rational(1)
        assert not check_module_morphism(bad, reg, reg, INTEGER)
        assert not check_module_morphism(bad, copy, copy, INTEGER)


def test_braiding_map_on_a_character_module():
    # entries other than 0 and 1 meet in the product and in the sum
    for spec in (GroupSpec((3,)), GroupSpec((4,)), GroupSpec((2, 2))):
        r = universal_r(spec)
        chi, reg = character_module(spec), ModuleAction.regular(spec)
        assert chi.validate()
        for v, w in ((chi, chi), (chi, reg), (reg, chi)):
            c = braiding_map(v, w, r)
            assert c == dense_braiding(v, w, r), spec
            assert check_module_morphism(c, v, w)
