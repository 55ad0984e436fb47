"""The checks' negative space: every two-leg r over C[G] from a table.

For an abelian group G of dimension d, every two-leg element of C[G] (x)
C[G] is diagonal in the character basis: r = sum_(c,e) beta(c, e) e_c (x)
e_e over pairs of characters, where e_c is the idempotent of character c.
Here beta = zeta_L^B for an exponent table B: G^ x G^ -> Z_L, L the field
order of the spec, so r's coefficient at g^a (x) g^b is

    d^-2 sum_(c,e) zeta_L^B(c,e) chi_c(a)^-1 chi_e(b)^-1.

The algebra is commutative and cocommutative, so for every table r
quasi-cocommutes and solves the algebraic Yang-Baxter equation, its R'
solves the braid relation on three strands (the hexagon row) and R' is
invertible (no beta is zero).  quasitriangular-coproducts holds exactly
when B is additive mod L in each argument, a bicharacter (Kassel, GTM 155,
ch. VIII).  The tests assert that split on every path: MonomialOps and the
float backend on every spec of dimension at most 8, the dense exact and
integer-array backends up to dimension 3.  Z_2 runs all 16 tables; every
other spec a few seeded random tables, two that are additive in one
argument only, and one bicharacter.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from hopfbraid import floatback
from hopfbraid.braidrep import braided_r, check_braid_relations
from hopfbraid.groupalg import (
    GroupSpec,
    TensorElement,
    check_algebraic_ybe,
    check_quasi_cocommutative,
    check_quasitriangular,
    specs_up_to,
)
from hopfbraid.linalg import EXACT, INTEGER, MonomialOps
from hopfbraid.scalar import rational, root_of_unity

RANDOM_TABLES = 4  # seeded random tables per spec other than Z_2


def _phase(spec: GroupSpec, c, a) -> int:
    """chi_c(a) = zeta_L^_phase(spec, c, a)."""
    big = spec.field_order
    return sum(ck * ak * (big // n) for ck, ak, n in zip(c, a, spec.orders))


def table_r(spec: GroupSpec, table) -> TensorElement:
    """The two-leg r whose character-basis weight at (c, e) is zeta_L^table[c, e],
    table indexed by the positions of c and e in spec.basis()."""
    big, chars = spec.field_order, list(spec.basis())
    scale = rational(Fraction(1, spec.dimension ** 2))
    terms = []
    for a in chars:
        for b in chars:
            # the exponents of the d^2 summands, gathered by power of zeta_L
            powers = Counter((table[i][j] - _phase(spec, c, a) - _phase(spec, e, b)) % big
                             for i, c in enumerate(chars) for j, e in enumerate(chars))
            total = sum((root_of_unity(big, k) * n for k, n in powers.items()), rational(0))
            terms.append(((a, b), total * scale))
    return TensorElement.from_terms(spec, 2, terms)


def is_bicharacter(spec: GroupSpec, table) -> bool:
    """Whether the table is additive mod L in each argument."""
    big, chars = spec.field_order, list(spec.basis())
    index = {c: i for i, c in enumerate(chars)}
    plus = [[index[spec.reduce(tuple(x + y for x, y in zip(c, e)))] for e in chars]
            for c in chars]
    n = len(chars)
    return all((table[plus[i][j]][k] - table[i][k] - table[j][k]) % big == 0
               and (table[k][plus[i][j]] - table[k][i] - table[k][j]) % big == 0
               for i in range(n) for j in range(n) for k in range(n))


@cache
def tables(spec: GroupSpec) -> tuple:
    """(table, r) pairs: all 16 on Z_2, else seeded random ones, two additive
    in one argument only, and the bicharacter (c, e) -> sum_k c_k e_k L/n_k."""
    big, chars = spec.field_order, list(spec.basis())
    n = len(chars)
    if spec.orders == (2,):
        out = [[[bits >> 3 & 1, bits >> 2 & 1], [bits >> 1 & 1, bits & 1]]
               for bits in range(16)]
    else:
        rng = random.Random(",".join(map(str, spec.orders)))
        out = [[[rng.randrange(big) for _ in chars] for _ in chars]
               for _ in range(RANDOM_TABLES)]
        # c -> _phase(c, f(e)) is additive in c for any map f, and rarely in e
        f = [rng.choice(chars) for _ in chars]
        left = [[_phase(spec, c, f[j]) % big for j in range(n)] for c in chars]
        out += [left, [list(row) for row in zip(*left)]]
        out.append([[_phase(spec, c, e) % big for e in chars] for c in chars])
    return tuple((table, table_r(spec, table)) for table in out)


def _ops(path: str, spec: GroupSpec):
    if path == "monomial":
        return MonomialOps(spec)
    if path == "float":
        return floatback.NumpyOps()
    return EXACT if path == "exact" else INTEGER


CASES = [(spec, path) for spec in specs_up_to(8) for path in ("monomial", "float")]
CASES += [(spec, path) for spec in specs_up_to(3) for path in ("exact", "integer")]


@pytest.mark.parametrize("spec, path", CASES,
                         ids=lambda x: x if isinstance(x, str) else ",".join(map(str, x.orders)))
def test_only_the_coproducts_separate_the_bicharacters(spec, path):
    ops, verdicts = _ops(path, spec), []
    for table, r in tables(spec):
        gate = braided_r(spec, r)
        assert check_quasi_cocommutative(spec, r, ops), table
        assert check_algebraic_ybe(spec, r, ops), table
        assert check_braid_relations(3, gate, ops), table
        assert ops.invertible(ops.braided(gate)), table
        verdicts.append(bool(check_quasitriangular(spec, r, ops)))
        assert verdicts[-1] is is_bicharacter(spec, table), table
    # every spec but the trivial one has tables on both sides of the split
    assert set(verdicts) == ({True} if spec.dimension == 1 else {True, False})
