"""Group algebras of products of finite cyclic groups, with Hopf structure.

The algebra for orders (n_1, ..., n_k) has basis g^(a_1, ..., a_k) indexed
by exponent tuples; multiplication adds exponents componentwise mod n_j.
Every basis element is group-like: the coproduct sends g to g (x) g, the
counit to 1, and the antipode to g^(-1).

``universal_r`` builds the distinguished invertible element of the two-fold
tensor power whose coefficient carries one root-of-unity phase per cyclic
factor.  ``universal_r_fused_phase`` is the variant whose exponent fuses
all factor contributions into a single fraction; it coincides with the
per-factor form for one cyclic factor but is a genuinely different element
for two or more nontrivial factors (any zero a_k b_k kills the whole fused
exponent), so it is kept only for side-by-side comparison and the command
line reports its checks as "recorded" rather than pass/fail.

The check_* functions verify the quasitriangularity identities over a
backend: by default by exact expansion over the basis, where nothing is
approximated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .scalar import CyclotomicNumber, as_scalar, rational, root_of_unity


@dataclass(frozen=True)
class GroupSpec:
    """A product of finite cyclic groups, one order per factor."""

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(int(n) for n in self.orders)
        if not orders:
            raise ValueError("at least one cyclic factor is required")
        if any(n < 1 for n in orders):
            raise ValueError("cyclic group orders must be >= 1")
        object.__setattr__(self, "orders", orders)

    @property
    def dimension(self) -> int:
        return prod(self.orders)

    @property
    def field_order(self) -> int:
        """Order of the smallest cyclotomic field holding all phases."""
        return lcm(*self.orders)

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def reduce(self, exps) -> tuple[int, ...]:
        exps = tuple(exps)
        if len(exps) != len(self.orders):
            raise ValueError("exponent tuple has the wrong number of factors")
        return tuple(e % n for e, n in zip(exps, self.orders))

    def basis(self):
        """All exponent tuples, in lexicographic order."""
        return itertools.product(*(range(n) for n in self.orders))


def _accumulate(pairs) -> dict:
    """The sparse sum of (key, scalar) pairs: the scalars of equal keys
    added in order, and the keys whose sum is zero dropped."""
    out: dict = {}
    for key, c in pairs:
        prev = out.get(key)
        out[key] = c if prev is None else prev + c
    return {k: v for k, v in out.items() if not v.is_zero}


class _SparseElement:
    """What AlgebraElement and TensorElement share: a dict of nonzero terms,
    the difference and the product by a scalar on the left."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, other):
        if isinstance(other, _SparseElement):
            return NotImplemented
        return self * other


class AlgebraElement(_SparseElement):
    """Sparse linear combination of group basis elements."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: GroupSpec, terms: dict):
        self.spec = spec
        self.terms = terms  # exponent tuple -> nonzero CyclotomicNumber

    @classmethod
    def zero(cls, spec: GroupSpec) -> "AlgebraElement":
        return cls(spec, {})

    @classmethod
    def unit(cls, spec: GroupSpec) -> "AlgebraElement":
        return cls(spec, {spec.identity: rational(1)})

    @classmethod
    def basis(cls, spec: GroupSpec, exps, coeff=1) -> "AlgebraElement":
        return cls.from_terms(spec, [(exps, coeff)])

    @classmethod
    def from_terms(cls, spec: GroupSpec, pairs) -> "AlgebraElement":
        return cls(spec, _accumulate((spec.reduce(exps), as_scalar(c)) for exps, c in pairs))

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return _from_single_leg(as_single_leg(self) + as_single_leg(other))

    def __neg__(self):
        return AlgebraElement(self.spec, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return _from_single_leg(as_single_leg(self) * as_single_leg(other))
        return _from_single_leg(as_single_leg(self) * as_scalar(other))

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return repr(as_single_leg(self))


class TensorElement(_SparseElement):
    """Sparse element of the k-fold tensor power of the group algebra."""

    __slots__ = ("spec", "legs", "terms")

    def __init__(self, spec: GroupSpec, legs: int, terms: dict):
        if legs < 1:
            raise ValueError("a tensor element needs at least one leg")
        self.spec = spec
        self.legs = legs
        self.terms = terms  # tuple of exponent tuples -> nonzero scalar

    @classmethod
    def zero(cls, spec: GroupSpec, legs: int) -> "TensorElement":
        return cls(spec, legs, {})

    @classmethod
    def unit(cls, spec: GroupSpec, legs: int) -> "TensorElement":
        return cls(spec, legs, {(spec.identity,) * legs: rational(1)})

    @classmethod
    def from_terms(cls, spec: GroupSpec, legs: int, pairs) -> "TensorElement":
        pairs = [(tuple(spec.reduce(e) for e in key), c) for key, c in pairs]
        if any(len(key) != legs for key, _ in pairs):
            raise ValueError("term has the wrong number of legs")
        return cls(spec, legs, _accumulate((key, as_scalar(c)) for key, c in pairs))

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        if other.spec != self.spec or other.legs != self.legs:
            raise ValueError("tensor shape mismatch")
        return TensorElement(self.spec, self.legs,
                             _accumulate(itertools.chain(self.terms.items(), other.terms.items())))

    def __neg__(self):
        return TensorElement(self.spec, self.legs, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            if other.spec != self.spec or other.legs != self.legs:
                raise ValueError("tensor shape mismatch")
            orders = self.spec.orders
            return TensorElement(self.spec, self.legs, _accumulate(
                (tuple(tuple((x + y) % n for x, y, n in zip(la, lb, orders))
                       for la, lb in zip(ka, kb)), ca * cb)
                for ka, ca in self.terms.items() for kb, cb in other.terms.items()))
        c = as_scalar(other)
        return TensorElement(self.spec, self.legs,
                             _accumulate((k, v * c) for k, v in self.terms.items()))

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.spec == other.spec and self.legs == other.legs and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = [
            "({})*{}".format(c, " (x) ".join(f"g{list(leg)}" for leg in key))
            for key, c in sorted(self.terms.items())
        ]
        return " + ".join(bits)


# -- Hopf structure maps -----------------------------------------------


def coproduct(x: AlgebraElement) -> TensorElement:
    """Group-like coproduct, extended linearly: basis b maps to b (x) b."""
    return TensorElement(x.spec, 2, {(k, k): c for k, c in x.terms.items()})


def opposite_coproduct(x: AlgebraElement) -> TensorElement:
    """Coproduct followed by the swap of the two legs."""
    return TensorElement(x.spec, 2, {(k2, k1): c for (k1, k2), c in coproduct(x).terms.items()})


def counit(x: AlgebraElement) -> CyclotomicNumber:
    """Linear map sending every basis element to 1."""
    return sum(x.terms.values(), rational(0))


def antipode(x: AlgebraElement) -> AlgebraElement:
    """Linear map sending each basis element to its group inverse."""
    spec = x.spec
    return AlgebraElement(
        spec, {spec.reduce(tuple(-e for e in k)): c for k, c in x.terms.items()}
    )


# -- leg operations on tensor elements ---------------------------------


def _embedding_positions(t: TensorElement, legs: int, positions) -> tuple[int, int]:
    """The positions (i, j) of a two-leg t in a power of ``legs`` legs,
    checked to be increasing and in range."""
    if t.legs != 2:
        raise ValueError("only two-leg elements can be embedded this way")
    i, j = positions
    if not (0 <= i < j < legs):
        raise ValueError("leg positions must be increasing and in range")
    return i, j


def leg_embedding(t: TensorElement, legs: int, positions: tuple[int, int]) -> TensorElement:
    """Embed a two-leg element into a larger power, unit on the other legs."""
    i, j = _embedding_positions(t, legs, positions)
    ident = t.spec.identity
    out = {}
    for (a, b), c in t.terms.items():
        key = [ident] * legs
        key[i] = a
        key[j] = b
        out[tuple(key)] = c
    return TensorElement(t.spec, legs, out)


def coproduct_on_leg(t: TensorElement, leg: int) -> TensorElement:
    """Apply the coproduct to one leg, duplicating it in place."""
    return TensorElement(t.spec, t.legs + 1, _accumulate(
        (key[:leg] + (key[leg],) + key[leg:], c) for key, c in t.terms.items()))


def counit_on_leg(t: TensorElement, leg: int) -> TensorElement:
    """Contract one leg with the counit (every basis element counts 1)."""
    if t.legs < 2:
        raise ValueError("need at least two legs to contract one away")
    return TensorElement(t.spec, t.legs - 1, _accumulate(
        (key[:leg] + key[leg + 1:], c) for key, c in t.terms.items()))


def as_single_leg(x: AlgebraElement) -> TensorElement:
    """View an algebra element as a one-leg tensor element."""
    return TensorElement(x.spec, 1, {(k,): c for k, c in x.terms.items()})


def _from_single_leg(t: TensorElement) -> AlgebraElement:
    """The inverse of as_single_leg."""
    return AlgebraElement(t.spec, {k: c for (k,), c in t.terms.items()})


# -- distinguished invertible elements ----------------------------------


def _phase_element(spec: GroupSpec, order: int, exponent) -> TensorElement:
    """The two-leg element (1/dim) * sum_(a,b) zeta_order^exponent(a, b) g^a (x) g^b."""
    scale = rational(Fraction(1, spec.dimension))
    return TensorElement(spec, 2, {(a, b): root_of_unity(order, exponent(a, b) % order) * scale
                                   for a in spec.basis() for b in spec.basis()})


def _factor_phase(spec: GroupSpec, a, b) -> int:
    big = spec.field_order
    return sum(ak * bk * (big // n) for ak, bk, n in zip(a, b, spec.orders))


def universal_r(spec: GroupSpec) -> TensorElement:
    """The two-leg element whose coefficient at (g^a, g^b) is the product of
    one phase per cyclic factor:

        (prod_k 1/n_k) * prod_k zeta_{n_k}^(-a_k b_k)

    assembled in the cyclotomic field of order lcm(n_1, ..., n_k).  This is
    the element that passes every quasitriangularity check below.
    """
    return _phase_element(spec, spec.field_order, lambda a, b: -_factor_phase(spec, a, b))


def universal_r_inverse(spec: GroupSpec) -> TensorElement:
    """Companion element with conjugated phases; the exact two-sided inverse
    of universal_r in the tensor-square algebra."""
    return _phase_element(spec, spec.field_order, lambda a, b: _factor_phase(spec, a, b))


def universal_r_fused_phase(spec: GroupSpec) -> TensorElement:
    """Variant with a single fused exponent per coefficient:

        (1/N) * zeta_N^(-(a_1 b_1) * (a_2 b_2) * ... ),   N = prod_k n_k.

    Coincides with universal_r for a single cyclic factor.  For two or more
    nontrivial factors it is a different element and carries no guarantee of
    passing the quasitriangularity checks; it exists so the discrepancy can
    be demonstrated and recorded.
    """
    return _phase_element(spec, spec.dimension,
                          lambda a, b: -prod(ak * bk for ak, bk in zip(a, b)))


# -- identity checkers over a backend ------------------------------------


class ExactAlgebraOps:
    """The tensor half of the backend protocol, done exactly.

    A backend ("ops") lifts exact objects into its own type and decides
    equality there; every identity below is written once against it:

    * ``tensor(t)`` lifts a TensorElement, ``mul(a, b)`` multiplies two
      lifted tensors, ``equal(a, b)`` compares two lifted objects;
    * ``embed(t, legs, positions)`` and ``coproduct_on_leg(t, leg)`` take
      an unlifted t and return the lifted ``leg_embedding`` and
      ``coproduct_on_leg`` of it: here those maps themselves, on
      MonomialOps and NumpyOps a gather of ``tensor(t)`` by an index array
      (linalg.embedding_gather, linalg.coproduct_gather), so no element of
      more legs than t is transformed;
    * ``matrix(m)``, ``kron(a, b)``, ``identity(n)`` and ``invertible(m)``
      do the same for matrices (see linalg.ExactOps), and ``braided(b)``
      lifts a braidrep.BraidedRMatrix: from its source r on MonomialOps
      and NumpyOps, through its dense matrix on the others.  Those two
      lift a tensor to a diagonal, which their ``invertible`` also takes.

    ``+`` and ``@`` are used directly on lifted objects.  Here lifting is
    the identity, products are taken in the tensor-power algebra (one
    scalar product per pair of terms) and equality is exact; this is the
    oracle.  floatback.NumpyOps and linalg.MonomialOps both lift a tensor
    into the diagonal of its regular image in the character basis, where
    products are pointwise: NumpyOps by numpy's FFT in complex floats,
    MonomialOps by an exact character transform.
    linalg.IntegerOps keeps this tensor half and lifts matrices to integer
    arrays.
    """

    def tensor(self, t: TensorElement) -> TensorElement:
        return t

    def mul(self, a: TensorElement, b: TensorElement) -> TensorElement:
        return a * b

    def embed(self, t: TensorElement, legs: int, positions) -> TensorElement:
        return leg_embedding(t, legs, positions)

    def coproduct_on_leg(self, t: TensorElement, leg: int) -> TensorElement:
        return coproduct_on_leg(t, leg)

    def equal(self, a, b) -> bool:
        return a == b


EXACT_ALGEBRA = ExactAlgebraOps()


def _require_two_legs(spec: GroupSpec, r: TensorElement):
    if r.spec != spec or r.legs != 2:
        raise ValueError("expected a two-leg tensor element over the given spec")


def _three_leg_embeddings(r: TensorElement, ops):
    """Lifted R12, R13, R23."""
    return tuple(ops.embed(r, 3, pos) for pos in ((0, 1), (0, 2), (1, 2)))


def check_quasi_cocommutative(spec: GroupSpec, r: TensorElement,
                              ops=EXACT_ALGEBRA) -> bool:
    """Check that Dop(x) * R equals R * D(x) for every basis x, with the
    products taken in the tensor-square algebra."""
    _require_two_legs(spec, r)
    rl = ops.tensor(r)
    for exps in spec.basis():
        x = AlgebraElement.basis(spec, exps)
        if not ops.equal(ops.mul(ops.tensor(opposite_coproduct(x)), rl),
                         ops.mul(rl, ops.tensor(coproduct(x)))):
            return False
    return True


def check_quasitriangular(spec: GroupSpec, r: TensorElement, ops=EXACT_ALGEBRA) -> bool:
    """Check the two coproduct compatibility identities,
    (D x id)(R) = R13 R23 and (id x D)(R) = R13 R12, in three legs."""
    _require_two_legs(spec, r)
    r12, r13, r23 = _three_leg_embeddings(r, ops)
    return (ops.equal(ops.coproduct_on_leg(r, 0), ops.mul(r13, r23))
            and ops.equal(ops.coproduct_on_leg(r, 1), ops.mul(r13, r12)))


def check_algebraic_ybe(spec: GroupSpec, r: TensorElement, ops=EXACT_ALGEBRA) -> bool:
    """Check that R12 R13 R23 = R23 R13 R12 in the three-fold power."""
    _require_two_legs(spec, r)
    r12, r13, r23 = _three_leg_embeddings(r, ops)
    return ops.equal(ops.mul(ops.mul(r12, r13), r23), ops.mul(ops.mul(r23, r13), r12))


def check_hopf_axioms(spec: GroupSpec, ops=EXACT_ALGEBRA) -> bool:
    """Coassociativity, the counit laws, and the antipode law, verified on
    every basis element."""

    def leg(x: AlgebraElement):
        return ops.tensor(as_single_leg(x))

    unit = AlgebraElement.unit(spec)
    for exps in spec.basis():
        x = AlgebraElement.basis(spec, exps)
        d = coproduct(x)
        if not ops.equal(ops.tensor(coproduct_on_leg(d, 0)),
                         ops.tensor(coproduct_on_leg(d, 1))):
            return False
        one_leg = leg(x)
        if not (ops.equal(ops.tensor(counit_on_leg(d, 0)), one_leg)
                and ops.equal(ops.tensor(counit_on_leg(d, 1)), one_leg)):
            return False
        left = right = leg(AlgebraElement.zero(spec))
        for (u, v), c in d.terms.items():
            ue = AlgebraElement.basis(spec, u, c)
            ve = AlgebraElement.basis(spec, v)
            left = left + ops.mul(leg(antipode(ue)), leg(ve))
            right = right + ops.mul(leg(ue), leg(antipode(ve)))
        target = leg(unit * counit(x))
        if not (ops.equal(left, target) and ops.equal(right, target)):
            return False
    return True


def specs_up_to(bound: int) -> list[GroupSpec]:
    """All specs with factor orders >= 2 (nondecreasing) and total dimension
    at most ``bound``, plus the trivial spec (1,).  Reorderings of the
    factors give isomorphic algebras, so one representative per multiset."""
    out = [GroupSpec((1,))]

    def extend(prefix: tuple[int, ...], start: int, room: int):
        for n in range(start, room + 1):
            out.append(GroupSpec(prefix + (n,)))
            extend(prefix + (n,), n, room // n)

    extend((), 2, bound)
    return out


# -- JSON interchange -----------------------------------------------------


def tensor_to_json(t: TensorElement) -> dict:
    return {
        "orders": list(t.spec.orders),
        "legs": t.legs,
        "terms": [
            {"exps": [list(leg) for leg in key], "coeff": c.to_json()}
            for key, c in sorted(t.terms.items())
        ],
    }


def tensor_from_json(data: dict) -> TensorElement:
    """Inverse of tensor_to_json; raises ValueError on malformed input."""
    try:
        orders, legs = tuple(data["orders"]), data["legs"]
        terms = [(tuple(tuple(leg) for leg in term["exps"]), term["coeff"])
                 for term in data["terms"]]
        fields = [*orders, legs, *(e for key, _ in terms for leg in key for e in leg)]
        if any(type(v) is not int for v in fields):
            raise TypeError
    except (KeyError, TypeError, ValueError):
        raise ValueError("tensor JSON needs integer 'orders' and 'legs' and a 'terms' "
                         "list of objects with integer 'exps' lists and a 'coeff'") from None
    pairs = [(key, CyclotomicNumber.from_json(coeff)) for key, coeff in terms]
    return TensorElement.from_terms(GroupSpec(orders), legs, pairs)
