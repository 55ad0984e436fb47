"""Exact arithmetic in cyclotomic fields Q(zeta_L).

A value of order L is a polynomial in zeta_L = exp(2*pi*i/L), reduced
modulo the L-th cyclotomic polynomial, so that its power basis has deg =
phi(L) entries.  It is stored as integer numerators ``nums``, one per
power, over one positive integer denominator ``den``, in canonical form:
gcd(nums..., den) = 1, and zero is all-zero numerators over 1.  Equality
at one order is tuple equality; order 1 encodes the plain rationals.

A product is an integer convolution, reduced once by the residues of x^k
and divided by one gcd; a product with an order-1 operand is an integer
scale.  A sum puts both operands over a common denominator.  Operands of
different orders are lifted to the lcm order before combining; results are
never moved back to a smaller field automatically (``descend`` does that
on request).  The inverse is the product of the other Galois conjugates
divided by the norm, which is a nonzero rational; the conjugates are
multiplied one cyclic step of the Galois group at a time, by doubling.

Each order has one table of the residues of x^k modulo the cyclotomic
polynomial, for every k a product, a lift or a Galois conjugate reaches.
It is built whole on first use and published once, so it never changes
after another thread can see it.

``Fraction`` appears only at the edges: the constructor accepts int and
Fraction coefficients, the ``coeffs`` property returns them as Fractions
(for JSON, text, the exact sign and descent), and the row reduction works
on Fractions or values alike.

All values are immutable and every operation is pure, so values can be
shared freely between threads.
"""

from __future__ import annotations

import cmath
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, lcm

Rational = Fraction

_ZERO = Fraction(0)

# the largest field order from_json accepts; its tables build in under a second
MAX_JSON_ORDER = 2048


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients of the cyclotomic polynomial of the given order.

    Ascending powers, monic, integer: order 1 gives (-1, 1) for x - 1.
    Computed by exact integer division of x^order - 1 by the (monic)
    polynomials of all proper divisors.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            div = cyclotomic_polynomial(d)
            low = len(div) - 1
            quot = [0] * (len(poly) - low)
            for i in reversed(range(len(quot))):
                c = quot[i] = poly[i + low]
                for j, b in enumerate(div):
                    poly[i + j] -= c * b
            if any(poly[:low]):
                raise ArithmeticError("polynomial division left a remainder")
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def _degree(order: int) -> int:
    return len(cyclotomic_polynomial(order)) - 1


# sparse residue rows ((m, r), ...) of x^k modulo the cyclotomic polynomial
# for k up to max(order - 1, 2 deg - 2), enough for products, lifts and
# Galois conjugates; one table per order, built whole and published with
# setdefault, so a racing thread builds an equal table and drops it
_RESIDUES: dict[int, tuple] = {}


def _residues(order: int) -> tuple:
    rows = _RESIDUES.get(order)
    if rows is None:
        phi = cyclotomic_polynomial(order)
        deg = len(phi) - 1
        row, dense = [1] + [0] * (deg - 1), []
        for _ in range(max(order, 2 * deg - 1)):
            dense.append(row)
            # x * row, with its x^deg term replaced by the lower terms of phi
            lead, row = row[-1], [0] + row[:-1]
            row = [v - lead * c for v, c in zip(row, phi)]
        rows = _RESIDUES.setdefault(order, tuple(
            tuple((m, r) for m, r in enumerate(row) if r) for row in dense))
    return rows


_new = object.__new__


def _canonical(order: int, nums: tuple[int, ...], den: int) -> "CyclotomicNumber":
    """The value nums/den of the given order (den > 0), divided by one gcd."""
    g = gcd(den, *nums)
    if g != 1:
        nums = tuple(x // g for x in nums)
        den //= g
    x = _new(CyclotomicNumber)
    x.order, x.nums, x.den = order, nums, den
    return x


def _from_powers(order: int, powers, den: int) -> "CyclotomicNumber":
    """sum c zeta_order^k / den over the (k, c) pairs of powers, with
    integer c and k at most the top of the residue table."""
    rows = _residues(order)
    out = [0] * _degree(order)
    for k, c in powers:
        if c:
            for m, r in rows[k]:
                out[m] += c * r
    return _canonical(order, tuple(out), den)


def _check_length(order: int, length: int):
    """Raise ValueError unless order is positive and length is phi(order)."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    if length != _degree(order):
        raise ValueError("coefficient vector length does not match the order")


class CyclotomicNumber:
    """One element of Q(zeta_order): integer numerators ``nums`` over the
    power basis and one positive denominator ``den``, in canonical form."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        _check_length(order, len(coeffs))
        if not all(isinstance(c, (int, Fraction)) for c in coeffs):
            raise TypeError("cyclotomic coefficients must be integers or Fractions")
        fracs = [Fraction(c) for c in coeffs]
        # with den the lcm of reduced denominators, gcd(nums..., den) = 1
        den = lcm(*(c.denominator for c in fracs))
        self.order = order
        self.nums = tuple(c.numerator * (den // c.denominator) for c in fracs)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    # -- construction ------------------------------------------------

    def lift(self, order: int) -> "CyclotomicNumber":
        """The same value rewritten in Q(zeta_order); order must be a multiple."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("can only lift to a multiple of the current order")
        step = order // self.order
        return _from_powers(order, ((k * step, x) for k, x in enumerate(self.nums)), self.den)

    # -- predicates --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return not self.is_zero

    def is_real(self) -> bool:
        return self.conjugate() == self

    def is_positive(self) -> bool:
        """True when the value is real and above 0, decided without a float
        cutoff: the value sum_k c_k cos(2 pi k / order) is evaluated in
        decimal, at a precision that doubles until the value lies farther
        from 0 than a bound on its evaluation error."""
        if self.is_zero or not self.is_real():
            return False
        terms = [(k, c) for k, c in enumerate(self.coeffs) if c]
        # each cosine errs by under 1000 units in the last working digit and
        # each partial sum is at most height, so with ten working digits
        # beyond `digits` the bound below is a million times the error
        height = ceil(sum(abs(c) for _, c in terms))
        digits = 20
        while True:
            with localcontext() as ctx:
                ctx.prec = digits + 10
                turn = 2 * _decimal_pi() / self.order
                value = sum(Decimal(c.numerator) / c.denominator * _decimal_cos(turn * k)
                            for k, c in terms)
            if abs(value) > Decimal(height * (len(terms) + 10)).scaleb(-digits):
                return value > 0
            digits *= 2

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        o = other if type(other) is CyclotomicNumber else _coerce(other)
        if o is None:
            return NotImplemented
        if not any(self.nums):
            return o
        if not any(o.nums):
            return self
        a, b = self, o
        if a.order != b.order:
            n = lcm(a.order, b.order)
            a, b = a.lift(n), b.lift(n)
        da, db = a.den, b.den
        if da == db:
            return _canonical(a.order, tuple(x + y for x, y in zip(a.nums, b.nums)), da)
        g = gcd(da, db)
        sa, sb = db // g, da // g
        return _canonical(a.order, tuple(x * sa + y * sb for x, y in zip(a.nums, b.nums)),
                          da * sa)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self.order, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = other if type(other) is CyclotomicNumber else _coerce(other)
        if o is None:
            return NotImplemented
        if self.order == 1:
            c = self.nums[0]
            return _canonical(o.order, tuple(c * y for y in o.nums), self.den * o.den)
        if o.order == 1:
            c = o.nums[0]
            return _canonical(self.order, tuple(c * x for x in self.nums), self.den * o.den)
        a, b = self, o
        if a.order != b.order:
            n = lcm(a.order, b.order)
            a, b = a.lift(n), b.lift(n)
        deg = len(a.nums)
        conv = [0] * (2 * deg - 1)
        nzb = [(j, y) for j, y in enumerate(b.nums) if y]
        for i, x in enumerate(a.nums):
            if x:
                for j, y in nzb:
                    conv[i + j] += x * y
        return _from_powers(a.order, enumerate(conv), a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.invert()
            exponent = -exponent
        acc = rational(1)
        while exponent:
            if exponent & 1:
                acc = acc * base
            base = base * base
            exponent >>= 1
        return acc

    def invert(self) -> "CyclotomicNumber":
        """Multiplicative inverse: the product of the other Galois conjugates
        over the norm, a nonzero rational; raises ZeroDivisionError on zero.

        The conjugates are gathered one cyclic step of ``_galois_chain`` at
        a time: if ``full`` is the product of sigma_h(x) over the subgroup
        H so far, then over H<g> it is full times q, the product of
        sigma_g^k(full) for 0 < k < m, which ``_orbit_product`` forms by
        doubling in about 2 log2(m) products."""
        if self.is_zero:
            raise ZeroDivisionError("inverting the zero cyclotomic number")
        n = self.order
        others, full = rational(1), self
        for g, m in _galois_chain(n):
            q = _orbit_product(full, g, m - 1, n)._galois(g)
            others, full = others * q, full * q
        norm = full  # self * others: nums (a, 0, ..., 0) over den
        a = norm.nums[0]
        scale = norm.den if a > 0 else -norm.den
        return _canonical(n, tuple(scale * x for x in others.nums), others.den * abs(a))

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, the Galois automorphism zeta -> zeta^-1."""
        return self._galois(-1)

    def _galois(self, k: int) -> "CyclotomicNumber":
        """The automorphism zeta -> zeta^k, for k a unit modulo the order."""
        n = self.order
        return _from_powers(n, ((j * k % n, x) for j, x in enumerate(self.nums)), self.den)

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        o = other if type(other) is CyclotomicNumber else _coerce(other)
        if o is None:
            return NotImplemented
        a, b = self, o
        if a.order != b.order:
            n = lcm(a.order, b.order)
            a, b = a.lift(n), b.lift(n)
        return a.den == b.den and a.nums == b.nums

    __hash__ = None  # mixed-order equality makes a consistent hash impractical

    # -- conversions ---------------------------------------------------

    def to_complex(self) -> complex:
        """Numerical embedding with zeta_order = exp(2*pi*i/order)."""
        # x / den rounds the exact quotient once, as float(Fraction) does
        total = 0j
        n, den = self.order, self.den
        for k, x in enumerate(self.nums):
            if x:
                total += x / den * cmath.exp(2j * cmath.pi * k / n)
        return total

    def descend(self) -> "CyclotomicNumber":
        """Rewrite at the smallest divisor order containing the value."""
        if self.order == 1:
            return self
        for div in _divisors(self.order)[:-1]:
            sub = self._in_suborder(div)
            if sub is not None:
                return sub
        return self

    def _in_suborder(self, div: int):
        deg_sub = _degree(div)
        cols = [root_of_unity(div, j).lift(self.order).coeffs for j in range(deg_sub)]
        sol = _solve_columns(cols, self.coeffs)
        if sol is None:
            return None
        return CyclotomicNumber(div, tuple(sol))

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [[c.numerator, c.denominator] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CyclotomicNumber":
        """Inverse of to_json; raises ValueError on malformed input, such as
        a field that is not a JSON integer (a float, a bool or a string) or
        an order above MAX_JSON_ORDER."""
        try:
            order, pairs = data["order"], [tuple(pair) for pair in data["coeffs"]]
            if type(order) is not int or not all(
                    len(p) == 2 and type(p[0]) is type(p[1]) is int and p[1] for p in pairs):
                raise TypeError
        except (KeyError, TypeError):
            raise ValueError("cyclotomic number JSON needs an integer 'order' and "
                             "'coeffs' as [numerator, denominator] integer pairs "
                             "with nonzero denominators") from None
        # the order's tables take about order^2 steps to build, so refuse first
        if order > MAX_JSON_ORDER:
            raise ValueError(f"cyclotomic number JSON order {order} is above the limit "
                             f"of {MAX_JSON_ORDER}")
        _check_length(order, len(pairs))
        # the pairs over one common denominator, with no Fraction made; lcm is
        # positive, and den // d takes the sign of d
        den = lcm(*(d for _, d in pairs))
        return _canonical(order, tuple(n * (den // d) for n, d in pairs), den)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
                continue
            base = f"z{self.order}" if k == 1 else f"z{self.order}^{k}"
            if c == 1:
                parts.append(base)
            elif c == -1:
                parts.append(f"-{base}")
            else:
                parts.append(f"({c})*{base}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


@lru_cache(maxsize=None)
def _galois_chain(order: int) -> tuple[tuple[int, int], ...]:
    """(g, m) steps that build the unit group (Z/order)^* as a chain of
    subgroups: each g is a unit outside the subgroup H the earlier steps
    generate, and m >= 2 the least exponent with g^m in H, so that H<g> is
    the union of the m cosets g^k H."""
    group, chain = {1}, []
    for g in range(2, order):
        if gcd(g, order) == 1 and g not in group:
            m, power = 1, g
            while power not in group:
                power, m = power * g % order, m + 1
            chain.append((g, m))
            group = {h * pow(g, k, order) % order for h in group for k in range(m)}
    return tuple(chain)


def _orbit_product(y: "CyclotomicNumber", g: int, t: int, order: int) -> "CyclotomicNumber":
    """The product of sigma_(g^k)(y) for 0 <= k < t (t >= 1), by doubling:
    P(2s) = P(s) sigma_(g^s)(P(s)) and P(s + 1) = P(s) sigma_(g^s)(y)."""
    p, s = y, 1
    for bit in bin(t)[3:]:
        p, s = p * p._galois(pow(g, s, order)), 2 * s
        if bit == "1":
            p, s = p * y._galois(pow(g, s, order)), s + 1
    return p


def _decimal_pi() -> Decimal:
    """pi to the current decimal precision, as the series of 6 asin(1/2)."""
    with localcontext() as ctx:
        ctx.prec += 2
        last, t, total, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
        while total != last:
            last = total
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = t * n / d
            total += t
    return +total


def _decimal_cos(x: Decimal) -> Decimal:
    """cos(x) to the current decimal precision by its Taylor series; the
    terms stay below 100 for |x| <= 2 pi, so two guard digits suffice."""
    with localcontext() as ctx:
        ctx.prec += 2
        last, total, term, i = 0, Decimal(1), Decimal(1), 0
        while total != last:
            last = total
            i += 2
            term = -term * x * x / (i * (i - 1))
            total += term
    return +total


def _coerce(value):
    if isinstance(value, CyclotomicNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return rational(value)
    return None


def as_scalar(value) -> CyclotomicNumber:
    """Coerce an int, Fraction, or CyclotomicNumber to a CyclotomicNumber."""
    v = _coerce(value)
    if v is None:
        raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")
    return v


def rational(value) -> CyclotomicNumber:
    """Embed an integer or Fraction as an order-1 value."""
    if type(value) is int:
        return _canonical(1, (value,), 1)
    return CyclotomicNumber(1, (value,))


@lru_cache(maxsize=None)
def root_of_unity(order: int, power: int = 1) -> CyclotomicNumber:
    """Canonical form of zeta_order^power, i.e. exp(2*pi*i*power/order)."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    return _from_powers(order, [(power % order, 1)], 1)


def _row_reduce(rows: list[list], ncols: int) -> list[int]:
    """Bring rows to reduced row echelon form in place, pivoting only in the
    first ncols columns, and return the pivot columns.

    The one elimination of the package (inverse, rank and descent all use
    it).  Entries may be Fractions or CyclotomicNumbers: only ``1 / pivot``,
    truthiness and ``v - f * w`` are used.  The pivot of each column is its
    first nonzero entry at or below the current row, so results are
    deterministic.
    """
    pivots: list[int] = []
    for col in range(ncols):
        top = len(pivots)
        if top == len(rows):
            break
        piv = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        inv = 1 / rows[top][col]
        pivot_row = rows[top] = [v * inv for v in rows[top]]
        for r, row in enumerate(rows):
            f = row[col]
            if r != top and f:
                rows[r] = [v - f * w for v, w in zip(row, pivot_row)]
        pivots.append(col)
    return pivots


def _solve_columns(cols, target):
    """Solve sum_j x_j * cols[j] = target exactly; None if inconsistent."""
    n = len(cols)
    aug = [[col[i] for col in cols] + [t] for i, t in enumerate(target)]
    pivots = _row_reduce(aug, n)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    sol = [_ZERO] * n
    for row, col in zip(aug, pivots):
        sol[col] = row[n]
    return sol


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)
