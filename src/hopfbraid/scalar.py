"""Exact arithmetic in cyclotomic fields Q(zeta_L).

A value of order L is stored canonically as a polynomial in
zeta_L = exp(2*pi*i/L), reduced modulo the L-th cyclotomic polynomial,
with Fraction coefficients.  Canonical reduction makes equality decidable
by comparing coefficient tuples at a common order; order 1 encodes the
plain rationals.  Operands of different orders are lifted to the lcm
order before combining; results are never moved back to a smaller field
automatically (``descend`` does that on request).

All values are immutable and every operation is pure, so values can be
shared freely between threads.
"""

from __future__ import annotations

import cmath
import threading
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import ceil, lcm

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients of the cyclotomic polynomial of the given order.

    Ascending powers, monic, integer: order 1 gives (-1, 1) for x - 1.
    Computed by exact division of x^order - 1 by the polynomials of all
    proper divisors.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    if order == 1:
        return (-1, 1)
    poly = [-_ONE] + [_ZERO] * (order - 1) + [_ONE]
    for d in range(1, order):
        if order % d == 0:
            poly, rem = _poly_divmod(poly, [Fraction(c) for c in cyclotomic_polynomial(d)])
            if rem:
                raise ArithmeticError("polynomial division left a remainder")
    return tuple(int(c) for c in poly)


@lru_cache(maxsize=None)
def _degree(order: int) -> int:
    return len(cyclotomic_polynomial(order)) - 1


# residues of x^k modulo the cyclotomic polynomial, per order, as integer
# tuples; grown on demand and shared by all reductions at that order
_POWER_TABLES: dict[int, list[tuple[int, ...]]] = {}


_POWER_LOCK = threading.Lock()


def _power_residues(order: int, top: int) -> list[tuple[int, ...]]:
    # rows are only ever appended, each in its final form, so a table that
    # is already long enough can be read without the lock
    table = _POWER_TABLES.get(order)
    if table is not None and len(table) > top:
        return table
    with _POWER_LOCK:
        phi = cyclotomic_polynomial(order)
        deg = len(phi) - 1
        table = _POWER_TABLES.setdefault(order, [])
        if not table:
            for k in range(deg):
                row = [0] * deg
                row[k] = 1
                table.append(tuple(row))
        while len(table) <= top:
            prev = table[-1]
            lead = prev[deg - 1]
            row = [-lead * phi[0]] + [prev[i - 1] - lead * phi[i] for i in range(1, deg)]
            table.append(tuple(row))
    return table


def _from_power_dict(order: int, powers: dict[int, Fraction]) -> "CyclotomicNumber":
    deg = _degree(order)
    coeffs = [_ZERO] * deg
    if powers:
        top = max(powers)
        table = _power_residues(order, top) if top >= deg else None
        for k, c in powers.items():
            if not c:
                continue
            if k < deg:
                coeffs[k] += c
            else:
                for i, r in enumerate(table[k]):
                    if r:
                        coeffs[i] += c * r
    return CyclotomicNumber(order, tuple(coeffs))


class CyclotomicNumber:
    """One element of Q(zeta_order) in the canonical power basis."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        if order < 1:
            raise ValueError("order must be a positive integer")
        if len(coeffs) != _degree(order):
            raise ValueError("coefficient vector length does not match the order")
        self.order = order
        self.coeffs = coeffs

    # -- construction ------------------------------------------------

    def lift(self, order: int) -> "CyclotomicNumber":
        """The same value rewritten in Q(zeta_order); order must be a multiple."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("can only lift to a multiple of the current order")
        step = order // self.order
        return _from_power_dict(order, {k * step: c for k, c in enumerate(self.coeffs) if c})

    # -- predicates --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

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
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        if self.order == o.order:
            return CyclotomicNumber(
                self.order, tuple(x + y for x, y in zip(self.coeffs, o.coeffs))
            )
        n = lcm(self.order, o.order)
        a, b = self.lift(n), o.lift(n)
        return CyclotomicNumber(n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, tuple(-c for c in self.coeffs))

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
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if self.order == 1:
            c = self.coeffs[0]
            return CyclotomicNumber(o.order, tuple(c * y for y in o.coeffs))
        if o.order == 1:
            c = o.coeffs[0]
            return CyclotomicNumber(self.order, tuple(c * x for x in self.coeffs))
        n = lcm(self.order, o.order)
        a, b = self.lift(n), o.lift(n)
        deg = len(a.coeffs)
        nza = [(i, c) for i, c in enumerate(a.coeffs) if c]
        nzb = [(j, c) for j, c in enumerate(b.coeffs) if c]
        out = [_ZERO] * deg
        table = _power_residues(n, 2 * deg - 2)
        for i, ca in nza:
            for j, cb in nzb:
                c = ca * cb
                k = i + j
                if k < deg:
                    out[k] += c
                else:
                    for m, r in enumerate(table[k]):
                        if r:
                            out[m] += c * r
        return CyclotomicNumber(n, tuple(out))

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
        """Multiplicative inverse, via the extended polynomial gcd with the
        cyclotomic polynomial; raises ZeroDivisionError on zero."""
        if self.is_zero:
            raise ZeroDivisionError("inverting the zero cyclotomic number")
        if self.order == 1:
            return rational(_ONE / self.coeffs[0])
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        g, s = _poly_half_xgcd(list(self.coeffs), phi)
        g = _trim(g)
        if len(g) != 1:
            raise ArithmeticError("gcd with the cyclotomic polynomial is not constant")
        c = g[0]
        return _from_power_dict(self.order, {i: v / c for i, v in enumerate(s) if v})

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation: zeta^k maps to zeta^(order - k), linearly."""
        n = self.order
        powers: dict[int, Fraction] = {}
        for k, c in enumerate(self.coeffs):
            if c:
                p = (n - k) % n
                powers[p] = powers.get(p, _ZERO) + c
        return _from_power_dict(n, powers)

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if self.order == o.order:
            return self.coeffs == o.coeffs
        n = lcm(self.order, o.order)
        return self.lift(n).coeffs == o.lift(n).coeffs

    __hash__ = None  # mixed-order equality makes a consistent hash impractical

    # -- conversions ---------------------------------------------------

    def to_complex(self) -> complex:
        """Numerical embedding with zeta_order = exp(2*pi*i/order)."""
        total = 0j
        n = self.order
        for k, c in enumerate(self.coeffs):
            if c:
                total += float(c) * cmath.exp(2j * cmath.pi * k / n)
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
        """Inverse of to_json; raises ValueError on malformed input."""
        try:
            order = int(data["order"])
            coeffs = tuple(Fraction(int(n), int(d)) for n, d in data["coeffs"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            raise ValueError("cyclotomic number JSON needs an integer 'order' and "
                             "'coeffs' as [numerator, denominator] pairs with "
                             "nonzero denominators") from None
        return cls(order, coeffs)

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
    return CyclotomicNumber(1, (Fraction(value),))


@lru_cache(maxsize=None)
def root_of_unity(order: int, power: int = 1) -> CyclotomicNumber:
    """Canonical form of zeta_order^power, i.e. exp(2*pi*i*power/order)."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    return _from_power_dict(order, {power % order: _ONE})


# -- small polynomial helpers over Fraction ---------------------------


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_sub_scaled(a: list[Fraction], b: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    # a - q*b
    out = list(a) + [_ZERO] * max(0, len(b) + len(q) - 1 - len(a))
    for i, qi in enumerate(q):
        if qi:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] -= qi * bj
    return _trim(out)


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    q = [_ZERO] * max(0, len(a) - db)
    while len(_trim(a)) - 1 >= db and a:
        k = len(a) - 1 - db
        c = a[-1] / lead
        q[k] = c
        for j in range(db + 1):
            a[k + j] -= c * b[j]
        a = _trim(a)
    return _trim(q), a


def _poly_half_xgcd(a: list[Fraction], b: list[Fraction]):
    """Extended gcd over Q[x] tracking one cofactor: returns (g, s) with
    s*a congruent to g modulo b."""
    r0, r1 = _trim(list(a)), _trim(list(b))
    s0, s1 = [_ONE], []
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub_scaled(s0, s1, q)
    return r0, s0


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
