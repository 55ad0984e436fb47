"""Dense and monomial matrices over exact cyclotomic scalars.

Row-major storage, immutable after construction.  Composite (Kronecker)
indices always put the first tensor factor in the most significant
position.

Three exact backends share the ops protocol (see groupalg.ExactAlgebraOps):

* ``EXACT`` works on dense ``Matrix`` objects of CyclotomicNumbers and on
  tensor elements; it is the library default and the oracle of the tests.
* ``INTEGER`` (``IntegerOps``) works on dense ``IntegerMatrix`` objects:
  integer arrays over the powers of zeta_L with one denominator, whose
  products run in numpy (float64 BLAS, int64 or Python integers, as a
  bound on every partial sum allows).  Its tensor half is EXACT's.
  ``hopfbraid check`` decides every dense exact verdict on it.
* ``MonomialOps(spec)`` works on ``MonomialMatrix`` objects in the
  character basis of the spec: a numpy permutation and a 1 x n
  IntegerMatrix of weights, multiplied by IntegerMatrix's product.  There
  a tensor element is the diagonal of its regular image, and R' built
  from its source r is the flip permutation times r's diagonal.  Any
  other matrix is admitted only after its conjugate by the character
  basis has been computed exactly and found to hold one nonzero entry in
  every row and column (the certificate); otherwise NotMonomialError is
  raised, so a caller can fall back to a dense backend.

Each exact linear-algebra job has one implementation.  ``ModuleAction``
is the one module class; ``RegularRepresentation``, its regular case,
builds each shift permutation on first read.  ``_action_image`` is the
one action routine: every module image (``on_element``, ``on_tensor``)
and every braiding map (braidrep) is the matrix of a tensor element
acting on a tensor product of modules.  ``apply_on_qudits`` places
every gate on chosen qudits, on lifted IntegerMatrix operands only: one
batched product per braid letter, and one per ``quantum.apply_gate``
call.  Its ``digit_offsets`` also lay out
``quantum.schmidt_rank``.  ``_transform`` is the one change to the
character basis: a product on each axis by a basis that MonomialOps has
checked, for its diagonals and certificates; no transform runs on an
unchecked basis.  ``embedding_gather`` and
``coproduct_gather`` are the one index arithmetic on such diagonals: the
R_ij and coproducts of MonomialOps and floatback.NumpyOps are gathers.
``IntegerMatrix.from_entries`` is the one lift of values to integer terms
over the powers of zeta_L, ``_reduce`` the one reduction of such vectors
by the residue table and ``IntegerMatrix._combine`` the one product of
integer arrays; the
transform, IntegerMatrix and MonomialMatrix share them.
``scalar._row_reduce`` is the one elimination: inverse, rank and field
descent all call it.  It takes the first nonzero pivot in each column;
exact arithmetic needs no magnitude pivoting and this keeps every result
deterministic.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, lcm, prod
from operator import add

import numpy as np

from .groupalg import (AlgebraElement, ExactAlgebraOps, GroupSpec, TensorElement,
                       _accumulate, _embedding_positions, as_single_leg)
from .scalar import (CyclotomicNumber, _canonical, _degree, _residues, _row_reduce, as_scalar,
                     rational, root_of_unity)


class SingularMatrixError(ValueError):
    def __init__(self, column: int):
        super().__init__(f"matrix is singular: no pivot available in column {column}")
        self.column = column


class Matrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        entries = [as_scalar(e) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match the shape")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one, zero = rational(1), rational(0)
        return cls(n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        zero = rational(0)
        return cls(rows, cols, [zero] * (rows * cols))

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), n, [e for r in rows for e in r])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        out = []
        oc = other.cols
        for i in range(self.rows):
            base = i * self.cols
            row_terms = [
                (k, self.entries[base + k])
                for k in range(self.cols)
                if not self.entries[base + k].is_zero
            ]
            for j in range(oc):
                acc = None
                for k, a in row_terms:
                    b = other.entries[k * oc + j]
                    if b.is_zero:
                        continue
                    p = a * b
                    acc = p if acc is None else acc + p
                out.append(acc if acc is not None else rational(0))
        return Matrix(self.rows, oc, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self.entries])

    def __mul__(self, scalar) -> "Matrix":
        c = as_scalar(scalar)
        return Matrix(self.rows, self.cols, [a * c for a in self.entries])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and all(a == b for a, b in zip(self.entries, other.entries)))

    __hash__ = None

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [self.entries[i * self.cols + j]
                       for j in range(self.cols) for i in range(self.rows)])

    def conjugate_transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [self.entries[i * self.cols + j].conjugate()
                       for j in range(self.cols) for i in range(self.rows)])

    def to_complex(self) -> list[list[complex]]:
        return [[self.entries[i * self.cols + j].to_complex() for j in range(self.cols)]
                for i in range(self.rows)]

    def __repr__(self):
        body = "\n".join(
            "  [" + ", ".join(str(self.entries[i * self.cols + j]) for j in range(self.cols)) + "]"
            for i in range(self.rows)
        )
        return f"Matrix {self.rows}x{self.cols}\n{body}"


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; the first factor is the most significant index."""
    out = []
    zero = rational(0)
    for i1 in range(a.rows):
        for i2 in range(b.rows):
            for j1 in range(a.cols):
                av = a[i1, j1]
                if av.is_zero:
                    out.extend([zero] * b.cols)
                    continue
                row2 = i2 * b.cols
                out.extend(av * b.entries[row2 + j2] for j2 in range(b.cols))
    return Matrix(a.rows * b.rows, a.cols * b.cols, out)


def digit_offsets(d: int, n: int, positions) -> list[int]:
    """Composite-index offsets of the digit strings on the given positions
    of n qudits of dimension d, in lexicographic order (first position most
    significant).  At d = 1 there is one string, and positions is not read."""
    if d == 1:
        return [0]
    offsets = [0]
    for p in positions:
        offsets = [o + x * d ** (n - 1 - p) for o in offsets for x in range(d)]
    return offsets


def apply_on_qudits(gate, columns, d: int, n: int, positions):
    """The d^k x d^k gate applied to k distinct qudit positions (the first
    one the gate's most significant digit) of each column of a d^n-row
    matrix, without building the placed gate.  On adjacent positions in
    order, p the first, it is I_(d^p) (x) gate (x) I, one ``_on_blocks``
    product: the gate times each of d^p stacked blocks of rows.  Other
    positions are gathered to the front first (rows laid out by
    digit_offsets) and gathered back after.  gate and columns are both
    IntegerMatrix, so each placement is one integer-array product of
    batched matmuls; callers lift once and lower once (braid words,
    quantum.apply_gate)."""
    if not (isinstance(gate, IntegerMatrix) and isinstance(columns, IntegerMatrix)):
        raise TypeError("apply_on_qudits takes IntegerMatrix operands")
    positions = tuple(positions)
    size, width, k = gate.cols, columns.cols, len(positions)
    if gate.rows != size or size != d ** k or columns.rows != d ** n:
        raise ValueError("gate shape does not match the targeted qudits")
    if len(set(positions)) != k or not set(positions) <= set(range(n)):
        raise ValueError("positions must be distinct qudits in range")
    first = positions[0] if positions else 0
    if d == 1 or positions == tuple(range(first, first + k)):
        return gate._on_blocks(columns, d ** first)
    rows = np.add.outer(digit_offsets(d, n, positions),
                        digit_offsets(d, n, (p for p in range(n) if p not in positions)))
    front = rows.reshape(-1, 1) * width + np.arange(width)  # a permutation of the cells
    back = np.argsort(front, axis=None).reshape(front.shape)
    return gate._on_blocks(columns._gather(front), 1)._gather(back)


def conjugate_transpose(a: Matrix) -> Matrix:
    return a.conjugate_transpose()


def invert_matrix(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination of [a | I] over the
    cyclotomic field."""
    if a.rows != a.cols:
        raise ValueError("only square matrices can be inverted")
    n = a.rows
    one, zero = rational(1), rational(0)
    rows = [list(a.entries[i * n:(i + 1) * n]) + [one if i == j else zero for j in range(n)]
            for i in range(n)]
    pivots = _row_reduce(rows, n)
    if len(pivots) < n:
        raise SingularMatrixError(next(c for c in range(n) if c not in pivots))
    return Matrix(n, n, [e for row in rows for e in row[n:]])


def exact_rank(a: Matrix) -> int:
    """Rank by exact row reduction."""
    rows = [list(a.entries[i * a.cols:(i + 1) * a.cols]) for i in range(a.rows)]
    return len(_row_reduce(rows, a.cols))


def cyclic_shift(order: int) -> Matrix:
    """Permutation matrix of the +1 shift on Z/order: e_j -> e_(j+1)."""
    m = Matrix.zeros(order, order)
    one = rational(1)
    for j in range(order):
        m.entries[((j + 1) % order) * order + j] = one
    return m


def flip_rows(m: Matrix, p: int, q: int) -> Matrix:
    """flip_pair(p, q) @ m as a row permutation: row i*q + j of m becomes
    row j*p + i.  Zero entries are written as rational(0), as the dense
    product writes them."""
    if m.rows != p * q:
        raise ValueError(f"flip of {p}x{q} factors needs {p * q} rows, not {m.rows}")
    zero, n = rational(0), m.cols
    out = [zero] * (m.rows * n)
    for i in range(p):
        for j in range(q):
            src = (i * q + j) * n
            out[(j * p + i) * n:(j * p + i + 1) * n] = [
                zero if e.is_zero else e for e in m.entries[src:src + n]]
    return Matrix(m.rows, n, out)


def flip_pair(p: int, q: int) -> Matrix:
    """Swap of tensor factors of dimensions p and q: e_i (x) f_j -> f_j (x) e_i."""
    return flip_rows(Matrix.identity(p * q), p, q)


def flip_operator(d: int) -> Matrix:
    """The d^2 x d^2 swap of two factors of equal dimension d."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return flip_pair(d, d)


def _action_image(modules, t: TensorElement) -> Matrix:
    """Matrix of the tensor element t acting on V_1 (x) ... (x) V_k, where
    modules[i] gives V_i's ``dimension`` and its matrix ``on_basis(exps)``:
    the sum over terms of c * kron(rho_1(g_1), ..., rho_k(g_k)).  Only the
    nonzero entries of each factor are visited; cells no term reaches, or
    whose terms cancel, hold rational(0)."""
    dims = [m.dimension for m in modules]
    size = prod(dims)
    nonzero = [{} for _ in modules]  # per leg: exps -> [(row, col, entry)]
    cells = []  # (cell, value) per term and choice of nonzero factor entries
    for key, c in t.terms.items():
        legs = []
        for module, seen, exps in zip(modules, nonzero, key):
            entries = seen.get(exps)
            if entries is None:
                m = module.on_basis(exps)
                entries = seen[exps] = [(i, j, m[i, j]) for i in range(m.rows)
                                        for j in range(m.cols) if not m[i, j].is_zero]
            legs.append(entries)
        for hits in itertools.product(*legs):
            row = col = 0
            value = c
            for n, (i, j, e) in zip(dims, hits):
                row, col = row * n + i, col * n + j
                value = value * e
            cells.append((row * size + col, value))
    entries = [rational(0)] * (size * size)
    for cell, value in _accumulate(cells).items():
        entries[cell] = value
    return Matrix(size, size, entries)


class ModuleAction:
    """An action of the group algebra on a vector space: one matrix per
    basis element, multiplicative, with the unit acting as the identity.
    ``_matrices`` maps each reduced exponent tuple to its matrix; every
    image of an element or a tensor element is ``_action_image``'s."""

    def __init__(self, spec: GroupSpec, matrices: dict):
        self.spec = spec
        if set(matrices) != set(spec.basis()):
            raise ValueError("an action needs a matrix for every basis element")
        dims = {m.rows for m in matrices.values()} | {m.cols for m in matrices.values()}
        if len(dims) != 1:
            raise ValueError("all action matrices must be square of equal size")
        self.dimension = dims.pop()
        self._matrices = matrices

    @classmethod
    def regular(cls, spec: GroupSpec) -> "RegularRepresentation":
        return RegularRepresentation(spec)

    @classmethod
    def trivial(cls, spec: GroupSpec) -> "ModuleAction":
        one = Matrix.identity(1)
        return ModuleAction(spec, {e: one for e in spec.basis()})

    def on_basis(self, exps) -> Matrix:
        return self._matrices[self.spec.reduce(exps)]

    def on_element(self, x: AlgebraElement) -> Matrix:
        if x.spec != self.spec:
            raise ValueError("group spec mismatch")
        return _action_image([self], as_single_leg(x))

    def on_tensor(self, t: TensorElement) -> Matrix:
        if t.spec != self.spec:
            raise ValueError("group spec mismatch")
        return _action_image([self] * t.legs, t)

    def validate(self) -> bool:
        """Unit acts as identity and the assignment is multiplicative."""
        if self.on_basis(self.spec.identity) != Matrix.identity(self.dimension):
            return False
        for a in self.spec.basis():
            for b in self.spec.basis():
                if self.on_basis(a) @ self.on_basis(b) != self.on_basis(map(add, a, b)):
                    return False
        return True


class RegularRepresentation(ModuleAction):
    """Left regular action of the group algebra on itself.

    Basis element g^(a_1..a_k) acts as the Kronecker product of cyclic
    shift powers, one per factor; the map extends linearly to algebra
    elements and, Kronecker-wise, to tensor elements (k legs give a
    d^k-dimensional image).  Each shift permutation is built on its first
    read and kept in ``_matrices``.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.dimension = spec.dimension
        self._index = {exps: i for i, exps in enumerate(spec.basis())}
        self._matrices: dict = {}

    def on_basis(self, exps) -> Matrix:
        exps = self.spec.reduce(exps)
        m = self._matrices.get(exps)
        if m is None:
            d = self.dimension
            m = Matrix.zeros(d, d)
            one = rational(1)
            for col, src in enumerate(self.spec.basis()):
                row = self._index[self.spec.reduce(map(add, src, exps))]
                m.entries[row * d + col] = one
            self._matrices[exps] = m
        return m

    # bound here too, so the regular module's images can be traced apart from other modules'
    on_element = ModuleAction.on_element
    on_tensor = ModuleAction.on_tensor


def regular_representation(spec: GroupSpec) -> RegularRepresentation:
    return RegularRepresentation(spec)


class ExactOps(ExactAlgebraOps):
    """The exact backend: ExactAlgebraOps plus dense exact matrices."""

    def matrix(self, m: Matrix) -> Matrix:
        return m

    def kron(self, a: Matrix, b: Matrix) -> Matrix:
        return kron(a, b)

    def identity(self, n: int) -> Matrix:
        return Matrix.identity(n)

    def invertible(self, m: Matrix) -> bool:
        return m.rows == m.cols and exact_rank(m) == m.rows

    def braided(self, b) -> Matrix:
        """A braidrep.BraidedRMatrix lifted through its dense matrix, built on
        first read when b holds only its source."""
        return self.matrix(b.matrix)


EXACT = ExactOps()


# -- the character basis --------------------------------------------------


def character_basis(n: int) -> Matrix:
    """The character basis of the regular module of Z/n: F[j, c] = zeta_n^(j c),
    one character per column.  MonomialOps checks it (check_character_basis)
    and multiplies by it: the character transform is a product by conj(F)^T
    or F^T on each axis."""
    return Matrix(n, n, [root_of_unity(n, j * c) for j in range(n) for c in range(n)])


def check_character_basis(n: int, f: Matrix) -> bool:
    """The proof obligation of the character transform for one cyclic factor
    of order n: F's first row is all ones, rho(g) F = F diag(zeta_n^(-c)) and
    F conj(F)^T = n I.  The first two fix F[j, c] = zeta_n^(j c) exactly, so
    conj(F)^T is the character table (the transform with sign -1), F^-1 is
    conj(F)^T / n, and conjugating the regular action by F diagonalises it.

    Row j of rho(g) F is row j - 1 of F, so the second is F[j - 1, c] =
    F[j, c] zeta_n^(-c) entrywise.  Given it, F conj(F)^T commutes with rho(g)
    (the diagonal is unitary): it is circulant, its first row decides the third."""
    e, phases = f.entries, [root_of_unity(n, -c) for c in range(n)]
    if e[:n] != [1] * n or any(e[(j - 1) % n * n + c] != e[j * n + c] * phases[c]
                               for j in range(n) for c in range(n)):
        return False
    first = Matrix(1, n, e[:n]) @ f.conjugate_transpose()
    return first == Matrix(1, n, [n] + [0] * (n - 1))


def embedding_gather(t: TensorElement, legs: int, positions) -> np.ndarray:
    """The index array that takes the character-basis diagonal of a two-leg
    t to that of leg_embedding(t, legs, positions).  Every character is 1
    on the identity, so entry (c_1, ..., c_legs) of the embedding is t's
    entry (c_i, c_j): a broadcast of t's d x d indices."""
    i, j = _embedding_positions(t, legs, positions)
    d = t.spec.dimension
    shape = [1] * legs
    shape[i] = shape[j] = d
    return np.broadcast_to(np.arange(d * d).reshape(shape), (d,) * legs).ravel()


def coproduct_gather(t: TensorElement, leg: int) -> np.ndarray:
    """The index array that takes the character-basis diagonal of t to that
    of coproduct_on_leg(t, leg).  A group-like g^a has chi_c(g^a) chi_c'(g^a)
    = chi_(c+c')(g^a), so entry (..., c, c', ...) of the coproduct is t's
    entry (..., c + c', ...) under the dual group's law: digitwise mod n_i,
    the first factor the most significant digit, as in the spec's basis."""
    if not 0 <= leg < t.legs:
        raise ValueError(f"leg {leg} is not one of the {t.legs} legs")
    law = np.zeros((1, 1), dtype=np.intp)  # law[c, c'] = index of c + c'
    for n in t.spec.orders:
        a = np.arange(n)
        law = (law[:, None, :, None] * n + (a[:, None, None] + a) % n).reshape(len(law) * n, -1)
    d = t.spec.dimension
    return np.arange(d ** t.legs).reshape(d ** leg, d, -1)[:, law].ravel()


def _transform(x: "IntegerMatrix", bases, scale: int = 1) -> "IntegerMatrix":
    """x's entries, read row-major as an array with one axis per basis (the
    first most significant), multiplied on every axis by its basis:

        out[c] = (1/scale) * sum_a x[a] * prod_i bases[i][c_i, a_i],

    in x's shape.  One IntegerMatrix product per axis, each of which moves
    its axis behind the others, so all of them restore the order."""
    rows, cols = x.rows, x.cols
    for b in bases:
        n = b.cols
        x = b._combine(x, lambda f, v: (f @ v.reshape(n, -1)).T, (rows * cols // n, n), n)
    return IntegerMatrix(x.order, x.nums.reshape(-1, rows, cols), x.den * scale)


# -- integer arrays over the powers of zeta_L -------------------------------


def _exact_dtype(bound: int, blas: bool = False):
    """A dtype that holds every integer up to bound in absolute value
    exactly: float64 below 2^53 when blas (its products then run on BLAS
    and stay exact), int64 below 2^63, Python integers (object) otherwise."""
    if blas and bound < 2 ** 53:
        return np.float64
    return np.int64 if bound < 2 ** 63 else object


def _height(arr) -> int:
    """The largest absolute entry of an integer array."""
    return int(np.abs(arr).max()) if arr.size else 0


def _int_array(values, top: int = 0):
    """Python integers (or rows of them) as an int64 array when they fit,
    else as an array of Python integers; top, if given, bounds them."""
    if top < 2 ** 63:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    return np.array(values, dtype=object)


@lru_cache(maxsize=None)
def _residue_table(order: int):
    """scalar._residues(order) as a read-only dense array, row k the residue
    of x^k modulo the cyclotomic polynomial, and its largest absolute entry."""
    rows = _residues(order)
    top = max(abs(r) for row in rows for _, r in row)
    table = np.zeros((len(rows), _degree(order)), dtype=_exact_dtype(top))
    for k, row in enumerate(rows):
        for m, r in row:
            table[k, m] = r
    table.flags.writeable = False
    return table, top


def _reduce(vectors, order: int, powers=None):
    """(k, ...) integer vectors whose slot s holds the coefficient of
    zeta_order^powers[s] (default s) as (phi(order), ...) power-basis
    numerators: one product with the residue table, in the vectors' dtype."""
    table = _residue_table(order)[0]
    rows = table[:len(vectors)] if powers is None else table[powers]
    flat = rows.T.astype(vectors.dtype, copy=False) @ vectors.reshape(len(vectors), -1)
    return flat.reshape(-1, *vectors.shape[1:])


class IntegerMatrix:
    """A matrix over Q(zeta_order) held as integer arrays: nums[m, i, j] / den
    is the coefficient of zeta_order^m in entry (i, j), for m < phi(order).
    The numerators and den > 0 share no common factor; nums is int64 when
    it fits and holds Python integers otherwise.

    ``@`` and ``kron`` convolve the operands' power slots (both lifted to
    the lcm of their orders first) and reduce the slots at or above phi
    once, by the residue table, so only phi coefficients per entry are ever
    multiplied.  Each product runs in the dtype ``_exact_dtype`` picks from
    a bound on every partial sum: float64 on BLAS when that bound is below
    2^53, int64 below 2^63, Python integers otherwise; so every result is
    exact.  ``+`` adds and ``==`` compares numerators cross-multiplied by
    the denominators.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, nums, den: int):
        # float64 products hold exact integers below 2^53
        if nums.dtype != np.int64 and _height(nums) < 2 ** 63:
            nums = nums.astype(np.int64)
        g = gcd(den, int(np.gcd.reduce(nums, axis=None)))
        if g != 1:
            nums = nums // g
            den //= g
        self.order, self.nums, self.den = order, nums, den

    @classmethod
    def from_matrix(cls, m: Matrix) -> "IntegerMatrix":
        return cls._lift(m.rows, m.cols, np.arange(len(m.entries)), m.entries)

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> "IntegerMatrix":
        """The rows x cols matrix of (flat row-major index, value) pairs, one
        pair per index at most; missing entries are 0.  Each value becomes
        integer multiples of powers of zeta_L over one common denominator, L
        the lcm of the orders of the nonzero values: the values of each order
        are read into one numerator array, scaled to that denominator and
        scattered to their powers of zeta_L by index arrays."""
        pairs = list(entries)
        return cls._lift(rows, cols, np.array([i for i, _ in pairs], dtype=np.intp),
                         [v for _, v in pairs])

    @classmethod
    def _lift(cls, rows: int, cols: int, cells, values) -> "IntegerMatrix":
        """from_entries on an index array and the list of its values (no
        pairs are made: a dense matrix's many tuples cost a garbage
        collection pass)."""
        dens = [v.den for v in values]
        den = lcm(*set(dens))  # a zero value is 0/1
        orders = [v.order for v in values]
        lifted = []  # (order, cells, numerators scaled to den)
        for order in sorted(set(orders)):
            sel = np.flatnonzero(np.equal(orders, order))
            group = values if len(sel) == len(values) else [values[k] for k in sel.tolist()]
            nums = _int_array([v.nums for v in group])
            live = nums.any(axis=1)
            if live.any():
                nums, sel = nums[live], sel[live]
                scale = den // _int_array([dens[k] for k in sel.tolist()], den)
                if _height(nums) * _height(scale) >= 2 ** 63:
                    nums, scale = nums.astype(object), scale.astype(object)
                lifted.append((order, cells[sel], nums * scale[:, None]))
        big = lcm(*(order for order, _, _ in lifted))
        # an entry holds at most big terms, each reduced by one residue row
        top = max((_height(ints) for _, _, ints in lifted), default=0)
        dtype = _exact_dtype(top * big * _residue_table(big)[1])
        arr = np.zeros((big, rows * cols), dtype=dtype)
        for order, at, ints in lifted:
            powers = np.arange(ints.shape[1]) * (big // order)
            arr[powers[:, None], at] = ints.T.astype(dtype, copy=False)
        return cls(big, _reduce(arr, big).reshape(-1, rows, cols), den)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(1, np.eye(n, dtype=np.int64)[None], 1)

    @property
    def rows(self) -> int:
        return self.nums.shape[1]

    @property
    def cols(self) -> int:
        return self.nums.shape[2]

    def _gather(self, index) -> "IntegerMatrix":
        """The matrix of index's shape whose entry (i, j) is this one's entry
        at row-major position index[i, j]."""
        return IntegerMatrix(self.order, self.nums.reshape(len(self.nums), -1)[:, index],
                             self.den)

    def _on_blocks(self, columns: "IntegerMatrix", count: int) -> "IntegerMatrix":
        """(I_count (x) self (x) I_m) @ columns in one product: each pair of
        power slots is a batched matmul of self over the columns reshaped to
        (count, self.cols, -1) (apply_on_qudits)."""
        shape, size = columns.nums.shape[1:], self.cols
        return self._combine(columns, lambda g, x: (g @ x.reshape(count, size, -1)).reshape(shape),
                             shape, size)

    def to_matrix(self) -> Matrix:
        """The entries as values, each distinct numerator vector made once."""
        zero = rational(0)
        made: dict = {}
        out = []
        for vector in map(tuple, self.nums.reshape(len(self.nums), -1).T.tolist()):
            value = made.get(vector)
            if value is None:
                value = _canonical(self.order, vector, self.den) if any(vector) else zero
                made[vector] = value
            out.append(value)
        return Matrix(self.rows, self.cols, out)

    def _at(self, order: int):
        """nums rewritten over Q(zeta_order), order a multiple of self.order."""
        if order == self.order:
            return self.nums
        phi = len(self.nums)
        bound = _height(self.nums) * phi * _residue_table(order)[1]
        return _reduce(self.nums.astype(_exact_dtype(bound)), order,
                       np.arange(phi) * (order // self.order))

    def _combine(self, other: "IntegerMatrix", product, shape, inner: int) -> "IntegerMatrix":
        """The sum of product(a_i, b_j) into power slot i + j, reduced; product
        is bilinear, returns the given shape, and sums at most inner
        products of entries into each output entry."""
        order = lcm(self.order, other.order)
        a, b = self._at(order), other._at(order)
        phi = len(a)
        # a slot sums at most phi products, the reduction 2 phi - 1 slots
        bound = (_height(a) * _height(b) * inner * phi * (2 * phi - 1)
                 * _residue_table(order)[1])
        dtype = _exact_dtype(bound, blas=True)
        a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
        conv = np.zeros((2 * phi - 1, *shape), dtype=dtype)
        live = [j for j in range(phi) if b[j].any()]
        for i in range(phi):
            if a[i].any():
                for j in live:
                    conv[i + j] += product(a[i], b[j])
        return IntegerMatrix(order, _reduce(conv, order), self.den * other.den)

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return self._combine(other, np.matmul, (self.rows, other.cols), self.cols)

    def kron(self, other: "IntegerMatrix") -> "IntegerMatrix":
        """Kronecker product; the first factor is the most significant index."""
        return self._combine(other, np.kron,
                             (self.rows * other.rows, self.cols * other.cols), 1)

    def _common(self, other: "IntegerMatrix"):
        """(a, b, order, den): both operands' numerators over Q(zeta_order),
        order the lcm of theirs, and over den, the lcm of the denominators,
        in a dtype that also holds a + b."""
        order = lcm(self.order, other.order)
        g = gcd(self.den, other.den)
        a, b = self._at(order), other._at(order)
        ka, kb = other.den // g, self.den // g
        dtype = _exact_dtype(_height(a) * ka + _height(b) * kb)
        return (a.astype(dtype, copy=False) * ka, b.astype(dtype, copy=False) * kb,
                order, self.den * ka)

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.nums.shape[1:] != other.nums.shape[1:]:
            raise ValueError("shape mismatch")
        a, b, order, den = self._common(other)
        return IntegerMatrix(order, a + b, den)

    def __eq__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.nums.shape[1:] != other.nums.shape[1:]:
            return False
        a, b, _, _ = self._common(other)
        return np.array_equal(a, b)

    __hash__ = None


class IntegerOps(ExactOps):
    """The exact backend on IntegerMatrix: ExactOps with every matrix lifted
    to integer arrays, so tensor elements are unchanged and a braided matrix
    is lifted through its dense matrix.  Every verdict equals EXACT's, and
    products cost numpy products of phi(L)^2 integer slices instead of
    exact scalar products."""

    def matrix(self, m: Matrix) -> IntegerMatrix:
        return IntegerMatrix.from_matrix(m)

    def kron(self, a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
        return a.kron(b)

    def identity(self, n: int) -> IntegerMatrix:
        return IntegerMatrix.identity(n)

    def invertible(self, m: IntegerMatrix) -> bool:
        return m.rows == m.cols and exact_rank(m.to_matrix()) == m.rows


INTEGER = IntegerOps()


# -- monomial matrices in the character basis -------------------------------


class NotMonomialError(ValueError):
    """A matrix is not monomial in the character basis of its spec."""


class MonomialMatrix:
    """A square matrix whose row i holds weight i in column ``perm[i]`` and
    nothing else, held as a numpy index array and a 1 x n IntegerMatrix of
    weights.  Products and Kronecker products stay monomial: the weights
    are gathered by the permutation and multiplied entrywise by
    IntegerMatrix's exact product, so no scalar arithmetic runs.  A
    certified matrix has no zero weight; a diagonal (``perm`` the identity)
    may have some.

    The constructor also takes a sequence of scalar weights; ``perm`` and
    ``weights`` read back as tuples of ints and of CyclotomicNumbers."""

    __slots__ = ("_perm", "_weights")

    def __init__(self, perm, weights):
        self._perm = np.asarray(perm, dtype=np.intp)
        if not isinstance(weights, IntegerMatrix):
            weights = IntegerMatrix.from_matrix(Matrix(1, len(self._perm), weights))
        self._weights = weights

    @property
    def perm(self) -> tuple[int, ...]:
        return tuple(self._perm.tolist())

    @property
    def weights(self) -> tuple[CyclotomicNumber, ...]:
        return tuple(self._weights.to_matrix().entries)

    @classmethod
    def from_matrix(cls, m: Matrix) -> "MonomialMatrix":
        """Read the monomial form off a dense matrix; NotMonomialError when a
        row or a column does not hold exactly one nonzero entry."""
        if m.rows != m.cols:
            raise NotMonomialError("a monomial matrix is square")
        return cls._read(IntegerMatrix.from_matrix(m))

    @classmethod
    def _read(cls, m: IntegerMatrix) -> "MonomialMatrix":
        """The monomial form of a square IntegerMatrix, as from_matrix."""
        nonzero = m.nums.any(axis=0)
        hits = nonzero.sum(axis=1)
        bad = np.flatnonzero(hits != 1)
        if bad.size:
            raise NotMonomialError(f"row {bad[0]} has {hits[bad[0]]} nonzero entries")
        perm = nonzero.argmax(axis=1)
        if not nonzero.any(axis=0).all():
            raise NotMonomialError("two rows have their nonzero entry in one column")
        weights = m.nums[:, np.arange(len(perm)), perm][:, None, :]
        return cls(perm, IntegerMatrix(m.order, weights, m.den))

    def to_matrix(self) -> Matrix:
        n = len(self._perm)
        out = Matrix.zeros(n, n)
        for i, (j, w) in enumerate(zip(self.perm, self.weights)):
            out.entries[i * n + j] = w
        return out

    def _nonzero(self):
        """The rows that hold a nonzero weight, as a boolean array."""
        return self._weights.nums.any(axis=0)[0]

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        n = len(self._perm)
        if n != len(other._perm):
            raise ValueError("dimension mismatch")
        w = other._weights
        gathered = IntegerMatrix(w.order, w.nums[:, :, self._perm], w.den)
        return MonomialMatrix(other._perm[self._perm],
                              self._weights._combine(gathered, np.multiply, (1, n), 1))

    def kron(self, other: "MonomialMatrix") -> "MonomialMatrix":
        """Kronecker product; the first factor is the most significant index."""
        n = len(other._perm)
        return MonomialMatrix((self._perm[:, None] * n + other._perm).ravel(),
                              self._weights.kron(other._weights))

    def __add__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if not np.array_equal(self._perm, other._perm):
            raise NotMonomialError("only monomial matrices of one pattern are added")
        return MonomialMatrix(self._perm, self._weights + other._weights)

    def __eq__(self, other):
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        if len(self._perm) != len(other._perm):
            return False
        # rows agree when both are zero or both hold one weight in one column
        live = self._nonzero()
        return (np.array_equal(live, other._nonzero())
                and np.array_equal(self._perm[live], other._perm[live])
                and self._weights == other._weights)

    __hash__ = None


class MonomialOps(ExactOps):
    """Exact backend on monomial matrices in the character basis of a spec.

    The character basis of the regular module is the Kronecker product F of
    the per-factor bases ``character_basis(n)``, in spec basis order; every
    element of the group algebra acts diagonally there.  The constructor
    checks, for each cyclic factor, that its generator shifts its own digit
    of the spec basis and the proof obligation of its character basis
    (``check_character_basis``), and builds F as the IntegerMatrix
    Kronecker product of the checked bases' lifts.  Every transform below
    is a product by F^T or conj(F)^T on each leg (``_transform``), so no
    scalar is made.  ``tensor`` takes a k-leg element t to the diagonal of
    F^(-k) rho^(x)k(t) F^(k), its coefficients multiplied by conj(F)^T on
    every leg.  ``embed`` and ``coproduct_on_leg`` transform no element of
    more legs: they gather ``tensor(t)``'s weights (embedding_gather,
    coproduct_gather).  ``mul`` of two diagonals is then a pointwise
    product of integer arrays.  ``matrix`` takes a d^k x d^k
    matrix m (k <= 2) to F^(-k) m F^(k), m multiplied by conj(F)^T / d on
    each row leg and by F^T on each column leg, and raises NotMonomialError
    unless that product (the certificate) is monomial.  ``braided`` takes a
    braided matrix with a source r over this spec straight to the flip
    permutation times ``tensor(r)``, so R' needs no dense matrix and no
    certificate; the certificate remains for matrices without a source,
    such as an imported R'.  Conjugation by the
    invertible F^(k) is an algebra isomorphism that respects Kronecker
    products, identities and equality, and the regular representation is
    faithful, so every verdict equals the dense one.  Transforms are cached
    per instance, keyed on the exact coefficients.
    """

    def __init__(self, spec: GroupSpec):
        rep, orders = RegularRepresentation(spec), spec.orders
        inverse = np.zeros(1, dtype=np.intp)  # spec index of each element's inverse
        for i, n in enumerate(orders):
            # the i-th generator shifts the i-th digit of the spec basis, so
            # F, the Kronecker product of the factors' bases, diagonalises it
            shift = kron(kron(Matrix.identity(prod(orders[:i])), cyclic_shift(n)),
                         Matrix.identity(prod(orders[i + 1:])))
            generator = tuple(int(j == i) for j in range(len(orders)))
            basis = character_basis(n)
            if rep.on_basis(generator) != shift or not check_character_basis(n, basis):
                raise ArithmeticError(f"the character basis of factor {i} (order {n}) "
                                      f"fails its proof obligation")
            lift = IntegerMatrix.from_matrix(basis)
            f = lift if i == 0 else f.kron(lift)
            inverse = (inverse[:, None] * n + -np.arange(n) % n).ravel()
        # the obligations fix F[j, c] = zeta^(j c), so conj(F[j, c]) = F[j, -c]:
        # conj(F)^T, the character table (d F^-1), is F^T with its rows permuted
        transposed = f.nums.transpose(0, 2, 1)
        self._columns = IntegerMatrix(f.order, transposed, f.den)
        self._table = IntegerMatrix(f.order, transposed[:, inverse], f.den)
        self.spec = spec
        self.dimension = spec.dimension
        self._cache: dict = {}

    def _cached(self, key, make):
        found = self._cache.get(key)
        if found is None:
            found = self._cache[key] = make()
        return found

    def tensor(self, t: TensorElement) -> MonomialMatrix:
        if t.spec != self.spec:
            raise ValueError("group spec mismatch")
        key = ("tensor", t.legs, tuple((k, c.order, c.nums, c.den) for k, c in t.terms.items()))
        return self._cached(key, lambda: self._diagonal(t))

    def _diagonal(self, t: TensorElement) -> MonomialMatrix:
        size, orders = self.dimension ** t.legs, self.spec.orders * t.legs
        entries = []
        for key, c in t.terms.items():
            flat = 0
            for e, n in zip(itertools.chain.from_iterable(key), orders):
                flat = flat * n + e
            entries.append((flat, c))
        x = IntegerMatrix.from_entries(1, size, entries)
        return MonomialMatrix(np.arange(size), _transform(x, [self._table] * t.legs))

    def _gathered(self, t: TensorElement, index, perm=None) -> MonomialMatrix:
        """tensor(t)'s weights gathered by an index array, on the permutation
        perm (by default none: a diagonal)."""
        w = self.tensor(t)._weights
        return MonomialMatrix(np.arange(len(index)) if perm is None else perm,
                              IntegerMatrix(w.order, w.nums[:, :, index], w.den))

    def embed(self, t: TensorElement, legs: int, positions) -> MonomialMatrix:
        return self._gathered(t, embedding_gather(t, legs, positions))

    def coproduct_on_leg(self, t: TensorElement, leg: int) -> MonomialMatrix:
        return self._gathered(t, coproduct_gather(t, leg))

    def mul(self, a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
        return a @ b

    def matrix(self, m: Matrix) -> MonomialMatrix:
        key = ("matrix", m.rows, m.cols, tuple((e.order, e.nums, e.den) for e in m.entries))
        return self._cached(key, lambda: self._certify(m))

    def _certify(self, m: Matrix) -> MonomialMatrix:
        d = self.dimension
        power = next((k for k in (1, 2) if m.rows == m.cols == d ** k), None)
        if power is None:
            raise NotMonomialError(f"a {m.rows}x{m.cols} matrix is not d or d^2 "
                                   f"square for local dimension {d}")
        bases = [self._table] * power + [self._columns] * power
        return MonomialMatrix._read(_transform(IntegerMatrix.from_matrix(m), bases, d ** power))

    def braided(self, b) -> MonomialMatrix:
        """R' = flip . Gamma(r) from its source r, with no dense matrix and no
        certificate: the flip P commutes with F (x) F, so F^-2 R' F^2 = P D,
        D the diagonal ``tensor(r)``.  That is P's permutation with D's weights
        gathered by it.  A braided matrix without a source, or with one over
        another spec, is certified through its dense matrix (``matrix``)."""
        r = b.source
        if r is None or r.spec != self.spec:
            return self.matrix(b.matrix)
        d = self.dimension
        flip = np.arange(d * d).reshape(d, d).T.ravel()
        return self._gathered(r, flip, flip)

    def kron(self, a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
        return a.kron(b)

    def identity(self, n: int) -> MonomialMatrix:
        # only a side d^k has a character basis, F^(k); mixing another side
        # into a Kronecker product would break the conjugation invariant
        side, d = n, self.dimension
        while d > 1 and side > 0 and side % d == 0:  # else side 0 stays 0
            side //= d
        if side != 1:
            raise NotMonomialError(f"side {n} is not a power of the local dimension {d}")
        return MonomialMatrix(np.arange(n), IntegerMatrix(1, np.ones((1, 1, n), np.int64), 1))

    def invertible(self, m: MonomialMatrix) -> bool:
        # a monomial matrix is invertible iff no weight is zero
        return bool(m._nonzero().all())


# -- JSON interchange ------------------------------------------------------


def matrix_to_json(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": [e.to_json() for e in m.entries]}


def matrix_from_json(data: dict) -> Matrix:
    """Inverse of matrix_to_json; raises ValueError on malformed input: a
    shape that is not two JSON integers, entries that are not a list, or an
    entry that is not scalar JSON (CyclotomicNumber.from_json)."""
    try:
        rows, cols, entries = data["rows"], data["cols"], data["entries"]
        if type(rows) is not int or type(cols) is not int or type(entries) is not list:
            raise TypeError
    except (KeyError, TypeError):
        raise ValueError("matrix JSON needs integer 'rows' and 'cols' and an "
                         "'entries' list") from None
    return Matrix(rows, cols, [CyclotomicNumber.from_json(e) for e in entries])
