"""Braided R-matrices, braid group generators and relation checkers, and
the braiding isomorphisms between module tensor products.

The braided matrix R' is the flip composed with the regular image of
universal_r; it satisfies the braid relation and powers the generators

    R'_i = I^(x)(i-1) (x) R' (x) I^(x)(N-i-1)

on N strands (generator count N-1, total dimension d^N).  braided_r keeps
R''s source, the two-leg element r, and builds the dense d^2 x d^2 matrix
only when ``matrix`` is first read.  A checker lifts R' through its
backend's ``braided``: the exact dense backends lift that matrix, while
linalg.MonomialOps and floatback.NumpyOps lift r itself: to the flip
permutation times r's exact character-basis diagonal D, or to the flip of
T D T^-1, T the spec's numeric character matrix on two legs (numpy).
A word applies letter i as the two-qudit gate R' (or its inverse) to
strands (i-1, i), in written order: the first letter is the rightmost
factor of the evaluated matrix product.  The columns, R' and R'^-1 are
lifted to IntegerMatrix once, each letter is one integer-array product
(linalg.apply_on_qudits: a batched matmul of R' over the columns reshaped
to (d^(i-1), d^2, rest)), and the result is lowered once.  No generator
is built, and the word's d^N x d^N matrix only when it is asked for.
Modules are linalg.ModuleAction objects, re-exported here.
check_hexagon braids each distinct pair of its modules once
(braiding_map), so on three copies of one module it builds a single R'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

from .groupalg import GroupSpec, TensorElement, universal_r
from .linalg import (
    EXACT,
    IntegerMatrix,
    Matrix,
    ModuleAction,
    _action_image,
    apply_on_qudits,
    flip_rows,
    invert_matrix,
    regular_representation,
)


class BraidedRMatrix:
    """An invertible solution of the braid relation on V (x) V, given by its
    d^2 x d^2 matrix or by its source: the two-leg element r whose braiding
    map on two copies of the regular module it is.  From a source the
    matrix is built on its first read."""

    def __init__(self, dimension: int, matrix: Matrix | None = None,
                 source: TensorElement | None = None):
        if (matrix is None) == (source is None):
            raise ValueError("a braided matrix needs its matrix or its source, not both")
        d = self.dimension = dimension
        self.source = source
        if source is None:
            if matrix.rows != d * d or matrix.cols != d * d:
                raise ValueError("matrix must be d^2 x d^2 for local dimension d")
            self.matrix = matrix
        elif source.legs != 2 or source.spec.dimension != d:
            raise ValueError("the source must be a two-leg element of local dimension d")

    @cached_property
    def matrix(self) -> Matrix:
        rep = regular_representation(self.source.spec)
        return braiding_map(rep, rep, self.source)


def braided_r(spec: GroupSpec, r: TensorElement | None = None) -> BraidedRMatrix:
    """The braided gate for a spec, braiding_map on two copies of the regular
    representation, kept as its source r; r defaults to universal_r(spec)."""
    if r is None:
        r = universal_r(spec)
    elif r.spec != spec or r.legs != 2:
        raise ValueError("expected a two-leg element over the spec")
    return BraidedRMatrix(spec.dimension, source=r)


def lift(ops, c):
    """A braided matrix lifted by its backend's ``braided``, a bare matrix by ``matrix``."""
    return ops.braided(c) if isinstance(c, BraidedRMatrix) else ops.matrix(c)


def _placed(m, d: int, index: int, strands: int, ops):
    """I^(x)(index-1) (x) m (x) I^(x)(strands-index-1) for a lifted d^2 x d^2 m."""
    if index > 1:
        m = ops.kron(ops.identity(d ** (index - 1)), m)
    tail = strands - index - 1
    if tail:
        m = ops.kron(m, ops.identity(d ** tail))
    return m


def braid_generator(index: int, strands: int, r: BraidedRMatrix) -> Matrix:
    """The index-th braid generator on the given number of strands."""
    if strands < 2:
        raise ValueError("need at least two strands")
    if not 1 <= index <= strands - 1:
        raise ValueError(f"generator index {index} out of range for {strands} strands")
    return _placed(r.matrix, r.dimension, index, strands, EXACT)


def check_braid_relations(strands: int, r: BraidedRMatrix, ops=EXACT) -> bool:
    """All far commutations (|i-j| >= 2) and adjacent braid relations on
    d^strands-dimensional matrices.  On three strands this is the braided
    Yang-Baxter equation (R' x I)(I x R')(R' x I) = (I x R')(R' x I)(I x R')."""
    if strands < 2:
        raise ValueError("need at least two strands")
    m = ops.braided(r)
    gens = [_placed(m, r.dimension, i, strands, ops) for i in range(1, strands)]
    far = all(ops.equal(a @ b, b @ a) for i, a in enumerate(gens) for b in gens[i + 2:])
    return far and all(ops.equal(a @ b @ a, b @ a @ b) for a, b in zip(gens, gens[1:]))


def check_braided_ybe(r: BraidedRMatrix, ops=EXACT) -> bool:
    """The braided Yang-Baxter equation: the braid relations on three strands."""
    return check_braid_relations(3, r, ops)


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid generators; letter +i / -i is the i-th generator
    or its inverse, 1 <= i <= strands - 1."""

    strands: int
    letters: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(int(x) for x in self.letters))
        if self.strands < 2:
            raise ValueError("need at least two strands")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.strands - 1:
                raise ValueError(f"letter {letter} is invalid for {self.strands} strands")


def evaluate_braid_word(word: BraidWord, r: BraidedRMatrix,
                        columns: Matrix | None = None) -> Matrix:
    """The word applied to columns (d^strands rows each), letters in
    written order: the first letter hits the columns first, i.e. it is the
    rightmost factor of the word's matrix.  With columns None they are the
    identity, so the result is the word's matrix; columns of another row
    count raise ValueError, and the empty word returns the columns
    unchanged.  Otherwise the columns, R' and (for a word with
    a negative letter) R'^-1 are lifted to IntegerMatrix once, each letter
    is one integer-array product, and the result is lowered once: all its
    entries at one order, its zeros written as rational(0)."""
    d, n = r.dimension, word.strands
    if columns is not None and columns.rows != d ** n:
        raise ValueError(f"columns need {d ** n} rows for {n} strands at d = {d}")
    if not word.letters:
        return Matrix.identity(d ** n) if columns is None else columns
    lift = IntegerMatrix.from_matrix
    acc = IntegerMatrix.identity(d ** n) if columns is None else lift(columns)
    gate = lift(r.matrix)
    inverse = lift(invert_matrix(r.matrix)) if any(x < 0 for x in word.letters) else None
    for letter in word.letters:
        acc = apply_on_qudits(gate if letter > 0 else inverse, acc, d, n,
                              (abs(letter) - 1, abs(letter)))
    return acc.to_matrix()


def braiding_map(v: ModuleAction, w: ModuleAction, r: TensorElement) -> Matrix:
    """Matrix of the braiding V (x) W -> W (x) V induced by a two-leg
    element r: the flip composed with the action of r on V (x) W.  For two
    copies of the regular representation this is braided_r's matrix."""
    if v.spec != w.spec:
        raise ValueError("module actions live over different specs")
    if r.spec != v.spec or r.legs != 2:
        raise ValueError("expected a two-leg element over the modules' spec")
    return flip_rows(_action_image([v, w], r), v.dimension, w.dimension)


def check_module_morphism(c: Matrix | BraidedRMatrix, v: ModuleAction, w: ModuleAction,
                          ops=EXACT) -> bool:
    """True when c, a matrix or a braided matrix (lifted by ``lift``), is
    invertible and intertwines the diagonal action:
    c . (rho_V x rho_W)(D(x)) = (rho_W x rho_V)(D(x)) . c on every basis x."""
    cl = lift(ops, c)
    if not ops.invertible(cl):
        return False
    for exps in v.spec.basis():
        rv = ops.matrix(v.on_basis(exps))
        rw = ops.matrix(w.on_basis(exps))
        if not ops.equal(cl @ ops.kron(rv, rw), ops.kron(rw, rv) @ cl):
            return False
    return True


def check_hexagon(u: ModuleAction, v: ModuleAction, w: ModuleAction,
                  r: TensorElement, ops=EXACT) -> bool:
    """The hexagon identity for the braiding maps of the triple (U, V, W);
    for U = V = W it is the braid relation itself.  Each distinct pair of
    modules is braided (and lifted) once, so U = V = W builds one R'."""
    if not (u.spec == v.spec == w.spec):
        raise ValueError("module actions live over different specs")
    braided = cache(lambda a, b: ops.matrix(braiding_map(a, b, r)))
    c_uv, c_uw, c_vw = braided(u, v), braided(u, w), braided(v, w)
    iu, iv, iw = (ops.identity(m.dimension) for m in (u, v, w))
    lhs = ops.kron(c_vw, iu) @ ops.kron(iv, c_uw) @ ops.kron(c_uv, iw)
    rhs = ops.kron(iw, c_uv) @ ops.kron(c_uw, iv) @ ops.kron(iu, c_vw)
    return ops.equal(lhs, rhs)
