"""Qudit state vectors, Bell states, exact gate application, and
entanglement diagnostics.

States carry exact cyclotomic amplitudes with ray semantics: they are
never required to be normalized, and norms enter only where a formula
demands them.  1/sqrt(2) is represented exactly as (zeta_8 + zeta_8^7)/2,
so Bell-state identities are checked by exact equality rather than with a
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .braidrep import BraidedRMatrix, lift
from .linalg import EXACT, IntegerMatrix, Matrix, apply_on_qudits, digit_offsets, exact_rank
from .scalar import CyclotomicNumber, as_scalar, rational, root_of_unity

BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")

# (zeta_8 + zeta_8^7) / 2 == sqrt(2)/2 exactly
INV_SQRT2 = (root_of_unity(8, 1) + root_of_unity(8, 7)) / 2


class StateVector:
    """Amplitudes of n qudits of local dimension d, exact scalars."""

    __slots__ = ("d", "n", "amps")

    def __init__(self, d: int, n: int, amps):
        if d < 1 or n < 1:
            raise ValueError("local dimension and qudit count must be positive")
        amps = [as_scalar(a) for a in amps]
        # d^n >= 2^n exceeds the count for a large n: refused before d ** n is taken
        if (d > 1 and n >= len(amps).bit_length()) or len(amps) != d ** n:
            raise ValueError("amplitude count does not match d^n")
        if all(a.is_zero for a in amps):
            raise ValueError("the zero state is not a valid state")
        self.d = d
        self.n = n
        self.amps = amps

    @classmethod
    def computational(cls, d: int, digits) -> "StateVector":
        """Basis state |digits>, e.g. computational(2, "01") or (2, (0, 1))."""
        if isinstance(digits, str):
            digits = tuple(int(ch) for ch in digits)
        digits = tuple(digits)
        if any(not 0 <= x < d for x in digits):
            raise ValueError("digit out of range for the local dimension")
        idx = 0
        for x in digits:
            idx = idx * d + x
        amps = [rational(0)] * (d ** len(digits))
        amps[idx] = rational(1)
        return cls(d, len(digits), amps)

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return (self.d == other.d and self.n == other.n
                and all(a == b for a, b in zip(self.amps, other.amps)))

    __hash__ = None

    def __neg__(self):
        return StateVector(self.d, self.n, [-a for a in self.amps])

    def __rmul__(self, scalar):
        c = as_scalar(scalar)
        return StateVector(self.d, self.n, [a * c for a in self.amps])

    __mul__ = __rmul__

    def norm_squared(self) -> CyclotomicNumber:
        total = rational(0)
        for a in self.amps:
            total = total + a * a.conjugate()
        return total

    def to_complex(self) -> list[complex]:
        return [a.to_complex() for a in self.amps]

    def __repr__(self):
        return f"StateVector(d={self.d}, n={self.n}, amps={[str(a) for a in self.amps]})"


def bell_state(kind: str) -> StateVector:
    """One of the four maximally entangled two-qubit states, exact."""
    s = INV_SQRT2
    z = rational(0)
    table = {
        "phi+": (s, z, z, s),
        "phi-": (s, z, z, -s),
        "psi+": (z, s, s, z),
        "psi-": (z, s, -s, z),
    }
    if kind not in table:
        raise ValueError(f"unknown Bell state {kind!r}; expected one of {BELL_KINDS}")
    return StateVector(2, 2, list(table[kind]))


# the Bell-basis action of the d=2 braided gate, with exact signs:
# (source state, label of the image, expected image)
BELL_ACTIONS = (
    ("phi+", "psi+", bell_state("psi+")),
    ("psi+", "phi+", bell_state("phi+")),
    ("phi-", "phi-", bell_state("phi-")),
    ("psi-", "-psi-", -bell_state("psi-")),
)


# the sources and the expected images of BELL_ACTIONS, as the columns of 4x4 matrices
BELL_SOURCES = Matrix.from_rows([bell_state(s).amps for s, _, _ in BELL_ACTIONS]).transpose()
BELL_TARGETS = Matrix.from_rows([t.amps for _, _, t in BELL_ACTIONS]).transpose()


def apply_gate(gate: Matrix, state: StateVector, targets=None) -> StateVector:
    """Apply a d^k x d^k gate to k qudit slots, identity elsewhere.

    ``targets`` lists the qudit positions in order of significance within
    the gate's composite index (first target = most significant digit);
    by default the gate covers all qudits.  The gate and the state are
    lifted to IntegerMatrix once and the image lowered once, as in braid
    words (linalg.apply_on_qudits refuses repeated or out-of-range
    targets), so its amplitudes share one order and its zeros are rational(0).
    """
    d, n = state.d, state.n
    targets = range(n) if targets is None else (int(t) for t in targets)
    columns = IntegerMatrix.from_matrix(Matrix(d ** n, 1, state.amps))
    image = apply_on_qudits(IntegerMatrix.from_matrix(gate), columns, d, n, targets)
    return StateVector(d, n, image.to_matrix().entries)


@dataclass(frozen=True)
class BellActionCheck:
    source: str
    expected: str
    ok: bool
    image: StateVector


def _two_qubit(gate, ops):
    """A BraidedRMatrix of local dimension 2 or a bare 4x4 matrix, lifted
    by braidrep.lift."""
    if isinstance(gate, BraidedRMatrix):
        if gate.dimension != 2:
            raise ValueError("Bell actions are defined for local dimension 2")
    elif gate.rows != 4 or gate.cols != 4:
        raise ValueError("a 4x4 two-qubit gate is required")
    return lift(ops, gate)


def verify_bell_actions(gate) -> list[BellActionCheck]:
    """Check the four expected Bell-basis mappings of BELL_ACTIONS on a
    two-qubit gate, with exact amplitudes including signs:

        phi+ -> psi+,  psi+ -> phi+,  phi- -> phi-,  psi- -> -psi-.

    Accepts a BraidedRMatrix of local dimension 2 or a bare 4x4 matrix;
    reports per-state pass/fail together with the achieved image, a column
    of the product m @ BELL_SOURCES that check_bell_actions decides.
    """
    images = (_two_qubit(gate, EXACT) @ BELL_SOURCES).transpose().entries
    results = []
    for j, (source, label, target) in enumerate(BELL_ACTIONS):
        image = StateVector(2, 2, images[4 * j:4 * j + 4])
        results.append(BellActionCheck(source, label, image == target, image))
    return results


def check_bell_actions(gate, ops=EXACT) -> bool:
    """True when the gate maps every Bell state as BELL_ACTIONS expects,
    decided over the given backend with one product: the gate times
    BELL_SOURCES against BELL_TARGETS."""
    m = _two_qubit(gate, ops)
    return ops.equal(m @ ops.matrix(BELL_SOURCES), ops.matrix(BELL_TARGETS))


def concurrence(state: StateVector) -> float:
    """Two-qubit concurrence 2|a00 a11 - a01 a10| / sum |a|^2, computed in
    the complex embedding of the exact amplitudes."""
    if state.d != 2 or state.n != 2:
        raise ValueError("concurrence is defined for two qubits")
    a = state.to_complex()
    norm2 = sum(abs(x) ** 2 for x in a)
    if norm2 == 0.0:
        raise ValueError("zero state")
    return 2.0 * abs(a[0] * a[3] - a[1] * a[2]) / norm2


def schmidt_rank(state: StateVector, cut=1) -> int:
    """Exact rank of the amplitude matrix across a bipartition.

    ``cut`` is either the number of leading qudits on the left side or an
    iterable of qudit positions forming the left side.  Rank 1 means a
    product state across the cut.
    """
    n, d = state.n, state.d
    if isinstance(cut, int):
        left = tuple(range(cut))
    else:
        left = tuple(sorted(set(int(p) for p in cut)))
    if not left or len(left) >= n or any(not 0 <= p < n for p in left):
        raise ValueError("the cut must leave qudits on both sides")
    right = [p for p in range(n) if p not in left]
    rows, cols = digit_offsets(d, n, left), digit_offsets(d, n, right)
    return exact_rank(Matrix(len(rows), len(cols),
                             [state.amps[i + j] for i in rows for j in cols]))


def kauffman_lomonaco_r(a, b, c, d) -> Matrix:
    """The 4x4 one-parameter-family gate

        [[a, 0, 0, 0], [0, 0, d, 0], [0, c, 0, 0], [0, 0, 0, b]]

    for exact unit-modulus scalars (roots of unity and rational combinations
    thereof are accepted natively; unit modulus is decided exactly as
    v * conj(v) == 1)."""
    vals = [as_scalar(x) for x in (a, b, c, d)]
    for v in vals:
        if v * v.conjugate() != 1:
            raise ValueError("all four scalars must lie on the complex unit circle")
    a, b, c, d = vals
    z = rational(0)
    return Matrix.from_rows([
        [a, z, z, z],
        [z, z, d, z],
        [z, c, z, z],
        [z, z, z, b],
    ])


def kl_entangling_test(a, b, c, d) -> tuple[bool, float]:
    """Apply the family gate to (|0> + |1>) (x) (|0> + |1>) and test the
    image for entanglement; returns (entangled, concurrence).  Entanglement
    is decided exactly as Schmidt rank 2, which holds exactly when a*b
    differs from c*d; the concurrence is reported as a number only."""
    gate = kauffman_lomonaco_r(a, b, c, d)
    one = rational(1)
    probe = StateVector(2, 2, [one, one, one, one])
    image = apply_gate(gate, probe)
    return schmidt_rank(image) == 2, concurrence(image)


def bell_matrix() -> Matrix:
    """(1/2) * [[1,0,0,1],[0,1,-1,0],[0,1,1,0],[-1,0,0,1]]; its action maps
    the computational basis to the Bell basis up to positive real scale
    (|00> to phi-, |01> to psi+, |10> to -psi-, |11> to phi+)."""
    h = rational(Fraction(1, 2))
    z = rational(0)
    return Matrix.from_rows([
        [h, z, z, h],
        [z, h, -h, z],
        [z, h, h, z],
        [-h, z, z, h],
    ])


def proportional_positive(state: StateVector, target: StateVector) -> bool:
    """True when state = lam * target for a positive real scalar lam."""
    if state.d != target.d or state.n != target.n:
        return False
    pivot = next((i for i, a in enumerate(target.amps) if not a.is_zero), None)
    if pivot is None:
        return False
    lam = state.amps[pivot] / target.amps[pivot]
    if not lam.is_positive():
        return False
    return all(a == lam * b for a, b in zip(state.amps, target.amps))


# -- JSON interchange -------------------------------------------------------


def state_to_json(state: StateVector) -> dict:
    return {"d": state.d, "n": state.n, "amps": [a.to_json() for a in state.amps]}


def state_from_json(data: dict) -> StateVector:
    """Inverse of state_to_json; raises ValueError on malformed input."""
    try:
        d, n, amps = data["d"], data["n"], list(data["amps"])
        if type(d) is not int or type(n) is not int:
            raise TypeError
    except (KeyError, TypeError, ValueError):
        raise ValueError("state JSON needs integer 'd' and 'n' and an 'amps' list") from None
    return StateVector(d, n, [CyclotomicNumber.from_json(a) for a in amps])
