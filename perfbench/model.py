"""Independent numpy model of the braided gate and of braid words.

Everything here is built from the definition of the universal element,

    R = (1/d) * sum_{a,b} prod_k zeta_{n_k}^(-a_k b_k)  g^a (x) g^b,

with g^a acting on the regular module by the cyclic shift e_c -> e_(c+a)
and R' = flip . Gamma(R).  It never calls into hopfbraid, so the oracle
can compare the program's outputs against it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

RANK_TOL = 1e-8


def _basis(orders):
    return list(itertools.product(*(range(n) for n in orders)))


def shift(orders, a) -> np.ndarray:
    """Regular action of the basis element g^a: e_c -> e_(c+a)."""
    basis = _basis(orders)
    index = {e: i for i, e in enumerate(basis)}
    m = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, c in enumerate(basis):
        m[index[tuple((x + y) % n for x, y, n in zip(c, a, orders))], col] = 1
    return m


def gamma_r(orders) -> np.ndarray:
    """Regular image of the universal element on the tensor square."""
    basis = _basis(orders)
    d = len(basis)
    mats = {a: shift(orders, a) for a in basis}
    out = np.zeros((d * d, d * d), dtype=complex)
    for a in basis:
        for b in basis:
            phase = sum(Fraction(-x * y, n) for x, y, n in zip(a, b, orders))
            out += cmath.exp(2j * math.pi * phase) / d * np.kron(mats[a], mats[b])
    return out


def flip(d: int) -> np.ndarray:
    m = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            m[j * d + i, i * d + j] = 1
    return m


def braided_r(orders) -> np.ndarray:
    return flip(math.prod(orders)) @ gamma_r(orders)


class WordModel:
    """The braid generators on a number of strands, from the model's R'."""

    def __init__(self, orders, strands: int):
        d = math.prod(orders)
        gate = braided_r(orders)
        self.gens = {}
        for index in range(1, strands):
            g = np.kron(np.kron(np.eye(d ** (index - 1)), gate), np.eye(d ** (strands - index - 1)))
            self.gens[index] = g
            self.gens[-index] = np.linalg.inv(g)
        self.size = d ** strands

    def apply(self, letters, state: np.ndarray) -> np.ndarray:
        """Apply the letters to the state in written order."""
        for letter in letters:
            state = self.gens[letter] @ state
        return state

    def work(self, letters) -> int:
        """Scalar products a dense evaluation of the word performs: for each
        letter, the pairs of nonzero generator and accumulator entries that
        meet in the product."""
        acc = np.eye(self.size)
        total = 0.0
        for letter in letters:
            g = self.gens[letter]
            total += ((np.abs(g) > RANK_TOL) * 1.0 @ (np.abs(acc) > RANK_TOL) * 1.0).sum()
            acc = g @ acc
        return int(total)


def basis_state(d: int, digits: str) -> np.ndarray:
    v = np.zeros(d ** len(digits), dtype=complex)
    v[int(digits, d)] = 1
    return v


BELL = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
}


def schmidt_ranks(state: np.ndarray, d: int, strands: int) -> list[int]:
    """Rank of the amplitude matrix across each cut 1 .. strands-1."""
    return [int(np.linalg.matrix_rank(state.reshape(d ** cut, -1), tol=RANK_TOL))
            for cut in range(1, strands)]


def concurrence(state: np.ndarray) -> float:
    return 2 * abs(state[0] * state[3] - state[1] * state[2]) / float(np.sum(np.abs(state) ** 2))


def ybe_residual(m: np.ndarray, d: int) -> float:
    eye = np.eye(d)
    a, b = np.kron(m, eye), np.kron(eye, m)
    return float(np.max(np.abs(a @ b @ a - b @ a @ b)))


# -- reading the program's exact values -------------------------------------


def scalar_value(data: dict) -> complex:
    """Complex value of a scalar in the JSON format {"order", "coeffs"}."""
    order = int(data["order"])
    return sum(Fraction(int(n), int(q)) * cmath.exp(2j * math.pi * k / order)
               for k, (n, q) in enumerate(data["coeffs"]))


def matrix_value(data: dict) -> np.ndarray:
    rows, cols = int(data["rows"]), int(data["cols"])
    entries = [scalar_value(e) for e in data["entries"]]
    if len(entries) != rows * cols:
        raise ValueError("entry count does not match the shape")
    return np.array(entries, dtype=complex).reshape(rows, cols)


def printed_value(text: str) -> complex:
    """Complex value of a scalar printed as e.g. "1/2 - z8 + (-1/2)*z8^3"."""
    if text.strip() == "0":
        return 0j
    total = 0j
    for term in text.replace(" - ", " + -").split(" + "):
        coeff, _, power = term.rpartition("*") if "*" in term else ("", "", term)
        if "z" not in power:
            total += float(Fraction(power))
            continue
        sign = -1 if power.startswith("-") else 1
        order, _, k = power.lstrip("-")[1:].partition("^")
        c = Fraction(coeff.strip("()")) if coeff else Fraction(1)
        total += sign * float(c) * cmath.exp(2j * math.pi * int(k or 1) / int(order))
    return total
