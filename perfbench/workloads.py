"""The benchmark's workloads: fixed command lists with the verdicts each
command must give.

Only the braid words, their input states and the perturbed matrix of the
expected-fail control depend on the seed; every other grid is fixed.  Each
command carries its expectation, derived from the paper's statements and
from the numpy model in ``model.py``, never from hopfbraid's own output.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import model

FLOAT_DETAIL = "float backend, tolerance 1e-09"

# check names reported by each --which choice, in report order
WHICH_NAMES = {
    "hopf": ("hopf-axioms",),
    "quasitriangular": ("quasi-cocommutativity", "quasitriangular-coproducts"),
    "ybe": ("algebraic-ybe",),
    "braided-ybe": ("braided-ybe",),
    "hexagon": ("module-morphism", "hexagon"),
    "bell-actions": ("bell-actions",),
}
ALL_ORDER = ("hopf", "quasitriangular", "ybe", "braided-ybe", "braid", "hexagon",
             "bell-actions")

# (orders, strands, letters) of the seeded braid words; the 2-strand words
# carry a Bell-state input, which exercises the mixed-order lift
BRAID_WORDS = (("2", 2, 16), ("2", 2, 16), ("2", 5, 40), ("3", 3, 24), ("2,2", 3, 12))
# The exact cost of a letter grows with the density of the product so far,
# and the braid group's image holds both monomial and dense matrices, so
# words of one length differ in cost by a factor of two.  A seeded word is
# therefore drawn until its dense-evaluation work (WordModel.work) is within
# WORK_TOLERANCE of the median work of REFERENCE_WORDS words drawn from a
# fixed seed, so that the work of a pass hardly depends on the seed.
REFERENCE_WORDS = 32
WORK_TOLERANCE = 0.01
MAX_DRAWS = 1000


@dataclass
class Command:
    """One CLI invocation and what its report must say."""

    argv: list[str]
    exit_code: int = 0
    backend: str = "exact"
    # expected (name, status, detail) per check, in report order
    checks: list[tuple[str, str, str]] = field(default_factory=list)
    # braid: expected info lines are derived from these
    word: tuple[int, ...] | None = None
    amps: np.ndarray | None = None
    # gen-r: directory the four matrices are written to, and R' from the model
    output: Path | None = None
    braided: np.ndarray | None = None

    @property
    def letters(self) -> int:
        return len(self.word) if self.word is not None else 0


def _orders(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def check(orders: str, which: str, *extra: str, strands: int = 3, backend: str = "exact",
          statuses: dict | None = None, exit_code: int = 0) -> Command:
    """A ``check`` command; every check passes unless ``statuses`` says
    otherwise (name -> (status, detail))."""
    d = math.prod(_orders(orders))
    selected = ALL_ORDER if which == "all" else (which,)
    names = []
    for w in selected:
        if w == "bell-actions" and which == "all" and d != 2:
            continue
        names.extend([f"braid-relations-{strands}"] if w == "braid" else WHICH_NAMES[w])
    detail = FLOAT_DETAIL if backend == "float" else ""
    statuses = statuses or {}
    checks = [(n, *statuses.get(n, ("pass", detail))) for n in names]
    argv = ["check", "--orders", orders, "--which", which]
    if which == "braid":
        argv += ["--strands", str(strands)]
    if backend != "exact":
        argv += ["--backend", backend]
    argv += [*extra, "--json"]
    return Command(argv, exit_code=exit_code, backend=backend, checks=checks)


def _random_word(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    """A word of mixed sign in which no letter is followed by its inverse."""
    while True:
        word: list[int] = []
        while len(word) < length:
            letter = rng.randint(1, strands - 1) * rng.choice((1, -1))
            if not (strands > 2 and word and word[-1] == -letter):
                word.append(letter)
        if min(word) < 0 < max(word):
            return tuple(word)


def _typical_word(rng: random.Random, words: model.WordModel, strands: int,
                  length: int) -> tuple[int, ...]:
    """The first seeded word whose work is within WORK_TOLERANCE of the
    reference median, or else the closest of MAX_DRAWS words."""
    ref = random.Random(0)
    target = statistics.median_low(words.work(_random_word(ref, strands, length))
                                   for _ in range(REFERENCE_WORDS))
    best = None
    for _ in range(MAX_DRAWS):
        word = _random_word(rng, strands, length)
        miss = abs(words.work(word) - target)
        if best is None or miss < best[0]:
            best = (miss, word)
        if miss <= WORK_TOLERANCE * target:
            break
    return best[1]


def braid(rng: random.Random, orders: str, strands: int, length: int) -> Command:
    spec = _orders(orders)
    d = math.prod(spec)
    words = model.WordModel(spec, strands)
    word = _typical_word(rng, words, strands, length)
    if strands == 2 and d == 2:
        state_arg = rng.choice(sorted(model.BELL))
        state = model.BELL[state_arg]
    else:
        state_arg = "".join(str(rng.randrange(d)) for _ in range(strands))
        state = model.basis_state(d, state_arg)
    argv = ["braid", "--orders", orders, "--strands", str(strands),
            "--word=" + ",".join(map(str, word)), "--state", state_arg, "--json"]
    return Command(argv, word=word, amps=words.apply(word, state))


def _scalar_json(value: Fraction) -> dict:
    return {"order": 1, "coeffs": [[value.numerator, value.denominator]]}


def perturbed_r(rng: random.Random, path: Path) -> None:
    """Write R' for orders 2,2 with one seeded entry raised by one.

    Every entry of R' for orders 2,2 is rational, so the file is exact.  The
    entry is chosen so that the numpy model confirms the braided YBE fails.
    """
    m = model.braided_r((2, 2)).real
    cells = list(range(m.size))
    rng.shuffle(cells)
    for cell in cells:
        bad = m.copy().reshape(-1)
        bad[cell] += 1
        bad = bad.reshape(m.shape)
        if model.ybe_residual(bad, 4) > 1e-3:
            break
    entries = [_scalar_json(Fraction(float(x)).limit_denominator(64)) for x in bad.reshape(-1)]
    path.write_text(json.dumps({"rows": 16, "cols": 16, "entries": entries}))


def build(name: str, seed: int, out_dir: Path) -> list[Command]:
    """The command list of a workload; writes its input files to out_dir."""
    rng = random.Random(seed)
    if name == "exact-braided":
        return [
            check("2", "all"),
            check("2,2", "all"),
            check("4", "all"),
            check("3", "braid", strands=4),
            check("2", "braid", strands=6),
        ]
    if name == "exact-algebra":
        fused_fail = {"quasi-cocommutativity": ("recorded", "result: pass"),
                      "quasitriangular-coproducts": ("recorded", "result: fail")}
        return [check(orders, which)
                for orders in ("12", "2,6", "2,2,3")
                for which in ("hopf", "quasitriangular", "ybe")] + [
            check(orders, "quasitriangular", "--form", "fused", statuses=fused_fail)
            for orders in ("2,6", "2,2,3")
        ]
    if name == "braid-words":
        out_dir.mkdir(parents=True, exist_ok=True)
        gen_dir = out_dir / "gen-r"
        bad_path = out_dir / "perturbed_r.json"
        perturbed_r(rng, bad_path)
        cmds = [braid(rng, orders, strands, length) for orders, strands, length in BRAID_WORDS]
        cmds.append(Command(["gen-r", "--orders", "2,2", "--output", str(gen_dir), "--json"],
                            output=gen_dir, braided=model.braided_r((2, 2))))
        cmds.append(check("2,2", "braided-ybe", "--r-matrix", str(gen_dir / "braided_r.json")))
        cmds.append(check("2,2", "braided-ybe", "--r-matrix", str(bad_path),
                          statuses={"braided-ybe": ("fail", "")}, exit_code=1))
        return cmds
    if name == "float-crosscheck":
        return [check("6", "all", backend="float"), check("2,3", "all", backend="float")]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("exact-braided", "exact-algebra", "braid-words", "float-crosscheck")
