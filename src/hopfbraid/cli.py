"""Command line front end: construct, check, apply, and export.

Conventions (also shown in --help):

* composite indices: the first tensor factor is the most significant digit;
* braid words: comma separated nonzero integers; letter +i / -i is the
  i-th generator or its inverse, and letters are applied to states in
  written order, so the first letter is the rightmost factor of the
  evaluated matrix product;
* exit codes: 0 when every selected check passes, 1 when any check fails,
  2 on usage or I/O errors.  "recorded" entries are documentation-only
  and never affect the exit code.

Reports are deterministic byte for byte for a given command line; wall
times are only included behind --timings.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
import time
from collections import Counter
from functools import cache, cached_property, partial
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

from . import floatback
from .braidrep import (
    BraidedRMatrix,
    BraidWord,
    braided_r,
    check_braid_relations,
    evaluate_braid_word,
)
from .groupalg import (
    GroupSpec,
    check_algebraic_ybe,
    check_hopf_axioms,
    check_quasi_cocommutative,
    check_quasitriangular,
    tensor_to_json,
    universal_r,
    universal_r_fused_phase,
)
from .linalg import (
    INTEGER,
    Matrix,
    MonomialOps,
    NotMonomialError,
    conjugate_transpose,
    flip_operator,
    flip_rows,
    matrix_from_json,
    matrix_to_json,
    regular_representation,
)
from .quantum import (
    BELL_KINDS,
    StateVector,
    apply_gate,
    bell_matrix,
    bell_state,
    check_bell_actions,
    concurrence,
    kauffman_lomonaco_r,
    schmidt_rank,
)
from .scalar import MAX_JSON_ORDER, _degree

STRANDS = "strands"  # legs of the braid relations: min(--strands, 3), see Choice.legs_on
MONOMIAL = ("monomial", "source")  # the planned paths that run on MonomialOps


class Check(NamedTuple):
    """One reported identity: ``decide(inputs, ops)`` applies its checker to
    what ``on`` names: the spec, r, R' (the --r-matrix file's, if given) or
    own (the spec's R').  The fused form records every check on what its r built."""

    name: str
    anchor: str
    on: str
    decide: Callable


class Choice(NamedTuple):
    """A --which choice: its checks in report order, the legs of its largest
    matrix (None: tensor elements only), whether the exact backend tries
    MonomialOps on it, and the local dimension it requires, if any."""

    checks: tuple
    legs: int | str | None = None
    monomial: bool = False
    requires_d: int | None = None

    def legs_on(self, strands: int) -> int | None:
        """The legs of its largest matrix when --strands is strands."""
        return min(strands, 3) if self.legs == STRANDS else self.legs

    @property
    def on_r_prime(self) -> bool:
        """Whether a check acts on R', so --r-matrix sets its local dimension."""
        return any(c.on == "R'" for c in self.checks)


# The --which choices in the order "all" runs them.  The checkers are looked
# up when they run, so a wrapper installed on this module's names sees them;
# a verdict reported in several rows is decided once per backend: a braid
# relation (_Inputs.relations) and quasi-cocommutativity (_Inputs.quasi).
CHOICES = {
    "hopf": Choice((
        Check("hopf-axioms", "coassociativity, counit laws, antipode law on the group-like basis",
              "spec", lambda x, ops: check_hopf_axioms(x.spec, ops)),
    )),
    "quasitriangular": Choice((
        Check("quasi-cocommutativity", "Dop(x) R = R D(x) for every basis element x",
              "r", lambda x, ops: x.quasi(ops)),
        Check("quasitriangular-coproducts", "(D x id)(R) = R13 R23 and (id x D)(R) = R13 R12",
              "r", lambda x, ops: check_quasitriangular(x.spec, x.r, ops)),
    ), monomial=True),
    "ybe": Choice((
        Check("algebraic-ybe", "R12 R13 R23 = R23 R13 R12 in the triple tensor power",
              "r", lambda x, ops: check_algebraic_ybe(x.spec, x.r, ops)),
    ), monomial=True),
    "braided-ybe": Choice((
        Check("braided-ybe", "(R' x I)(I x R')(R' x I) = (I x R')(R' x I)(I x R')",
              "R'", lambda x, ops: x.relations(3, x.braided, ops)),
    ), legs=3, monomial=True),
    "braid": Choice((
        # far R'_i commute (disjoint factors); adjacent ones are I (x) (3-strand relation) (x) I
        Check("braid-relations-{strands}",
              "far commutation and adjacent braid relations on {strands} strands",
              "R'", lambda x, ops: x.relations(min(x.strands, 3), x.braided, ops)),
    ), legs=STRANDS, monomial=True),
    "hexagon": Choice((
        # the braiding intertwines iff r quasi-cocommutes, as rho x rho is faithful (Kassel, VIII),
        # and R' = P Gamma(R) is invertible iff r's character diagonal has no zero
        Check("module-morphism", "the braiding intertwines the diagonal action and is invertible",
              "r", lambda x, ops: x.quasi(ops) and ops.invertible(ops.tensor(x.r))),
        # on three copies of one module the hexagon is the braid relation of R' (Kassel, XIII)
        Check("hexagon", "hexagon identity for the braiding on three regular modules",
              "own", lambda x, ops: x.relations(3, x.own, ops)),
    ), legs=3, monomial=True),
    "bell-actions": Choice((
        Check("bell-actions",
              "phi+ -> psi+, psi+ -> phi+, phi- -> phi-, psi- -> -psi- with exact signs",
              "R'", lambda x, ops: check_bell_actions(x.braided, ops)),
    ), legs=2, requires_d=2),
}

# Size guard: a command may hold no matrix of more than this many exact
# entries.  A dense n x n matrix holds n*n entries (so dense sides up to
# 512 are admitted), a monomial one n.
MAX_MATRIX_ENTRIES = 1 << 18
# ... and no character transform of more than this many integer cells
# (orders of dimension up to 26 for the algebra-level checks).
MAX_TRANSFORM_CELLS = 1 << 19
# ... and no braid command of more than this much work in braid_work's units
# (an upper bound since letters run as integer-array products).
MAX_BRAID_WORK = 1 << 24
# ... and no exact hopf check of more than this many tensor-element
# operations (about 3 us each, so about seven seconds of them).
MAX_TENSOR_WORK = 1 << 21
# ... and no braid word on more strands than this: at d = 1 every matrix is
# 1x1, so no estimate above bounds its strand loops (check's --strands too).
MAX_STRANDS = 64
# ... and no more cyclic factors than this: order-1 factors raise no estimate above.
MAX_FACTORS = 64
# ... and no products on an --r-matrix file's R' of more than this many cell
# operations (field_work: about a second of them).
MAX_FIELD_WORK = 1 << 30


def matrix_entries(d: int, which: str, strands: int, path: str) -> int:
    """Cost estimate of one check (a --which choice other than "all") at
    local dimension d: the entries of the largest matrix it builds, where
    path is "dense" (exact), "monomial" (MonomialOps, after a d^2 x d^2
    certificate), "source" (MonomialOps on R' lifted from r, no
    certificate) or "float" (numpy).  Also used for ``gen-r`` with "gen-r".
    Algebra-level checks build no matrix (see transform_cells, tensor_work)."""
    legs = 2 if which == "gen-r" else CHOICES[which].legs_on(strands)
    if legs is None:
        return 0
    side = d ** max(legs, 2)
    if path == "source":
        return side
    return max(d ** 4, side if path == "monomial" else side * side)


def transform_cells(d: int, which: str, path: str, strands: int = 3,
                    order: int | None = None) -> int:
    """Cost estimate, in integer cells (complex ones for the float FFT), of
    the arrays a check holds off the dense path.  An algebra-level check on
    the source, monomial or float path is priced at d^4, an upper bound: it
    transforms two-leg elements (d^2 diagonal entries) and gathers d^3
    cells of at most phi(L) <= d integers each for R_ij and the coproducts
    (hopf's float coproducts are three-leg FFTs of d^3 cells).  A
    matrix check on the source path holds weights of its monomial side
    (matrix_entries), each over the phi(order) powers of zeta of R's field
    (order defaults to d, the largest either form of R needs).  0 for every
    other check: the dense path's exact algebra-level checks multiply
    sparse tensor elements, and the others are priced by their entries."""
    if CHOICES[which].legs is None:
        return d ** 4 if path != "dense" else 0
    if path != "source":
        return 0
    side, order = matrix_entries(d, which, strands, path), order or d
    # phi(order) < order; past the entry limit, which refuses first, that
    # bound stands in, so no cyclotomic polynomial of a huge order is built
    return side * (_degree(order) if side <= MAX_MATRIX_ENTRIES else order)


def field_work(d: int, which: str, strands: int, path: str, order: int) -> int:
    """Cost estimate, in cell operations, of the products a check takes on
    an --r-matrix file's R' on the monomial or dense path, order the lcm of
    the orders of the values multiplied (the file's, and on the monomial
    path also the character basis's).  IntegerMatrix multiplies each of the
    phi(order)^2 pairs of the factors' power slots by one numpy product,
    which costs about as much as 2048 cells plus the matrix_entries it
    holds, and a check on N legs takes about N^2 products."""
    legs = CHOICES[which].legs_on(strands)
    # an order above the JSON limit stands in for its phi, as in transform_cells
    phi = _degree(order) if order <= MAX_JSON_ORDER else order
    return legs * legs * phi * phi * (matrix_entries(d, which, strands, path) + 2048)


def tensor_work(d: int, which: str, path: str) -> int:
    """Cost estimate of the exact hopf check in tensor-element operations:
    each of the d basis elements takes about 25 coproducts, counits,
    antipodes, products, sums and comparisons of one-term elements.  0 for
    every other check and on the float backend, which transform_cells
    prices."""
    return 25 * d if which == "hopf" and path != "float" else 0


def braid_work(d: int, word: BraidWord, output: bool, state: bool) -> int:
    """Cost estimate of ``braid`` in exact scalar operations.  A letter is
    priced at d^(N+2) scalar products per column it acts on (the state's
    one and the word matrix's d^N).  A letter runs as one integer-array
    product of R' over the lifted columns, so that price is an upper bound
    on its work; it stays until a timed grid of braid commands measures
    a new one.  Inverting R' costs about 2 d^6.  The Schmidt rank across
    cut c row-reduces a d^c x d^(N-c) matrix of rank k at about d^N (1 + k)
    operations, where k <= d^(2m) for the m letters that act across the
    cut (the input state has rank 1, or is two qubits).  The caller admits
    N (_admit_strands) first."""
    n = word.strands
    size = d ** n
    work = len(word.letters) * d ** (n + 2) * ((size if output else 0) + (1 if state else 0))
    if any(x < 0 for x in word.letters):
        work += 2 * d ** 6
    if state:
        crossing = Counter(abs(x) for x in word.letters)
        work += sum(size * (1 + d ** min(c, n - c, 2 * crossing[c])) for c in range(1, n))
    return work


def _admit_strands(strands: int, what: str):
    if strands < 2:
        raise ValueError(f"{what} needs at least 2 strands, not {strands}")
    if strands > MAX_STRANDS:
        raise ValueError(f"{what} on {strands} strands is above the limit of "
                         f"{MAX_STRANDS} strands")


def _admit(entries: int, what: str, cells: int = 0, work: int = 0, tensor_ops: int = 0,
           fft: bool = False, field_ops: int = 0):
    if entries > MAX_MATRIX_ENTRIES:
        raise ValueError(f"{what} would build a matrix of {entries} entries, above the "
                         f"limit of {MAX_MATRIX_ENTRIES}")
    if cells > MAX_TRANSFORM_CELLS:
        kind = "complex cells by FFT" if fft else "integer cells"
        raise ValueError(f"{what} would transform {cells} {kind}, above the "
                         f"limit of {MAX_TRANSFORM_CELLS}")
    if work > MAX_BRAID_WORK:
        raise ValueError(f"{what} would take about {work} exact scalar operations, above "
                         f"the limit of {MAX_BRAID_WORK}")
    if tensor_ops > MAX_TENSOR_WORK:
        raise ValueError(f"{what} would take about {tensor_ops} tensor-element operations, "
                         f"above the limit of {MAX_TENSOR_WORK}")
    if field_ops > MAX_FIELD_WORK:
        raise ValueError(f"{what} would take about {field_ops} cell operations over the "
                         f"field of the --r-matrix file, above the limit of {MAX_FIELD_WORK}")


def _admit_float_file(m: Matrix, d: int, path: str):
    """Refuse an --r-matrix file of local dimension d that the float backend
    cannot hold: an entry with no finite complex float, or entries whose
    products may leave the float range.  An entry of a product of the
    three-strand relation (side n = d^3) sums n^2 products of three entries,
    so it is at most n^2 M^3, M the largest |entry|; equality takes the
    difference of two, at most twice that."""
    try:
        values = [z for row in m.to_complex() for z in row]
    except OverflowError:
        values = [complex(math.inf)]
    if not all(map(cmath.isfinite, values)):
        raise ValueError(f"{path} holds an entry beyond the float range")
    try:
        bound = 2 * d ** 6 * max(map(abs, values), default=0.0) ** 3
    except OverflowError:
        bound = math.inf
    if bound > sys.float_info.max:
        raise ValueError(f"{path} holds entries whose products on three strands would leave "
                         f"the float range")


class Report:
    def __init__(self, command: str, backend: str, timings: bool = False):
        self.command = command
        self.backend = backend
        self.timings = timings
        self.checks: list[dict] = []
        self.artifacts: list[str] = []
        self.info: list[str] = []

    def add_info(self, line: str):
        self.info.append(line)

    def add_check(self, name: str, anchor: str, status: str, detail: str = "",
                  seconds: float | None = None):
        entry = {"name": name, "anchor": anchor, "status": status, "detail": detail}
        if self.timings and seconds is not None:
            entry["seconds"] = round(seconds, 4)
        self.checks.append(entry)

    @property
    def exit_code(self) -> int:
        return 1 if any(c["status"] == "fail" for c in self.checks) else 0

    def render_text(self) -> str:
        lines = [f"command: {self.command}", f"backend: {self.backend}"]
        lines.extend(self.info)
        for c in self.checks:
            suffix = f" ({c['seconds']}s)" if "seconds" in c else ""
            lines.append(f"check {c['name']}: {c['status']}{suffix}")
            lines.append(f"  verifies: {c['anchor']}")
            if c["detail"]:
                lines.append(f"  {c['detail']}")
        for path in self.artifacts:
            lines.append(f"wrote {path}")
        if self.checks:
            npass = sum(1 for c in self.checks if c["status"] == "pass")
            nfail = sum(1 for c in self.checks if c["status"] == "fail")
            nrec = sum(1 for c in self.checks if c["status"] == "recorded")
            lines.append(f"result: {len(self.checks)} checks, {npass} pass, "
                         f"{nfail} fail, {nrec} recorded")
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        payload = {
            "command": self.command,
            "backend": self.backend,
            "checks": self.checks,
            "artifacts": self.artifacts,
        }
        if self.info:
            payload["info"] = self.info
        return json.dumps(payload, indent=2) + "\n"

    def emit(self, as_json: bool) -> int:
        sys.stdout.write(self.render_json() if as_json else self.render_text())
        return self.exit_code


def _parse_orders(text: str) -> GroupSpec:
    try:
        orders = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse orders {text!r}; expected e.g. 2 or 2,3")
    if len(orders) > MAX_FACTORS:
        raise ValueError(f"orders of {len(orders)} cyclic factors are above the limit of "
                         f"{MAX_FACTORS} factors")
    return GroupSpec(orders)


def _parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse braid word {text!r}; expected e.g. 1,2,-1")


def _build_r(spec: GroupSpec, form: str):
    return universal_r(spec) if form == "product" else universal_r_fused_phase(spec)


# -- gen-r -------------------------------------------------------------------


def cmd_gen_r(args, argv) -> int:
    spec = _parse_orders(args.orders)
    report = Report(" ".join(argv), "exact")
    _admit(matrix_entries(spec.dimension, "gen-r", 2, "dense"), "gen-r")
    r = _build_r(spec, args.form)
    rep = regular_representation(spec)
    d = spec.dimension
    gamma = rep.on_tensor(r)
    flip = flip_operator(d)
    braided = flip_rows(gamma, d, d)

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [
        ("universal_r.json", tensor_to_json(r)),
        ("gamma_r.json", matrix_to_json(gamma)),
        ("flip.json", matrix_to_json(flip)),
        ("braided_r.json", matrix_to_json(braided)),
    ]
    for name, payload in files:
        path = out_dir / name
        path.write_text(json.dumps(payload, indent=2) + "\n")
        report.artifacts.append(str(path))

    report.add_info(f"universal r: 2 legs over orders {','.join(map(str, spec.orders))}, "
                    f"{len(r.terms)} terms, field order {spec.field_order}")
    report.add_info(f"gamma(r): {gamma.rows}x{gamma.cols}")
    report.add_info(f"flip: {flip.rows}x{flip.cols}")
    report.add_info(f"braided r: {braided.rows}x{braided.cols}")
    return report.emit(args.json)


# -- check -------------------------------------------------------------------


class _Inputs:
    """What the checks of one ``check`` command are applied to, each built
    on first use, so a command builds only what its selected checks read.
    ``own`` is the spec's R', held as its source r, so a backend that lifts
    from r builds no dense matrix for it; the braided checks read
    ``braided``: the --r-matrix file's R', else ``own``.
    The hexagon always reads ``own``, the module morphism only r.  ``relations``
    and ``quasi`` keep one verdict per backend; neither refers back to the
    inputs, so a command's backends are freed when it returns."""

    def __init__(self, spec: GroupSpec, args, external: BraidedRMatrix | None):
        self.spec, self.form, self.strands, self.external = spec, args.form, args.strands, external

    @cached_property
    def r(self):
        return _build_r(self.spec, self.form)

    @cached_property
    def own(self) -> BraidedRMatrix:
        return braided_r(self.spec, self.r)

    @cached_property
    def braided(self) -> BraidedRMatrix:
        return self.external if self.external is not None else self.own

    @cached_property
    def relations(self):  # one check_braid_relations verdict per (strands, R', ops)
        return cache(lambda strands, b, ops: check_braid_relations(strands, b, ops))

    @cached_property
    def quasi(self):  # one check_quasi_cocommutative verdict per ops
        return cache(partial(lambda spec, r, ops: check_quasi_cocommutative(spec, r, ops),
                             self.spec, self.r))


def cmd_check(args, argv) -> int:
    # inf passes every float comparison, and nan or a negative value fails them all
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ValueError(f"--tolerance must be a finite number above 0, not {args.tolerance:g}")
    spec = _parse_orders(args.orders)
    d = spec.dimension
    report = Report(" ".join(argv), args.backend, args.timings)
    use_float = args.backend == "float"

    external, file_order = None, 1
    if args.r_matrix:
        try:
            data = json.loads(Path(args.r_matrix).read_text())
        except RecursionError:
            raise ValueError(f"{args.r_matrix} is nested too deeply to be a matrix") from None
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{args.r_matrix} is not JSON: {exc}") from None
        m = matrix_from_json(data)
        side = round(m.rows ** 0.5)
        if side * side != m.rows or m.rows != m.cols:
            raise ValueError("imported matrix is not d^2 x d^2")
        if use_float:
            _admit_float_file(m, side, args.r_matrix)
        # every exact path lifts the nonzero entries to Q(zeta_L), L the lcm of their orders
        file_order = math.lcm(*{e.order for e in m.entries if e})
        if file_order > MAX_JSON_ORDER:
            raise ValueError(f"{args.r_matrix} holds entries whose orders have lcm {file_order}, "
                             f"above the limit of {MAX_JSON_ORDER}")
        external = BraidedRMatrix(side, m)

    def plan(which):
        """(local dimension, path).  MonomialOps runs only at the spec's d: it
        lifts everything from r ("source") but the --r-matrix file's R', which
        it certifies once before any check runs ("monomial"; else "dense")."""
        choice = CHOICES[which]
        imported = external is not None and choice.on_r_prime
        side = external.dimension if imported else d
        return side, ("float" if use_float else "dense" if not choice.monomial or side != d
                      else "monomial" if imported else "source")

    def file_work(which, side, path):
        """field_work of a check that multiplies the file's R', else 0; the
        certificate multiplies it by the character basis, over the spec's field."""
        if external is None or not CHOICES[which].on_r_prime or path not in ("monomial", "dense"):
            return 0
        order = file_order if path == "dense" else math.lcm(file_order, spec.field_order)
        return field_work(side, which, args.strands, path, order)

    plans = {w: plan(w) for w in CHOICES if args.which in ("all", w)}
    selected = [w for w, (side, _) in plans.items() if CHOICES[w].requires_d in (None, side)]
    if not selected:
        need, side = CHOICES[args.which].requires_d, plans[args.which][0]
        raise ValueError(f"{args.which} requires local dimension {need}, not {side}")

    # the field of R's character-basis diagonal: the fused form's is Q(zeta_d)
    weight_order = spec.field_order if args.form == "product" else d
    for which in selected:
        side, path = plans[which]
        if CHOICES[which].legs == STRANDS:
            _admit_strands(args.strands, f"check --which {which}")
        _admit(matrix_entries(side, which, args.strands, path), f"check --which {which}",
               transform_cells(side, which, path, args.strands, weight_order),
               tensor_ops=tensor_work(side, which, path), fft=path == "float",
               field_ops=file_work(which, side, path))

    inputs = _Inputs(spec, args, external)
    # every dense exact verdict runs on integer arrays; EXACT stays the oracle
    ops = floatback.NumpyOps(args.tolerance) if use_float else INTEGER
    monomial = MonomialOps(spec) if any(plans[w][1] in MONOMIAL for w in selected) else None
    certified = [w for w in selected if plans[w][1] == "monomial"]
    if certified:
        try:
            monomial.braided(external)  # the certificate, kept in monomial's cache
        except NotMonomialError:
            # no certificate: the dense path decides, if the guard admits it
            for which in certified:
                plans[which] = d, "dense"
                _admit(matrix_entries(d, which, args.strands, "dense"),
                       f"check --which {which} without a monomial certificate",
                       field_ops=file_work(which, d, "dense"))

    detail = f"float backend, tolerance {args.tolerance:g}" if use_float else ""
    for which in selected:
        backend = monomial if plans[which][1] in MONOMIAL else ops
        for check in CHOICES[which].checks:
            t0 = time.perf_counter()
            status, note = ("pass" if check.decide(inputs, backend) else "fail"), detail
            seconds = time.perf_counter() - t0
            if args.form == "fused" and check.on != "spec" and not (check.on == "R'" and external):
                status, note = "recorded", "; ".join(filter(None, [f"result: {status}", detail]))
            report.add_check(check.name.format(strands=args.strands),
                             check.anchor.format(strands=args.strands), status, note, seconds)
    return report.emit(args.json)


# -- braid -------------------------------------------------------------------


def cmd_braid(args, argv) -> int:
    spec = _parse_orders(args.orders)
    report = Report(" ".join(argv), "exact")
    word = BraidWord(args.strands, _parse_word(args.word))
    _admit_strands(word.strands, "braid")
    d = spec.dimension
    # the largest matrix that runs: R', the state column and each Schmidt
    # matrix (d^N entries) or the word's; N <= MAX_STRANDS keeps d^N cheap to price
    size = d ** word.strands
    _admit(max(d ** 4, size * size if args.output else size), "braid",
           work=braid_work(d, word, bool(args.output), args.state is not None))
    gate = braided_r(spec)
    report.add_info(f"word {list(word.letters)} on {word.strands} strands, "
                    f"local dimension {d}: matrix {size}x{size}")

    if args.output:
        path = Path(args.output)
        payload = matrix_to_json(evaluate_braid_word(word, gate))
        path.write_text(json.dumps(payload, indent=2) + "\n")
        report.artifacts.append(str(path))

    if args.state is not None:
        state = _parse_state(args.state, d, word.strands)
        column = evaluate_braid_word(word, gate, Matrix(size, 1, state.amps))
        image = StateVector(d, word.strands, column.entries)
        for digits, amp in zip(product(range(d), repeat=word.strands), image.amps):
            z = amp.to_complex()
            re, im = round(z.real, 6) + 0.0, round(z.imag, 6) + 0.0
            report.add_info(f"amp |{''.join(map(str, digits))}>: {amp}  ~ {re:+.6f}{im:+.6f}j")
        if d == 2 and word.strands == 2:
            report.add_info(f"concurrence: {concurrence(image):.6f}")
        for cut in range(1, word.strands):
            report.add_info(f"schmidt rank across cut {cut}: {schmidt_rank(image, cut)}")

    return report.emit(args.json)


def _parse_state(text: str, d: int, n: int) -> StateVector:
    if text in BELL_KINDS:
        if d != 2 or n != 2:
            raise ValueError("named Bell states need local dimension 2 and two strands")
        return bell_state(text)
    if len(text) != n or not text.isdecimal() or any(int(ch) >= d for ch in text):
        raise ValueError(f"state {text!r} must be {n} digits below {d} or a Bell name")
    return StateVector.computational(d, text)


# -- compare-gates -------------------------------------------------------------


def cmd_compare_gates(args, argv) -> int:
    report = Report(" ".join(argv), "exact")
    report.add_info(f"{'gate':<16} {'braided-ybe':<12} {'unitary':<8} {'bell-basis':<11} "
                    "probe-concurrence")
    probe = StateVector(2, 2, [1, 1, 1, 1])
    for name, matrix in [
        ("braided-r(2)", braided_r(GroupSpec((2,))).matrix),
        ("kl(1,1,1,1)", kauffman_lomonaco_r(1, 1, 1, 1)),
        ("kl(1,-1,1,1)", kauffman_lomonaco_r(1, -1, 1, 1)),
        ("bell-matrix", bell_matrix()),
    ]:
        ybe = "pass" if check_braid_relations(3, BraidedRMatrix(2, matrix), INTEGER) else "fail"
        m, dagger = INTEGER.matrix(matrix), INTEGER.matrix(conjugate_transpose(matrix))
        unitary = "yes" if m @ dagger == INTEGER.identity(4) else "no"
        bell = "yes" if check_bell_actions(matrix, INTEGER) else "no"
        value = concurrence(apply_gate(matrix, probe))
        report.add_info(f"{name:<16} {ybe:<12} {unitary:<8} {bell:<11} {value:.6f}")
        for check, anchor, note in (
                ("braided-ybe", CHOICES["braided-ybe"].checks[0].anchor, f"result: {ybe}"),
                ("unitary", "M Mdag = I", f"result: {unitary}"),
                ("bell-basis", "all four Bell mappings hold exactly", f"result: {bell}"),
                ("entangling-probe", "concurrence of the image of (|0>+|1>) (x) (|0>+|1>)",
                 f"concurrence {value:.6f}")):
            report.add_check(f"{name}:{check}", anchor, "recorded", note)
    return report.emit(args.json)


# -- parser --------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfbraid",
        description="Exact braided R-matrices, braid representations and "
                    "entangling gates from cyclic group algebras.",
        epilog="Composite indices put the first tensor factor in the most "
               "significant position.  Braid word letters are applied to "
               "states in written order: the first letter is the rightmost "
               "factor of the evaluated matrix product.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    gen = subs.add_parser("gen-r", help="construct and export R, gamma(R), flip, R'")
    gen.add_argument("--orders", required=True, help="comma separated cyclic orders, e.g. 2,3")
    gen.add_argument("--form", choices=("product", "fused"), default="product",
                     help="per-factor phase product (default) or single fused exponent")
    gen.add_argument("--output", default=".", help="output directory")
    gen.add_argument("--json", action="store_true", help="machine readable report")
    gen.set_defaults(func=cmd_gen_r)

    chk = subs.add_parser("check", help="run exact identity checkers")
    chk.add_argument("--orders", required=True, help="comma separated cyclic orders")
    chk.add_argument("--which", choices=(*CHOICES, "all"), default="all")
    chk.add_argument("--form", choices=("product", "fused"), default="product",
                     help="checks on the fused r are reported as 'recorded' and never "
                          "affect the exit code")
    chk.add_argument("--strands", type=int, default=3,
                     help="strand count for the braid-relations check")
    chk.add_argument("--r-matrix", default=None, help="JSON matrix file to use as R' in the "
                     + "/".join(w for w, c in CHOICES.items() if c.on_r_prime) + " checks")
    chk.add_argument("--tolerance", type=float, default=floatback.DEFAULT_TOL,
                     help="absolute entrywise tolerance for the float backend, also its "
                          "invertibility floor: the smallest singular value must exceed it")
    chk.add_argument("--timings", action="store_true",
                     help="include wall times (off by default so reports are "
                          "byte-for-byte reproducible); a verdict shared by several "
                          "rows is timed on its first")
    # the only subcommand with a float backend: the others compute exactly
    chk.add_argument("--backend", choices=("exact", "float"), default="exact",
                     help="exact cyclotomic arithmetic (default) or the "
                          "floating cross-check backend")
    chk.add_argument("--json", action="store_true", help="machine readable report")
    chk.set_defaults(func=cmd_check)

    brd = subs.add_parser("braid", help="evaluate a braid word, optionally on a state")
    brd.add_argument("--orders", required=True, help="comma separated cyclic orders")
    brd.add_argument("--strands", type=int, required=True)
    brd.add_argument("--word", default="", help="e.g. 1,2,-1; empty for the identity")
    brd.add_argument("--state", default=None,
                     help="phi+/phi-/psi+/psi- (two qubits) or a digit string per strand")
    brd.add_argument("--output", default=None, help="write the word matrix as JSON")
    brd.add_argument("--json", action="store_true", help="machine readable report")
    brd.set_defaults(func=cmd_braid)

    cmp_ = subs.add_parser("compare-gates",
                           help="side-by-side diagnostics of the d=2 braided gate, "
                                "the unit-scalar family gates, and the Bell matrix")
    cmp_.add_argument("--json", action="store_true", help="machine readable report")
    cmp_.set_defaults(func=cmd_compare_gates)

    return parser


_WORD = re.compile(r"-?\d+(,-?\d+)*")


def _attach_word_values(argv: list[str]) -> list[str]:
    """Glue a --word value that starts with '-' (e.g. -1,2) to its flag,
    since argparse would otherwise read the value as an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--word" and arg.startswith("-") and _WORD.fullmatch(arg):
            out[-1] = f"--word={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_word_values(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, list(argv))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
