"""Output oracle: compares one CLI result against its command's expectation.

``verify`` returns a list of problems; an empty list means the exit code,
every check name and status, and every printed or written value agree with
what the command expects.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

import model
from workloads import Command

VALUE_TOL = 1e-9
PRINTED_TOL = 2e-6  # amplitudes and concurrence are printed with six decimals

AMP_LINE = re.compile(r"amp \|(\d+)>: (.+)  ~ ([+-][0-9.]+)([+-][0-9.]+)j$")
CONCURRENCE_LINE = re.compile(r"concurrence: ([0-9]+\.[0-9]+)$")


def verify(cmd: Command, rc, out: str) -> list[str]:
    if rc != cmd.exit_code:
        return [f"exit code {rc}, expected {cmd.exit_code}"]
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    problems = []
    if report.get("command") != " ".join(cmd.argv):
        problems.append(f"command echo {report.get('command')!r}")
    if report.get("backend") != cmd.backend:
        problems.append(f"backend {report.get('backend')!r}, expected {cmd.backend!r}")
    got = [(c.get("name"), c.get("status"), c.get("detail")) for c in report.get("checks", [])]
    if got != cmd.checks:
        problems.append(f"checks {got}, expected {cmd.checks}")
    if cmd.word is not None:
        problems += _verify_braid(cmd, report.get("info", []))
    if cmd.output is not None:
        problems += _verify_gen_r(cmd, report)
    return problems


def _verify_braid(cmd: Command, info: list[str]) -> list[str]:
    strands = int(cmd.argv[cmd.argv.index("--strands") + 1])
    d = math.prod(int(n) for n in cmd.argv[cmd.argv.index("--orders") + 1].split(","))
    size = d ** strands
    expected_head = (f"word {list(cmd.word)} on {strands} strands, local dimension {d}: "
                     f"matrix {size}x{size}")
    if not info or info[0] != expected_head:
        return [f"header {info[:1]}, expected {expected_head!r}"]
    amp_lines = info[1:1 + size]
    tail = info[1 + size:]
    problems = []
    for i, line in enumerate(amp_lines):
        m = AMP_LINE.match(line)
        if m is None or int(m.group(1), d) != i or len(m.group(1)) != strands:
            problems.append(f"amplitude line {line!r}")
            continue
        want = cmd.amps[i]
        try:
            exact = model.printed_value(m.group(2))
        except (ValueError, ZeroDivisionError):
            problems.append(f"cannot read amplitude {m.group(2)!r}")
            continue
        shown = complex(float(m.group(3)), float(m.group(4)))
        if abs(exact - want) > VALUE_TOL or abs(shown - want) > PRINTED_TOL:
            problems.append(f"amplitude {i}: {line!r}, model {want:.6f}")
    if len(amp_lines) != size:
        problems.append(f"{len(amp_lines)} amplitude lines, expected {size}")
    expected_tail = [f"schmidt rank across cut {c}: {r}"
                     for c, r in enumerate(model.schmidt_ranks(cmd.amps, d, strands), start=1)]
    if d == 2 and strands == 2:
        conc = model.concurrence(cmd.amps)
        line = tail[0] if tail else ""
        m = CONCURRENCE_LINE.match(line)
        if m is None or not math.isclose(float(m.group(1)), conc, abs_tol=PRINTED_TOL):
            problems.append(f"concurrence line {line!r}, model {conc:.6f}")
        tail = tail[1:]
    if tail != expected_tail:
        problems.append(f"schmidt ranks {tail}, expected {expected_tail}")
    return problems


def _verify_gen_r(cmd: Command, report: dict) -> list[str]:
    names = ("universal_r.json", "gamma_r.json", "flip.json", "braided_r.json")
    expected = [str(cmd.output / n) for n in names]
    if report.get("artifacts") != expected:
        return [f"artifacts {report.get('artifacts')}, expected {expected}"]
    try:
        braided = model.matrix_value(json.loads((cmd.output / "braided_r.json").read_text()))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"cannot read the exported R': {exc}"]
    if braided.shape != cmd.braided.shape or \
            not np.allclose(braided, cmd.braided, rtol=0, atol=VALUE_TOL):
        return ["exported R' differs from the model"]
    return []
