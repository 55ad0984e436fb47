"""hopfbraid benchmark: time exact-checker verdicts through the CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each run starts fresh child processes (perfbench/child.py): several that
only set up, to time set-up, and one that then runs the workload's command
list in a closed loop with one client for S seconds.  With --trace 0 the
last line of output is a JSON object with every end-to-end metric named in
BENCHMARK.json; with --trace 1 it has every per-layer metric instead.
--smoke runs the first command of each workload once and checks it.
Workloads, metrics and the reasons behind them are described in
perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # every child is killed once the whole run has taken this long


class ChildError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one child; return its set-up time and its result (None for a
    child that only sets up)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if ready.strip() != "ready":
        raise ChildError(f"child exited with code {code} before set-up finished")
    if code != 0:
        raise ChildError(f"child exited with code {code}")
    lines = rest.strip().splitlines()
    if "--setup-only" in args:
        return setup, None
    if not lines:
        raise ChildError("child printed no result")
    return setup, json.loads(lines[-1])


def tail_percentile(values: list[float]) -> str:
    """The highest percentile that has at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no percentile has ten samples beyond it ({n} samples)"
    return f"p{math.floor(100 * (n - 10) / n)} {sorted(values)[n - 11]:.4f} s ({n} samples)"


def end_to_end(setup: list[float], result: dict) -> dict[str, float]:
    passes = result["untraced"]
    return {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(p["seconds"] for p in passes),
        "slowest_cmd_s": statistics.median(max(p["cmd_seconds"]) for p in passes),
        "peak_rss_mb": result["rss_kb"] / 1024,
    }


def per_layer(result: dict) -> dict[str, float]:
    untraced, traced = result["untraced"], result["traced"]
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_ratio"] = (statistics.median(p["seconds"] for p in traced)
                                   / statistics.median(p["seconds"] for p in untraced))
    out["cli.report_bytes"] = statistics.median(p["report_bytes"] for p in untraced)
    out.update(outcome_metrics(result))
    return out


def outcome_metrics(result: dict) -> dict[str, float]:
    passes = result["untraced"] + result["traced"]
    attempted = sum(len(p["cmd_seconds"]) for p in passes)
    letters = sum(p["letters"] for p in result["untraced"])
    braid_s = sum(p["braid_seconds"] for p in result["untraced"])
    return {
        "error_rate": sum(p["failed"] for p in passes) / attempted,
        "letters_per_s": letters / braid_s if braid_s else 0.0,
    }


def summary(setup: list[float], result: dict) -> list[str]:
    passes = result["untraced"]
    outcome = outcome_metrics(result)
    lines = [f"median {statistics.median(s):.4f} s: {cmd}"
             for cmd, s in zip(result["commands"], zip(*(p["cmd_seconds"] for p in passes)))]
    lines += [
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}",
        f"pass_s tail: {tail_percentile([p['seconds'] for p in passes])}",
        f"untraced passes: {len(passes)}, traced passes: {len(result['traced'])}",
        f"error_rate: {outcome['error_rate']:.4f}",
    ]
    if outcome["letters_per_s"]:
        lines.append(f"letters_per_s: {outcome['letters_per_s']:.2f} 1/s")
    else:
        lines.append("letters_per_s: n/a (no braid commands in this workload)")
    if not result["verdicts_match"]:
        lines.append("reports differ between passes")
    for p in result["untraced"] + result["traced"]:
        lines += [f"problem: {problem}" for problem in p["problems"]]
    return lines


def measure(args) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.perf_counter() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = [spawn(common + ["--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    seconds, result = spawn(common + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace)], deadline)
    setup.append(seconds)
    if args.trace:
        values, wanted = per_layer(result), declared["per_layer"]
    else:
        values, wanted = end_to_end(setup, result), declared["end_to_end"]
    for line in summary(setup, result):
        print(line)
    passes = result["untraced"] + result["traced"]
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": failed == 0 and result["verdicts_match"],
        "attempted": sum(len(p["cmd_seconds"]) for p in passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def smoke() -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    ok = True
    for name in WORKLOADS:
        _, result = spawn(["--workload", name, "--seed", "1", "--smoke"], deadline)
        problems = result["untraced"][0]["problems"]
        ok = ok and not problems and result["verdicts_match"]
        print(f"smoke {name}: {'ok' if not problems else problems[0]}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        if args.smoke:
            return smoke()
        print(json.dumps(measure(args)))
        return 0
    except (ChildError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_out").rmdir()


if __name__ == "__main__":
    sys.exit(main())
