"""One benchmark process: set up a workload, then run it in a closed loop.

Usage: python3 perfbench/child.py --workload NAME --seed N --seconds S
       [--trace 0|1] [--setup-only | --smoke]

Set-up imports hopfbraid.cli from the checkout's ``src``, builds the
workload's inputs from the seed, runs one warm-up command and prints
``ready``.  Then one client on one thread runs the command list through
``hopfbraid.cli.main(argv)`` pass after pass until the time is up; each
report is checked by the oracle after its pass, outside the timed region.
A pass starts only when it is expected to end within the time.  With
``--trace 1`` the first half of the time runs untraced and the second half
traced.  The last line printed is a JSON object with the raw timings.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import oracle
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WARM_UP = workloads.check("1", "all")
MAX_PROBLEMS = 5


def import_cli():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from hopfbraid import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"hopfbraid was imported from {cli.__file__}, not from {src}")
    return cli


def run_command(cli, cmd: workloads.Command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(cmd.argv))
        except Exception as exc:  # a crash is a failed command, not a harness error
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def run_pass(cli, commands) -> dict:
    outputs, seconds = [], []
    start = time.perf_counter()
    for cmd in commands:
        t0 = time.perf_counter()
        outputs.append(run_command(cli, cmd))
        seconds.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    problems = []
    for cmd, (rc, out) in zip(commands, outputs):
        problems += [f"{' '.join(cmd.argv)}: {p}" for p in oracle.verify(cmd, rc, out)[:1]]
    return {
        "seconds": wall,
        "cmd_seconds": seconds,
        "failed": len(problems),
        "problems": problems[:MAX_PROBLEMS],
        "report_bytes": sum(len(out.encode()) for _, out in outputs),
        "letters": sum(cmd.letters for cmd in commands),
        "braid_seconds": sum(s for cmd, s in zip(commands, seconds) if cmd.word is not None),
        "outputs": outputs,
    }


def passes_until(deadline: float, run) -> list[dict]:
    """Run passes while the next one is expected to end by the deadline;
    always at least one."""
    passes, start = [], time.perf_counter()
    while True:
        passes.append(run())
        now = time.perf_counter()
        if now + (now - start) / len(passes) > deadline:
            return passes


def measure(cli, commands, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    untraced = passes_until(start + (seconds / 2 if trace else seconds),
                            lambda: run_pass(cli, commands))
    traced = []
    reference = untraced[0]["outputs"]
    verdicts_match = all(p["outputs"] == reference for p in untraced)
    if trace:
        tracer = Tracer()

        def traced_pass():
            tracer.reset()
            record = run_pass(cli, commands)
            record["layers"] = tracer.metrics()
            return record

        tracer.install()
        try:
            traced = passes_until(start + seconds, traced_pass)
        finally:
            tracer.uninstall()
        verdicts_match = verdicts_match and all(p["outputs"] == reference for p in traced)
    for p in untraced + traced:
        del p["outputs"]
    return {
        "commands": [" ".join(cmd.argv) for cmd in commands],
        "untraced": untraced,
        "traced": traced,
        "verdicts_match": verdicts_match,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--smoke", action="store_true",
                      help="run only the first command of the workload, once")
    args = parser.parse_args(argv)

    cli = import_cli()
    out_dir = ROOT / ".perfbench_out" / str(os.getpid())
    try:
        commands = workloads.build(args.workload, args.seed, out_dir)
        if args.smoke:
            commands = commands[:1]
        problems = oracle.verify(WARM_UP, *run_command(cli, WARM_UP))
        if problems:
            raise SystemExit(f"warm-up command failed: {problems[0]}")
        print("ready", flush=True)
        if args.setup_only:
            return 0
        seconds = 0.0 if args.smoke else args.seconds
        print(json.dumps(measure(cli, commands, seconds, bool(args.trace))), flush=True)
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
