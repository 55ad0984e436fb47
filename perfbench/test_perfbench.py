"""Tests of the benchmark itself: the numpy model, the oracle, the tracer and
the harness's smoke mode.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402  (puts the checkout's src on the path)
import model  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

cli = child.import_cli()


def run(cmd):
    return child.run_command(cli, cmd)


def test_model_reproduces_the_two_element_gate():
    expected = np.array([[1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1], [-1, 1, 1, 1]]) / 2
    assert np.allclose(model.braided_r((2,)), expected)
    for orders in ((2,), (3,), (2, 2)):
        assert model.ybe_residual(model.braided_r(orders), int(np.prod(orders))) < 1e-12


def test_printed_value_reads_the_exact_scalar_format():
    assert model.printed_value("(1/2)*z8 + (-1/2)*z8^3") == pytest.approx(2 ** -0.5)
    assert model.printed_value("-1/4 - z4") == pytest.approx(-0.25 - 1j)
    assert model.printed_value("0") == 0


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    def build(name, seed):
        return workloads.build(name, seed, tmp_path)

    for name in workloads.WORKLOADS:
        assert [c.argv for c in build(name, 7)] == [c.argv for c in build(name, 7)]
    words = [c.word for c in build("braid-words", 7) if c.word]
    assert words != [c.word for c in build("braid-words", 8) if c.word]
    assert all(min(w) < 0 < max(w) for w in words)


def test_oracle_rejects_a_tampered_report(tmp_path):
    cmd = workloads.build("braid-words", 3, tmp_path)[2]
    rc, out = run(cmd)
    assert oracle.verify(cmd, rc, out) == []
    report = json.loads(out)

    wrong_status = json.loads(out)
    wrong_status["checks"] = [{"name": "braided-ybe", "anchor": "", "status": "fail",
                               "detail": ""}]
    assert oracle.verify(cmd, rc, json.dumps(wrong_status))

    amp = next(i for i, line in enumerate(report["info"])
               if line.startswith("amp") and not line.endswith("~ +0.000000+0.000000j"))
    wrong_amp = json.loads(out)
    digits = report["info"][amp].split(">")[0]
    wrong_amp["info"][amp] = f"{digits}>: 0  ~ +0.000000+0.000000j"
    assert oracle.verify(cmd, rc, json.dumps(wrong_amp))

    wrong_rank = json.loads(out)
    wrong_rank["info"][-1] = wrong_rank["info"][-1][:-1] + "9"
    assert oracle.verify(cmd, rc, json.dumps(wrong_rank))

    assert oracle.verify(cmd, 1, out)


def test_expected_fail_controls_are_detected(tmp_path):
    fused = workloads.build("exact-algebra", 0, tmp_path)[-1]
    assert fused.checks[-1] == ("quasitriangular-coproducts", "recorded", "result: fail")
    rc, out = run(fused)
    assert oracle.verify(fused, rc, out) == []
    passing = out.replace('"result: fail"', '"result: pass"')
    assert oracle.verify(fused, rc, passing)

    commands = workloads.build("braid-words", 5, tmp_path)
    perturbed = commands[-1]
    assert perturbed.exit_code == 1
    rc, out = run(perturbed)
    assert rc == 1 and oracle.verify(perturbed, rc, out) == []
    assert oracle.verify(perturbed, 0, out)


def namespaces():
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "hopfbraid"]
    classes = [c for m in modules for c in vars(m).values() if isinstance(c, type)]
    return [dict(vars(x)) for x in modules + classes]


def test_tracer_counts_layers_and_restores_every_wrapper():
    cmd = workloads.check("2", "all")
    before = run(cmd)
    originals = namespaces()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run(cmd)
    finally:
        tracer.uninstall()
    assert traced == before
    assert namespaces() == originals
    metrics = tracer.metrics()
    assert metrics["linalg.matmul.calls"] > 0
    assert metrics["scalar.mul.calls"] > 0
    assert metrics["cli.self_s"] > 0
    assert tracer.calls["linalg.kron"] > 0  # reached through braidrep's own binding


def test_smoke_mode_runs_the_first_command_of_each_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == len(workloads.WORKLOADS)


def test_harness_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-algebra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
