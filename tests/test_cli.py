import argparse
import gc
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

import hopfbraid
from hopfbraid import braidrep, cli, floatback, linalg, scalar
from hopfbraid.braidrep import (BraidedRMatrix, BraidWord, braid_generator, braided_r,
                                check_braid_relations, evaluate_braid_word)
from hopfbraid.cli import (CHOICES, MAX_FIELD_WORK, MAX_MATRIX_ENTRIES, MAX_TRANSFORM_CELLS,
                           field_work, main, matrix_entries, transform_cells)
from hopfbraid.groupalg import GroupSpec, specs_up_to, universal_r, universal_r_fused_phase
from hopfbraid.linalg import (INTEGER, Matrix, MonomialOps, invert_matrix, matrix_from_json,
                              matrix_to_json)
from hopfbraid.quantum import StateVector, bell_matrix, kauffman_lomonaco_r


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_all_orders_two(capsys):
    code, out, _ = run(capsys, "check", "--orders", "2", "--which", "all")
    assert code == 0
    assert "9 pass, 0 fail" in out
    assert "bell-actions" in out


def test_check_all_excludes_bell_actions_for_d3(capsys):
    code, out, _ = run(capsys, "check", "--orders", "3", "--which", "all")
    assert code == 0
    assert "bell-actions" not in out


def test_check_bell_actions_requires_d2(capsys):
    code, _, err = run(capsys, "check", "--orders", "3", "--which", "bell-actions")
    assert code == 2
    assert "local dimension 2" in err


def _gen_r_file(capsys, tmp_path, orders):
    assert run(capsys, "gen-r", "--orders", orders, "--output", str(tmp_path / orders))[0] == 0
    return str(tmp_path / orders / "braided_r.json")


def test_bell_actions_reads_the_side_of_its_r_matrix(monkeypatch, tmp_path, capsys):
    three, two = _gen_r_file(capsys, tmp_path, "3"), _gen_r_file(capsys, tmp_path, "2")
    # all skips bell-actions on an R' of local dimension 3; it exited 2
    # after running the other seven checks
    code, out, _ = run(capsys, "check", "--orders", "2", "--which", "all", "--r-matrix", three)
    assert code == 0 and "8 checks, 8 pass" in out and "bell-actions" not in out
    # an R' of local dimension 2 runs it, whatever the orders
    code, out, _ = run(capsys, "check", "--orders", "3", "--which", "bell-actions",
                       "--r-matrix", two)
    assert code == 0 and "check bell-actions: pass" in out

    def refuse(*args):
        raise AssertionError("ran a check of a refused command")

    monkeypatch.setattr(cli, "check_bell_actions", refuse)
    # the refusal names the side; for orders 3 it said "orders product = 2"
    for orders, file in (("2", ["--r-matrix", three]), ("3", [])):
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "--orders", orders, "--which", "bell-actions",
                             *file)
        assert code == 2 and out == "" and time.perf_counter() - start < 1.0
        assert err == "error: bell-actions requires local dimension 2, not 3\n"


def test_check_fused_records_definite_ybe_result(capsys):
    code, out, _ = run(capsys, "check", "--orders", "2,2", "--which", "ybe",
                       "--form", "fused")
    assert code == 0
    assert "recorded" in out
    assert "result: pass" in out


def test_check_fused_single_factor_records_pass(capsys):
    code, out, _ = run(capsys, "check", "--orders", "2", "--which", "ybe",
                       "--form", "fused")
    assert code == 0
    assert "result: pass" in out


def test_check_fused_coproduct_identities_record_fail_without_exit_code(capsys):
    code, out, _ = run(capsys, "check", "--orders", "2,2", "--which",
                       "quasitriangular", "--form", "fused")
    assert code == 0
    assert "result: fail" in out


def _changed_r_matrix(capsys, tmp_path) -> str:
    """The 2,2 R' exported by gen-r with entry 0 changed from 1/4 to 5/4."""
    path = _gen_r_file(capsys, tmp_path, "2,2")
    data = json.loads(Path(path).read_text())
    data["entries"][0] = {"order": 1, "coeffs": [[5, 4]]}
    Path(path).write_text(json.dumps(data))
    return path


def test_fused_form_decides_the_checks_on_an_r_matrix_file(tmp_path, capsys):
    # the file's R' does not depend on --form, yet its failure was recorded, exit 0
    changed = _changed_r_matrix(capsys, tmp_path / "changed")
    for form in ("product", "fused"):
        code, out, _ = run(capsys, "check", "--orders", "2,2", "--which", "braided-ybe",
                           "--r-matrix", changed, "--form", form)
        assert code == 1 and "check braided-ybe: fail" in out, form
    # the file's rows are decided, the rows on the fused r and the spec's R' recorded
    code, out, _ = run(capsys, "check", "--orders", "2,2", "--which", "all", "--form", "fused",
                       "--r-matrix", _gen_r_file(capsys, tmp_path, "2,2"), "--json")
    statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert code == 0 and statuses == {
        "hopf-axioms": "pass", "quasi-cocommutativity": "recorded",
        "quasitriangular-coproducts": "recorded", "algebraic-ybe": "recorded",
        "braided-ybe": "pass", "braid-relations-3": "pass",
        "module-morphism": "recorded", "hexagon": "recorded"}


def test_json_report_schema(capsys):
    code, out, _ = run(capsys, "check", "--orders", "2", "--which", "braided-ybe",
                       "--json")
    assert code == 0
    report = json.loads(out)
    assert set(report) >= {"command", "backend", "checks", "artifacts"}
    check = report["checks"][0]
    assert set(check) == {"name", "anchor", "status", "detail"}
    assert check["status"] == "pass"


def test_reports_are_deterministic(capsys):
    code1, out1, _ = run(capsys, "check", "--orders", "2,2", "--which", "all", "--json")
    code2, out2, _ = run(capsys, "check", "--orders", "2,2", "--which", "all", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_r_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code, out, _ = run(capsys, "gen-r", "--orders", "2", "--output", str(out_dir))
    assert code == 0
    for name in ("universal_r.json", "gamma_r.json", "flip.json", "braided_r.json"):
        assert (out_dir / name).exists()
    assert "gamma(r): 4x4" in out
    data = json.loads((out_dir / "braided_r.json").read_text())
    assert matrix_from_json(data).rows == 4


def test_gen_r_trivial_group(tmp_path, capsys):
    out_dir = tmp_path / "trivial"
    code, out, _ = run(capsys, "gen-r", "--orders", "1", "--output", str(out_dir))
    assert code == 0
    data = json.loads((out_dir / "braided_r.json").read_text())
    assert matrix_from_json(data) == Matrix.identity(1)


def test_gen_r_composite_orders_dimension(tmp_path, capsys):
    out_dir = tmp_path / "sixes"
    code, out, _ = run(capsys, "gen-r", "--orders", "2,3", "--output", str(out_dir))
    assert code == 0
    assert "braided r: 36x36" in out
    data = json.loads((out_dir / "braided_r.json").read_text())
    assert data["rows"] == 36


def test_round_trip_gen_then_check(tmp_path, capsys):
    out_dir = tmp_path / "roundtrip"
    code, _, _ = run(capsys, "gen-r", "--orders", "2", "--output", str(out_dir))
    assert code == 0
    code, out, _ = run(capsys, "check", "--orders", "2", "--which", "braided-ybe",
                       "--r-matrix", str(out_dir / "braided_r.json"))
    assert code == 0
    assert "braided-ybe: pass" in out


def test_check_fails_on_external_non_solution(tmp_path, capsys):
    bad = Matrix.from_rows([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 2],
    ])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(matrix_to_json(bad)))
    code, out, _ = run(capsys, "check", "--orders", "2", "--which", "braided-ybe",
                       "--r-matrix", str(path))
    assert code == 1
    assert "braided-ybe: fail" in out


def test_braid_word_equality(capsys):
    code1, out1, _ = run(capsys, "braid", "--orders", "2", "--strands", "3",
                         "--word", "1,2,1", "--json")
    code2, out2, _ = run(capsys, "braid", "--orders", "2", "--strands", "3",
                         "--word", "2,1,2", "--json")
    assert code1 == code2 == 0


def test_braid_word_matrices_agree(tmp_path, capsys):
    p1 = tmp_path / "w1.json"
    p2 = tmp_path / "w2.json"
    run(capsys, "braid", "--orders", "2", "--strands", "3", "--word", "1,2,1",
        "--output", str(p1))
    run(capsys, "braid", "--orders", "2", "--strands", "3", "--word", "2,1,2",
        "--output", str(p2))
    assert matrix_from_json(json.loads(p1.read_text())) == matrix_from_json(json.loads(p2.read_text()))


def test_braid_empty_word_is_identity(tmp_path, capsys):
    path = tmp_path / "id.json"
    code, out, _ = run(capsys, "braid", "--orders", "2", "--strands", "2",
                       "--word", "", "--output", str(path))
    assert code == 0
    assert matrix_from_json(json.loads(path.read_text())) == Matrix.identity(4)


def test_braid_output_writes_every_zero_at_order_one(tmp_path, capsys):
    # the word's 32 zeros are written as gen-r and flip_rows write a zero
    path = tmp_path / "word.json"
    assert run(capsys, "braid", "--orders", "2", "--strands", "3", "--word=1,2,-1",
               "--output", str(path))[0] == 0
    data = json.loads(path.read_text())
    zeros = [e for e in data["entries"] if not any(num for num, _ in e["coeffs"])]
    assert len(zeros) == 32
    assert all(e == {"order": 1, "coeffs": [[0, 1]]} for e in zeros)
    r = braided_r(GroupSpec((2,)))
    inverse = BraidedRMatrix(2, invert_matrix(r.matrix))
    expected = braid_generator(1, 3, inverse) @ braid_generator(2, 3, r) @ braid_generator(1, 3, r)
    assert matrix_from_json(data) == expected


def test_braid_state_action(capsys):
    code, out, _ = run(capsys, "braid", "--orders", "2", "--strands", "2",
                       "--word", "1", "--state", "phi+")
    assert code == 0
    assert "concurrence: 1.000000" in out
    assert "schmidt rank across cut 1: 2" in out
    # image is psi+: both middle amplitudes positive, outer ones zero
    assert "amp |01>: (1/2)*z8 + (-1/2)*z8^3" in out


@pytest.mark.parametrize("state", ["\u00b21", "1\u00b9", "0x", "012"])
def test_braid_state_that_is_not_decimal_digits_is_refused(capsys, state):
    # str.isdigit() accepted a superscript two, and int() then failed on it
    code, out, err = run(capsys, "braid", "--orders", "12", "--strands", "2", "--word", "1",
                         "--state", state)
    assert code == 2 and out == ""
    assert err == f"error: state {state!r} must be 2 digits below 12 or a Bell name\n"


@pytest.mark.parametrize("orders, state", [("2", "29"), ("2", "20"), ("3", "13")])
def test_braid_state_with_a_digit_not_below_d_is_refused(capsys, orders, state):
    # the library's "digit out of range" message was printed instead
    code, out, err = run(capsys, "braid", "--orders", orders, "--strands", "2", "--word", "1",
                         "--state", state)
    assert code == 2 and out == ""
    assert err == f"error: state {state!r} must be 2 digits below {orders} or a Bell name\n"


def test_braid_state_builds_no_word_matrix(monkeypatch, tmp_path, capsys):
    # --state alone applies the word to one column: no matrix holds more
    # entries than R' (3^4) or the state (3^3); only --output builds the
    # 27x27 word matrix
    shapes = []
    init = Matrix.__init__

    def spy(self, rows, cols, entries):
        shapes.append((rows, cols))
        init(self, rows, cols, entries)

    monkeypatch.setattr(Matrix, "__init__", spy)
    argv = ["braid", "--orders", "3", "--strands", "3", "--word=1,-2,1,2", "--state", "012"]
    assert run(capsys, *argv)[0] == 0
    assert (27, 1) in shapes
    assert max(rows * cols for rows, cols in shapes) <= max(3 ** 4, 3 ** 3)
    shapes.clear()
    assert run(capsys, *argv, "--output", str(tmp_path / "word.json"))[0] == 0
    assert {(rows, cols) for rows, cols in shapes if rows * cols > 3 ** 4} == {(27, 27)}


def test_braid_state_on_ten_qubit_strands(capsys):
    # each letter acts on two digits of the 2^10 amplitudes, so the guard
    # prices the state column, not a 2^10 x 2^10 generator
    letters = ([1, 2, 3, 4, 5, 6, 7, 8, 9, -9, -8, -7, -6, -5, -4, -3, -2, -1]
               + [2, -4, 6, -8, 1, -3, 5, -7, 9, -1, 3, -5, 7, -9, 8, -6, 4, -2] + [1, 5, 9, 3])
    word = BraidWord(10, letters)
    assert len(word.letters) == 40
    start = time.perf_counter()
    code, out, err = run(capsys, "braid", "--orders", "2", "--strands", "10",
                         f"--word={','.join(map(str, letters))}", "--state", "0101010101")
    assert code == 0 and err == "" and time.perf_counter() - start < 10.0
    assert "schmidt rank across cut 9:" in out
    # R' is unitary, so the image of a basis state has norm exactly 1
    state = StateVector.computational(2, "0101010101")
    column = evaluate_braid_word(word, braided_r(GroupSpec((2,))),
                                 Matrix(2 ** 10, 1, state.amps))
    assert StateVector(2, 10, column.entries).norm_squared() == 1


def test_r_matrix_help_names_the_choices_on_r_prime(capsys):
    assert [w for w, c in CHOICES.items() if c.on_r_prime] == [
        "braided-ybe", "braid", "bell-actions"]
    code, out, _ = run(capsys, "check", "--help")
    assert code == 0
    # argparse wraps the help text, even inside a name
    assert "R'inthebraided-ybe/braid/bell-actionschecks" in "".join(out.split())


def test_braid_invalid_word_exits_two(capsys):
    code, _, err = run(capsys, "braid", "--orders", "2", "--strands", "2",
                       "--word", "5")
    assert code == 2
    assert "invalid" in err


def test_braid_malformed_word_exits_two(capsys):
    code, _, err = run(capsys, "braid", "--orders", "2", "--strands", "2",
                       "--word", "1,x")
    assert code == 2


def test_braid_bad_state_exits_two(capsys):
    code, _, _ = run(capsys, "braid", "--orders", "2", "--strands", "3",
                     "--word", "1", "--state", "phi+")
    assert code == 2


def test_compare_gates_table(capsys):
    code, out, _ = run(capsys, "compare-gates")
    assert code == 0
    assert "braided-r(2)" in out
    lines = {line.split()[0]: line for line in out.splitlines() if line.startswith("kl(")}
    assert "0.000000" in lines["kl(1,1,1,1)"]
    assert "1.000000" in lines["kl(1,-1,1,1)"]
    bell_line = next(line for line in out.splitlines() if line.startswith("bell-matrix"))
    assert "no" in bell_line  # not unitary at the recorded scale


def test_compare_gates_braid_and_gen_r_make_no_dense_products(monkeypatch, tmp_path, capsys):
    # they multiply on IntegerMatrix: dense Matrix products are left to the
    # EXACT oracle and to check's proof obligation of the character basis
    products = _counted(monkeypatch, Matrix, "__matmul__")
    krons = _counted(monkeypatch, linalg, "kron")
    for argv in (["compare-gates"],
                 ["braid", "--orders", "2,2", "--strands", "3", "--word=1,2,-1", "--state",
                  "031", "--output", str(tmp_path / "word.json")],
                 ["gen-r", "--orders", "2,2", "--output", str(tmp_path / "gen")]):
        assert run(capsys, *argv)[0] == 0, argv
        assert (len(products), len(krons)) == (0, 0), argv


def test_float_backend_smoke(capsys):
    code, out, _ = run(capsys, "check", "--orders", "2", "--which", "all",
                       "--backend", "float")
    assert code == 0
    assert "float backend" in out


def test_usage_error_exit_code(capsys):
    assert main(["check", "--orders", "2", "--which", "nonsense"]) == 2


@pytest.mark.parametrize("argv", [
    ["braid", "--orders", "2", "--strands", "2", "--timings"],
    ["braid", "--orders", "2", "--strands", "2", "--tolerance", "1e-6"],
    ["gen-r", "--orders", "2", "--output", "<tmp>", "--timings"],
    ["compare-gates", "--tolerance", "1e-6"],
    ["compare-gates", "--backend", "float"],
    ["braid", "--orders", "2", "--strands", "2", "--word", "1", "--backend", "float"],
    ["gen-r", "--orders", "2", "--output", "<tmp>", "--backend", "float"],
], ids=["braid-timings", "braid-tolerance", "gen-r-timings", "compare-gates-tolerance",
        "compare-gates-backend", "braid-backend", "gen-r-backend"])
def test_check_only_options_are_refused_elsewhere(argv, tmp_path, capsys):
    # only check reads --timings and --tolerance, and gen-r, compare-gates and
    # braid decide everything exactly, so they take no --backend (braid's
    # printed "backend: float" over exact amplitudes, and gen-r's wrote three
    # of its files as [re, im] pairs that check --r-matrix refuses)
    assert main([str(tmp_path) if a == "<tmp>" else a for a in argv]) == 2
    assert not any(tmp_path.iterdir())


def test_only_check_has_a_backend_option():
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert {name for name, sub in subs.choices.items()
            if any("--backend" in a.option_strings for a in sub._actions)} == {"check"}


def test_timings_flag_adds_seconds(capsys):
    code, out, _ = run(capsys, "check", "--orders", "2", "--which", "ybe",
                       "--timings", "--json")
    assert code == 0
    report = json.loads(out)
    assert "seconds" in report["checks"][0]


@pytest.mark.parametrize("word", [["--word", "-1,2"], ["--word=-1,2"]])
def test_braid_word_starting_with_inverse_letter(capsys, word):
    code, out, _ = run(capsys, "braid", "--orders", "2", "--strands", "3", *word)
    assert code == 0
    assert "word [-1, 2] on 3 strands" in out


def _write_r_matrix(tmp_path, payload, name="r"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("payload", [
    {"rows": 1, "cols": 1},
    {"rows": 1, "cols": 1, "entries": [{"order": 1, "coeffs": [[1, 0]]}]},
    # non-integer JSON numbers were truncated and a different matrix checked
    {"rows": 1, "cols": 1, "entries": [{"order": 1, "coeffs": [[1.5, 2]]}]},
    {"rows": 1, "cols": 1, "entries": [{"order": 1.0, "coeffs": [[1, 1]]}]},
])
def test_malformed_r_matrix_exits_two_with_one_line_error(tmp_path, capsys, payload):
    code, _, err = run(capsys, "check", "--orders", "1", "--which", "braided-ybe",
                       "--r-matrix", _write_r_matrix(tmp_path, payload))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


_FLOAT_EXPORT = [[1.0, 0.0], [0.0, 0.0]]  # [re, im] pairs, as old float exports held


@pytest.mark.parametrize("entries, message", [
    # a malformed entries field was read as a float export from entry 0
    ("x", "matrix JSON needs integer 'rows' and 'cols' and an 'entries' list"),
    ({"a": 1}, "matrix JSON needs integer 'rows' and 'cols' and an 'entries' list"),
    (None, "matrix JSON needs integer 'rows' and 'cols' and an 'entries' list"),
    ([None], "cyclotomic number JSON needs"),
    (_FLOAT_EXPORT, "cyclotomic number JSON needs"),
    ([{"order": 1, "coeffs": [[1, 1]]}, *_FLOAT_EXPORT], "cyclotomic number JSON needs"),
], ids=["string", "object", "null", "null-entry", "float-export", "float-at-entry-1"])
def test_malformed_r_matrix_entries_name_their_format(tmp_path, capsys, entries, message):
    payload = {"rows": 1, "cols": 1, "entries": entries}
    code, out, err = run(capsys, "check", "--orders", "1", "--which", "braided-ybe",
                         "--r-matrix", _write_r_matrix(tmp_path, payload))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("shape", [{"rows": 1.9}, {"cols": "1"}, {"rows": True}])
def test_r_matrix_with_a_non_integer_shape_exits_two(tmp_path, capsys, shape):
    # int() used to read 1.9 as 1 and "1" as 1, and check the matrix
    payload = {"rows": 1, "cols": 1, "entries": [{"order": 1, "coeffs": [[1, 1]]}], **shape}
    code, out, err = run(capsys, "check", "--orders", "1", "--which", "braided-ybe",
                         "--r-matrix", _write_r_matrix(tmp_path, payload))
    assert code == 2 and out == ""
    assert err.startswith("error: matrix JSON needs integer") and err.count("\n") == 1


@pytest.mark.parametrize("content", [b"", b"\xff\xfe", b'{"rows": 1, "cols": '],
                         ids=["empty", "not-utf8", "truncated"])
def test_r_matrix_that_is_not_json_names_the_file(tmp_path, capsys, content):
    # the decoder's message alone, such as "Expecting value: line 1 column 1
    # (char 0)" or a bare codec error, did not say which file it was about
    path = tmp_path / "r.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "check", "--orders", "2", "--which", "braided-ybe",
                         "--r-matrix", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path} is not JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("orders, side", [("1", 1), ("2", 2)])
def test_r_matrix_entry_too_large_for_a_float_is_refused_on_the_float_backend(
        tmp_path, capsys, orders, side):
    # 10^400 has no complex float: the float lift of the file's R' ended in an
    # OverflowError traceback, on orders 2 after the first rows had run
    huge = {"order": 1, "coeffs": [[10 ** 400, 1]]}
    zero = {"order": 1, "coeffs": [[0, 1]]}
    n = side * side
    entries = [huge if i % (n + 1) == 0 else zero for i in range(n * n)]
    path = _write_r_matrix(tmp_path, {"rows": n, "cols": n, "entries": entries})
    code, out, err = run(capsys, "check", "--orders", orders, "--which", "all",
                         "--backend", "float", "--r-matrix", path)
    assert code == 2 and out == ""
    assert err == f"error: {path} holds an entry beyond the float range\n"
    # the exact backend decides the same file: a multiple of I solves the braid relation
    code, out, _ = run(capsys, "check", "--orders", orders, "--which", "braided-ybe",
                       "--r-matrix", path)
    assert code == 0 and "check braided-ybe: pass" in out


@pytest.mark.parametrize("order, coeffs, message", [
    # |entry| = sqrt(3) 10^308 is a float, its cube is not
    (3, [[10 ** 308, 1], [-10 ** 308, 1]],
     "holds entries whose products on three strands would leave the float range"),
    # each power term is a float, their sum 2.5 10^308 + ... is not
    (6, [[15 * 10 ** 307, 1], [10 ** 308, 1]], "holds an entry beyond the float range"),
])
def test_r_matrix_whose_products_leave_the_float_range_is_refused(
        tmp_path, capsys, order, coeffs, message):
    # the float backend printed numpy's overflow warnings and reported fail (exit 1)
    entry = {"order": order, "coeffs": coeffs}
    path = _write_r_matrix(tmp_path, {"rows": 1, "cols": 1, "entries": [entry]})
    code, out, err = run(capsys, "check", "--orders", "1", "--which", "braided-ybe",
                         "--backend", "float", "--r-matrix", path)
    assert code == 2 and out == ""
    assert err == f"error: {path} {message}\n"
    # the exact backend decides it: every 1 x 1 R' solves the braid relation
    code, out, _ = run(capsys, "check", "--orders", "1", "--which", "braided-ybe",
                       "--r-matrix", path)
    assert code == 0 and "check braided-ybe: pass" in out


def test_gen_r_files_stay_inside_the_float_range(tmp_path, capsys):
    # entry ((x, y), (x', y')) of Gamma(R) is r's coefficient at (x - x', y - y'),
    # so R' = flip . Gamma(R) holds r's coefficients and zeros: the float range
    # admits r's coefficients up to d = 16, and gen-r's own files up to d = 6
    for spec in specs_up_to(16):
        for form in (universal_r_fused_phase, universal_r):
            coeffs = list(form(spec).terms.values())
            cli._admit_float_file(Matrix(1, len(coeffs), coeffs), spec.dimension, "r")
        if spec.dimension <= 6:
            orders = ",".join(map(str, spec.orders))
            path = _gen_r_file(capsys, tmp_path, orders)
            m = matrix_from_json(json.loads(Path(path).read_text()))
            assert all(e.is_zero or e in coeffs for e in m.entries), orders
            code, out, _ = run(capsys, "check", "--orders", orders, "--which", "braided-ybe",
                               "--backend", "float", "--r-matrix", path)
            assert code == 0 and "check braided-ybe: pass" in out, orders


@pytest.mark.parametrize("tolerance", ["inf", "nan", "-1"])
def test_tolerance_that_decides_nothing_exits_two(capsys, tolerance):
    # inf passed a wrong R' on the float backend; nan and -1 failed every check
    code, out, err = run(capsys, "check", "--orders", "2", "--which", "braided-ybe",
                         "--backend", "float", "--tolerance", tolerance)
    assert code == 2 and out == ""
    assert err.startswith("error: --tolerance must be") and err.count("\n") == 1


# -- size guard: tested through the estimate, which allocates nothing ----------

ADMITTED = [
    # (local dimension, check, strands, path) of the largest commands the
    # benchmark workloads and the tests run
    (2, "hexagon", 3, "monomial"), (4, "hexagon", 3, "monomial"),
    (6, "hexagon", 3, "monomial"), (3, "braid", 4, "monomial"),
    (2, "braid", 6, "monomial"), (2, "braid", 10, "monomial"),
    (6, "braid", 5, "monomial"), (12, "ybe", 3, "dense"),
    (4, "braided-ybe", 3, "dense"), (6, "ybe", 3, "float"), (6, "hexagon", 3, "float"),
    (3, "braid", 4, "float"), (2, "braid", 5, "dense"), (3, "braid", 3, "dense"),
    (4, "braid", 3, "dense"), (2, "bell-actions", 3, "dense"), (6, "gen-r", 2, "dense"),
]


@pytest.mark.parametrize("case", ADMITTED, ids=str)
def test_size_guard_admits_the_commands_in_use(case):
    assert 0 <= matrix_entries(*case) <= MAX_MATRIX_ENTRIES


def test_size_guard_estimate():
    # dense: the square of the side; monomial: the side, but at least the
    # d^2 x d^2 certificate
    assert matrix_entries(6, "braided-ybe", 3, "dense") == 6 ** 6
    assert matrix_entries(64, "braided-ybe", 3, "monomial") == 64 ** 4
    assert matrix_entries(64, "braided-ybe", 3, "source") == 64 ** 3
    # braid relations on N strands are decided on min(N, 3)
    for path in ("dense", "monomial", "source", "float"):
        assert matrix_entries(6, "braid", 2, path) == (6 ** 2 if path == "source" else 6 ** 4)
        for strands in (3, 5, 12):
            assert (matrix_entries(6, "braid", strands, path)
                    == matrix_entries(6, "braided-ybe", 3, path)), (strands, path)
    assert matrix_entries(12, "quasitriangular", 3, "dense") == 0
    # the float lift of a three-leg element is a d^3 FFT diagonal, no matrix
    assert matrix_entries(12, "quasitriangular", 3, "float") == 0
    for refused in [(9, "braid", 5, "dense"), (9, "braided-ybe", 3, "dense"),
                    (64, "braided-ybe", 3, "monomial"), (64, "gen-r", 2, "dense"),
                    (64, "braid", 30, "monomial")]:
        assert matrix_entries(*refused) > MAX_MATRIX_ENTRIES, refused


def test_transform_guard_estimate():
    # the d^3 diagonal entries of a three-leg element, d powers of zeta each
    assert transform_cells(12, "ybe", "monomial") == 12 ** 4
    assert transform_cells(24, "quasitriangular", "monomial") <= MAX_TRANSFORM_CELLS
    assert transform_cells(64, "ybe", "monomial") > MAX_TRANSFORM_CELLS
    # the float path's FFT diagonals are priced alike
    assert transform_cells(64, "ybe", "float") > MAX_TRANSFORM_CELLS
    for unpriced in [(64, "hopf", "dense"), (64, "ybe", "dense"),
                     (4, "braided-ybe", "monomial")]:
        assert transform_cells(*unpriced) == 0, unpriced


def test_source_path_is_priced_by_its_side_and_its_weights():
    # R' lifted from r runs no d^4 certificate: the price is its monomial
    # side, and that side times the phi(L) powers of zeta of each weight
    assert matrix_entries(24, "braided-ybe", 3, "source") == 24 ** 3
    assert transform_cells(24, "braided-ybe", "source") == 24 ** 3 * 8  # phi(24)
    assert transform_cells(16, "braid", "source", 4) == 16 ** 3 * 8 <= MAX_TRANSFORM_CELLS
    assert transform_cells(16, "braid", "source", 2) == 16 ** 2 * 8
    # the product form of 2,2,2,2 lives over Q(zeta_2), its fused form over Q(zeta_16)
    assert transform_cells(16, "braid", "source", 4, order=2) == 16 ** 3
    assert transform_cells(64, "hexagon", "source") == 64 ** 3 * 32
    # the algebra-level checks keep their transform price on the source path
    assert transform_cells(24, "ybe", "source") == 24 ** 4
    for admitted in [(2, "hexagon", 3), (24, "braided-ybe", 3), (24, "hexagon", 3),
                     (32, "braided-ybe", 3), (16, "braid", 4), (6, "braid", 5), (2, "braid", 18),
                     (32, "braid", 64), (3, "braid", 12), (6, "braid", 8)]:
        assert matrix_entries(*admitted, "source") <= MAX_MATRIX_ENTRIES, admitted
        assert transform_cells(admitted[0], admitted[1], "source", admitted[2]) \
            <= MAX_TRANSFORM_CELLS, admitted
    # what the monomial path refuses stays refused, by its side or by its cells
    for refused in [(64, "braided-ybe", 3), (64, "hexagon", 3), (600, "braided-ybe", 3),
                    (10 ** 12, "braided-ybe", 3), (64, "braid", 4), (64, "braid", 10 ** 12),
                    (10 ** 12, "braid", 5)]:
        d, which, strands = refused
        assert matrix_entries(*refused, "monomial") > MAX_MATRIX_ENTRIES
        assert (matrix_entries(*refused, "source") > MAX_MATRIX_ENTRIES
                or transform_cells(d, which, "source", strands) > MAX_TRANSFORM_CELLS), refused


def test_check_all_at_order_24_runs_from_the_source_of_r_prime():
    # the d^4 = 331,776-entry certificate refused it; R' lifted from r holds
    # 24^3 weights over Q(zeta_24)
    start = time.perf_counter()
    done = _check_in_subprocess("--orders", "24", "--which", "all", timeout=60)
    assert time.perf_counter() - start < 5.0
    assert done.returncode == 0, done.stderr
    assert "result: 8 checks, 8 pass, 0 fail, 0 recorded" in done.stdout


def test_braided_ybe_at_order_64_is_refused_by_its_weight_cells(capsys):
    args = ("--orders", "64", "--which", "braided-ybe")
    error = ("error: check --which braided-ybe would transform 8388608 integer cells, "
             "above the limit of 524288\n")
    done = _check_in_subprocess(*args, timeout=10)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", error)
    start = time.perf_counter()
    assert run(capsys, "check", *args) == (2, "", error)
    assert time.perf_counter() - start < 1.0


def _check_in_subprocess(*args, timeout):
    # a subprocess, so a hang shows as a timeout, not as a stalled suite
    src = str(Path(hopfbraid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "hopfbraid", "check", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_oversized_hopf_check_exits_two_quickly(capsys):
    # the exact check visits every basis element: 10^12 of them ran out of
    # memory with a traceback, 10^6 ran for over 30 s
    for orders in ("1000000000000", "1000000"):
        done = _check_in_subprocess("--orders", orders, "--which", "hopf", timeout=30)
        assert done.returncode == 2 and done.stdout == "", orders
        assert done.stderr.startswith("error: check --which hopf would take about")
        assert done.stderr.count("\n") == 1
        start = time.perf_counter()
        assert run(capsys, "check", "--orders", orders, "--which", "hopf")[0] == 2
        assert time.perf_counter() - start < 1.0
    assert cli.tensor_work(10 ** 6, "hopf", "float") == 0  # priced by transform_cells
    # every hopf check of the tests and the benchmark (d <= 64) stays
    # admitted, and so do far larger ones
    for d in (1, 2, 4, 6, 8, 12, 16, 24, 64, 1000):
        assert cli.tensor_work(d, "hopf", "dense") <= cli.MAX_TENSOR_WORK, d


def test_float_algebra_checks_are_priced_by_their_transform(capsys):
    # priced as dense d^3-sided matrices, orders 12 exited 2 on the float
    # backend although the exact one ran
    code, out, _ = run(capsys, "check", "--orders", "12", "--which", "ybe", "--backend", "float")
    assert code == 0 and "check algebraic-ybe: pass" in out
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--orders", "1000000", "--which", "hopf",
                         "--backend", "float")
    assert code == 2 and out == "" and time.perf_counter() - start < 1.0
    assert err.startswith("error: check --which hopf would transform") and err.count("\n") == 1


def test_algebra_checks_at_order_24_run_under_the_guard():
    done = _check_in_subprocess("--orders", "24", "--which", "ybe", timeout=60)
    assert done.returncode == 0, done.stderr
    assert "check algebraic-ybe: pass" in done.stdout


def test_oversized_algebra_check_exits_two_before_building_a_tensor():
    done = _check_in_subprocess("--orders", "64", "--which", "ybe", timeout=10)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: check --which ybe would transform")
    assert done.stderr.count("\n") == 1


def test_tolerance_is_also_the_float_invertibility_floor(capsys):
    # R' is unitary, so every equality holds, but no singular value is above 1e308
    code, out, _ = run(capsys, "check", "--orders", "2", "--which", "all", "--backend", "float",
                       "--tolerance", "1e308")
    assert code == 1 and out.count(": fail") == 1 and "check module-morphism: fail" in out
    code, out, _ = run(capsys, "check", "--help")
    assert code == 0 and "invertibility floor" in " ".join(out.split())


def test_transform_refusals_name_what_each_path_holds(capsys):
    # the exact path transforms integer cells, the float path takes a complex FFT
    code, out, err = run(capsys, "check", "--orders", "64", "--which", "ybe")
    assert (code, out) == (2, "")
    assert err == ("error: check --which ybe would transform 16777216 integer cells, "
                   "above the limit of 524288\n")
    code, out, err = run(capsys, "check", "--orders", "27", "--which", "ybe", "--backend", "float")
    assert (code, out) == (2, "")
    assert err == ("error: check --which ybe would transform 531441 complex cells by FFT, "
                   "above the limit of 524288\n")


def test_oversized_braid_exits_two_with_one_line_error(tmp_path, capsys):
    # refused before any matrix is built: the 2^10 x 2^10 word matrix, and a
    # state column of 2^19 amplitudes
    for args in (("--strands", "10", "--output", str(tmp_path / "word.json")),
                 ("--strands", "19", "--state", "0" * 19)):
        code, out, err = run(capsys, "braid", "--orders", "2", *args)
        assert code == 2 and out == ""
        assert err.startswith("error: braid would build a matrix of") and err.count("\n") == 1
    assert not (tmp_path / "word.json").exists()


def test_braid_priced_by_its_work_exits_two_quickly(capsys):
    # 2^18 amplitudes pass the entry guard, but 17 letters and 17 Schmidt
    # ranks on them would run for minutes
    word = ",".join(str(1 + k) for k in range(17))
    start = time.perf_counter()
    code, out, err = run(capsys, "braid", "--orders", "2", "--strands", "18",
                         f"--word={word}", "--state", "0" * 18)
    assert code == 2 and out == "" and time.perf_counter() - start < 1.0
    assert err.startswith("error: braid would take about") and err.count("\n") == 1
    # the benchmark's words, the longest test words and a 10^4-letter word
    # on 6 strands stay admitted
    for d, n, length in ((2, 2, 16), (2, 5, 40), (3, 3, 24), (4, 3, 12), (2, 10, 40),
                         (3, 4, 40), (2, 6, 10 ** 4)):
        word = BraidWord(n, [(-1) ** k * (1 + k % (n - 1)) for k in range(length)])
        assert cli.braid_work(d, word, False, True) <= cli.MAX_BRAID_WORK, (d, n)


@pytest.mark.parametrize("args", [
    # at d = 1 every matrix is 1x1: 1000 strands ran the relation loops for
    # 65 s, and the braid command on them for 6 s
    ("check", "--orders", "1", "--which", "braid", "--strands", "1000"),
    ("check", "--orders", "1", "--which", "all", "--strands", "65"),
    ("braid", "--orders", "1", "--strands", "1000", "--word", "1", "--state", "0" * 1000),
], ids=lambda a: " ".join(a[:6]))
def test_more_than_64_strands_exit_two_quickly(capsys, args):
    start = time.perf_counter()
    code, out, err = run(capsys, *args)
    assert code == 2 and out == "" and time.perf_counter() - start < 1.0
    assert err.startswith("error: ") and "above the limit of 64 strands" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("which", ["all", "braid"])
@pytest.mark.parametrize("strands", ["1", "0", "-3"])
def test_fewer_than_two_strands_exit_two_before_any_check(capsys, which, strands):
    # all ran hopf through braided-ybe for about 1.5 s before the braid
    # relations refused one strand
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--orders", "16", "--which", which,
                         "--strands", strands)
    assert code == 2 and out == "" and time.perf_counter() - start < 1.0
    assert err == f"error: check --which braid needs at least 2 strands, not {strands}\n"


def test_strand_limit_admits_64_strands_and_ignores_unbraided_choices(capsys):
    assert cli.MAX_STRANDS == 64
    code, out, _ = run(capsys, "check", "--orders", "1", "--which", "braid", "--strands", "64")
    assert code == 0 and "braid-relations-64: pass" in out
    code, out, _ = run(capsys, "braid", "--orders", "1", "--strands", "64", "--word", "1,63")
    assert code == 0 and "on 64 strands" in out
    # --strands sizes only the braid relations
    assert run(capsys, "check", "--orders", "2", "--which", "hopf", "--strands", "1000")[0] == 0


@pytest.mark.parametrize("order", [30_000, 10 ** 9])
def test_r_matrix_entry_of_a_huge_order_exits_two_quickly(tmp_path, capsys, order):
    # the cyclotomic tables were built before the coefficient count was
    # read: order 30,000 took 64 s, and the cost grows as order^2
    path = _write_r_matrix(tmp_path, {"rows": 1, "cols": 1,
                                      "entries": [{"order": order, "coeffs": [[1, 1]]}]})
    args = ("--orders", "1", "--which", "braided-ybe", "--r-matrix", path)
    done = _check_in_subprocess(*args, timeout=10)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (f"error: cyclotomic number JSON order {order} is above the "
                           f"limit of {scalar.MAX_JSON_ORDER}\n")
    start = time.perf_counter()
    assert run(capsys, "check", *args)[0] == 2
    assert time.perf_counter() - start < 1.0


def test_r_matrix_entries_whose_orders_have_a_huge_lcm_exit_two_quickly(tmp_path, capsys):
    # each order is below the JSON limit, but the lift to Q(zeta_L), L = 2039 * 2027,
    # built cyclotomic tables of order 4,133,053 and ran out of time, then of memory
    one, zero = {"order": 1, "coeffs": [[1, 1]]}, {"order": 1, "coeffs": [[0, 1]]}
    entries = [one if i in (6, 9) else zero for i in range(16)]
    entries[0], entries[15] = _root_json(2039), _root_json(2027)
    path = _write_r_matrix(tmp_path, {"rows": 4, "cols": 4, "entries": entries})
    args = ("--orders", "2", "--which", "braided-ybe", "--r-matrix", path)
    error = (f"error: {path} holds entries whose orders have lcm 4133053, above the limit "
             f"of {scalar.MAX_JSON_ORDER}\n")
    done = _check_in_subprocess(*args, timeout=10)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", error)
    start = time.perf_counter()
    assert run(capsys, "check", *args) == (2, "", error)
    assert time.perf_counter() - start < 1.0


def _root_json(order, power=1):
    deg = len(scalar.cyclotomic_polynomial(order)) - 1
    return {"order": order, "coeffs": [[int(k == power), 1] for k in range(deg)]}


def _field_2048_files(tmp_path):
    # R' over Q(zeta_2048): a dense file, which has no certificate, and the flip
    # with the phases zeta^1, zeta^3, zeta^5, zeta^7, which certifies
    zero = {"order": 1, "coeffs": [[0, 1]]}
    dense = {"rows": 4, "cols": 4, "entries": [{"order": 2048, "coeffs": [[1, 1]] * 1024}] * 16}
    phases = [zero] * 16
    for cell, power in zip((0, 6, 9, 15), (1, 3, 5, 7)):
        phases[cell] = _root_json(2048, power)
    out = []
    for name, payload in (("dense", dense), ("phase", {"rows": 4, "cols": 4, "entries": phases})):
        path = tmp_path / f"{name}2048.json"
        path.write_text(json.dumps(payload))
        out.append(str(path))
    return out


def test_r_matrix_over_a_large_field_is_priced_by_it(tmp_path, capsys):
    # one numpy product per pair of the 1024 power slots: braided-ybe on the
    # dense file took 17 s, its 4-strand braid relations 46 s, and the phase
    # file's 6-strand ones 13 s
    files = _field_2048_files(tmp_path)
    done = _check_in_subprocess("--orders", "2", "--which", "braided-ybe", "--r-matrix",
                                files[0], timeout=10)
    assert done.returncode == 2 and done.stdout == "" and done.stderr.count("\n") == 1
    for path in files:
        for which in (("braided-ybe",), *(("braid", "--strands", str(n)) for n in range(4, 10))):
            start = time.perf_counter()
            code, out, err = run(capsys, "check", "--orders", "2", "--which", *which,
                                 "--r-matrix", path)
            assert (code, out) == (2, ""), which
            assert time.perf_counter() - start < 1.0, which
            assert err.startswith(f"error: check --which {which[0]} would take about")
            assert "over the field of the --r-matrix file" in err and err.count("\n") == 1


def test_field_price_admits_the_files_in_use():
    # every ADMITTED check on R', over the largest field of its local dimension
    for d, which, strands, path in ADMITTED:
        if which in CHOICES and CHOICES[which].on_r_prime and path in ("monomial", "dense"):
            assert field_work(d, which, strands, path, d) <= MAX_FIELD_WORK, (d, which)
    # gen-r's R' for every spec with d <= 16, either form, over at most Q(zeta_d)
    for spec in specs_up_to(16):
        d = spec.dimension
        for which in ("braided-ybe", "braid", "bell-actions"):
            assert field_work(d, which, 3, "monomial", d) <= MAX_FIELD_WORK, (d, which)
    # and a field of order 2048 at d = 2 is refused on either path
    for path in ("monomial", "dense"):
        assert field_work(2, "braided-ybe", 3, path, 2048) > MAX_FIELD_WORK


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_deeply_nested_r_matrix_exits_two_quickly(tmp_path, capsys, closed):
    # the JSON decoder recursed until a RecursionError traceback, exit 1
    depth = 200_000
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + ("]" * depth if closed else ""))
    args = ("--orders", "2", "--which", "braided-ybe", "--r-matrix", str(path))
    done = _check_in_subprocess(*args, timeout=10)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: {path} is nested too deeply to be a matrix\n"
    start = time.perf_counter()
    assert run(capsys, "check", *args)[0] == 2
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("command", [
    ("check", "--which", "ybe"),
    ("gen-r", "--output", "unused"),
    ("braid", "--strands", "2", "--word", "1"),
], ids=lambda c: c[0])
def test_more_than_64_factors_exit_two_quickly(capsys, command):
    # order-1 factors leave d at 1, yet 8,000 of them ran ybe for 20 s
    orders = ",".join(["1"] * 8000)
    start = time.perf_counter()
    code, out, err = run(capsys, command[0], "--orders", orders, *command[1:])
    assert code == 2 and out == "" and time.perf_counter() - start < 1.0
    assert err == "error: orders of 8000 cyclic factors are above the limit of 64 factors\n"
    code, _, err = run(capsys, command[0], "--orders", ",".join(["1"] * 65), *command[1:])
    assert code == 2 and "65 cyclic factors" in err


def test_factor_limit_admits_64_factors(capsys):
    assert cli.MAX_FACTORS == 64
    code, out, _ = run(capsys, "check", "--orders", ",".join(["1"] * 62 + ["2", "2"]),
                       "--which", "all")
    assert code == 0 and "0 fail" in out


def test_float_backend_admits_64_factors(capsys):
    # numpy holds at most 64 axes: only the factors of order above 1 are transformed
    orders = ",".join(["1"] * 62 + ["2", "2"])
    code, exact, _ = run(capsys, "check", "--orders", orders, "--which", "all", "--json")
    assert code == 0
    code, out, err = run(capsys, "check", "--orders", orders, "--which", "all",
                         "--backend", "float", "--json")
    assert (code, err) == (0, "")
    statuses = [[(c["name"], c["status"]) for c in json.loads(report)["checks"]]
                for report in (exact, out)]
    assert statuses[0] == statuses[1] and len(statuses[0]) == 8


def _sheared_identity(tmp_path, side) -> str:
    """The identity of the given side with entry (0, 1) set to 1: no monomial certificate."""
    sheared = Matrix.identity(side)
    sheared.entries[1] = sheared.entries[0]
    return _write_r_matrix(tmp_path, matrix_to_json(sheared), f"sheared{side}")


def test_uncertified_matrix_too_large_for_the_dense_fallback_exits_two(tmp_path, capsys):
    # not monomial in the character basis, and 9^3 is too large a dense side
    path = _sheared_identity(tmp_path, 81)
    code, out, err = run(capsys, "check", "--orders", "9", "--which", "braid",
                         "--strands", "5", "--r-matrix", path)
    assert code == 2 and out == ""
    assert err == ("error: check --which braid without a monomial certificate would build "
                   "a matrix of 531441 entries, above the limit of 262144\n")


def test_uncertified_matrix_is_refused_before_any_check_runs(monkeypatch, tmp_path, capsys):
    # the certificate is taken while planning, so the dense fallback of
    # braided-ybe is priced, and refused, before hopf (the first check) runs
    def refuse(*args):
        raise AssertionError("a check ran before every choice was admitted")

    monkeypatch.setattr(cli, "check_hopf_axioms", refuse)
    code, out, err = run(capsys, "check", "--orders", "9", "--which", "all",
                         "--strands", "5", "--r-matrix", _sheared_identity(tmp_path, 81))
    assert code == 2 and out == ""
    assert err.startswith("error: check --which braided-ybe without a monomial certificate")
    assert err.count("\n") == 1


def test_size_guard_estimate_stays_cheap_for_huge_strand_counts():
    # the 64-strand cap kept the estimate cheap; min(N, 3) legs need none
    start = time.perf_counter()
    for d in (1, 2, 6, 10 ** 6):
        for path in ("dense", "monomial", "source", "float"):
            assert (matrix_entries(d, "braid", 10 ** 12, path)
                    == matrix_entries(d, "braided-ybe", 3, path)), (d, path)
        assert (field_work(d, "braid", 10 ** 12, "dense", 2)
                == field_work(d, "braided-ybe", 3, "dense", 2)), d
    assert time.perf_counter() - start < 1.0


# -- the check table -----------------------------------------------------------


def _names_and_statuses(capsys, *args):
    code, out, _ = run(capsys, "check", "--orders", "2", *args, "--json")
    return code, [(c["name"], c["status"]) for c in json.loads(out)["checks"]]


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_each_choice_reports_its_slice_of_the_all_report(capsys, backend):
    code, everything = _names_and_statuses(capsys, "--which", "all", "--backend", backend)
    assert code == 0 and len(everything) == 9
    start = 0
    for which, choice in CHOICES.items():
        code, part = _names_and_statuses(capsys, "--which", which, "--backend", backend)
        assert code == 0
        assert part == everything[start:start + len(choice.checks)], which
        start += len(choice.checks)
    assert start == len(everything)


def test_check_all_builds_the_braiding_once_per_module_pair(capsys, braiding_builds):
    # R' is held once, as its source r, and read by the braided checks, the
    # module morphism and the hexagon (on three regular modules R''s braid
    # relation); the monomial and the float lifts build no dense R'
    for backend in ("exact", "float"):
        for which in ("all", "hexagon"):
            assert run(capsys, "check", "--orders", "4", "--which", which,
                       "--backend", backend)[0] == 0
            assert not braiding_builds, (backend, which)
        # bell-actions (d = 2) reads the dense R' on the integer backend, once
        code, out, _ = run(capsys, "check", "--orders", "2", "--which", "all",
                           "--backend", backend)
        assert code == 0 and "check bell-actions: pass" in out
        assert len(braiding_builds) == (1 if backend == "exact" else 0), backend
        braiding_builds.clear()


def _counted(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that records each call's arguments."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_braid_relation_reported_in_several_rows_is_decided_once(monkeypatch, tmp_path,
                                                                   capsys):
    # braided-ybe, braid-relations-3 and the hexagon are one relation on one
    # R'; each used to decide it again
    calls = _counted(monkeypatch, cli, "check_braid_relations")
    for backend in ("exact", "float"):
        code, out, _ = run(capsys, "check", "--orders", "2,2", "--which", "all",
                           "--backend", backend)
        assert code == 0 and "8 pass" in out
        assert len(calls) == 1, backend
        calls.clear()
    # a file's R' is another matrix: its rows share one verdict, the hexagon another
    r_matrix = _gen_r_file(capsys, tmp_path, "2,2")
    code, _, _ = run(capsys, "check", "--orders", "2,2", "--which", "all",
                     "--r-matrix", r_matrix)
    assert code == 0 and len(calls) == 2


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_braid_relations_on_n_strands_are_decided_on_three(monkeypatch, tmp_path, capsys,
                                                           backend):
    # far generators commute on disjoint factors, and each adjacent relation
    # is I (x) (the three-strand relation) (x) I, so N strands hold iff 3 do
    calls = _counted(monkeypatch, cli, "check_braid_relations")
    for n in range(2, 7):
        code, out, _ = run(capsys, "check", "--orders", "2", "--which", "braid",
                           "--strands", str(n), "--backend", backend)
        assert code == 0 and f"check braid-relations-{n}: pass" in out
    assert [strands for strands, *_ in calls] == [2, 3, 3, 3, 3]
    calls.clear()
    # braided-ybe and braid-relations-5 share one verdict (and the hexagon, on the same R')
    code, out, _ = run(capsys, "check", "--orders", "2,2", "--which", "all", "--strands", "5",
                       "--backend", backend)
    assert code == 0 and "braid-relations-5: pass" in out and [c[0] for c in calls] == [3]
    calls.clear()
    code, out, _ = run(capsys, "check", "--orders", "2,2", "--which", "all", "--strands", "5",
                       "--backend", backend, "--r-matrix", _changed_r_matrix(capsys, tmp_path))
    assert code == 1 and "check braid-relations-5: fail" in out
    assert "check braided-ybe: fail" in out and "check hexagon: pass" in out
    assert [c[0] for c in calls] == [3, 3]  # the file's R', then the spec's own


def _braid_row_verdict(capsys, *args) -> str:
    """The braid-relations row's result, read through a recorded row's detail."""
    code, out, _ = run(capsys, "check", "--which", "braid", *args, "--json")
    (row,) = json.loads(out)["checks"]
    if row["status"] == "recorded":
        return row["detail"].split(";")[0].removeprefix("result: ")
    assert code == (row["status"] == "fail")
    return row["status"]


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_braid_relations_row_agrees_with_the_n_strand_checker(tmp_path, capsys, backend):
    # the library's N-strand checker builds every generator on d^N-dimensional
    # space: the oracle of the three-strand decision, wherever d^N <= 256
    cases = []
    for orders in ("2", "3", "4", "2,2", "6"):
        spec = GroupSpec(tuple(int(n) for n in orders.split(",")))
        for form, r in (("product", universal_r(spec)), ("fused", universal_r_fused_phase(spec))):
            cases.append((orders, form, braided_r(spec, r), []))
    files = [("2,2", _changed_r_matrix(capsys, tmp_path)),
             ("2", _sheared_identity(tmp_path, 4)), ("3", _sheared_identity(tmp_path, 9)),
             *(("2", _write_r_matrix(tmp_path, matrix_to_json(m), name)) for name, m in (
                 ("bell", bell_matrix()), ("kl", kauffman_lomonaco_r(1, 1, 1, 1)),
                 ("kl_minus", kauffman_lomonaco_r(1, -1, 1, 1))))]
    for orders, path in files:
        m = matrix_from_json(json.loads(Path(path).read_text()))
        side = round(m.rows ** 0.5)
        cases.append((orders, "product", BraidedRMatrix(side, m), ["--r-matrix", path]))
    verdicts = set()
    for orders, form, r_prime, file in cases:
        d = r_prime.dimension
        for n in (n for n in range(2, 6) if d ** n <= 256):
            expected = "pass" if check_braid_relations(n, r_prime, INTEGER) else "fail"
            verdicts.add(expected)
            assert _braid_row_verdict(capsys, "--orders", orders, "--form", form,
                                      "--strands", str(n), "--backend", backend,
                                      *file) == expected, (orders, form, file, n)
    assert verdicts == {"pass", "fail"}


@pytest.mark.parametrize("orders", ["2", "4", "2,2", "6"])
def test_check_without_a_file_takes_no_certificate(monkeypatch, capsys, orders):
    # the module morphism certified the d regular images rho(g) on every command
    calls = _counted(monkeypatch, MonomialOps, "_certify")
    code, out, _ = run(capsys, "check", "--orders", orders, "--which", "all")
    assert code == 0 and " 0 fail" in out
    assert calls == []


def test_module_morphism_reads_the_quasi_cocommutativity_verdict(monkeypatch, capsys):
    calls = _counted(monkeypatch, cli, "check_quasi_cocommutative")
    for backend in ("exact", "float"):
        code, out, _ = run(capsys, "check", "--orders", "2,2", "--which", "all",
                           "--backend", backend)
        assert code == 0 and "check module-morphism: pass" in out
        assert len(calls) == 1, backend
        calls.clear()


@pytest.mark.parametrize("orders, builds", [("6", 1), ("2,3", 1), ("2", 2)])
def test_float_check_builds_the_spec_r_prime_once_per_reader(monkeypatch, capsys,
                                                             orders, builds):
    # module-morphism reads r's diagonal, so only the braid relation and, at
    # d = 2, bell-actions lift R'; the module morphism built it once more
    made, build = [], floatback.braided_complex

    def counted(r, **kw):
        made.append(r)
        return build(r, **kw)

    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "hopfbraid"]:
        if getattr(module, "braided_complex", None) is build:
            monkeypatch.setattr(module, "braided_complex", counted)
    code, out, _ = run(capsys, "check", "--orders", orders, "--which", "all",
                       "--backend", "float")
    assert code == 0 and " 0 fail" in out and "check module-morphism: pass" in out
    assert len(made) == builds


@pytest.mark.parametrize("which, lifts", [("all", 14), ("hopf", 13), ("quasitriangular", 2)])
def test_float_check_lifts_each_element_once(monkeypatch, capsys, which, lifts):
    # the command's one NumpyOps keeps its lifts, and R' is built on r's:
    # under all, 14 distinct elements; under quasitriangular, r and D(g)
    made, lift = [], floatback.tensor_complex
    monkeypatch.setattr(floatback, "tensor_complex",
                        lambda spec, t: made.append(t) or lift(spec, t))
    code, out, _ = run(capsys, "check", "--orders", "6", "--which", which, "--backend", "float")
    assert code == 0 and " 0 fail" in out
    assert len(made) == lifts


@pytest.mark.parametrize("orders, lifts", [("12", 2), ("2,6", 3), ("2,2,3", 4)])
def test_quasitriangular_lifts_r_and_each_generator_coproduct(monkeypatch, capsys, orders,
                                                              lifts):
    # quasi-cocommutativity is decided on the k generators g_i, and D(g_i) and
    # Dop(g_i) have one lift; the coproduct identities gather r's
    calls = _counted(monkeypatch, MonomialOps, "_diagonal")
    code, out, _ = run(capsys, "check", "--orders", orders, "--which", "quasitriangular")
    assert code == 0 and " 0 fail" in out
    assert len(calls) == lifts


def test_a_command_keeps_no_backend_alive(monkeypatch, capsys):
    # a verdict cache that refers back to the command's inputs keeps each
    # MonomialOps, and its transforms, alive until a garbage collection pass
    made, init = [], MonomialOps.__init__

    def tracked(ops, spec):
        made.append(weakref.ref(ops))
        init(ops, spec)

    monkeypatch.setattr(MonomialOps, "__init__", tracked)
    gc.disable()
    try:
        code, _, _ = run(capsys, "check", "--orders", "12", "--which", "all")
        alive = sum(ref() is not None for ref in made)
    finally:
        gc.enable()
    assert code == 0 and len(made) == 1 and alive == 0


@pytest.mark.parametrize("which", ["hopf", "quasitriangular", "ybe"])
def test_algebra_choices_build_no_braided_matrix(monkeypatch, capsys, which):
    def refuse(*args):
        raise AssertionError("built a matrix an algebra-level check does not read")

    monkeypatch.setattr(cli, "braided_r", refuse)
    monkeypatch.setattr(braidrep, "braiding_map", refuse)
    # quasitriangular and ybe run on character-basis diagonals, which need
    # no certificate; hopf runs dense and builds no MonomialOps at all
    monkeypatch.setattr(MonomialOps, "matrix", refuse)
    if not CHOICES[which].monomial:
        monkeypatch.setattr(cli, "MonomialOps", refuse)
    assert run(capsys, "check", "--orders", "2,2", "--which", which)[0] == 0


def test_imported_r_matrix_builds_no_universal_r(monkeypatch, tmp_path, capsys):
    assert main(["gen-r", "--orders", "2", "--output", str(tmp_path)]) == 0

    def refuse(*args):
        raise AssertionError("built r for a check that reads only the imported R'")

    monkeypatch.setattr(cli, "_build_r", refuse)
    code, out, _ = run(capsys, "check", "--orders", "2", "--which", "braided-ybe",
                       "--r-matrix", str(tmp_path / "braided_r.json"))
    assert code == 0 and "braided-ybe: pass" in out


def test_r_matrix_of_another_side_is_checked_at_its_own_side(tmp_path, capsys):
    # A 4x4 R' checked under orders 64: the guard prices the dense path at
    # side 2, so the command must not certify at d = 64 (a 64x64 DFT over
    # Q(zeta_64), then a transform of d^4 entries).
    assert main(["gen-r", "--orders", "2", "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    done = _check_in_subprocess("--orders", "64", "--which", "braided-ybe", "--r-matrix",
                                str(tmp_path / "braided_r.json"), timeout=10)
    assert done.returncode == 0, done.stderr
    assert "check braided-ybe: pass" in done.stdout


def test_changed_r_prime_at_dimension_eight_is_decided_on_integer_arrays(tmp_path, capsys):
    # no certificate, so the dense path decides on 512 x 512 products over
    # Q(zeta_8); the guard admits it (512^2 = 2^18 entries)
    assert main(["gen-r", "--orders", "8", "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / "braided_r.json"
    data = json.loads(path.read_text())
    data["entries"][0] = {"order": 1, "coeffs": [[5, 4]]}  # was 1/8
    path.write_text(json.dumps(data))
    done = _check_in_subprocess("--orders", "8", "--which", "braided-ybe", "--r-matrix",
                                str(path), timeout=30)
    assert done.returncode == 1, done.stderr
    assert "check braided-ybe: fail" in done.stdout
