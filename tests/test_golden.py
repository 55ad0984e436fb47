"""Byte-exact reports of a few cheap commands, compared with tests/golden/.

The golden files pin the exact and float backends' reports, so a refactor
of the checkers can be shown to leave every report unchanged.  To record a
deliberate report change, rewrite the affected file from the command's
stdout (gen-r paths are written as <out>, see _normalise).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from hopfbraid.cli import main
from hopfbraid.groupalg import GroupSpec
from hopfbraid.linalg import MonomialOps, NotMonomialError, matrix_from_json

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "check_2_all.txt": ["check", "--orders", "2", "--which", "all"],
    "check_2_all.json": ["check", "--orders", "2", "--which", "all", "--json"],
    "check_2_all_float.txt": ["check", "--orders", "2", "--which", "all",
                              "--backend", "float"],
    "check_2_all_float.json": ["check", "--orders", "2", "--which", "all",
                               "--backend", "float", "--json"],
    "check_22_quasitriangular_fused.json": ["check", "--orders", "2,2", "--which",
                                            "quasitriangular", "--form", "fused",
                                            "--json"],
    "check_3_braid_4_float.json": ["check", "--orders", "3", "--which", "braid",
                                   "--strands", "4", "--backend", "float", "--json"],
    "braid_2_word_phi.json": ["braid", "--orders", "2", "--strands", "2",
                              "--word=1,-1,1", "--state", "phi+", "--json"],
    # inverts an order-3 R' and takes exact Schmidt ranks over Q(zeta_3)
    "braid_3_word_inverse.json": ["braid", "--orders", "3", "--strands", "3",
                                  "--word=-1,2,-1", "--state", "012", "--json"],
    # a mixed-sign word applied to a state letter by letter, amplitudes in Q(zeta_4)
    "braid_4_word_mixed.json": ["braid", "--orders", "4", "--strands", "3",
                                "--word=1,-2,2,1,-1,-2,1,2", "--state", "123", "--json"],
    # letters 2 and -2 leave identity strands on both sides of R'
    "braid_3_word_four_strands.json": ["braid", "--orders", "3", "--strands", "4",
                                       "--word=2,-1,3,-2,1", "--state", "0121", "--json"],
    "compare_gates.json": ["compare-gates", "--json"],
    # the exact braid identities below are decided on monomial matrices
    "check_4_all.json": ["check", "--orders", "4", "--which", "all", "--json"],
    "check_22_all_fused.json": ["check", "--orders", "2,2", "--which", "all", "--form",
                                "fused", "--json"],
    "check_3_braid_4.json": ["check", "--orders", "3", "--which", "braid", "--strands",
                             "4", "--json"],
    # braid relations on six strands, decided as the braid relation on three
    "check_2_braid_6.json": ["check", "--orders", "2", "--which", "braid", "--strands",
                             "6", "--json"],
    "check_2_braid_6_float.json": ["check", "--orders", "2", "--which", "braid", "--strands",
                                   "6", "--backend", "float", "--json"],
    "check_3_all.txt": ["check", "--orders", "3", "--which", "all"],
    # the float cross-check of every identity on a two-factor spec
    "check_23_all_float.json": ["check", "--orders", "2,3", "--which", "all", "--backend",
                                "float", "--json"],
    # the fused form on the float backend: quasitriangular-coproducts records a fail
    "check_22_all_fused_float.json": ["check", "--orders", "2,2", "--which", "all",
                                      "--backend", "float", "--form", "fused", "--json"],
    "check_6_hexagon.json": ["check", "--orders", "6", "--which", "hexagon", "--json"],
    # the algebra-level identities below are decided on character-basis diagonals
    "check_26_quasitriangular.json": ["check", "--orders", "2,6", "--which",
                                      "quasitriangular", "--json"],
    "check_223_quasitriangular_fused.json": ["check", "--orders", "2,2,3", "--which",
                                             "quasitriangular", "--form", "fused", "--json"],
    "check_12_ybe.txt": ["check", "--orders", "12", "--which", "ybe"],
    "check_12_quasitriangular.json": ["check", "--orders", "12", "--which",
                                      "quasitriangular", "--json"],
    "check_223_ybe.json": ["check", "--orders", "2,2,3", "--which", "ybe", "--json"],
    "check_26_ybe_fused.json": ["check", "--orders", "2,6", "--which", "ybe", "--form",
                                "fused", "--json"],
    # fractional Q(zeta_6) amplitudes such as 1/6 + (-1/6)*z6 pin the scalar format
    "braid_6_word.txt": ["braid", "--orders", "6", "--strands", "2", "--word", "1",
                         "--state", "05"],
    "braid_6_word.json": ["braid", "--orders", "6", "--strands", "2", "--word", "1",
                          "--state", "05", "--json"],
}

GEN_R_FILES = ("universal_r.json", "gamma_r.json", "flip.json", "braided_r.json")


def _normalise(text: str, out_dir: Path) -> str:
    return text.replace(str(out_dir), "<out>")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def _gen_r_matches_golden(orders: str, name: str, tmp_path, capsys) -> None:
    out_dir = tmp_path / "gen"
    assert main(["gen-r", "--orders", orders, "--output", str(out_dir)]) == 0
    report = _normalise(capsys.readouterr().out, out_dir)
    assert report == (GOLDEN / f"{name}.txt").read_text()
    for file in GEN_R_FILES:
        assert (out_dir / file).read_text() == (GOLDEN / name / file).read_text()


def test_gen_r_matches_golden(tmp_path, capsys):
    _gen_r_matches_golden("2,2", "gen_r_22", tmp_path, capsys)


def test_gen_r_order_three_matches_golden(tmp_path, capsys):
    # entries in Q(zeta_3), where every gen_r_22 entry is rational
    _gen_r_matches_golden("3", "gen_r_3", tmp_path, capsys)


def test_gen_r_order_four_matches_golden(tmp_path, capsys):
    # fractional Q(zeta_4) entries such as 1/4 beside zero coefficients 0/1
    _gen_r_matches_golden("4", "gen_r_4", tmp_path, capsys)


def _braid_output_matches_golden(args: list[str], name: str, tmp_path, capsys) -> None:
    path = tmp_path / "word.json"
    assert main(["braid", *args, "--output", str(path)]) == 0
    report = _normalise(capsys.readouterr().out, tmp_path)
    assert report == (GOLDEN / f"{name}.txt").read_text()
    assert path.read_text() == (GOLDEN / f"{name}.json").read_text()


def test_braid_output_matches_golden(tmp_path, capsys):
    # --output writes the word's matrix; --state applies the word to the state
    _braid_output_matches_golden(["--orders", "3", "--strands", "3", "--word=2,-1,1,2,-2",
                                  "--state", "021"], "braid_3_word_output", tmp_path, capsys)


def test_braid_output_on_four_strands_matches_golden(tmp_path, capsys):
    # the 16x16 word matrix of letters with identity strands on both sides
    _braid_output_matches_golden(["--orders", "2", "--strands", "4", "--word=2,-3,1"],
                                 "braid_2_word_output", tmp_path, capsys)


def _changed_gen_r(tmp_path, capsys) -> Path:
    """The 2,2 R' exported by gen-r with entry 0 changed from 1/4 to 5/4."""
    out_dir = tmp_path / "gen"
    assert main(["gen-r", "--orders", "2,2", "--output", str(out_dir)]) == 0
    capsys.readouterr()
    path = out_dir / "braided_r.json"
    data = json.loads(path.read_text())
    data["entries"][0] = {"order": 1, "coeffs": [[5, 4]]}  # was 1/4
    path.write_text(json.dumps(data))
    return path


def _changed_r_matrix_matches_golden(which: str, name: str, tmp_path, capsys,
                                     *more: str) -> Path:
    path = _changed_gen_r(tmp_path, capsys)
    for suffix, extra in (("txt", []), ("json", ["--json"])):
        assert main(["check", "--orders", "2,2", "--which", which, *more,
                     "--r-matrix", str(path), *extra]) == 1
        report = _normalise(capsys.readouterr().out, tmp_path)
        assert report == (GOLDEN / f"{name}.{suffix}").read_text()
    return path


def test_changed_gen_r_entry_fails_through_the_dense_fallback(tmp_path, capsys):
    path = _changed_r_matrix_matches_golden(
        "braided-ybe", "check_22_braided_ybe_dense_fallback", tmp_path, capsys)
    # the changed matrix has no monomial certificate, so the dense path decided
    with pytest.raises(NotMonomialError):
        MonomialOps(GroupSpec((2, 2))).matrix(matrix_from_json(json.loads(path.read_text())))


def test_imported_r_matrix_and_own_braiding_split_the_report(tmp_path, capsys):
    # braided-ybe and braid-relations-3 read the file's R' and fail; the
    # module morphism and the hexagon braid with the spec's own R' and pass
    _changed_r_matrix_matches_golden("all", "check_22_all_split_r_matrix", tmp_path, capsys)


def test_changed_gen_r_entry_fails_the_braid_relations_on_four_strands(tmp_path, capsys):
    _changed_r_matrix_matches_golden("braid", "check_22_braid_4_r_matrix", tmp_path, capsys,
                                     "--strands", "4")


def test_the_file_certificate_is_taken_once_per_command(monkeypatch, tmp_path, capsys):
    # braided-ybe and braid-relations-3 each took the failing certificate again
    calls, certify = [], MonomialOps._certify

    def counted(ops, m):
        calls.append(m.rows)
        return certify(ops, m)

    monkeypatch.setattr(MonomialOps, "_certify", counted)
    _changed_r_matrix_matches_golden("all", "check_22_all_split_r_matrix", tmp_path, capsys)
    # one command per report: the text and the json
    assert calls.count(16) == 2
