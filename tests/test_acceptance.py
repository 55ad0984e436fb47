"""Acceptance suite: every release-blocking property, one test per
criterion, each printing its own pass line and enforcing its runtime
budget.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion report."""

import json
import time
from fractions import Fraction

import pytest

from hopfbraid.braidrep import (
    BraidedRMatrix,
    ModuleAction,
    braided_r,
    braiding_map,
    check_braid_relations,
    check_braided_ybe,
    check_hexagon,
    check_module_morphism,
)
from hopfbraid.cli import main
from hopfbraid.groupalg import (
    GroupSpec,
    check_algebraic_ybe,
    check_hopf_axioms,
    check_quasi_cocommutative,
    check_quasitriangular,
    specs_up_to,
    universal_r,
)
from hopfbraid.linalg import (
    Matrix,
    MonomialOps,
    conjugate_transpose,
    flip_operator,
    regular_representation,
)
from hopfbraid.quantum import (
    StateVector,
    apply_gate,
    bell_matrix,
    bell_state,
    concurrence,
    kl_entangling_test,
    proportional_positive,
    verify_bell_actions,
)
from hopfbraid.scalar import rational, root_of_unity

H = Fraction(1, 2)

GAMMA_R_EXPECTED = Matrix.from_rows([
    [H, H, H, -H],
    [H, H, -H, H],
    [H, -H, H, H],
    [-H, H, H, H],
])

BRAIDED_EXPECTED = Matrix.from_rows([
    [H, H, H, -H],
    [H, -H, H, H],
    [H, H, -H, H],
    [-H, H, H, H],
])


class _Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"[acceptance] {self.label}: PASS ({elapsed:.3f}s, budget {self.seconds}s)")
            assert elapsed < self.seconds, f"{self.label} exceeded {self.seconds}s"
        return False


def test_criterion_01_regular_image_of_r_for_two_element_group():
    with _Budget("01 regular image of R, orders (2,)", 1.0):
        rep = regular_representation(GroupSpec((2,)))
        assert rep.on_tensor(universal_r(GroupSpec((2,)))) == GAMMA_R_EXPECTED


def test_criterion_02_braided_matrix_for_two_element_group():
    with _Budget("02 braided matrix, orders (2,)", 1.0):
        assert braided_r(GroupSpec((2,))).matrix == BRAIDED_EXPECTED


def test_criterion_03_braided_ybe_for_two_element_group():
    with _Budget("03 braided YBE, orders (2,)", 1.0):
        assert check_braided_ybe(braided_r(GroupSpec((2,))))


def test_criterion_04_bell_actions_with_exact_signs():
    with _Budget("04 Bell actions with exact signs", 1.0):
        gate = braided_r(GroupSpec((2,)))
        results = verify_bell_actions(gate)
        assert all(r.ok for r in results)
        for r in results:
            assert abs(concurrence(r.image) - 1.0) <= 1e-12


def test_criterion_05_axiom_suite_at_desk_scale():
    with _Budget("05 quasitriangularity suite, six specs", 60.0):
        for orders in [(2,), (3,), (4,), (5,), (2, 2), (2, 3)]:
            spec = GroupSpec(orders)
            r = universal_r(spec)
            assert check_quasi_cocommutative(spec, r), orders
            assert check_quasitriangular(spec, r), orders
            assert check_algebraic_ybe(spec, r), orders


def test_criterion_06_module_morphism_and_hexagon():
    with _Budget("06 module morphism and hexagon, orders (2,) and (3,)", 30.0):
        for orders in [(2,), (3,)]:
            spec = GroupSpec(orders)
            r = universal_r(spec)
            reg = ModuleAction.regular(spec)
            cmap = braiding_map(reg, reg, r)
            assert check_module_morphism(cmap, reg, reg), orders
            assert check_hexagon(reg, reg, reg, r), orders
        # with equal modules the hexagon is the same identity as criterion 3
        spec2 = GroupSpec((2,))
        reg2 = ModuleAction.regular(spec2)
        assert check_hexagon(reg2, reg2, reg2, universal_r(spec2)) == \
            check_braided_ybe(braided_r(spec2))


def test_criterion_07_braid_relations():
    with _Budget("07 braid relations, 4 strands d=2 and 3 strands d=3", 30.0):
        assert check_braid_relations(4, braided_r(GroupSpec((2,))))
        assert check_braid_relations(3, braided_r(GroupSpec((3,))))


def test_criterion_08_unitarity_up_to_dimension_six():
    with _Budget("08 unitarity of the R images, all specs d <= 6", 10.0):
        for spec in specs_up_to(6):
            rep = regular_representation(spec)
            g = rep.on_tensor(universal_r(spec))
            rp = flip_operator(spec.dimension) @ g
            eye = Matrix.identity(spec.dimension ** 2)
            assert g @ conjugate_transpose(g) == eye, spec
            assert rp @ conjugate_transpose(rp) == eye, spec


def test_criterion_09_entangling_criterion_exhaustive():
    with _Budget("09 family-gate entangling sweep, 256 cases", 5.0):
        i_ = root_of_unity(4, 1)
        pool = [rational(1), rational(-1), i_, -i_]
        cases = 0
        for a in pool:
            for b in pool:
                for c in pool:
                    for d in pool:
                        entangled, _ = kl_entangling_test(a, b, c, d)
                        assert entangled == (a * b != c * d)
                        cases += 1
        assert cases == 256


def test_criterion_10_bell_matrix_basis_actions():
    with _Budget("10 Bell matrix basis actions at ray level", 1.0):
        b = bell_matrix()
        cases = [
            ("00", bell_state("phi-")),
            ("01", bell_state("psi+")),
            ("10", -bell_state("psi-")),
            ("11", bell_state("phi+")),
        ]
        for digits, target in cases:
            image = apply_gate(b, StateVector.computational(2, digits))
            assert proportional_positive(image, target), digits
            assert abs(concurrence(image) - 1.0) <= 1e-12


def test_criterion_11_hopf_axioms_up_to_dimension_twelve():
    with _Budget("11 Hopf axioms, all specs with dimension <= 12", 10.0):
        for spec in specs_up_to(12):
            assert check_hopf_axioms(spec), spec


def test_criterion_12_fused_form_documentation_checks(capsys):
    with _Budget("12 fused-form recorded checks via the CLI", 10.0):
        code = main(["check", "--orders", "2,2", "--which", "ybe",
                     "--form", "fused", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        entry = report["checks"][0]
        assert entry["status"] == "recorded"
        assert entry["detail"].startswith("result: ")
        assert entry["detail"].split()[1] in ("pass", "fail")

        code = main(["check", "--orders", "2", "--which", "ybe",
                     "--form", "fused", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["checks"][0]["status"] == "recorded"
        assert report["checks"][0]["detail"].startswith("result: pass")


def test_criterion_13_all_checks_for_orders_two_three(capsys):
    with _Budget("13 check --orders 2,3 --which all", 10.0):
        assert main(["check", "--orders", "2,3", "--which", "all"]) == 0
        assert "8 checks, 8 pass" in capsys.readouterr().out


def test_criterion_14_braid_relations_on_ten_strands(capsys):
    with _Budget("14 braid relations, 10 strands d=2", 10.0):
        assert main(["check", "--orders", "2", "--which", "braid", "--strands", "10"]) == 0
        assert "check braid-relations-10: pass" in capsys.readouterr().out


def test_criterion_15_braid_relations_on_five_strands_at_dimension_six(capsys):
    with _Budget("15 braid relations, 5 strands d=6", 30.0):
        assert main(["check", "--orders", "6", "--which", "braid", "--strands", "5"]) == 0
        assert "check braid-relations-5: pass" in capsys.readouterr().out


def test_criterion_16_algebra_checks_at_dimension_twelve(capsys):
    with _Budget("16 check --orders 12, quasitriangular and ybe", 2.0):
        assert main(["check", "--orders", "12", "--which", "quasitriangular"]) == 0
        assert main(["check", "--orders", "12", "--which", "ybe"]) == 0
        out = capsys.readouterr().out
        assert "2 checks, 2 pass" in out and "1 checks, 1 pass" in out


def test_criterion_17_algebra_checks_on_diagonals_up_to_dimension_twelve():
    with _Budget("17 quasitriangular and ybe on MonomialOps, all specs d <= 12", 10.0):
        for spec in specs_up_to(12):
            r = universal_r(spec)
            ops = MonomialOps(spec)
            assert check_quasi_cocommutative(spec, r, ops), spec
            assert check_quasitriangular(spec, r, ops), spec
            assert check_algebraic_ybe(spec, r, ops), spec


def test_criterion_18_long_braid_word_on_a_state(capsys):
    # letters act on the state one by one; the 81x81 word matrix is never built
    word = ",".join(map(str, [1, 2, -3, 2, -1, 3, -2, 1] * 5))
    with _Budget("18 braid, 40 letters on 4 strands d=3, on a state", 5.0):
        assert main(["braid", "--orders", "3", "--strands", "4", f"--word={word}",
                     "--state", "0121"]) == 0
        assert "schmidt rank across cut 3:" in capsys.readouterr().out
