"""End-to-end command line tests, run in process."""

import hashlib
import json

from weilaut.cli import main
from weilaut.specdata import spec_path

TWO_BLOCKS = """
algebra first { vars: X, Y; order: 2; relations: X^2, Y^2; precedence: Y > X; }
algebra second { vars: X; order: 3; relations: X^2; }
"""


def test_basis_line_is_exact(capsys):
    assert main(["basis", spec_path("tangent2")]) == 0
    assert capsys.readouterr().out == "dim 4: 1, X, Y, XY\n"


def test_table_prints_zero_and_nonzero_products(capsys):
    assert main(["table", spec_path("tangent2")]) == 0
    assert capsys.readouterr().out == (
        "1 * 1 = 1\n"
        "1 * X = X\n"
        "1 * Y = Y\n"
        "1 * XY = XY\n"
        "X * X = 0\n"
        "X * Y = XY\n"
        "X * XY = 0\n"
        "Y * Y = 0\n"
        "Y * XY = 0\n"
        "XY * XY = 0\n"
    )


def test_table_of_the_sextic_is_pinned(capsys):
    assert main(["table", spec_path("sextic")]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 120
    assert "Y * Y^3 = -X^3" in lines
    assert "Y^2 * Y^2 = -X^3" in lines
    digest = "a89ab6209fc54074feef37dc83348e9f761528b2657646838bd5ea18b9e44051"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_table_prints_general_coefficients(tmp_path, capsys):
    spec = tmp_path / "scaled.alg"
    spec.write_text(
        "algebra scaled { vars: X, Y; order: 2; relations: X^2 - 2*Y^2, X*Y + Y^2/3; }\n"
    )
    assert main(["table", str(spec)]) == 0
    assert capsys.readouterr().out == (
        "1 * 1 = 1\n"
        "1 * Y = Y\n"
        "1 * X = X\n"
        "1 * Y^2 = Y^2\n"
        "Y * Y = Y^2\n"
        "Y * X = -1/3*Y^2\n"
        "Y * Y^2 = 0\n"
        "X * X = 2*Y^2\n"
        "X * Y^2 = 0\n"
        "Y^2 * Y^2 = 0\n"
    )


def test_constraints_output(capsys):
    assert main(["constraints", spec_path("tangent2")]) == 0
    out = capsys.readouterr().out
    assert "[X^2 -> X*Y] A*B = 0" in out
    assert "[Y^2 -> X*Y] D*E = 0" in out
    assert "nondegenerate: A*E - B*D != 0" in out
    assert "A*D = 0" in out


def test_solve_exits_zero_when_closed(capsys):
    assert main(["solve", spec_path("quartic")]) == 0
    out = capsys.readouterr().out
    assert "families: 1" in out
    assert "components: 2" in out


def test_solve_exits_two_on_residuals(capsys):
    assert main(["solve", spec_path("quartic"), "--max-branch-depth", "0"]) == 2
    out = capsys.readouterr().out
    assert "residual" in out
    assert "components: undetermined" in out


def test_solve_rejects_a_negative_branch_depth(tmp_path, capsys):
    out_json = tmp_path / "out.json"
    for command in ("solve", "report"):
        for depth in ("-1", "-3"):
            argv = [command, spec_path("tangent2"), "--max-branch-depth", depth, "--json", str(out_json)]
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err == "error: --max-branch-depth must be at least 0, got %s\n" % depth
            assert captured.out == ""
    assert not out_json.exists()


TAN6O2 = (
    "algebra tan6o2 { vars: X, Y, Z, W, V, U; order: 2;"
    " relations: X^2, Y^2, Z^2, W^2, V^2, U^2; }\n"
)


def test_solve_warns_when_the_branch_budget_runs_out(tmp_path, capsys):
    spec = tmp_path / "tan6o2.alg"
    spec.write_text(TAN6O2)
    out_json = tmp_path / "tan6o2.json"
    assert main(["solve", str(spec), "--json", str(out_json)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "warning: branch budget 512 exhausted, 715 branches left open\n"
    assert "warning" not in captured.out
    assert "residuals: 715" in captured.out
    rep = json.loads(out_json.read_bytes())
    assert [r["reason"] for r in rep["residuals"]] == ["branch budget exhausted"] * 715


def test_solve_warns_only_when_the_budget_runs_out(capsys):
    assert main(["solve", spec_path("tangent2")]) == 0
    assert capsys.readouterr().err == ""
    # a residual at the depth limit is no budget exhaustion
    assert main(["solve", spec_path("quartic"), "--max-branch-depth", "0"]) == 2
    assert capsys.readouterr().err == ""


def test_solve_json_is_byte_identical(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["solve", spec_path("sextic"), "--json", str(p1)]) == 0
    assert main(["solve", spec_path("sextic"), "--json", str(p2)]) == 0
    capsys.readouterr()
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    rep = json.loads(b1)
    assert sorted(rep) == [
        "algebra",
        "basis",
        "components",
        "constraints",
        "det1_image",
        "determinants",
        "discrepancies",
        "families",
        "residuals",
    ]


def test_report_prints_the_reference_comparison(capsys):
    assert main(["report", spec_path("quartic")]) == 0
    out = capsys.readouterr().out
    assert "discrepancies: 16" in out
    assert "reference forms:" in out


def test_verify_passes_the_shipped_quartic_family(capsys):
    bindings = spec_path("quartic").replace("quartic.alg", "quartic_family.bindings")
    code = main(["verify", spec_path("quartic"), bindings, "--samples", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sample 1: pass" in out
    assert "verified 5/5 samples" in out


def test_verify_passes_the_sextic_identity(capsys):
    bindings = spec_path("sextic").replace("sextic.alg", "sextic_identity.bindings")
    code = main(["verify", spec_path("sextic"), bindings, "--samples", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified 2/2 samples" in out


def test_verify_fails_and_names_the_offending_pair(tmp_path, capsys):
    bad = tmp_path / "bad.bindings"
    bad.write_text("B = 1\nE = 1\nfree: A, C, D, F\n")
    code = main(["verify", spec_path("tangent2"), str(bad), "--samples", "3"])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL" in out
    assert "(Y, Y)" in out or "(X, X)" in out


def test_verify_fails_the_zero_map_as_singular(tmp_path, capsys):
    # the zero map satisfies every product but is not invertible
    zero = tmp_path / "zero.bindings"
    zero.write_text("".join("%s = 0\n" % n for n in "ABCDEF"))
    code = main(["verify", spec_path("tangent2"), str(zero), "--samples", "2"])
    out = capsys.readouterr().out
    assert code == 3
    assert out == (
        "sample 1: FAIL, linear part is singular\n"
        "sample 2: FAIL, linear part is singular\n"
        "verified 0/2 samples\n"
    )


def test_verify_rejects_a_symbol_both_bound_and_free(tmp_path, capsys):
    # the shipped quartic family with its bound B also listed as free: the
    # binding must not be silently replaced by a sample
    shipped = spec_path("quartic").replace("quartic.alg", "quartic_family.bindings")
    with open(shipped, encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / "overlap.bindings"
    bad.write_text(text.replace("free: A,", "free: B, A,"))
    code = main(["verify", spec_path("quartic"), str(bad), "--samples", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert "'B' is both bound and free" in captured.err
    assert "sample" not in captured.out


def test_verify_rejects_a_nonzero_symbol_that_is_not_free(tmp_path, capsys):
    # the shipped quartic family with its bound B (= 0) also declared
    # nonzero: the family is empty, so the file must not verify
    shipped = spec_path("quartic").replace("quartic.alg", "quartic_family.bindings")
    with open(shipped, encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / "nonzero.bindings"
    bad.write_text(text.replace("nonzero: A", "nonzero: A, B"))
    code = main(["verify", spec_path("quartic"), str(bad), "--samples", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "nonzero symbol 'B' is not listed under free: (line 7, col 13)" in captured.err
    assert "sample" not in captured.out


def test_verify_rejects_a_sample_count_below_one(capsys):
    bindings = spec_path("quartic").replace("quartic.alg", "quartic_family.bindings")
    for count in ("0", "-2"):
        code = main(["verify", spec_path("quartic"), bindings, "--samples", count])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: --samples must be at least 1, got %s\n" % count
        assert captured.out == ""


def test_verify_rejects_uncovered_unknowns(tmp_path, capsys):
    bad = tmp_path / "partial.bindings"
    bad.write_text("B = 1\n")
    code = main(["verify", spec_path("tangent2"), str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "neither bound nor declared free" in err


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["basis", str(tmp_path / "missing.alg")]) == 1
    assert main(["frobnicate", spec_path("tangent2")]) == 1
    assert main(["basis", spec_path("tangent2"), "--algebra", "nope"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out.json"
    tangent2 = spec_path("tangent2")
    bindings = spec_path("quartic").replace("quartic.alg", "quartic_family.bindings")
    for argv in (
        ["basis", tangent2, "--json", str(out), "--samples", "3", "--max-branch-depth", "2"],
        ["basis", tangent2, "--json", str(out)],
        ["table", tangent2, "--seed", "0"],
        ["constraints", tangent2, "--max-branch-depth", "2"],
        ["solve", tangent2, "--samples", "3"],
        ["report", tangent2, "--samples", "3"],
        ["verify", spec_path("quartic"), bindings, "--json", str(out)],
        ["verify", spec_path("quartic"), bindings, "--max-branch-depth", "2"],
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: unrecognized arguments: ")
    assert not out.exists()


def test_a_power_of_m_off_the_basis_monomials_exits_one(tmp_path, capsys):
    # the sextic after X -> X + Y: its m^s are not spanned by basis monomials
    spec = tmp_path / "sextic_xy.alg"
    spec.write_text("algebra sextic_xy { vars: X, Y; order: 6; relations: (X + Y)^3 + Y^4, (X + Y)^4 + Y^5; }")
    assert main(["basis", str(spec)]) == 1
    assert capsys.readouterr().err == "error: nilradical power is not spanned by basis monomials\n"


def test_precedence_flag_changes_the_basis(capsys):
    main(["basis", spec_path("sextic")])
    default = capsys.readouterr().out
    main(["basis", spec_path("sextic"), "--precedence", "Y>X"])
    flipped = capsys.readouterr().out
    assert default != flipped
    assert default.startswith("dim 15:")
    assert flipped.startswith("dim 15:")


def test_algebra_selector_picks_the_named_block(tmp_path, capsys):
    f = tmp_path / "two.alg"
    f.write_text(TWO_BLOCKS)
    assert main(["basis", str(f)]) == 0
    assert capsys.readouterr().out == "dim 4: 1, X, Y, XY\n"
    assert main(["basis", str(f), "--algebra", "second"]) == 0
    assert capsys.readouterr().out == "dim 2: 1, X\n"


POINT = "algebra point { vars: X; order: 1; relations: X; }\n"


def test_solve_the_trivial_weil_algebra(tmp_path, capsys):
    # Q[X]/(X) is the reals themselves: the nil block is empty and both
    # determinants are the empty product
    spec = tmp_path / "point.alg"
    spec.write_text(POINT)
    out_json = tmp_path / "point.json"
    assert main(["solve", str(spec), "--json", str(out_json)]) == 0
    assert capsys.readouterr().out == (
        "point: dim 1, 0 unknowns\n"
        "families: 1\n"
        "  family 1: (no bindings)\n"
        "    free: (none)\n"
        "    nonzero: (none)\n"
        "    det1 = 1, image {1}\n"
        "  family 1 determinants: det M = 1, det M1 = 1\n"
        "contradictions: 0\n"
        "components: 1\n"
        "det1 image: {1}\n"
    )
    rep = json.loads(out_json.read_bytes())
    assert rep["algebra"]["dim"] == 1
    assert rep["determinants"]["families"] == [
        {"diagonal": [], "full": "1", "linear": "1"}
    ]
    assert rep["components"] == 1
    assert rep["det1_image"] == "{1}"


FIELD = "algebra f { vars: X, Y; order: 3; relations: X*Y, X^3 - 2*Y^3; }\n"


def test_solve_text_of_a_family_over_an_extension_field(tmp_path, capsys):
    # X^3 = 2*Y^3 adjoins c with c^3 = 4 to reach the second family
    spec = tmp_path / "f.alg"
    spec.write_text(FIELD)
    assert main(["solve", str(spec)]) == 0
    assert capsys.readouterr().out == (
        "f: dim 6, 10 unknowns\n"
        "families: 2\n"
        "  family 1: A = 0; F = B; G = 0; I = -1/2*C\n"
        "    free: B, C, D, E, H, J\n"
        "    nonzero: B\n"
        "    det1 = B^2, image (0,inf)\n"
        "  family 2: A = (c)*G; B = 0; F = 0; H = (-1/2*c^2)*D\n"
        "    free: C, D, E, G, I, J\n"
        "    nonzero: G\n"
        "    det1 = (-c)*G^2, image (-inf,0)\n"
        "    field: Q[c], minpoly coefficients -4, 0, 0, 1\n"
        "  family 1 determinants: det M = B^9, det M1 = B^2\n"
        "  family 2 determinants: det M = 8*G^9, det M1 = (-c)*G^2\n"
        "contradictions: 2\n"
        "  A = 0 ; B = 0 (nondegeneracy-vanished)\n"
        "  A != 0 ; F = 0 ; B != 0 ; G = 0 (nondegeneracy-vanished)\n"
        "components: 4\n"
        "det1 image: R\\{0}\n"
    )
