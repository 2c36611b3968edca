"""Reference-layer tests: signature gating and printed-vs-derived diffs."""

import pytest

from weilaut.parsing import parse_specfile
from weilaut.published import TANGENT2, match_reference_family, reference_for, spec_signature
from weilaut.report import Analysis, analyze, build_report
from weilaut.specdata import spec_path


def load_spec(name):
    with open(spec_path(name)) as fh:
        return parse_specfile(fh.read())[0]


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name in ("tangent2", "quartic", "sextic"):
        analysis = analyze(load_spec(name))
        out[name] = (analysis, build_report(analysis))
    return out


def test_shipped_specs_have_reference_data():
    for name in ("tangent2", "quartic", "sextic"):
        data = reference_for(load_spec(name))
        assert data is not None
        assert data["components"] >= 1


def test_signature_changes_drop_the_reference_layer():
    spec = load_spec("sextic").with_precedence(("Y", "X"))
    assert reference_for(spec) is None

    text = "algebra other { vars: X, Y; order: 2; relations: X^2, X*Y, Y^2; }"
    other = parse_specfile(text)[0]
    assert reference_for(other) is None


def test_signature_is_stable_under_reparse():
    a = spec_signature(load_spec("quartic"))
    b = spec_signature(load_spec("quartic"))
    assert a == b


def test_tangent_discrepancy_is_the_factoring_of_the_system(reports):
    _, rep = reports["tangent2"]
    assert rep["discrepancies"] == [
        {
            "where": "constraint system",
            "printed": "A*D = 0; B*E = 0",
            "derived": "A*B = 0; D*E = 0",
        }
    ]


def test_quartic_discrepancy_count_and_order(reports):
    _, rep = reports["quartic"]
    wheres = [d["where"] for d in rep["discrepancies"]]
    assert wheres == [
        "equation X^3*Y -> X^4",
        "equation X^2*Y^2 -> X^4",
        "equation Y^4 -> X^4",
        "equation X^3 - Y^3 -> X^4 at B = 0, J = 0, K = A",
        "matrix entry (X^2, X^4)",
        "matrix entry (X*Y, X^3)",
        "matrix entry (X*Y, X^4)",
        "matrix entry (Y^2, X^3)",
        "matrix entry (Y^2, X^4)",
        "matrix entry (X^3, X^3)",
        "matrix entry (X^3, X^4)",
        "matrix entry (X^2*Y, X^4)",
        "matrix entry (X*Y^2, X^4)",
        "matrix entry (X^4, X^4)",
        "det of the nilpotent-block matrix",
        "component count",
    ]


def test_quartic_sign_flips_in_the_root_stage_equations(reports):
    _, rep = reports["quartic"]
    by_where = {d["where"]: d for d in rep["discrepancies"]}
    item = by_where["equation Y^4 -> X^4"]
    assert item["printed"] == "J^4 - 4*J*K^3"
    assert item["derived"] == "J^4 + 4*J*K^3"
    item = by_where["equation X^3 - Y^3 -> X^4 at B = 0, J = 0, K = A"]
    assert item["printed"] == "3*A^2*C*D - 3*A^2*M"
    assert item["derived"] == "3*A^2*C - 3*A^2*M"


def test_quartic_matrix_and_det_items(reports):
    _, rep = reports["quartic"]
    by_where = {d["where"]: d for d in rep["discrepancies"]}
    assert by_where["matrix entry (X^3, X^3)"]["printed"] == "2*A^3"
    assert by_where["matrix entry (X^3, X^3)"]["derived"] == "A^3"
    assert by_where["matrix entry (Y^2, X^3)"]["printed"] == "-2*A*N"
    assert by_where["matrix entry (Y^2, X^3)"]["derived"] == "2*A*N"
    det = by_where["det of the nilpotent-block matrix"]
    assert det["printed"] == "4*A^21"
    assert det["derived"] == "A^21"
    count = by_where["component count"]
    assert count["printed"] == "1 (claimed connected, one component)"
    assert count["derived"] == "2"


def test_quartic_agreements_produce_no_items(reports):
    _, rep = reports["quartic"]
    wheres = {d["where"] for d in rep["discrepancies"]}
    assert "equation X^3 - Y^3 -> X^4 at B = 0, J = 0" not in wheres
    assert "matrix entry (X, X)" not in wheres
    assert "matrix entry (X^2, X^2)" not in wheres


def test_sextic_report_has_no_discrepancies(reports):
    _, rep = reports["sextic"]
    assert rep["discrepancies"] == []


def test_the_shipped_det1_images_agree_with_the_printed_ones(reports):
    for name, (_, rep) in reports.items():
        assert rep["det1_image"] == reference_for(load_spec(name))["det1_image"]
        assert "det1 image" not in [d["where"] for d in rep["discrepancies"]]


def test_a_changed_printed_det1_image_is_one_discrepancy(reports):
    analysis, rep = reports["tangent2"]
    printed = dict(TANGENT2, det1_image="(0,inf)")
    changed = Analysis(
        analysis.spec, analysis.algebra, analysis.endo, analysis.system, analysis.result, printed
    )
    assert build_report(changed)["discrepancies"] == rep["discrepancies"] + [
        {"where": "det1 image", "printed": "(0,inf)", "derived": "R\\{0}"}
    ]


def test_family_matching_uses_the_zero_set(reports):
    analysis, _ = reports["quartic"]
    data = reference_for(analysis.spec)
    fam = analysis.result.families[0]
    matched = match_reference_family(data, fam)
    assert matched is data["families"][0]


def test_discrepancy_items_have_exactly_three_keys(reports):
    for _, rep in reports.values():
        for item in rep["discrepancies"]:
            assert sorted(item) == ["derived", "printed", "where"]
