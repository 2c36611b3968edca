"""Report assembly: pinned key set, canonical JSON, text rendering."""

import json

import pytest

from weilaut.endo import ConstraintSystem
from weilaut.parsing import parse_specfile
from weilaut.poly import PolyRing
from weilaut.report import (
    REPORT_KEYS,
    _family_json,
    analyze,
    build_report,
    canonical_json,
    compact,
    render_report_text,
    render_solve_text,
)
from weilaut.scalar import QQ
from weilaut.solver import (
    Residual,
    SolutionFamily,
    SolveResult,
    classify_det1,
    det1_image,
    solve,
)
from weilaut.specdata import spec_path


def load_spec(name):
    with open(spec_path(name)) as fh:
        return parse_specfile(fh.read())[0]


@pytest.fixture(scope="module")
def built():
    out = {}
    for name in ("tangent2", "quartic", "sextic"):
        analysis = analyze(load_spec(name))
        out[name] = (analysis, build_report(analysis))
    return out


def test_report_keys_are_pinned(built):
    assert REPORT_KEYS == (
        "algebra",
        "basis",
        "constraints",
        "families",
        "determinants",
        "components",
        "det1_image",
        "discrepancies",
        "residuals",
    )
    for _, rep in built.values():
        assert sorted(rep) == sorted(REPORT_KEYS)


def test_canonical_json_round_trips(built):
    for _, rep in built.values():
        blob = canonical_json(rep)
        assert blob.endswith("\n")
        assert json.loads(blob) == rep
        assert blob == json.dumps(rep, sort_keys=True, indent=2) + "\n"


def test_reports_are_byte_identical_across_runs(built):
    for name, (_, rep) in built.items():
        again = build_report(analyze(load_spec(name)))
        assert canonical_json(again) == canonical_json(rep)


def test_compact_strips_the_multiplication_stars():
    assert compact("1") == "1"
    assert compact("X") == "X"
    assert compact("X*Y") == "XY"
    assert compact("X^2*Y^3") == "X^2Y^3"


def _family_with_det1_image(label):
    """A one-unknown family whose det1 classify_det1 reads as label."""
    ring = PolyRing(("A",), QQ)
    a = ring.var("A")
    det1 = {
        "{1}": ring.one(),
        "{3}": ring.coerce(3),
        "(0,inf)": a * a,
        "(-inf,0)": -(a * a),
        "R\\{0}": a,
    }[label]
    return SolutionFamily((), ring, {}, ("A",), ("A",), (), det1)


# family images, whether a residual remains, the image det1_image reads
DET1_IMAGE_CASES = [
    ((), False, "undetermined"),
    (("{1}",), False, "{1}"),
    (("{1}", "{1}"), False, "{1}"),
    (("{1}", "(0,inf)"), False, "(0,inf)"),
    (("(0,inf)",), False, "(0,inf)"),
    (("(-inf,0)",), False, "undetermined"),
    (("(0,inf)", "(-inf,0)"), False, "R\\{0}"),
    (("R\\{0}",), False, "R\\{0}"),
    (("{1}", "{3}"), False, "undetermined"),
    # a residual keeps only R\{0}, the one image no automorphism can widen
    (("R\\{0}",), True, "R\\{0}"),
    (("(0,inf)", "(-inf,0)"), True, "R\\{0}"),
    (("(0,inf)",), True, "undetermined"),
    (("{1}",), True, "undetermined"),
    ((), True, "undetermined"),
]


def test_det1_image_is_the_union_of_the_family_images():
    for labels, residual, image in DET1_IMAGE_CASES:
        families = [_family_with_det1_image(label) for label in labels]
        assert [classify_det1(f) for f in families] == list(labels)
        residuals = [Residual(("A = 0",), "branch depth limit", [], {}, [])] if residual else []
        assert det1_image(SolveResult(families, [], residuals)) == image, (labels, residual)


def test_tangent_report_content(built):
    _, rep = built["tangent2"]
    assert rep["algebra"]["dim"] == 4
    assert rep["algebra"]["precedence"] == ["Y", "X"]
    assert rep["basis"] == ["1", "X", "Y", "XY"]
    assert rep["components"] == 8
    assert rep["det1_image"] == "R\\{0}"
    fam = rep["families"][0]
    assert fam["path"] == ["A = 0", "D != 0", "E = 0"]
    assert fam["bindings"] == {"A": "0", "E": "0"}
    assert fam["field"] is None
    dets = rep["determinants"]
    assert dets["families"][0] == {
        "diagonal": ["0", "0", "B*D"],
        "full": "-B^2*D^2",
        "linear": "-B*D",
    }
    assert dets["reference"][0]["full"] == "-B^2*D^2"
    assert dets["reference"][1]["full"] == "A^2*E^2"
    cons = rep["constraints"]
    assert cons["nondegenerate"] == "A*E - B*D"
    assert cons["reference"] == ["A*D", "B*E"]
    assert cons["derived"] == [
        {"class": "X*Y", "equation": "A*B", "generator": "X^2"},
        {"class": "X*Y", "equation": "D*E", "generator": "Y^2"},
    ]


def test_quartic_report_content(built):
    _, rep = built["quartic"]
    assert rep["components"] == 2
    assert rep["det1_image"] == "(0,inf)"
    assert len(rep["families"]) == 1
    fam = rep["families"][0]
    assert fam["bindings"] == {"B": "0", "J": "0", "K": "A", "M": "C"}
    assert fam["nonzero"] == ["A"]
    dets = rep["determinants"]
    assert dets["families"][0]["full"] == "A^21"
    assert dets["families"][0]["linear"] == "A^2"
    ref = dets["reference"][0]
    assert ref["full"] == "4*A^21"
    assert ref["linear"] == "A^2"
    assert ref["diagonal"] == [
        "A",
        "A",
        "A^2",
        "A^2",
        "A^2",
        "2*A^3",
        "A^3",
        "A^3",
        "2*A^4",
    ]


def test_sextic_report_content(built):
    _, rep = built["sextic"]
    assert rep["algebra"]["precedence"] is None
    assert rep["components"] == 1
    assert rep["det1_image"] == "{1}"
    fam = rep["families"][0]
    assert fam["bindings"]["B"] == "1"
    assert fam["bindings"]["P"] == "1"
    assert len(fam["free"]) == 19
    assert fam["nonzero"] == []
    assert rep["determinants"]["families"][0]["linear"] == "1"


def test_depth_limited_report_is_undetermined():
    rep = build_report(analyze(load_spec("tangent2"), max_depth=0))
    assert rep["components"] == "undetermined"
    assert rep["det1_image"] == "undetermined"
    assert rep["families"] == []
    assert rep["residuals"]
    assert rep["residuals"][0]["reason"] == "branch depth limit"


# random_spec_texts(1, 225)[155] of test_weil.py
OPEN_POSITIVE = (
    "algebra r1_155 { vars: X, Y; order: 5; "
    "relations: 2*X^3*Y^1 + 3*Y^4, 2*X^2*Y^2 + 3*X^4, -2*X^2*Y^3; }"
)


@pytest.mark.parametrize("precedence", [None, ("Y", "X")], ids=["declared", "YX"])
def test_an_open_residual_leaves_a_one_sided_det1_image_undetermined(precedence):
    # the one family has det1 > 0, but the residual may hold automorphisms
    # with det1 < 0, so only R\{0} could be read off the families
    spec = parse_specfile(OPEN_POSITIVE)[0]
    if precedence:
        spec = spec.with_precedence(precedence)
    rep = build_report(analyze(spec))
    assert [f["det1_image"] for f in rep["families"]] == ["(0,inf)"]
    assert [r["reason"] for r in rep["residuals"]] == ["no finishing rule for 10 unknowns"]
    assert rep["det1_image"] == "undetermined"


def test_extension_field_family_serializes():
    ring = PolyRing(("U", "V"), QQ)
    U, V = ring.var("U"), ring.var("V")
    res = solve(ConstraintSystem(ring, [U**3 - 4 * V**3], [ring.one()], [], ring.vars))
    assert len(res.families) == 1
    fam = _family_json(res.families[0])
    assert fam["field"] == {
        "generator": "c",
        "minpoly": ["-4", "0", "0", "1"],
        "root_interval": ["0", "5"],
    }
    assert fam["bindings"] == {"U": "(c)*V"}
    json.dumps(fam)


def test_solve_text_mentions_every_outcome(built):
    analysis, rep = built["tangent2"]
    text = render_solve_text(analysis, rep)
    assert "families: 2" in text
    assert "contradictions: 2" in text
    assert "components: 8" in text
    assert "det1 image: R\\{0}" in text


def test_report_text_embeds_the_reference_view(built):
    analysis, rep = built["quartic"]
    text = render_report_text(analysis, rep)
    assert "reference forms:" in text
    assert "discrepancies: 16" in text
    assert "det of the nilpotent-block matrix" in text
