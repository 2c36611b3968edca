"""Printed reference values for the shipped algebras.

The engine re-derives every equation, matrix entry and determinant from the
algebra presentation alone. The reference derivation that this package
reproduces prints specific forms for the same objects; those forms are
recorded here verbatim so reports can show both views side by side and list
every place where they differ. All strings parse in the generic
endomorphism ring of the corresponding shipped algebra (plus the symbol c
for the cube-root extension in the quartic branch data).

A reference block only applies when the algebra presentation matches the
shipped one exactly (variables, order, relations, precedence); otherwise
the unknown names would not line up and the comparison would be nonsense.
"""

# substitute is unused here but stays importable: bench/tracer.py patches published.substitute
from .endo import extend_to_matrix, relation_label, specialize, substitute  # noqa: F401
from .parsing import parse_polynomial
from .solver import component_count

TANGENT2 = {
    "system_printed": "A*D = 0; B*E = 0",
    "equations_printed": ["A*D", "B*E"],
    "nondegenerate": "A*E - B*D",
    "families": [
        {
            "bindings": {"B": "0", "D": "0"},
            "nonzero": ["A", "E"],
            "labels": ["X", "Y", "X*Y"],
            "matrix": [
                ["A", "0", "C"],
                ["0", "E", "F"],
                ["0", "0", "A*E"],
            ],
            "det_full": "A^2*E^2",
            "det_linear": "A*E",
        },
        {
            "bindings": {"A": "0", "E": "0"},
            "nonzero": ["B", "D"],
            "labels": ["X", "Y", "X*Y"],
            "matrix": [
                ["0", "B", "C"],
                ["D", "0", "F"],
                ["0", "0", "B*D"],
            ],
            "det_full": "-B^2*D^2",
            "det_linear": "-B*D",
        },
    ],
    "components": 8,
    "det1_image": "R\\{0}",
}

QUARTIC = {
    "equations": [
        {
            "generator": "X^3*Y",
            "class": "X^4",
            "at": {},
            "printed": "A^3*J - B^3*J - 3*A*B^2*K",
        },
        {
            "generator": "X^2*Y^2",
            "class": "X^4",
            "at": {},
            "printed": "A^2*J^2 - 2*B^2*J*K - 2*A*B*K^2",
        },
        {
            "generator": "Y^4",
            "class": "X^4",
            "at": {},
            "printed": "J^4 - 4*J*K^3",
        },
        {
            "generator": "X^3 - Y^3",
            "class": "X^3",
            "at": {"B": "0", "J": "0"},
            "printed": "A^3 - K^3",
        },
        {
            "generator": "X^3 - Y^3",
            "class": "X^4",
            "at": {"B": "0", "J": "0", "K": "A"},
            "printed": "3*A^2*C*D - 3*A^2*M",
        },
    ],
    "equations_printed": [
        "A^3*J - B^3*J - 3*A*B^2*K",
        "A^2*J^2 - 2*B^2*J*K - 2*A*B*K^2",
        "J^4 - 4*J*K^3",
        "A^3 - K^3",
        "3*A^2*C*D - 3*A^2*M",
    ],
    "nondegenerate": "A*K - B*J",
    "beta": {
        "extension": "c^3 = 4",
        "substitution": "J = c*K",
        "brackets": ["c*A^3 - c*B^3 - 3*A*B^2", "2*A^2 - 2*c*B^2 - 2*A*B"],
        "guard": "A - c*B",
    },
    "families": [
        {
            "bindings": {"B": "0", "J": "0", "K": "A", "M": "C"},
            "nonzero": ["A"],
            "labels": [
                "X", "Y", "X^2", "X*Y", "Y^2", "X^3", "X^2*Y", "X*Y^2", "X^4",
            ],
            "matrix": [
                ["A", "0", "C", "D", "E", "F", "G", "H", "I"],
                ["0", "A", "L", "C", "N", "P", "Q", "R", "S"],
                ["0", "0", "A^2", "0", "0", "2*A*C", "2*A*D", "2*A*E",
                 "2*A*F + C^2 - 2*D*E"],
                ["0", "0", "0", "A^2", "0", "A*L - A*E", "2*A*C",
                 "A*D + A*N", "A*P + C*L - A*H - C*E - D*N"],
                ["0", "0", "0", "0", "A^2", "-2*A*N", "2*A*L", "2*A*C",
                 "L^2 - 2*A*R - 2*C*N"],
                ["0", "0", "0", "0", "0", "2*A^3", "0", "0", "6*A^2*C"],
                ["0", "0", "0", "0", "0", "0", "A^3", "0",
                 "A^2*L - 2*A^2*E"],
                ["0", "0", "0", "0", "0", "0", "0", "A^3",
                 "-A^2*D - 2*A^2*N"],
                ["0", "0", "0", "0", "0", "0", "0", "0", "2*A^4"],
            ],
            "linear_matrix": [["A", "0"], ["0", "A"]],
            "diagonal": [
                "A", "A", "A^2", "A^2", "A^2", "2*A^3", "A^3", "A^3", "2*A^4",
            ],
            "det_full": "4*A^21",
            "det_linear": "A^2",
        },
    ],
    "components": 1,
    "components_claim": "1 (claimed connected, one component)",
    "det1_image": "(0,inf)",
}

SEXTIC = {
    "families": [
        {
            "bindings": None,
            "nonzero": [],
            "linear_matrix": [["1", "0"], ["0", "1"]],
            "det_linear": "1",
        },
    ],
    "components": 1,
    "det1_image": "{1}",
}

_SHIPPED = {
    "tangent2": {
        "data": TANGENT2,
        "signature": (("X", "Y"), 2, ("X^2", "Y^2"), ("Y", "X")),
    },
    "quartic": {
        "data": QUARTIC,
        "signature": (
            ("X", "Y"),
            4,
            ("X^2*Y^2", "X^3 - Y^3", "X^3*Y", "Y^4"),
            ("Y", "X"),
        ),
    },
    "sextic": {
        "data": SEXTIC,
        "signature": (("X", "Y"), 6, ("Y^4 + X^3", "Y^5 + X^4"), None),
    },
}


def spec_signature(spec):
    labels = tuple(sorted(relation_label(g) for g in spec.relations))
    return (spec.variables, spec.order, labels, spec.precedence)


def reference_for(spec):
    """The reference block for a shipped presentation, else None."""
    entry = _SHIPPED.get(spec.name)
    if entry is None:
        return None
    if spec_signature(spec) != entry["signature"]:
        return None
    return entry["data"]


def _zero_names(bindings):
    return frozenset(k for k, v in bindings.items() if not v)


def match_reference_family(data, family):
    """The reference family with the same zero-bound unknowns, else None."""
    zeros = _zero_names(family.bindings)
    fams = data.get("families", ())
    for ref in fams:
        if ref.get("bindings"):
            ref_zeros = frozenset(
                k for k, v in ref["bindings"].items() if v.strip() == "0"
            )
            if ref_zeros == zeros:
                return ref
    if len(fams) == 1:
        return fams[0]
    return None


def _same_equation(p, q):
    return p.primitive() == q.primitive()


def build_discrepancies(data, endo, system, result):
    """Every place where the printed reference forms differ from the engine.

    Items are dicts {where, printed, derived}; the order is fixed
    (equations, then matrices, then determinants, then the component count)
    so reports are reproducible byte for byte. A printed family is staged as
    report.family_determinants stages a solved one: its bindings go into the
    variable images, which are then extended, and det M is taken through
    the graded pieces.
    """
    ring = endo.ring
    pieces = endo.algebra.graded_pieces()
    items = []

    if "system_printed" in data:
        derived = "; ".join("%r = 0" % p.primitive() for p in system.equations)
        if derived != data["system_printed"]:
            items.append({
                "where": "constraint system",
                "printed": data["system_printed"],
                "derived": derived,
            })

    by_prov = dict(zip(system.provenance, system.equations))
    for item in data.get("equations", ()):
        eng = by_prov[(item["generator"], item["class"])]
        if item["at"]:
            stage = {k: parse_polynomial(v, ring) for k, v in item["at"].items()}
            eng = eng.substitute(stage)
        printed = parse_polynomial(item["printed"], ring)
        if _same_equation(eng, printed):
            continue
        where = "equation %s -> %s" % (item["generator"], item["class"])
        if item["at"]:
            where += " at " + ", ".join(
                "%s = %s" % (k, v) for k, v in sorted(item["at"].items())
            )
        items.append({
            "where": where,
            "printed": item["printed"],
            "derived": repr(eng),
        })

    for ref in data.get("families", ()):
        if ref.get("bindings") is None or "matrix" not in ref:
            continue
        stage = {
            k: parse_polynomial(v, ring) for k, v in ref["bindings"].items()
        }
        # substitution is a ring homomorphism, so this is the generic matrix
        # with the bindings substituted, entry for entry
        full = extend_to_matrix(specialize(endo, ring, stage))
        if ref["labels"] != full.labels:
            continue
        for i, label_row in enumerate(ref["labels"]):
            for j, label_col in enumerate(ref["labels"]):
                printed = parse_polynomial(ref["matrix"][i][j], ring)
                eng = full.entries[i][j]
                if eng == printed:
                    continue
                items.append({
                    "where": "matrix entry (%s, %s)" % (label_row, label_col),
                    "printed": ref["matrix"][i][j],
                    "derived": repr(eng),
                })
        if "det_full" in ref:
            printed_det = parse_polynomial(ref["det_full"], ring)
            eng_det = full.det(pieces)
            if eng_det != printed_det:
                items.append({
                    "where": "det of the nilpotent-block matrix",
                    "printed": ref["det_full"],
                    "derived": repr(eng_det),
                })
        if "det_linear" in ref:
            printed_det1 = parse_polynomial(ref["det_linear"], ring)
            eng_det1 = full.block(pieces[0]).det()
            if eng_det1 != printed_det1:
                items.append({
                    "where": "det of the degree-one block",
                    "printed": ref["det_linear"],
                    "derived": repr(eng_det1),
                })

    if "components" in data:
        computed = component_count(result)
        if computed != data["components"]:
            items.append({
                "where": "component count",
                "printed": data.get(
                    "components_claim", str(data["components"])
                ),
                "derived": str(computed),
            })

    return items
