"""Assemble solve results into one reproducible report.

The JSON form is canonical: keys are sorted, indentation is fixed and the
text ends with a newline, so identical inputs give byte-identical files.
Every value is a plain string, integer, list or dict, which makes the
serialization round-trip exactly. The two answers, components and
det1_image, are the solver's, computed once; build_discrepancies only
compares them with the printed ones.
"""

import json

# substitute is unused here but stays importable: bench/tracer.py patches report.substitute
from .endo import (  # noqa: F401
    constraint_system,
    extend_to_matrix,
    generic_endo,
    specialize,
    substitute,
)
from .published import build_discrepancies, match_reference_family, reference_for
from .scalar import QQ
from .solver import MAX_DEPTH, classify_det1, component_count, det1_image, solve
from .weil import build_algebra

REPORT_KEYS = (
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


def compact(monomial):
    """Display form of a basis monomial: X*Y^2 -> XY^2."""
    return monomial.replace("*", "")


def _field_json(ring):
    domain = ring.domain
    if domain is QQ:
        return None
    return {
        "generator": domain.gen_name,
        "minpoly": [str(c) for c in domain.minpoly],
        "root_interval": [str(domain.lo), str(domain.hi)],
    }


def _family_json(fam):
    return {
        "path": list(fam.path),
        "bindings": {k: repr(v) for k, v in sorted(fam.bindings.items())},
        "free": list(fam.free),
        "nonzero": list(fam.nonzero),
        "conditions": [repr(p) for p in fam.conditions],
        "det1": repr(fam.nondeg_value),
        "det1_image": classify_det1(fam),
        "field": _field_json(fam.ring),
    }


def _residual_json(res):
    return {
        "path": list(res.path),
        "reason": res.reason,
        "equations": [repr(p) for p in res.equations],
        "bindings": {k: repr(v) for k, v in sorted(res.bindings.items())},
        "guards": [repr(p) for p in res.guards],
    }


def family_determinants(endo, fam):
    """Exact det M, det M1 and the diagonal of M on one family.

    M is the matrix of endo with the family's bindings substituted. It is
    built by substituting them into the variable images (lifted first into
    the family's ring, which is an extension field when the solver adjoined
    a root) and extending those images, not by substituting into every
    entry of the generic matrix.

    A family preserves m > m^2 > ..., so M is block upper-triangular along
    the graded pieces m^d/m^(d+1) (checked on every entry): det M is the
    product of the diagonal blocks' determinants. Only those blocks and
    the ones below them are read, so the images are extended only as far
    as they reach (extend_to_matrix, graded): M is the matrix of
    the associated graded map, with its lower blocks, and zeros above. A
    piece of full size C(n+d-1, d), n the size of piece 1, is
    Sym^d(m/m^2), and its block's determinant is det(B1)^C(n+d-1, d-1),
    B1 the piece-1 block; on the other pieces the rows with a single
    nonzero entry are peeled, and only what remains takes Bareiss
    (SymbolicMatrix.det, which reads the pieces the matrix carries). det
    M1, B1's determinant, is the solver's invertibility polynomial after
    the family's bindings.
    """
    full = extend_to_matrix(specialize(endo, fam.ring, fam.bindings), graded=True)
    return {
        "full": repr(full.det()),
        "linear": repr(fam.nondeg_value),
        "diagonal": [repr(p) for p in full.diagonal()],
    }


def _reference_determinants(data, families):
    out = []
    if data is None:
        return out
    for fam in families:
        ref = match_reference_family(data, fam)
        if ref is None:
            continue
        out.append({
            "full": ref.get("det_full"),
            "linear": ref.get("det_linear"),
            "diagonal": list(ref["diagonal"]) if "diagonal" in ref else None,
        })
    return out


class Analysis:
    """Everything one pipeline run produced, for reuse without re-solving."""

    __slots__ = ("spec", "algebra", "endo", "system", "result", "reference")

    def __init__(self, spec, algebra, endo, system, result, reference):
        self.spec = spec
        self.algebra = algebra
        self.endo = endo
        self.system = system
        self.result = result
        self.reference = reference


def analyze(spec, max_depth=MAX_DEPTH):
    algebra = build_algebra(spec)
    endo = generic_endo(algebra)
    system = constraint_system(endo)
    result = solve(system, max_depth=max_depth)
    return Analysis(spec, algebra, endo, system, result, reference_for(spec))


def build_report(analysis):
    spec = analysis.spec
    algebra = analysis.algebra
    endo = analysis.endo
    system = analysis.system
    result = analysis.result
    data = analysis.reference

    components = component_count(result)
    image = det1_image(result)
    constraints = {
        "derived": [
            {
                "generator": gen,
                "class": cls,
                "equation": repr(eq.primitive()),
            }
            for (gen, cls), eq in zip(system.provenance, system.equations)
        ],
        "nondegenerate": repr(system.nondegeneracy[0]),
        "reference": list(data["equations_printed"])
        if data and "equations_printed" in data
        else [],
    }
    report = {
        "algebra": {
            "name": spec.name,
            "dim": algebra.dim,
            "order": spec.order,
            "variables": list(spec.variables),
            "relations": [repr(g) for g in spec.relations],
            "precedence": list(spec.precedence) if spec.precedence else None,
            "nilpotency_order": algebra.nilpotency_order,
            "unknowns": list(endo.unknowns),
        },
        "basis": [compact(m) for m in algebra.basis_names()],
        "constraints": constraints,
        "families": [_family_json(f) for f in result.families],
        "determinants": {
            "families": [
                family_determinants(endo, f) for f in result.families
            ],
            "reference": _reference_determinants(data, result.families),
        },
        "components": components,
        "det1_image": image,
        "discrepancies": build_discrepancies(data, endo, system, components, image)
        if data
        else [],
        "residuals": [_residual_json(r) for r in result.residuals],
    }
    return report


def canonical_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_solve_text(analysis, report):
    lines = []
    lines.append(
        "%s: dim %d, %d unknowns"
        % (
            report["algebra"]["name"],
            report["algebra"]["dim"],
            len(report["algebra"]["unknowns"]),
        )
    )
    fams = report["families"]
    lines.append("families: %d" % len(fams))
    for i, fam in enumerate(fams, start=1):
        binds = "; ".join(
            "%s = %s" % (k, v) for k, v in fam["bindings"].items()
        )
        lines.append("  family %d: %s" % (i, binds if binds else "(no bindings)"))
        lines.append("    free: %s" % (", ".join(fam["free"]) or "(none)"))
        lines.append("    nonzero: %s" % (", ".join(fam["nonzero"]) or "(none)"))
        for cond in fam["conditions"]:
            lines.append("    condition: %s != 0" % cond)
        lines.append(
            "    det1 = %s, image %s" % (fam["det1"], fam["det1_image"])
        )
        if fam["field"]:
            lines.append(
                "    field: Q[%s], minpoly coefficients %s"
                % (fam["field"]["generator"], ", ".join(fam["field"]["minpoly"]))
            )
    dets = report["determinants"]["families"]
    for i, det in enumerate(dets, start=1):
        lines.append(
            "  family %d determinants: det M = %s, det M1 = %s"
            % (i, det["full"], det["linear"])
        )
    cons = analysis.result.contradictions
    lines.append("contradictions: %d" % len(cons))
    for con in cons:
        lines.append(
            "  %s (%s)" % (" ; ".join(con.path) or "(root)", con.reason)
        )
    if report["residuals"]:
        lines.append("residuals: %d" % len(report["residuals"]))
        for res in report["residuals"]:
            lines.append(
                "  %s (%s)" % (" ; ".join(res["path"]) or "(root)", res["reason"])
            )
            for eq in res["equations"]:
                lines.append("    %s = 0" % eq)
    lines.append("components: %s" % report["components"])
    lines.append("det1 image: %s" % report["det1_image"])
    return "\n".join(lines) + "\n"


def render_report_text(analysis, report):
    alg = report["algebra"]
    lines = []
    lines.append(
        "algebra %s: dim %d, truncation order %d, nilpotency order %d"
        % (alg["name"], alg["dim"], alg["order"], alg["nilpotency_order"])
    )
    lines.append("relations: %s" % "; ".join(alg["relations"]))
    lines.append("basis: %s" % ", ".join(report["basis"]))
    lines.append("derived constraints:")
    for item in report["constraints"]["derived"]:
        lines.append(
            "  [%s -> %s] %s = 0"
            % (item["generator"], item["class"], item["equation"])
        )
    lines.append(
        "nondegenerate: %s != 0" % report["constraints"]["nondegenerate"]
    )
    if report["constraints"]["reference"]:
        lines.append("reference forms:")
        for eq in report["constraints"]["reference"]:
            lines.append("  %s = 0" % eq)
    lines.append(render_solve_text(analysis, report).rstrip("\n"))
    lines.append("discrepancies: %d" % len(report["discrepancies"]))
    for item in report["discrepancies"]:
        lines.append("  %s:" % item["where"])
        lines.append("    printed: %s" % item["printed"])
        lines.append("    derived: %s" % item["derived"])
    return "\n".join(lines) + "\n"
