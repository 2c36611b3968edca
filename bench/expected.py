"""Known facts every benchmark answer is checked against, written by hand.

A mismatch counts as a failed operation. A report with residuals or with
``components: undetermined`` is undecided: it counts in ``undecided_share``,
and its component count and det1 image are not compared.
"""

# name -> (dimension, component count, image of det on m/m^2).
# None marks a fact this table does not record.
FACTS = {
    "tangent2": (4, 8, "R\\{0}"),
    "quartic": (10, 2, "(0,inf)"),
    "sextic": (15, 1, "{1}"),
    "cusp": (9, None, None),
    "e6": (12, None, None),
    # X -> X+Y is an isomorphism, so the answer is tangent2's
    "tangent2_xy": (4, 8, "R\\{0}"),
    "tan3": (8, 48, "R\\{0}"),
    "tan4": (16, 384, "R\\{0}"),
    # Aut is GL_n times a unipotent (connected) group: 2 components, det of both signs
    "jet23": (10, 2, "R\\{0}"),
    "jet24": (15, 2, "R\\{0}"),
    "jet32": (10, 2, "R\\{0}"),
}

# Algebras the seed leaves undecided. Any other algebra coming out undecided
# makes undecided_share worse, which the benchmark reports as incorrect.
UNDECIDED_AT_SEED = frozenset(
    ("cusp", "e6", "tangent2_xy", "jet23", "jet24", "jet32")
)

# Shipped algebras whose canonical JSON must match bench/golden/<name>.json
# byte for byte (captured at the seed with `weilaut solve --json`).
GOLDEN = ("tangent2", "quartic", "sextic")
