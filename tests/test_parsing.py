import random
import re
import time
from fractions import Fraction

import pytest

from weilaut.parsing import parse_specfile, parse_polynomial, parse_bindings, ParseError
from weilaut.poly import PolyRing
from weilaut.scalar import QQ, ExtensionField
from weilaut.weil import build_algebra


def test_parse_basic_block():
    text = "algebra t { vars: X, Y; order: 2; relations: X^2, Y^2; precedence: Y > X; }"
    (spec,) = parse_specfile(text)
    assert spec.name == "t"
    assert spec.variables == ("X", "Y")
    assert spec.order == 2
    assert len(spec.relations) == 2
    assert spec.precedence == ("Y", "X")


def test_parse_multi_block_and_comments():
    text = """
    # two algebras in one file
    algebra a { vars: X, Y; order: 1; relations: ; }
    algebra b { vars: X, Y; order: 4;
                relations: X^3*Y, X^2*Y^2, Y^4, X^3 - Y^3; # the quartic
                precedence: Y > X; }
    """
    specs = parse_specfile(text)
    assert [s.name for s in specs] == ["a", "b"]
    assert specs[0].relations == ()
    assert len(specs[1].relations) == 4


def test_polynomial_syntax():
    ring = PolyRing(("X", "Y"), QQ)
    X, Y = ring.var("X"), ring.var("Y")
    assert parse_polynomial("X^3 - Y^3", ring) == X**3 - Y**3
    assert parse_polynomial("X^3*Y", ring) == X**3 * Y
    assert parse_polynomial("XY^2", ring) == X * Y**2  # power binds to the last name
    assert parse_polynomial("X^2Y^2", ring) == X**2 * Y**2
    assert parse_polynomial("2XY", ring) == 2 * X * Y
    assert parse_polynomial("3/2 X - 1/2", ring) == Fraction(3, 2) * X - Fraction(1, 2)
    assert parse_polynomial("(X + Y)^2", ring) == X**2 + 2 * X * Y + Y**2
    assert parse_polynomial("-X + (2)(Y)", ring) == -X + 2 * Y
    assert parse_polynomial("X - -Y", ring) == X + Y
    assert parse_polynomial("0", ring).is_zero()
    # over an extension field the divisor's constant is a field element
    cbrt4 = PolyRing(("X", "Y"), ExtensionField((-4, 0, 0, 1), (1, 2)))
    assert parse_polynomial("3/2 X", cbrt4) == cbrt4.var("X") * Fraction(3, 2)


def test_a_monomial_power_is_one_step():
    # a one-term base is raised at once, not by a million multiplications
    start = time.perf_counter()
    (spec,) = parse_specfile("algebra t { vars: X; order: 2; relations: X^1000000; }")
    assert time.perf_counter() - start < 1
    assert [repr(g) for g in spec.relations] == ["X^1000000"]


def test_a_relation_power_drops_terms_above_the_order():
    # every term of (X + Y + Z)^200 lies in m^3, so at order 2 none is kept
    start = time.perf_counter()
    (spec,) = parse_specfile("algebra t { vars: X, Y, Z; order: 2; relations: (X + Y + Z)^200; }")
    assert time.perf_counter() - start < 1
    assert spec.relations == ()
    assert build_algebra(spec).dim == 10
    (spec,) = parse_specfile("algebra t { vars: X, Y; order: 2; relations: (X + Y)^2; }")
    assert [repr(g) for g in spec.relations] == ["X^2 + 2*X*Y + Y^2"]
    # polynomials outside a spec, such as bindings, keep every term
    assert parse_polynomial("(X + Y)^3", spec.ring).total_degree() == 3
    # a truncated relation agrees with the full power up to the order
    rng = random.Random(7)
    for _ in range(40):
        order, n = rng.randint(1, 4), rng.randint(0, 7)
        base = " + ".join(
            "%d*X^%d*Y^%d" % (rng.choice((1, -1, 2, 3)), rng.randint(0, 2), rng.randint(0, 2))
            for _ in range(rng.randint(2, 3))
        )
        text = "Y*(%s)^%d" % (base, n)
        (spec,) = parse_specfile("algebra t { vars: X, Y; order: %d; relations: %s; }" % (order, text))
        full = parse_polynomial(text, spec.ring)
        kept = spec.relations[0].terms if spec.relations else {}
        assert {e: c for e, c in kept.items() if sum(e) <= order} == {
            e: c for e, c in full.terms.items() if sum(e) <= order
        }, text


def test_parse_errors_carry_position():
    ring = PolyRing(("X", "Y"), QQ)
    with pytest.raises(ParseError) as err:
        parse_polynomial("X +", ring)
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError):
        parse_polynomial("X Z", ring)
    with pytest.raises(ParseError):
        parse_polynomial("X / Y", ring)
    with pytest.raises(ParseError):
        parse_specfile("algebra t { vars: X, Y; order: 2; relations: X^2 }")
    with pytest.raises(ParseError):
        parse_specfile("algebra t { vars: X, Y; order: two; relations: X^2; }")
    with pytest.raises(ParseError):
        parse_specfile("algebra t { vars: X, Y; order: 2; relations: X^2 + 1; }")
    with pytest.raises(ParseError):
        parse_specfile("algebra t { vars: X, Y; order: 2; relations: X^2; precedence: Y > Z; }")
    with pytest.raises(ParseError):
        parse_specfile("")


def test_greedy_name_split():
    ring = PolyRing(("X", "Y"), QQ)
    X, Y = ring.var("X"), ring.var("Y")
    assert parse_polynomial("XYXY", ring) == X**2 * Y**2
    ring2 = PolyRing(("A1", "B1"), QQ)
    assert parse_polynomial("A1B1", ring2) == ring2.var("A1") * ring2.var("B1")


def test_parse_bindings():
    ring = PolyRing(("A", "B", "C", "D"), QQ)
    text = """
    # family description
    B = 0
    D = C + 2A
    free: A, C
    nonzero: A
    """
    out = parse_bindings(text, ring)
    assert set(out["bindings"]) == {"B", "D"}
    assert out["bindings"]["D"] == ring.var("C") + 2 * ring.var("A")
    assert out["free"] == ["A", "C"]
    assert out["nonzero"] == ["A"]
    with pytest.raises(ParseError):
        parse_bindings("Q = 1", ring)
    with pytest.raises(ParseError):
        parse_bindings("A = 1\nA = 2", ring)
    with pytest.raises(ParseError):
        parse_bindings("A + 1", ring)


def test_parse_bindings_rejects_a_symbol_both_bound_and_free():
    ring = PolyRing(("A", "B", "C"), QQ)
    for text, line in (("B = 0\nfree: A, B, C", 2), ("free: A, B, C\nB = 0", 2)):
        with pytest.raises(ParseError, match="'B' is both bound and free") as err:
            parse_bindings(text, ring)
        assert err.value.line == line


def test_parse_bindings_rejects_a_nonzero_symbol_that_is_not_free():
    ring = PolyRing(("A", "B", "C"), QQ)
    for text, line in (
        ("B = 0\nfree: A, C\nnonzero: A, B", 3),
        ("nonzero: B, A\nB = 0\nfree: A, C", 1),
        ("nonzero: C\nfree: A, B", 1),
    ):
        with pytest.raises(ParseError, match="nonzero symbol '[BC]' is not listed under free:") as err:
            parse_bindings(text, ring)
        assert err.value.line == line
    # free: may come after nonzero:
    out = parse_bindings("nonzero: A\nB = 0\nfree: A, C", ring)
    assert out["nonzero"] == ["A"] and out["free"] == ["A", "C"]


def test_an_incomplete_relation_points_at_the_token_that_ends_it():
    text = "algebra t { vars: X, Y; order: 2;\n  relations: X^2, Y^; }"
    with pytest.raises(ParseError, match="expected 'INT'") as err:
        parse_specfile(text)
    assert (err.value.line, err.value.col) == (2, text.split("\n")[1].index(";") + 1)
    text = "algebra t { vars: X, Y; order: 2; relations: X^, Y^2; }"
    with pytest.raises(ParseError, match="expected 'INT'") as err:
        parse_specfile(text)
    assert (err.value.line, err.value.col) == (1, text.index("^,") + 2)
    with pytest.raises(ParseError, match="expected 'INT'") as err:
        parse_polynomial("X^", PolyRing(("X",), QQ))
    assert (err.value.line, err.value.col) == (1, 3)


@pytest.mark.parametrize(
    "text, message",
    [
        ("algebra t { vars: X, Y,; order: 2; relations: X^2, Y^2; }", "trailing ',' in vars"),
        (
            "algebra t { vars: X, Y; order: 2; relations: X^2, Y^2; precedence: Y > X >; }",
            "trailing '>' in precedence",
        ),
    ],
    ids=["vars", "precedence"],
)
def test_a_trailing_separator_is_rejected_in_every_name_list(text, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_specfile(text)
    assert err.value.col == text.index(",;" if "," in message else ">;") + 1


RELATIONS = "algebra t { vars: X, Y; order: 2; relations: %s; }"


@pytest.mark.parametrize(
    "relations, message, comma",
    [
        ("X^2,, Y^2", "empty item in relations", 4),
        (", X^2, Y^2", "empty item in relations", 0),
        ("X^2, Y^2,", "trailing ',' in relations", 8),
        ("X^2, (Y^2),", "trailing ',' in relations", 10),
    ],
    ids=["doubled", "leading", "trailing", "trailing-after-parens"],
)
def test_an_empty_relation_is_rejected_at_its_comma(relations, message, comma):
    # comma: the offending ',' as an index into relations
    text = RELATIONS % relations
    assert relations[comma] == ","
    with pytest.raises(ParseError, match=message) as err:
        parse_specfile(text)
    assert (err.value.line, err.value.col) == (1, text.index(relations) + comma + 1)


def test_an_empty_relation_list_is_allowed_and_an_empty_name_is_not():
    assert parse_specfile(RELATIONS % "")[0].relations == ()
    text = "algebra t { vars: X,, Y; order: 2; relations: ; }"
    with pytest.raises(ParseError, match="empty item in vars") as err:
        parse_specfile(text)
    assert err.value.col == text.index(",,") + 2


@pytest.mark.parametrize(
    "text, message, col",
    [
        ("free: A,, B", "empty item in free", 9),
        ("free: A, B,", "trailing ',' in free", 11),
        ("nonzero: ,", "empty item in nonzero", 10),
        ("free: A, D", "unknown symbol 'D'", 10),
        # the polynomial ends at the end of its line
        ("A = B +\nfree: C", "expected a polynomial factor, found 'EOF'", 8),
        ("A + 1", "expected 'SYMBOL = polynomial'", 3),
        ("D = 1", "unknown symbol 'D' in bindings", 1),
    ],
)
def test_bindings_errors_carry_one_true_position(text, message, col):
    ring = PolyRing(("A", "B", "C"), QQ)
    with pytest.raises(ParseError, match=message) as err:
        parse_bindings(text, ring)
    assert (err.value.line, err.value.col) == (1, col)
    assert str(err.value).count("(line ") == 1


def test_bindings_rules_point_at_the_offending_name():
    ring = PolyRing(("A", "B", "C"), QQ)
    for text, message, pos in (
        ("A = 1\n  A = 2", "'A' bound twice", (2, 3)),
        ("B = 0\nfree: A, B", "'B' is both bound and free", (2, 10)),
        ("free: A, B\n B = 0", "'B' is both bound and free", (2, 2)),
        ("free: A\nnonzero: A, B", "nonzero symbol 'B' is not listed under free:", (2, 13)),
    ):
        with pytest.raises(ParseError, match=message) as err:
            parse_bindings(text, ring)
        assert (err.value.line, err.value.col) == pos
    # comments and blank lines are skipped, and a list may be empty
    out = parse_bindings("# none bound\n\nfree:\nA = B  # bound\n", ring)
    assert out == {"bindings": {"A": ring.var("B")}, "free": [], "nonzero": []}


@pytest.mark.parametrize(
    "text, message, token",
    [
        ("algebra t { vars: X, Y; order: 0; relations: X^2; }", "order must be a positive integer", "0;"),
        ("algebra t { vars: ; order: 2; relations: ; }", "empty vars list in algebra 't'", ";"),
        ("algebra t { vars: X, Y; order: 2; }", "algebra 't' is missing the 'relations' entry", "}"),
        (
            "algebra t { vars: X, Y; order: 2; relations: Y^2, X^2 + 1; }",
            "relation X^2 + 1 has a nonzero constant term",
            "X^2 +",
        ),
        ("algebra t { vars: X, X; order: 2; relations: ; }", "duplicate variable 'X' in vars", "X;"),
        ("algebra t {\n  vars: X;\n  relations: X^2;\n  }", "algebra 't' is missing the 'order' entry", "}"),
        (
            "algebra t { vars: X; order: 1; relations: ; }\n"
            "algebra s { vars: X; order: 2; relations: ; }\n"
            "algebra t { vars: Y; order: 2; relations: ; }",
            "duplicate algebra name 't'",
            "t { vars: Y",
        ),
    ],
    ids=[
        "order",
        "empty-vars",
        "missing-relations",
        "constant-term",
        "duplicate-var",
        "missing-order",
        "duplicate-block",
    ],
)
def test_spec_errors_point_at_their_token(text, message, token):
    # token: the text the error must point at, found by its first occurrence
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse_specfile(text)
    at = text.index(token)
    line = text.count("\n", 0, at) + 1
    assert (err.value.line, err.value.col) == (line, at - text.rfind("\n", 0, at))
