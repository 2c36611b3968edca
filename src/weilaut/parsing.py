"""Text formats: algebra spec files, polynomial syntax, bindings files.

Spec files hold one or more blocks:

    algebra quartic { vars: X, Y; order: 4;
                      relations: X^3*Y, X^2*Y^2, Y^4, X^3 - Y^3;
                      precedence: Y > X; }

Polynomials use ^ for powers; * is optional between factors, and a bare name
like XY is split greedily against the declared variables. Bindings files are
line oriented: "SYMBOL = polynomial", plus "free:" and "nonzero:" name lists.
A # starts a comment. Both formats share one tokenizer, which gives every
error its line and column, and one list reader (_split_list): an empty
item or a trailing separator is an error, and an empty list is allowed.
"""

from .scalar import QQ, field_div
from .poly import PolyRing, Polynomial
from .weil import AlgebraSpec

_PUNCT = "{}();:,+-*^/>="


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "%s (line %d, col %d)" % (message, line, col)
        super().__init__(message)
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        if t[0] != "EOF":
            self.pos += 1
        return t

    def expect(self, kind, value=None):
        t = self.peek()
        if t[0] != kind or (value is not None and t[1] != value):
            want = value if value is not None else kind
            raise ParseError("expected %r, found %r" % (want, t[1] or t[0]), t[2], t[3])
        return self.next()

    def at(self, kind, value=None):
        t = self.peek()
        return t[0] == kind and (value is None or t[1] == value)


def _split_name(name, ring, line, col):
    """Greedy split of a bare name like XY into declared variables."""
    if name in ring.index:
        return [name]
    out = []
    rest = name
    variables = sorted(ring.vars, key=len, reverse=True)
    while rest:
        for v in variables:
            if rest.startswith(v):
                out.append(v)
                rest = rest[len(v):]
                break
        else:
            raise ParseError("unknown symbol %r" % name, line, col)
    return out


class _PolyParser:
    """order, when given, is the algebra's truncation order: a power of a
    base with several terms then drops its terms of degree above it, which
    lie in the ideal, as it multiplies."""

    def __init__(self, stream, ring, order=None):
        self.s = stream
        self.ring = ring
        self.order = order

    def parse_expr(self):
        s = self.s
        negate = False
        if s.at("-"):
            s.next()
            negate = True
        elif s.at("+"):
            s.next()
        p = self.parse_term()
        if negate:
            p = -p
        while s.at("+") or s.at("-"):
            op = s.next()[0]
            q = self.parse_term()
            p = p + q if op == "+" else p - q
        return p

    def parse_term(self):
        s = self.s
        p = self.parse_factor()
        while True:
            if s.at("*"):
                s.next()
                p = p * self.parse_factor()
            elif s.at("/"):
                t = s.next()
                q = self.parse_factor()
                if not q.is_constant() or not q:
                    raise ParseError("division only by nonzero constants", t[2], t[3])
                p = p * field_div(1, q.constant_value())
            elif s.at("NAME") or s.at("INT") or s.at("("):
                p = p * self.parse_factor()
            else:
                return p

    def parse_factor(self):
        s = self.s
        t = s.peek()
        if t[0] == "-":
            s.next()
            return -self.parse_factor()
        if t[0] == "INT":
            s.next()
            base = self.ring.const(int(t[1]))
            return self._maybe_power(base)
        if t[0] == "(":
            s.next()
            p = self.parse_expr()
            s.expect(")")
            return self._maybe_power(p)
        if t[0] == "NAME":
            s.next()
            names = _split_name(t[1], self.ring, t[2], t[3])
            p = self.ring.one()
            for v in names[:-1]:
                p = p * self.ring.var(v)
            last = self.ring.var(names[-1])
            return p * self._maybe_power(last)
        raise ParseError("expected a polynomial factor, found %r" % (t[1] or t[0]), t[2], t[3])

    def _maybe_power(self, base):
        s = self.s
        if not s.at("^"):
            return base
        s.next()
        n = int(s.expect("INT")[1])
        if self.order is None or len(base.terms) == 1:
            return base ** n
        # square and multiply, cutting every product back to the order
        out = self.ring.one()
        base = self._truncated(base)
        while n:
            if n & 1:
                out = self._truncated(out * base)
            n >>= 1
            if n:
                base = self._truncated(base * base)
        return out

    def _truncated(self, p):
        return Polynomial(self.ring, {e: c for e, c in p.terms.items() if sum(e) <= self.order})


def parse_polynomial(text, ring):
    return _parse_poly_tokens(_tokenize(text), ring)


def _parse_poly_tokens(tokens, ring, order=None):
    """The polynomial spelled by tokens, which end with an EOF token; order
    truncates powers as _PolyParser says."""
    stream = _TokenStream(tokens)
    p = _PolyParser(stream, ring, order).parse_expr()
    t = stream.peek()
    if t[0] != "EOF":
        raise ParseError("trailing input %r" % (t[1],), t[2], t[3])
    return p


def _split_list(tokens, end, what, sep=","):
    """The items of a list like X^2, Y^2 (or Y > X with sep '>').

    Each item is the group of tokens between two top-level separators,
    closed by an EOF token at the position of the separator or of end that
    follows it. No tokens make the empty list; an empty item is an error at
    the separator that closes it, a trailing separator an error at itself.
    """
    if not tokens:
        return []
    items = []
    item = []
    depth = 0
    for t in tokens + [end]:
        if t[0] == "(":
            depth += 1
        elif t[0] == ")":
            depth -= 1
        if t is end or (t[0] == sep and depth == 0):
            if not item:
                if t is end:
                    t = tokens[-1]
                    raise ParseError("trailing %r in %s" % (sep, what), t[2], t[3])
                raise ParseError("empty item in %s" % what, t[2], t[3])
            items.append(item + [("EOF", "", t[2], t[3])])
            item = []
        else:
            item.append(t)
    return items


def _name_tokens(tokens, end, what, sep=","):
    """The NAME tokens of a list of names like X, Y (or Y > X with sep '>')."""
    names = []
    for item in _split_list(tokens, end, what, sep):
        t = item[0]
        if t[0] != "NAME":
            raise ParseError("expected a name in %s" % what, t[2], t[3])
        names.append(t)
        t = item[1]
        if t[0] != "EOF":
            raise ParseError("expected %r in %s" % (sep, what), t[2], t[3])
    return names


def parse_specfile(text):
    """Parse every algebra block in the text; returns a list of AlgebraSpec."""
    s = _TokenStream(_tokenize(text))
    specs = []
    while not s.at("EOF"):
        s.expect("NAME", "algebra")
        name_tok = s.expect("NAME")
        name = name_tok[1]
        if any(spec.name == name for spec in specs):
            raise ParseError("duplicate algebra name %r" % name, name_tok[2], name_tok[3])
        s.expect("{")
        entries = {}
        while not s.at("}"):
            key_tok = s.expect("NAME")
            key = key_tok[1]
            s.expect(":")
            toks = []
            while not s.at(";"):
                if s.at("EOF") or s.at("}"):
                    t = s.peek()
                    raise ParseError("missing ';' after %r entry" % key, t[2], t[3])
                toks.append(s.next())
            end = s.expect(";")
            if key in entries:
                raise ParseError("duplicate %r entry" % key, key_tok[2], key_tok[3])
            entries[key] = (toks, key_tok, end)
        close = s.expect("}")
        specs.append(_build_spec(name, entries, close))
    if not specs:
        raise ParseError("no algebra block found")
    return specs


def _build_spec(name, entries, close):
    """One block's AlgebraSpec. AlgebraSpec's checks are made here first, each
    at the token it is about; close is the block's closing '}'."""
    for key, (_, kt, _) in entries.items():
        if key not in ("vars", "order", "relations", "precedence"):
            raise ParseError("unknown entry %r" % key, kt[2], kt[3])
    for key in ("vars", "order", "relations"):
        if key not in entries:
            raise ParseError("algebra %r is missing the %r entry" % (name, key), close[2], close[3])
    toks, _, end = entries["vars"]
    variables = []
    for t in _name_tokens(toks, end, "vars"):
        if t[1] in variables:
            raise ParseError("duplicate variable %r in vars" % t[1], t[2], t[3])
        variables.append(t[1])
    if not variables:
        raise ParseError("empty vars list in algebra %r" % name, end[2], end[3])
    otoks = entries["order"][0]
    if len(otoks) != 1 or otoks[0][0] != "INT" or int(otoks[0][1]) < 1:
        t = otoks[0] if otoks else entries["order"][1]
        raise ParseError("order must be a positive integer", t[2], t[3])
    order = int(otoks[0][1])
    precedence = None
    if "precedence" in entries:
        toks, _, end = entries["precedence"]
        precedence = [t[1] for t in _name_tokens(toks, end, "precedence", ">")]
        if sorted(precedence) != sorted(variables):
            t = entries["precedence"][1]
            raise ParseError("precedence must list every variable exactly once", t[2], t[3])
    ring = PolyRing(tuple(variables), QQ, tuple(precedence) if precedence else None)
    toks, _, end = entries["relations"]
    relations = []
    constant = (0,) * len(variables)
    for item in _split_list(toks, end, "relations"):
        p = _parse_poly_tokens(item, ring, order)
        if constant in p.terms:
            t = item[0]
            raise ParseError("relation %r has a nonzero constant term" % (p,), t[2], t[3])
        relations.append(p)
    return AlgebraSpec(name, variables, order, relations, precedence)


def parse_bindings(text, ring):
    """Bindings file: SYMBOL = polynomial, free: names, nonzero: names.

    A symbol is either bound or free: naming a bound symbol under free:
    (before or after its binding) is an error. Every nonzero: name must be
    listed under free:, anywhere in the file.
    """
    lines = {}
    for t in _tokenize(text)[:-1]:
        lines.setdefault(t[2], []).append(t)
    bindings = {}
    free = []
    nonzero = []
    first_nonzero = {}
    for toks in lines.values():
        last = toks[-1]
        end = ("EOF", "", last[2], last[3] + len(last[1]))
        head = toks[0]
        kind = head[1]
        if kind in ("free", "nonzero") and len(toks) > 1 and toks[1][0] == ":":
            for t in _name_tokens(toks[2:], end, kind):
                name = t[1]
                if name not in ring.index:
                    raise ParseError("unknown symbol %r" % name, t[2], t[3])
                if kind == "nonzero":
                    first_nonzero.setdefault(name, t)
                    nonzero.append(name)
                elif name in bindings:
                    raise ParseError("symbol %r is both bound and free" % name, t[2], t[3])
                else:
                    free.append(name)
            continue
        eq = toks[1] if len(toks) > 1 else end
        if head[0] != "NAME" or eq[0] != "=":
            t = eq if head[0] == "NAME" else head
            raise ParseError("expected 'SYMBOL = polynomial'", t[2], t[3])
        sym = head[1]
        if sym not in ring.index:
            raise ParseError("unknown symbol %r in bindings" % sym, head[2], head[3])
        if sym in bindings:
            raise ParseError("symbol %r bound twice" % sym, head[2], head[3])
        if sym in free:
            raise ParseError("symbol %r is both bound and free" % sym, head[2], head[3])
        bindings[sym] = _parse_poly_tokens(toks[2:] + [end], ring)
    for name, t in first_nonzero.items():
        if name not in free:
            raise ParseError("nonzero symbol %r is not listed under free:" % name, t[2], t[3])
    return {"bindings": bindings, "free": free, "nonzero": nonzero}
