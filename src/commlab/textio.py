"""Canonical text forms for elements and terms, and their parser.

Elements: a(i,j)  b(i,j)  d(k)  c  t([e1,...,en],tag)
Terms:    x0  u(t)  upqr{p;q;r}(t)  f(t1,...,tn)  plus element literals
          as constant leaves.  Whitespace-insensitive.

The parser is a recursive descent over tokens with one token of lookahead.
Lists are read in their form's loop, so a nesting level costs one frame.
"""

from . import elements as el, terms as terms_mod
from .errors import ParseError


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Tokens and their starts: ``upqr``, a run of digits or one other
    character, whitespace between; ("", len(text)) ends the list."""
    tokens, pos, end = [], 0, len(text)
    while True:
        while pos < end and text[pos].isspace():
            pos += 1
        if pos == end:
            return tokens + [("", end)]
        stop = pos + 4 if text.startswith("upqr", pos) else pos + 1
        while text[pos].isdigit() and stop < end and text[stop].isdigit():
            stop += 1
        tokens.append((text[pos:stop], pos))
        pos = stop


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.starts = zip(*_tokenize(text))
        self.at = 0  # the lookahead token's index; it only moves forward

    def error(self, what: str) -> ParseError:
        return ParseError(what, self.starts[self.at])

    def accept(self, token: str) -> bool:
        found = self.tokens[self.at] == token
        self.at += found
        return found

    def expect(self, token: str) -> None:
        if not self.accept(token):
            raise self.error(f"expected {token!r}")

    def integer(self) -> int:
        token = self.tokens[self.at]
        if not token[:1].isdigit():
            raise self.error("expected an integer")
        self.at += 1
        return int(token)

    def seq(self, *parts) -> list:
        """Expect each string part and read each other part, a method."""
        values = []
        for part in parts:
            if isinstance(part, str):
                self.expect(part)
            else:
                values.append(part())
        return values

    def element(self) -> el.Element:
        head = self.tokens[self.at]
        if head not in ("a", "b", "c", "d", "t"):
            raise self.error("expected an element")
        self.at += 1
        if head == "c":
            return el.CConst()
        if head == "d":
            return el.DConst(*self.seq("(", self.integer, ")"))
        if head != "t":
            i, j = self.seq("(", self.integer, ",", self.integer, ")")
            return el.AGen(i, j) if head == "a" else el.BGen(i, j)
        self.seq("(", "[")
        args = [self.element()]
        while self.accept(","):
            args.append(self.element())
        return el.Tagged(tuple(args), *self.seq("]", ",", self.integer, ")"))

    def term(self) -> terms_mod.Term:
        head = self.tokens[self.at]
        if head not in ("x", "u", "f", "upqr"):
            return terms_mod.Const(self.element())
        self.at += 1
        if head == "x":
            return terms_mod.Var(self.integer())
        if head == "upqr":
            triple = self.seq("{", self.element, ";", self.element, ";", self.element, "}", "(")
        elif not self.accept("("):  # and no element starts with u or f
            raise ParseError("expected an element", self.starts[self.at - 1])
        args = [self.term()]
        while head == "f" and self.accept(","):
            args.append(self.term())
        self.expect(")")
        if head == "f":
            return terms_mod.FApp(tuple(args))
        return terms_mod.UApp(*args) if head == "u" else terms_mod.UPQRApp(*triple, *args)

    def end(self, value, form: str):
        if self.tokens[self.at]:
            raise self.error(f"trailing input after {form}")
        return value


def parse_element(text: str) -> el.Element:
    parser = _Parser(text)
    return parser.end(parser.element(), "element")


def parse_term(text: str) -> terms_mod.Term:
    parser = _Parser(text)
    return parser.end(parser.term(), "term")
