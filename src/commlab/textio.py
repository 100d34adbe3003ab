"""Canonical text forms for elements and terms, and their parser.

Elements: a(i,j)  b(i,j)  d(k)  c  t([e1,...,en],tag)
Terms:    x0  u(t)  upqr{p;q;r}(t)  f(t1,...,tn)  plus element literals
          as constant leaves.  Whitespace-insensitive; integers are runs of
          ASCII digits.

The parser is a recursive descent over tokens with one token of lookahead.
Lists are read in their form's loop, so a nesting level costs one frame.
"""

from . import elements as el, terms as terms_mod
from .errors import ParseError


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Tokens and their starts: ``upqr``, a run of ASCII digits or one other
    character, whitespace between; ("", len(text)) ends the list."""
    tokens, pos, end = [], 0, len(text)
    while True:
        while pos < end and text[pos].isspace():
            pos += 1
        if pos == end:
            return tokens + [("", end)]
        stop = pos + 4 if text.startswith("upqr", pos) else pos + 1
        while "0" <= text[pos] <= "9" and stop < end and "0" <= text[stop] <= "9":
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
        if not "0" <= token[:1] <= "9":  # other Unicode digits are no integer
            raise self.error("expected an integer")
        try:
            value = int(token)
        except ValueError:  # past the interpreter's limit on digits
            raise self.error("integer too long") from None
        self.at += 1
        return value

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
        head, start = self.tokens[self.at], self.starts[self.at]
        if head not in ("a", "b", "c", "d", "t"):
            raise self.error("expected an element")
        self.at += 1
        if head == "c":
            return el.CConst()
        if head == "t":
            self.seq("(", "[")
            args = [self.element()]
            while self.accept(","):
                args.append(self.element())
            return el.Tagged(tuple(args), *self.seq("]", ",", self.integer, ")"))
        if head == "d":
            make, indices = el.DConst, self.seq("(", self.integer, ")")
        else:
            make = el.AGen if head == "a" else el.BGen
            indices = self.seq("(", self.integer, ",", self.integer, ")")
        try:
            return make(*indices)
        except ValueError as exc:  # an index out of range, as in a(0,0)
            raise ParseError(str(exc), start) from None

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
