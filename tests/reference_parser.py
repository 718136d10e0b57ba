"""The recursive-descent formula parser that biheyt.formulas.parse_formula
replaced, kept verbatim as the reference for the differential tests in
test_formulas.py. It recurses once per nesting level, so it is run only
on shallow inputs."""

from biheyt.errors import FormulaSyntaxError
from biheyt.formulas import BOT, TOP, Formula, atom, box, coimp, coneg, conj, dia, disj, imp, neg

_SYMBOLS = {
    "¬": "!",
    "∼": "~",
    "∧": "&",
    "∨": "|",
    "→": "->",
    "←": "<-",
    "□": "[]",
    "◇": "<>",
    "⊥": "_|_",
    "⊤": "T",
}


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((_SYMBOLS[ch], i))
            i += 1
            continue
        if text.startswith("_|_", i):
            tokens.append(("_|_", i))
            i += 3
            continue
        if text.startswith("->", i):
            tokens.append(("->", i))
            i += 2
            continue
        if text.startswith("<-", i):
            tokens.append(("<-", i))
            i += 2
            continue
        if text.startswith("[]", i):
            tokens.append(("[]", i))
            i += 2
            continue
        if text.startswith("<>", i):
            tokens.append(("<>", i))
            i += 2
            continue
        if ch in "!~&|()":
            tokens.append((ch, i))
            i += 1
            continue
        if ch == "T" and not (i + 1 < n and (text[i + 1].isalnum() or text[i + 1] == "_")):
            tokens.append(("T", i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((("ident", text[i:j]), i))
            i = j
            continue
        raise FormulaSyntaxError(i, "a connective, atom, or parenthesis", ch)
    tokens.append(("end", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def here(self) -> int:
        return self.tokens[self.pos][1]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok[0]

    def expect(self, tok: str):
        if self.peek() != tok:
            raise FormulaSyntaxError(self.here(), repr(tok), self._found())
        self.take()

    def _found(self) -> str:
        tok = self.peek()
        if tok == "end":
            return "end of input"
        if isinstance(tok, tuple):
            return tok[1]
        return tok

    def parse(self) -> Formula:
        f = self.implication()
        if self.peek() != "end":
            raise FormulaSyntaxError(
                self.here(), "end of input or a binary connective", self._found()
            )
        return f

    def implication(self) -> Formula:
        left = self.disjunction()
        while True:
            tok = self.peek()
            if tok == "->":
                self.take()
                # right associative: recurse at the same level
                return imp(left, self.implication())
            if tok == "<-":
                self.take()
                left = coimp(left, self.disjunction())
                continue
            return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek() == "|":
            self.take()
            left = disj(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.peek() == "&":
            self.take()
            left = conj(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.take()
            return neg(self.unary())
        if tok == "~":
            self.take()
            return coneg(self.unary())
        if tok == "[]":
            self.take()
            return box(self.unary())
        if tok == "<>":
            self.take()
            return dia(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok == "_|_":
            self.take()
            return BOT
        if tok == "T":
            self.take()
            return TOP
        if tok == "(":
            self.take()
            f = self.implication()
            self.expect(")")
            return f
        if isinstance(tok, tuple) and tok[0] == "ident":
            self.take()
            return atom(tok[1])
        raise FormulaSyntaxError(
            self.here(), "an atom, constant, unary connective, or '('", self._found()
        )


def reference_parse(text: str) -> Formula:
    return _Parser(text).parse()
