"""Propositional formulas with two negations, two implications, and
modal operators.

Connective kinds: atom, bot, top, not (¬), conot (∼), and (∧), or (∨),
imp (→), coimp (←), box (□), dia (◇). The intuitionistic negation ¬
and the dual co-negation ∼ are distinct nodes on purpose: the
evaluators reject the fragment they do not interpret instead of
coercing one negation into the other.

compile_formula is the one compiler behind every evaluator except the
recursive references (kripke_eval, topo_eval). It checks a formula
against a fragment (FRAGMENTS: the Kripke/topological, intuitionistic
and dual connectives) and turns it into a post-order node list with
indexed atoms, iteratively, so nesting depth is bounded only by memory.

Concrete syntax (ASCII aliases in parentheses): unary ¬ (!), ∼ (~),
□ ([]), ◇ (<>) bind tightest, then ∧ (&), then ∨ (|), then → (->,
right associative) and ← (<-, left associative) at the loosest level.
⊥ is _|_ and ⊤ is T. Atoms are lowercase identifiers.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import FormulaSyntaxError, UnboundAtom, UnsupportedConnective

UNARY = ("not", "conot", "box", "dia")
BINARY = ("and", "or", "imp", "coimp")

KRIPKE = frozenset({"atom", "bot", "top", "not", "and", "or", "imp", "box", "dia"})
INTUITIONISTIC = frozenset({"atom", "bot", "top", "not", "and", "or", "imp"})
DUAL = frozenset({"atom", "bot", "top", "conot", "and", "or", "coimp"})
# logic -> the connectives it interprets; kripke and topological share one
FRAGMENTS = {"kripke": KRIPKE, "topological": KRIPKE,
             "intuitionistic": INTUITIONISTIC, "dual": DUAL}

_UNARY_ASCII = {"not": "!", "conot": "~", "box": "[]", "dia": "<>"}
_BINARY_ASCII = {"and": "&", "or": "|", "imp": "->", "coimp": "<-"}
_PREC = {"imp": 1, "coimp": 1, "or": 2, "and": 3}


class Formula(NamedTuple):
    kind: str
    name: Optional[str] = None
    args: tuple["Formula", ...] = ()

    def __str__(self) -> str:
        return _render(self, 0)

    def walk(self) -> Iterator["Formula"]:
        """Every subformula occurrence, pre-order, without recursion."""
        stack = [self]
        while stack:
            f = stack.pop()
            yield f
            stack.extend(reversed(f.args))

    def atoms(self) -> set[str]:
        return {f.name for f in self.walk() if f.kind == "atom"}

    def connective_count(self) -> int:
        return sum(1 for f in self.walk() if f.args)


BOT = Formula("bot")
TOP = Formula("top")


def atom(name: str) -> Formula:
    return Formula("atom", name=name)


def neg(f: Formula) -> Formula:
    return Formula("not", args=(f,))


def coneg(f: Formula) -> Formula:
    return Formula("conot", args=(f,))


def conj(a: Formula, b: Formula) -> Formula:
    return Formula("and", args=(a, b))


def disj(a: Formula, b: Formula) -> Formula:
    return Formula("or", args=(a, b))


def imp(a: Formula, b: Formula) -> Formula:
    return Formula("imp", args=(a, b))


def coimp(a: Formula, b: Formula) -> Formula:
    return Formula("coimp", args=(a, b))


def box(f: Formula) -> Formula:
    return Formula("box", args=(f,))


def dia(f: Formula) -> Formula:
    return Formula("dia", args=(f,))


def _render(f: Formula, parent_prec: int) -> str:
    if f.kind == "atom":
        return f.name
    if f.kind == "bot":
        return "_|_"
    if f.kind == "top":
        return "T"
    if f.kind in UNARY:
        return _UNARY_ASCII[f.kind] + _render(f.args[0], 4)
    prec = _PREC[f.kind]
    a, b = f.args
    if f.kind == "imp":
        # right associative; a bare coimp is fine on the left, an imp is not
        left = _render(a, 1 if a.kind == "coimp" else 2)
        right = _render(b, 1)
    elif f.kind == "coimp":
        # left associative
        left = _render(a, 1 if a.kind == "coimp" else 2)
        right = _render(b, 2)
    else:
        left, right = _render(a, prec), _render(b, prec + 1)
    text = f"{left} {_BINARY_ASCII[f.kind]} {right}"
    return f"({text})" if prec < parent_prec else text


# --- tokenizer -------------------------------------------------------------

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


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse()


def compile_formula(
    phi: Formula, logic: str, names: Optional[Sequence[str]] = None
) -> tuple[list[tuple], list[str]]:
    """Post-order node list of phi and the atom names it is evaluated
    over (the given names, else phi's atoms sorted). A node is
    ("atom", j) for names[j], or its kind followed by the indices of
    its children's nodes. The walk is iterative, and a connective
    outside FRAGMENTS[logic] or an atom outside names is rejected
    before anything is evaluated."""
    fragment = FRAGMENTS[logic]
    nodes: list[tuple] = []
    done: list[int] = []  # node indices of the finished subformulas
    stack = [(phi, False)]
    while stack:
        f, ready = stack.pop()
        if f.kind not in fragment:
            raise UnsupportedConnective(f.kind, logic)
        if f.args and not ready:
            stack.append((f, True))
            stack.extend((a, False) for a in reversed(f.args))
            continue
        if f.kind == "atom":
            nodes.append(("atom", f.name))
        else:
            split = len(done) - len(f.args)
            nodes.append((f.kind, *done[split:]))
            del done[split:]
        done.append(len(nodes) - 1)
    if names is None:
        names = sorted({node[1] for node in nodes if node[0] == "atom"})
    index = {name: j for j, name in enumerate(names)}
    prog = []
    for node in nodes:
        if node[0] == "atom":
            if node[1] not in index:
                raise UnboundAtom(node[1])
            node = ("atom", index[node[1]])
        prog.append(node)
    return prog, list(names)


def enumerate_formulas(
    max_connectives: int,
    atoms: tuple[str, ...],
    with_constants: bool = True,
    kinds: tuple[str, ...] = ("not", "box", "dia", "and", "or", "imp"),
) -> Iterator[Formula]:
    """All formulas with up to max_connectives connective nodes over the
    given atoms, smallest first, deterministic order."""
    leaves: list[Formula] = [atom(a) for a in atoms]
    if with_constants:
        leaves += [BOT, TOP]
    levels: list[list[Formula]] = [leaves]
    yield from leaves
    for size in range(1, max_connectives + 1):
        level: list[Formula] = []
        for kind in kinds:
            if kind in UNARY:
                for f in levels[size - 1]:
                    level.append(Formula(kind, args=(f,)))
            else:
                for ls in range(size):
                    rs = size - 1 - ls
                    for a in levels[ls]:
                        for b in levels[rs]:
                            level.append(Formula(kind, args=(a, b)))
        levels.append(level)
        yield from level
