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

parse_formula is one loop over an explicit stack of pending operators
(precedence climbing), after a table-driven tokenizer, so like the
compiler it accepts any nesting depth.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .errors import FormulaSyntaxError, UnboundAtom, UnsupportedConnective
from .records import Record

UNARY = ("not", "conot", "box", "dia")
BINARY = ("and", "or", "imp", "coimp")

KRIPKE = frozenset({"atom", "bot", "top", "not", "and", "or", "imp", "box", "dia"})
INTUITIONISTIC = frozenset({"atom", "bot", "top", "not", "and", "or", "imp"})
DUAL = frozenset({"atom", "bot", "top", "conot", "and", "or", "coimp"})
# logic -> the connectives it interprets; kripke and topological share one
FRAGMENTS = {"kripke": KRIPKE, "topological": KRIPKE,
             "intuitionistic": INTUITIONISTIC, "dual": DUAL}

_UNARY_ASCII = {"not": "!", "conot": "~", "box": "[]", "dia": "<>"}


class Formula(Record):
    __slots__ = ()
    kind: str
    name: Optional[str] = None
    args: tuple["Formula", ...] = ()

    # Rendering, equality and hashing walk the tree without recursion;
    # the tuple versions recurse once per nesting level, in C for hash. A
    # pre-order walk with each node's arity fixes the tree, so equality
    # and hashing compare those walks. A leaf still equals, and hashes
    # as, the plain tuple it is; a compound formula equals no plain
    # tuple, since it hashes its walk and not the nested tuple.
    def __str__(self) -> str:
        return _render(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return False if self.args else tuple.__eq__(self, other)
        return all(f.kind == g.kind and f.name == g.name and len(f.args) == len(g.args)
                   for f, g in zip(self.walk(), other.walk()))

    def __ne__(self, other) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        if not self.args:  # a leaf hashes as the plain tuple it equals
            return tuple.__hash__(self)
        return hash(tuple((f.kind, f.name, len(f.args)) for f in self.walk()))

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


def _render(phi: Formula) -> str:
    """ASCII text of phi with the fewest parentheses that parse back to
    it. A left operand needs them when its _INFIX strength is below the
    operator's need, a right operand when its need is at most the
    operator's strength (a prefix has strength 5). Stack items are text
    or (subformula, parenthesize?) and come off in order."""
    out: list[str] = []
    stack: list = [(phi, False)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        f, parens = item
        if parens:
            out.append("(")
            stack.append(")")
        if f.kind == "atom":
            out.append(f.name)
        elif f.kind == "bot":
            out.append("_|_")
        elif f.kind == "top":
            out.append("T")
        elif f.kind in UNARY:
            out.append(_UNARY_ASCII[f.kind])
            stack.append((f.args[0], f.args[0].kind in _INFIX_BY_KIND))
        else:
            strength, need, text = _INFIX_BY_KIND[f.kind]
            a, b = f.args
            stack += [
                (b, b.kind in _INFIX_BY_KIND and _INFIX_BY_KIND[b.kind][1] <= strength),
                text,
                (a, a.kind in _INFIX_BY_KIND and _INFIX_BY_KIND[a.kind][0] < need),
            ]
    return "".join(out)


# --- parser ----------------------------------------------------------------

# literal text -> token: an ASCII operator string, or a constant. No
# literal is a prefix of a longer one, so the tokenizer tries the
# shortest first; none starts with a letter, so identifiers go first.
_LITERALS = {
    "!": "!", "~": "~", "&": "&", "|": "|", "(": "(", ")": ")",
    "->": "->", "<-": "<-", "[]": "[]", "<>": "<>",
    "¬": "!", "∼": "~", "∧": "&", "∨": "|", "→": "->", "←": "<-",
    "□": "[]", "◇": "<>", "_|_": BOT, "⊥": BOT, "⊤": TOP,
}
_PREFIX = {"!": "not", "~": "conot", "[]": "box", "<>": "dia"}
# binary token -> (strength, need, kind). A pending operator is reduced
# when the next one's need is at most its strength, so & and | group to
# the left, -> to the right, and <- to the left while staying inside
# the right operand of a pending ->. Prefixes have strength 5 and an
# open parenthesis 0; any other token has need 1, so it closes every
# operator pending since the innermost open parenthesis.
_INFIX = {"->": (1, 2, "imp"), "<-": (2, 2, "coimp"), "|": (3, 3, "or"), "&": (4, 4, "and")}
# binary kind -> (strength, need, its text between the operands), for _render
_INFIX_BY_KIND = {kind: (strength, need, f" {tok} ")
                  for tok, (strength, need, kind) in _INFIX.items()}


def _tokenize(text: str) -> list[tuple[object, int]]:
    """(token, position) pairs ending in (None, len(text))."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_" and not text.startswith("_|_", i):
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append((TOP if word == "T" else atom(word), i))
            i = j
            continue
        for size in (1, 2, 3):
            tok = _LITERALS.get(text[i : i + size])
            if tok is not None:
                tokens.append((tok, i))
                i += size
                break
        else:
            raise FormulaSyntaxError(i, "a connective, atom, or parenthesis", ch)
    tokens.append((None, n))
    return tokens


def _found(tok) -> str:
    return "end of input" if tok is None else str(tok)


def parse_formula(text: str) -> Formula:
    """One loop over an explicit stack of pending operators, each with
    its left operand; nesting depth is bounded only by memory."""
    tokens = _tokenize(text)
    pending: list[tuple[int, str, Optional[Formula]]] = []
    i = 0
    while True:
        tok, pos = tokens[i]
        i += 1
        if tok in _PREFIX:
            pending.append((5, _PREFIX[tok], None))
            continue
        if tok == "(":
            pending.append((0, "(", None))
            continue
        if not isinstance(tok, Formula):
            raise FormulaSyntaxError(
                pos, "an atom, constant, unary connective, or '('", _found(tok)
            )
        operand = tok
        while True:
            tok, pos = tokens[i]
            i += 1
            strength, need, kind = _INFIX.get(tok, (0, 1, None))
            while pending and pending[-1][0] >= need:
                _, op, left = pending.pop()
                operand = Formula(op, args=(operand,) if left is None else (left, operand))
            if kind is not None:
                pending.append((strength, kind, operand))
                break
            if tok == ")" and pending:
                pending.pop()
                continue
            if tok is None and not pending:
                return operand
            expected = "')'" if pending else "end of input or a binary connective"
            raise FormulaSyntaxError(pos, expected, _found(tok))


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
