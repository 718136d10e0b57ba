"""Exception types shared across the package.

Every error raised on malformed or out-of-range input derives from
BiheytError, so callers (notably the CLI) can distinguish bad input
from genuine bugs. Errors that have a finite witness carry it as
attributes in addition to the message.
"""


class BiheytError(Exception):
    """Base class for all structure and input errors."""


class NotAPartialOrder(BiheytError):
    def __init__(self, a, b):
        self.pair = (a, b)
        super().__init__(f"antisymmetry fails: {a} <= {b} and {b} <= {a}")


class NotALattice(BiheytError):
    def __init__(self, a, b, which):
        self.pair = (a, b)
        self.which = which  # 'meet' or 'join'
        super().__init__(f"elements {a}, {b} have no unique {which}")


class NotBounded(BiheytError):
    pass


class NotDistributive(BiheytError):
    def __init__(self, a, b, c):
        self.triple = (a, b, c)
        super().__init__(
            f"distributivity fails at ({a}, {b}, {c}): "
            f"a∧(b∨c) != (a∧b)∨(a∧c)"
        )


class MissingEmptyOrFull(BiheytError):
    pass


class NotClosedUnderIntersection(BiheytError):
    def __init__(self, s, t):
        self.witness = (s, t)
        super().__init__(
            f"intersection of opens {s:#b} and {t:#b} is not open"
        )


class NotClosedUnderUnion(BiheytError):
    def __init__(self, s, t):
        self.witness = (s, t)
        super().__init__(f"union of opens {s:#b} and {t:#b} is not open")


class BoundExceeded(BiheytError):
    def __init__(self, what, requested, bound):
        self.what = what
        self.requested = requested
        self.bound = bound
        super().__init__(f"{what} {requested} exceeds configured bound {bound}")


class WrongKind(BiheytError):
    pass


class UnknownOption(BiheytError, ValueError):
    """A mode, semantics or property name outside the supported set."""

    def __init__(self, what, value, choices):
        self.what = what
        self.value = value
        self.choices = tuple(choices)
        super().__init__(
            f"unknown {what} {value!r}; expected one of {', '.join(self.choices)}"
        )


class NotAHomomorphism(BiheytError):
    def __init__(self, op, a, b):
        self.op = op
        self.pair = (a, b)
        super().__init__(f"map does not preserve {op} at ({a}, {b})")


class NotACongruence(BiheytError):
    def __init__(self, op, witness):
        self.op = op
        self.witness = witness
        super().__init__(f"relation is not compatible with {op} at {witness}")


class UnsupportedConnective(BiheytError):
    def __init__(self, kind, context):
        self.kind = kind
        super().__init__(f"connective {kind!r} is not part of the {context} fragment")


class UnboundAtom(BiheytError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"atom {name!r} has no assigned value")


class FormulaSyntaxError(BiheytError):
    def __init__(self, position, expected, found):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            f"at position {position}: expected {expected}, found {found!r}"
        )


class ParseError(BiheytError):
    """Malformed structure file; line_no is None when no line is at fault
    (a missing, unreadable or empty file)."""

    def __init__(self, line_no, reason):
        self.line_no = line_no
        self.reason = reason
        super().__init__(reason if line_no is None else f"line {line_no}: {reason}")
