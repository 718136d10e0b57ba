"""Record, the one base of the value types: a tuple with named fields.

A subclass declares __slots__ = () and annotates its fields, with
optional defaults, as for typing.NamedTuple, but no annotation is
evaluated and no source text is compiled. Each field gets collections'
C-level getter, and __new__ is the constructor below for the field
count, its parameters renamed to the fields, so arguments bind in C.
"""

from collections import _tuplegetter
from types import FunctionType

_new = tuple.__new__
_CONSTRUCTORS = (  # by field count, 1 to 6
    lambda cls, a: _new(cls, (a,)),
    lambda cls, a, b: _new(cls, (a, b)),
    lambda cls, a, b, c: _new(cls, (a, b, c)),
    lambda cls, a, b, c, d: _new(cls, (a, b, c, d)),
    lambda cls, a, b, c, d, e: _new(cls, (a, b, c, d, e)),
    lambda cls, a, b, c, d, e, f: _new(cls, (a, b, c, d, e, f)),
)


class Record(tuple):
    __slots__ = ()

    def __init_subclass__(cls):
        body = vars(cls)
        cls._fields = fields = tuple(body.get("__annotations__", ()))
        code = _CONSTRUCTORS[len(fields) - 1].__code__
        code = code.replace(co_name="__new__", co_varnames=("cls", *fields))
        defaults = tuple(body[name] for name in fields if name in body)
        new = FunctionType(code, globals(), "__new__", defaults)
        new.__qualname__ = f"{cls.__qualname__}.__new__"
        cls.__new__ = staticmethod(new)
        for index, name in enumerate(fields):
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({shown})"

    def _replace(self, **changes):
        values = tuple(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return _new(type(self), values)

    def __getnewargs__(self):
        return tuple(self)
