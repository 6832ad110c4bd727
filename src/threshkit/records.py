"""Frozen value classes without the dataclasses module.

dataclasses imports inspect, and with it ast, dis and tokenize: about
0.9 MB of resident memory and a third of the CLI's import time, for
nothing threshkit uses. frozen() supplies what it does use.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["frozen"]


def frozen(cls: type) -> type:
    """Make cls an immutable value class over its annotated fields.

    Adds an __init__ that takes the fields in order, with a class attribute
    as the field's default, and ends by calling __post_init__ if cls has
    one; equality and hashing by field values between instances of the
    same class; a repr; and attributes that cannot be set or deleted.
    """
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    params = "".join(f", {f}=_defaults[{f!r}]" if f in defaults else f", {f}" for f in fields)
    body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    scope = {"_set": object.__setattr__, "_defaults": defaults}
    exec(f"def __init__(self{params}):{body}", scope)
    key = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {cls.__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {cls.__name__}.{name}")

    for method in (scope["__init__"], __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
