"""Immutable value classes built from methods written once.

`frozen` gives a class what `dataclasses.dataclass(frozen=True)` gives it:
an `__init__` over its fields that then calls `__post_init__`, and
`__eq__`, `__hash__` and `__repr__` over the fields, and it refuses
assignment and deletion. It compiles no code per class, so importing the
package loads neither `dataclasses` nor `inspect`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable


class factory:
    """A field default made afresh for each instance by calling `make`."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[], Any]) -> None:
        self.make = make


def frozen(cls: type) -> type:
    """`cls`, made an immutable value class.

    Its fields are its annotated names, in order, less those that start with
    `_`. A class attribute of a field's name is its default (a `factory`
    makes one per instance). A method the class defines itself is kept.
    """
    names = tuple(name for name in cls.__dict__.get("__annotations__", {})
                  if not name.startswith("_"))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    fieldset = frozenset(names)
    post = getattr(cls, "__post_init__", None)
    n = len(names)
    get = attrgetter(*names)
    # the field values as a tuple; attrgetter of one name gives the bare value
    values = get if n > 1 else lambda self: (get(self),)

    # The two fast paths, every field given by position or every field by
    # name, bind nothing and fill no default.
    def __init__(self, *args, **kwargs):
        if len(args) == n and not kwargs:
            bound = zip(names, args)
        elif args or kwargs.keys() != fieldset:
            bound = _bind(cls, names, defaults, args, kwargs)
        else:
            bound = kwargs
        self.__dict__.update(bound)
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{type(self).__qualname__}({shown})"

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": __hash__,
               "__repr__": __repr__, "__setattr__": _refuse_assignment,
               "__delattr__": _refuse_deletion}
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def _bind(cls: type, names: tuple[str, ...], defaults: dict[str, Any], args: tuple,
          kwargs: dict[str, Any]) -> dict[str, Any]:
    """The field values of a call `cls(*args, **kwargs)`."""
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, "
                        f"but {len(args)} were given")
    given = dict(zip(names, args))
    for name in kwargs:
        if name not in names or name in given:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
    given.update(kwargs)
    for name in names:
        if name not in given:
            if name not in defaults:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
            default = defaults[name]
            given[name] = default.make() if isinstance(default, factory) else default
    return given


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
