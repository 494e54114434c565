"""Value classes built from closures instead of generated source.

``record`` gives an annotated class what ``dataclasses.dataclass(frozen=True)``
gives it: ``__init__`` (then ``__post_init__``), field-wise ``__eq__`` and
``__hash__``, ``QualName(f=...)`` repr and assignment that raises.  Each
method is a closure over the class's field-name tuple ``_fields``; nothing
is compiled with ``exec``, and ``dataclasses`` (which imports ``inspect``
and ``ast``) is never imported.  Short CLI processes pay for every class
quotlat defines, so this keeps ``import quotlat.cli`` cheap.  ``replace``
copies a record with some fields changed, as ``dataclasses.replace`` does.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()
_setattr = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assignment to or deletion of an attribute of a frozen record."""


class factory:
    """Field default built afresh for each instance, as in ``verdicts: dict = factory(dict)``."""

    def __init__(self, make):
        self.make = make


def record(cls):
    """Class decorator: fields are the annotations along the MRO, bases first."""
    spec = {}
    for base in reversed(cls.__mro__[1:]):
        if "_fields" in vars(base):
            spec.update((n, base._field_defaults.get(n, _MISSING)) for n in base._fields)
    for n in vars(cls).get("__annotations__", {}):
        spec[n] = getattr(cls, n, _MISSING)
        if isinstance(vars(cls).get(n), factory):
            delattr(cls, n)
    names = tuple(spec)
    defaults = {n: d for n, d in spec.items() if d is not _MISSING}
    qualname, post_init = cls.__qualname__, hasattr(cls, "__post_init__")
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda obj: (get(obj),)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{qualname}() takes {len(names)} arguments but {len(args)} were given")
        for n, v in zip(names, args):
            _setattr(self, n, v)
        for n in names[len(args) :]:
            if n in kwargs:
                _setattr(self, n, kwargs.pop(n))
            elif n in defaults:
                d = defaults[n]
                _setattr(self, n, d.make() if isinstance(d, factory) else d)
            else:
                raise TypeError(f"{qualname}() missing argument {n!r}")
        if kwargs:
            n = next(iter(kwargs))
            why = "multiple values for" if n in names else "an unexpected keyword"
            raise TypeError(f"{qualname}() got {why} argument {n!r}")
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({inner})"

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__, cls.__setattr__, cls.__delattr__ = __hash__, __setattr__, __delattr__
    cls._fields, cls._field_defaults = names, defaults
    return cls


def replace(obj, **changes):
    """obj with the named fields changed, rebuilt so ``__post_init__`` checks it."""
    return obj.__class__(**{**{n: getattr(obj, n) for n in obj._fields}, **changes})
