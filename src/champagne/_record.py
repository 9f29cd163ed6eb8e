"""Frozen records: the methods a frozen dataclass gets, installed as
closures over the field names, so that defining a record compiles no code.

``record`` reads the class's own annotations, in order (names only), and
its class-level defaults, plain values or :func:`field` specs.  It installs
``__init__`` (positional and keyword arguments, defaults and factories,
``init=False`` fields left to ``__post_init__``, which runs last),
``__repr__`` (``Name(a=..., b=...)`` over the ``repr`` fields), ``__eq__``
and ``__hash__`` over the ``compare`` fields for instances of the same
class (``eq=False`` keeps identity), and a ``__setattr__`` and
``__delattr__`` that refuse.  Instances keep their ``__dict__``, so
``functools.cached_property`` and memos kept in ``vars(record)`` work.
"""

from __future__ import annotations

import operator

_MISSING = object()


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class field:
    """A field spec: a default or a zero-argument factory, and whether the
    field is an ``__init__`` argument, shown by ``repr`` and compared."""

    __slots__ = ("name", "default", "default_factory", "init", "repr", "compare")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING, init=True, repr=True, compare=True):
        self.name = ""
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare


def _values(names: tuple):
    """A function giving the tuple of an instance's ``names`` attributes."""
    if len(names) > 1:
        return operator.attrgetter(*names)
    return lambda obj: tuple([getattr(obj, name) for name in names])


def _refuse_set(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _make_init(fields: list, post_init):
    args = [f for f in fields if f.init]
    names = tuple(f.name for f in args)

    def bind(cls_name, given, kwargs):
        if len(given) > len(names):
            raise TypeError(f"{cls_name}() takes {len(names)} positional arguments but {len(given)} were given")
        values = dict(zip(names, given))
        for key, value in kwargs.items():
            if key not in names:
                raise TypeError(f"{cls_name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{cls_name}() got multiple values for argument {key!r}")
            values[key] = value
        for f in args[len(given):]:
            if f.name in values:
                continue
            if f.default is not _MISSING:
                values[f.name] = f.default
            elif f.default_factory is not _MISSING:
                values[f.name] = f.default_factory()
            else:
                raise TypeError(f"{cls_name}() missing required argument {f.name!r}")
        return values

    def __init__(self, *given, **kwargs):
        state = self.__dict__
        if len(given) == len(names) and not kwargs:
            state.update(zip(names, given))
        else:
            state.update(bind(type(self).__name__, given, kwargs))
        if post_init is not None:
            post_init(self)

    return __init__


def record(cls=None, *, eq: bool = True, init: bool = True):
    """Make ``cls`` a frozen record (see the module docstring); usable bare
    or as ``record(eq=..., init=...)``."""

    def wrap(cls):
        fields = []
        for name in cls.__dict__.get("__annotations__", {}):
            spec = cls.__dict__.get(name, _MISSING)
            if not isinstance(spec, field):
                spec = field(default=spec)
            spec.name = name
            if spec.default is _MISSING and name in cls.__dict__:
                delattr(cls, name)
            elif spec.default is not _MISSING:
                setattr(cls, name, spec.default)
            fields.append(spec)
        if init:
            cls.__init__ = _make_init(fields, getattr(cls, "__post_init__", None))
        shown = tuple(f.name for f in fields if f.repr)

        def __repr__(self):
            body = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
            return f"{type(self).__qualname__}({body})"

        cls.__repr__ = __repr__
        if eq:
            key = _values(tuple(f.name for f in fields if f.compare))

            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return key(self) == key(other)
                return NotImplemented

            cls.__eq__ = __eq__
            cls.__hash__ = lambda self: hash(key(self))
        cls.__setattr__ = _refuse_set
        cls.__delattr__ = _refuse_del
        return cls

    return wrap if cls is None else wrap(cls)
