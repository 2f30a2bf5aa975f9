"""Immutable value records, built without `dataclasses`.

A record's fields are its class's `__slots__`, a subclass's after its
base's, in positional order; `_defaults` holds the defaults of the
last fields.  Records compare by exact type and fields, hash by their
fields and refuse assignment.  A field named `span`, a source
position, takes no part in equality, hashing or repr unless the class
sets `_uncompared = ()`.  No code is generated, so importing records
loads neither `dataclasses` nor the modules it imports.  A class built
thousands of times per proof writes a straight-line `__init__` that
calls its slot setters, `_set`, in field order.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()
    _uncompared: tuple[str, ...] = ("span",)

    def __init_subclass__(cls):
        own = [f for f in cls.__dict__.get("__slots__", ()) if f != "__weakref__"]
        cls._fields = cls._fields + tuple(own)
        cls._set = tuple(getattr(cls, f).__set__ for f in cls._fields)
        cls._compared = tuple(f for f in cls._fields if f not in cls._uncompared)
        cls._key = staticmethod(attrgetter(*cls._compared) if cls._compared
                                else lambda _: ())

    def __init__(self, *args, **kwargs):
        names, n = self._fields, len(args)
        if kwargs or n != len(names):
            # bind as a call to a function whose parameters are the fields
            required = len(names) - len(self._defaults)
            cut = max(n, required)
            try:
                args += tuple(map(kwargs.pop, names[n:cut]))
            except KeyError as missing:
                raise TypeError(f"{type(self).__name__}() is missing {missing}") from None
            args += tuple(map(kwargs.pop, names[cut:], self._defaults[cut - required:]))
            if kwargs or n > len(names):
                raise TypeError(f"{type(self).__name__}() takes {', '.join(names)}; "
                                f"got {n} positional and {sorted(kwargs)}")
        for set_field, value in zip(self._set, args):
            set_field(self, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
