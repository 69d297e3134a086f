"""Value records: plain classes with ``__slots__``, in place of ``dataclasses``.

``@dataclass`` on the package's 36 record classes cost about 25 ms of each
command's start (bytecode caching off): it loads ``inspect``, ``ast``,
``dis``, ``tokenize`` and ``copy``, which nothing else here uses, and compiles
about six generated methods per class: about 0.6 ms for each frozen class,
where a ``Record`` class builds in about 10 µs.

A record lists its fields in ``__slots__`` (``"__dict__"`` may follow them, for
a ``cached_property``) and writes its own ``__init__``, validation included; a
frozen one, ``class C(Record, frozen=True)``, sets its fields there through
``_set``.  As with a dataclass, ``Record`` gives ``C(field=value, ...)`` as the
repr, equality for the same class with equal fields, ``replace`` and copying; a
frozen record hashes its fields and refuses assignment, a mutable one is
unhashable.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, frozen=False):
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        if frozen:
            cls.__hash__ = Record._hash
            cls.__setattr__ = cls.__delattr__ = Record._frozen

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for f in self._fields:
            a, b = getattr(self, f), getattr(other, f)
            if a is not b and not a == b:
                return False
        return True

    def _hash(self):
        return hash(tuple([getattr(self, f) for f in self._fields]))

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):   # copy and pickle rebuild through __init__, past the guard
        return self.__class__, tuple([getattr(self, f) for f in self._fields])

    def replace(self, **changes):
        """A copy with ``changes`` applied, built through ``__init__``."""
        return self.__class__(**{f: getattr(self, f) for f in self._fields} | changes)
