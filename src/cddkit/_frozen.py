"""The base of the toolkit's immutable value classes."""

from operator import attrgetter


class Frozen:
    """An immutable record whose fields are its ``__slots__``.

    A subclass names its fields, in constructor order, in ``__slots__``.
    The base's constructor takes them by position or by name and sets each
    through its slot's own setter; a subclass writes its own ``__init__``
    only to check, normalise or default its input, and sets the fields
    there with ``object.__setattr__`` or, faster, through ``_setters``.
    From the slots alone, without generating code, the base gives it value
    semantics: equality of the field values (only with an instance of the
    same class), their tuple's hash, the repr ``Name(field=value, ...)``
    and ``AttributeError`` on assignment or deletion.  Copies and pickles
    rebuild an instance through its constructor, but for a syntax node's
    deep copy, which is the node itself.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        get = attrgetter(*names)
        # one name makes attrgetter return the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))
        # each slot's own setter (Frozen.__setattr__ refuses), in field order
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)

    def __init__(self, *args, **named):
        setters = self._setters
        if named or len(args) != len(setters):
            names = self.__slots__
            if len(args) + len(named) != len(names) or not named.keys() <= set(names[len(args):]):
                raise TypeError(f"{self.__class__.__qualname__} takes the fields {', '.join(names)}")
            args += tuple(named[name] for name in names[len(args):])
        for set_field, value in zip(setters, args):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)
