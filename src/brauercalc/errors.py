"""Shared exception types, and Record, the base of the library's records."""

from operator import attrgetter


class ScopeError(Exception):
    """The request is outside the supported scope (never a wrong answer)."""


class ParseError(Exception):
    """Syntax error in a class expression, with a 0-based character offset."""

    def __init__(self, offset, message):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset
        self.message = message


class NotSymbolRegular(ValueError):
    """A specialization point where some symbol entry has a zero or pole."""


class Record:
    """An immutable record.  A subclass names its fields in __slots__, in
    order; a slot whose name starts with an underscore (or __dict__) holds
    memos, which equality, hashing and repr ignore.  The constructor takes
    the fields by position or keyword, an omitted one is None, then runs
    __post_init__ for a subclass's checks and memos."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        # each field's slot setter, which this class's __setattr__ does not block
        cls._setters = tuple(cls.__dict__[name].__set__ for name in fields)
        # the fields as one value: a tuple of two or more, else the one field or ()
        cls._key = staticmethod(attrgetter(*fields) if fields else lambda record: ())

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) != len(fields) or kwargs:
            if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
                raise TypeError(f"{type(self).__name__} takes the fields {fields}")
            args += tuple(map(kwargs.get, fields[len(args):]))
        for setter, value in zip(self._setters, args):
            setter(self, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"
