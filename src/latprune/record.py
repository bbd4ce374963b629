"""The base of the record classes: plain classes, so that defining one
compiles no code (``dataclasses`` generates and compiles each class's
methods, a cost every process paid at start-up)."""

_MISSING = object()


class Record:
    """A record's fields are its class annotations, in order; a class-level
    value is a field's default.  It takes them by position or keyword, its
    ``repr`` lists them, and ``==`` compares the exact type and the fields
    only, not the ``__dict__``, where a ``cached_property`` keeps its value;
    a field that is a numpy array compares by its shape and elements.
    A record is a frozen value: it refuses assignment and deletion and hashes
    by its fields, though a dict or array field stays mutable."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        # object.__setattr__ in field order: a record refuses setattr,
        # and all instances of a class share one attribute layout.
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments, got {len(args)}")
        for name, value in zip(cls._fields, args):
            object.__setattr__(self, name, value)
        for name in cls._fields[len(args):]:
            value = kwargs.pop(name, cls._defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an extra argument {next(iter(kwargs))!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(map(_equal, self._values(), other._values()))

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, *value) -> None:
        raise AttributeError(f"cannot set or delete {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__


def _equal(a, b) -> bool:
    """``a == b`` as one bool.  A numpy array's ``==`` is elementwise and
    broadcasts (a (1,) array would equal a (2,) buffer of its element, and
    shapes that do not broadcast raise), so a value that has a shape, as a
    numpy array or a buffer such as the readers' ``array('d')`` does, equals
    another only when their shapes and all their elements are equal."""
    if a is b:
        return True
    shape_a, shape_b = _shape(a), _shape(b)
    if shape_a != shape_b and (shape_a or shape_b):  # () against None: scalars
        return False
    equal = a == b
    return equal if type(equal) is bool else bool(equal.all())


def _shape(value) -> tuple[int, ...] | None:
    """`value`'s shape as a buffer or numpy gives it; None for a value that
    has neither."""
    try:
        with memoryview(value) as view:
            return view.shape
    except (TypeError, ValueError):  # no buffer, or a dtype no buffer holds
        return getattr(value, "shape", None)
