"""Immutable value records: the base of the package's small data classes."""


class Record:
    """A value record: its fields are its class's __slots__.  A subclass that
    defines no __init__ gets one taking its own __slots__ in order, with the
    class keywords as defaults (``class R(Record, b=None)``) and
    ``kw_only=True`` making every parameter keyword-only.  Records of one
    class compare and hash by their field tuple and print as
    ``Name(field=value, ...)``; assigning or deleting a field raises
    AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls, kw_only: bool = False, **defaults) -> None:
        """Generate the __init__ as dataclasses does: one def, exec'd once,
        with a real signature and one object.__setattr__ per slot."""
        super().__init_subclass__()
        if "__init__" in cls.__dict__:
            return
        names = cls.__slots__
        params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
        body = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
        namespace = {"__name__": cls.__module__, "_set": object.__setattr__, "_defaults": defaults}
        exec(f"def __init__(self, {'*, ' if kw_only else ''}{params}):{body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple) -> None:
        """Restore the (None, {field: value}) state that copy and pickle take."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
