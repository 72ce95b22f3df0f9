"""Immutable value records: the base of the package's small data classes."""


class Record:
    """A value record: its fields are its class's __slots__, which the
    subclass's own __init__ writes through object.__setattr__.  Records of
    one class compare and hash by their field tuple and print as
    ``Name(field=value, ...)``; assigning or deleting a field raises
    AttributeError."""

    __slots__ = ()

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
