"""Immutable value classes, built without :mod:`dataclasses`.

``dataclasses`` imports ``inspect`` and with it ``ast``, ``dis`` and
``tokenize``, which no command otherwise needs.  :class:`Record` gives a
subclass what a frozen dataclass would: ``==``, ``hash`` and ``repr`` over
the fields named in ``_compared``, and attributes that cannot be assigned
or deleted once ``__init__`` has set them through :meth:`Record._set`.
"""

from __future__ import annotations


class Record:
    _compared: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
