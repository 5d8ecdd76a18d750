"""Base class of the immutable value objects (configs, specs, plans).

A :class:`Frozen` instance keeps its fields in its ``__dict__``, filled
once by the subclass's ``__init__`` in field order.  Equality, hashing and
``repr`` read that dict, attribute assignment raises, and pickling and
:mod:`copy` restore the dict directly, so frozen instances still cross
process boundaries.  Every subclass's ``__init__`` takes its fields as
keywords, which :meth:`Frozen.with_` relies on.
"""

from __future__ import annotations


class Frozen:
    """Immutable value object: fields in ``__dict__``, set by ``__init__``."""

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign to field {name!r} of frozen "
            f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(
            f"cannot delete field {name!r} of frozen {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        # For dict and set membership only; no simulated quantity reads it.
        return hash(tuple(self.__dict__.values()))  # repro: noqa RP001

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def with_(self, **changes):
        """Functional update, e.g. ``cfg.with_(num_units=2)``: a new
        instance built by ``__init__``, so its checks run again."""
        return type(self)(**{**self.__dict__, **changes})
