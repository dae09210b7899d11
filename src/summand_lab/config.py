"""Centralized numeric tolerances shared by every module, and Value, the
base of the package's immutable value classes."""


class Value:
    """An immutable value whose fields are its instance attributes.

    A subclass's __init__ checks its arguments and sets every field once,
    in declaration order, through vars(self). Two values are equal when
    they have the same type and equal fields, the hash is that of the field
    tuple, and the repr is ``Name(field=value, ...)``: the behaviour of a
    frozen dataclass, without generating code for each class at import.
    Assigning or deleting an attribute raises AttributeError.
    """

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ToleranceConfig(Value):
    """Tolerance knobs for the whole package.

    structural: identities expected to hold in exact arithmetic up to
        double rounding (characteristic-function algebra, parameter maps).
    exact_stat: verdict threshold for statistics computed in exact
        arithmetic (Lindeberg sums on discrete rows, drift sums).
    coarse_stat: verdict threshold for pre-weak-distance or mass-gap
        statistics.
    """

    FIELDS = ("structural", "exact_stat", "coarse_stat")

    def __init__(self, structural: float = 1e-12, exact_stat: float = 1e-3,
                 coarse_stat: float = 1e-2):
        vars(self).update(structural=structural, exact_stat=exact_stat, coarse_stat=coarse_stat)


DEFAULT_TOLERANCES = ToleranceConfig()
