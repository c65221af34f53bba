"""The one form of the package's value classes.

A record's fields are its class annotations, in order, and a field with a
class-level value defaults to it.  The methods dataclasses would write for
each class, by generating and compiling their source when the module is
imported, are written once here and read the field names at run time.
"""


class Record:
    """Base of a record class.  Construction takes the fields by position or
    keyword, as a function with the fields for parameters would, stores them
    and calls __post_init__; records compare, hash and print by their fields
    as a tuple.  A record is frozen: __post_init__ normalises fields through
    object.__setattr__, and cached properties keep their values in its dict."""

    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        vars(self).update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call that passes keywords or leaves fields to
        their defaults; a call that a function with the fields for parameters
        would refuse is a TypeError naming the first bad argument."""
        names, defaults = cls._fields, vars(cls)
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                            f"argument {next(iter(kwargs))!r}")
        return tuple(values)

    def __post_init__(self):
        """Validates and normalises the fields; records without checks keep this one."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def to_dict(self) -> dict:
        """The fields by name: the JSON form of a record that defines no other."""
        return dict(zip(self._fields, self._values()))
