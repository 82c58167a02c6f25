"""Physical constants (CODATA 2018) as named module constants, and Record,
the base of the frozen value classes: this module imports nothing."""

HBAR = 1.054571817e-34      # reduced Planck constant, J s
K_B = 1.380649e-23          # Boltzmann constant, J/K
C = 2.99792458e8            # speed of light in vacuum, m/s
EPSILON_0 = 8.8541878128e-12  # vacuum permittivity, F/m
MU_0 = 1.25663706212e-6     # vacuum permeability, N/A^2

EULER_GAMMA = 0.5772156649015329  # Euler-Mascheroni constant
ZETA_3 = 1.2020569031595943       # Riemann zeta(3), Apery's constant


class Record:
    """Frozen value of its annotated fields, a class attribute being a default;
    equal and hashed by (class, fields), with no @dataclass cost at import."""

    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {f: getattr(cls, f) for f in cls._fields
                         if hasattr(cls, f)}

    def __init__(self, *args, **kwargs):
        fields, values = self._fields, vars(self)
        # a field given both ways raises TypeError here, as in any call
        values.update(self._defaults, **dict(zip(fields, args)), **kwargs)
        if len(args) > len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__} takes {fields}, got "
                            f"{len(args)} positional and {sorted(kwargs)}")
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")
    __delattr__ = __setattr__

    def _key(self):
        return (type(self), *[getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        return isinstance(other, Record) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return type(self).__name__ + "(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"
