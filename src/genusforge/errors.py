"""Exception types shared across the package."""


class GenusforgeError(Exception):
    """Base class for errors raised by this package."""


class RingMismatchError(GenusforgeError, TypeError):
    """Two values are coefficients of different kinds."""


class GridError(GenusforgeError, ValueError):
    """Exponent offsets cannot be aligned on the half-integer grid."""


class NonUnitError(GenusforgeError, ZeroDivisionError):
    """Inversion requested for a non-invertible element or series."""


class TruncationError(GenusforgeError, ValueError):
    """A coefficient beyond the known truncation order was requested."""


class DimensionError(GenusforgeError, ValueError):
    """Cohomological degree or manifold dimension bookkeeping failed."""


class MissingNumberError(GenusforgeError, KeyError):
    """A characteristic number needed by a pairing was not supplied."""


class PoleError(GenusforgeError, ArithmeticError):
    """An evaluation point sits on (or too close to) a pole locus."""


class SchemaError(GenusforgeError, ValueError):
    """A JSON payload does not match the documented schema."""
