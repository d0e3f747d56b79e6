"""Exception hierarchy shared by the whole package."""


class YBHeckeError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(YBHeckeError):
    """Division by the zero polynomial or zero rational function."""


class ExactDivisionError(YBHeckeError):
    """An exact polynomial division left a nonzero remainder."""


class ExponentOverflow(YBHeckeError):
    """A monomial exponent leaves the range a packed monomial key holds."""


class SubstitutionSingular(YBHeckeError):
    """A substitution sends a denominator identically to zero."""


class ZeroPolynomial(YBHeckeError):
    """An operation that needs a nonzero polynomial received zero."""


class RankMismatch(YBHeckeError):
    """Two objects live in symmetric groups of different rank."""


class RankOutOfRange(YBHeckeError):
    """A rank argument is outside the desk-scale guard."""


class IndexOutOfRange(YBHeckeError):
    """A generator index i is outside 1 <= i <= n-1."""


class AlgebraMismatch(YBHeckeError):
    """Two Hecke elements belong to different algebras."""


class ZeroSpectral(YBHeckeError):
    """A multiplicative spectral parameter is zero (not invertible)."""


class ReservedVariable(YBHeckeError):
    """A parameter mentions the variable the package reserves for itself."""


class DegenerateSpectrum(YBHeckeError):
    """Spectral parameters make some normalizing factor vanish."""


class ShapeInvalid(YBHeckeError):
    """A composition does not describe a valid Young subgroup shape."""


class ParseError(YBHeckeError):
    """A polynomial / rational-function literal failed to parse."""
