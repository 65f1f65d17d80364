"""Error types shared across the package.

Everything raised on purpose derives from HlfError so callers can catch one
thing at the CLI boundary.  ParseError carries the offset of the offending
character; require() turns loaded data that is no object, or a missing key
of it, into one, and the need_* readers a value of the wrong type.
"""

import reprlib


class HlfError(Exception):
    pass


class FieldMismatchError(HlfError):
    """Operands live over different field descriptors."""


class ParseError(HlfError):
    def __init__(self, message, text=None, pos=None):
        if pos is not None:
            message = "%s (at position %d)" % (message, pos)
        super().__init__(message)
        self.text = text
        self.pos = pos


def _object(data, what):
    """data, refused unless it is a JSON object (a dict)."""
    if not isinstance(data, dict):
        raise ParseError("%s must be an object, not %s" % (what, reprlib.repr(data)))
    return data


def require(data, key, what):
    """data[key], or a ParseError saying that the `what` is no object or
    lacks the key."""
    try:
        return _object(data, what)[key]
    except KeyError:
        raise ParseError("%s lacks %r" % (what, key)) from None


def _refuse(what, key, kind, v):
    raise ParseError("%s %r must be %s, not %s"
                     % (what, key, kind, reprlib.repr(v)))


def need_int(data, key, what):
    """require(data, key, what), refused unless it is an int (not a bool)."""
    v = require(data, key, what)
    if isinstance(v, bool) or not isinstance(v, int):
        _refuse(what, key, "an integer", v)
    return v


def need_str(data, key, what):
    """require(data, key, what), refused unless it is a string."""
    v = require(data, key, what)
    if not isinstance(v, str):
        _refuse(what, key, "a string", v)
    return v


def need_list(data, key, what, optional=False):
    """require(data, key, what), refused unless it is a list; an optional
    key that is absent reads as []."""
    if optional and key not in _object(data, what):
        return []
    v = require(data, key, what)
    if not isinstance(v, list):
        _refuse(what, key, "a list", v)
    return v


def need_list_of_str(data, key, what, optional=False):
    """need_list(data, key, what, optional), refused unless every item is
    a string."""
    v = need_list(data, key, what, optional)
    if not all(isinstance(s, str) for s in v):
        _refuse(what, key, "a list of strings", v)
    return v


class UnknownParameterError(ParseError):
    pass


class OutOfRangeError(HlfError):
    """An integer argument lies below its least value, such as a rank or a
    check battery below 1."""


class ZeroElementError(HlfError):
    """Valuation or decomposition of the zero element was requested."""


class NotIntegralError(HlfError):
    """Residue or reduction applied to an element outside the integer ring."""


class PrecisionExhaustedError(HlfError):
    """A p-adic computation ran out of certified digits."""


class UnsupportedFieldError(HlfError):
    """Descriptor outside the supported constructions."""


class UnsupportedScalarError(HlfError):
    """Weil restriction got a modulus or scalar outside its supported shape."""


class UnsupportedOpenError(HlfError):
    """Combination of open descriptors with no finitely presented result."""


class UnsupportedFamilyError(HlfError):
    """Sequence family outside the decidable fragment of an operation."""


class ArityMismatchError(HlfError):
    """Point or map arity does not match the presentation."""


class TargetViolationError(HlfError):
    """A designated limit or target fails its own membership constraints."""


class NotFreeError(HlfError):
    """Restriction of scalars needs a free module presentation."""
