"""Exception types raised across the library.

Every domain error derives from CodecertError so callers can catch the
whole family at once. Parse errors carry file/line locations for CLI
diagnostics.
"""


class CodecertError(Exception):
    """Base class for all errors raised by this library."""


# --- source construction ---

class ZeroOrNegativeProbability(CodecertError):
    pass


class ProbabilitySumNotOne(CodecertError):
    pass


class DuplicateSymbol(CodecertError, ValueError):
    """A symbol table (Source, Code, EncodingPolicy) lists a symbol twice."""


class ExtensionTooLarge(CodecertError):
    pass


# --- radix / code construction ---

class InvalidRadix(CodecertError):
    pass


class DigitOutOfRange(CodecertError):
    pass


class MissingSymbol(CodecertError):
    pass


class MissingPolicy(CodecertError):
    pass


class KraftViolated(CodecertError):
    pass


# --- trees ---

class NotPrefixFree(CodecertError):
    pass


class TreeTooSmall(CodecertError):
    pass


class NotCompact(CodecertError):
    pass


class InvalidGroup(CodecertError):
    pass


# --- proof engine ---

class NotUniquelyDecipherable(CodecertError):
    """A code that some digit string decodes two ways; `witness` holds the
    digits of the shortest such string, or None when they were not sought."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class RadixOneUnsupported(CodecertError):
    pass


class GroupLargerThanRadix(CodecertError):
    pass


class ExactnessCheckFailed(CodecertError):
    """Two exact computations of the same fact disagreed: an internal fault."""


# --- input files ---

class ParseError(CodecertError):
    """A file could not be parsed; carries the offending location."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{where}{message}")
