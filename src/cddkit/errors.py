"""Exception types shared across the toolkit, and the JSON reader that raises them."""

import json
from contextlib import contextmanager


class CddError(Exception):
    """Base class for all toolkit errors."""


# --- schema / loading ---------------------------------------------------

class SchemaError(CddError, ValueError):
    """A JSON document does not match the expected schema."""


def read_json(text_or_doc, where: str):
    """``text_or_doc`` parsed as JSON if it is text (str or bytes), else as given.

    The one place the toolkit parses a document.  Malformed text raises
    ``SchemaError``, never the parser's own error: a decoding error, text
    that is not UTF-8 and an integer literal past Python's digit limit
    (all ``ValueError``), and nesting past the recursion limit.
    """
    if not isinstance(text_or_doc, (str, bytes)):
        return text_or_doc
    try:
        return json.loads(text_or_doc)
    except RecursionError:
        raise SchemaError(f"{where}: JSON nested too deeply to read") from None
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


@contextmanager
def reading(what: str):
    """The one policy for a malformed entry of a document, decoded inside this block.

    A toolkit error passes through unchanged.  A ``KeyError`` becomes
    ``SchemaError("<what> missing key 'k'")``, and a ``TypeError``,
    ``ValueError``, ``OverflowError`` or ``AttributeError`` becomes
    ``SchemaError("malformed <what>: ...")``.
    """
    try:
        yield
    except CddError:
        raise
    except KeyError as exc:
        raise SchemaError(f"{what} missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise SchemaError(f"malformed {what}: {exc}") from exc


def json_array(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a JSON array, got {value!r}")
    return value


def json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be a JSON object, got {value!r}")
    return value


class UnknownSurfaceReference(SchemaError):
    """A constraint or requirement names a surface the problem does not have."""


class UnsupportedRelation(SchemaError):
    """Only upper bounds (``<=``) are accepted in requirements."""


class InfeasibleSeed(CddError, ValueError):
    """The seed point violates the ambient bounds or an objective constraint."""


class DimensionMismatch(CddError, ValueError):
    """Vector or box length does not match the design-space dimension."""


class BoxOutsideAmbient(CddError, ValueError):
    """A candidate box extends past the ambient bounds."""


class SeedNotContained(CddError, ValueError):
    """The factor interval being expanded does not contain the seed coordinate."""


class InfeasibleInput(CddError, ValueError):
    """An operation requiring a feasible box was given an infeasible one."""


class CapExceeded(CddError, ValueError):
    """A lattice or enumeration request exceeds the configured size cap."""


# --- model theory -------------------------------------------------------

class ParseError(CddError, ValueError):
    """Concrete-syntax error; carries the offset and what was expected."""

    def __init__(self, message, position, expected=None):
        detail = f"{message} at offset {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class UnknownSymbol(CddError, ValueError):
    """A predicate or function symbol is not declared in the signature."""


class ArityMismatch(CddError, ValueError):
    """A symbol is applied to the wrong number of arguments."""


class FreeVariable(CddError, ValueError):
    """A sentence was required but the formula has free variables."""


class DomainEmpty(CddError, ValueError):
    """Quantified sentences over an empty domain are rejected, not decided."""


class EvaluationOverflow(CddError, ArithmeticError):
    """Rational arithmetic exceeded the configured magnitude bound."""


class HigherOrderGraph(CddError, ValueError):
    """A conceptual-graph relation node references another relation node."""
