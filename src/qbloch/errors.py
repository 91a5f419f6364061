"""Exception taxonomy shared by all qbloch modules, and the one rule they
check integer inputs by (as_int)."""

import operator


class DomainError(ValueError):
    """An argument left the domain where a function is defined (e.g. z in {0,1})."""


class AdmissibilityError(DomainError):
    """A lattice point violates the nonnegativity constraints of a term."""


class PolytopeError(ValueError):
    """The scaling polytope of a special term is empty or unbounded."""


class OddShiftError(ValueError):
    """Deck shifts on the cover must be even integers."""


class DegenerateTupleError(DomainError):
    """A five-term tuple hits {0, 1} and the relation degenerates."""


class DegenerateFamilyError(ValueError):
    """The one-variable family (a, b) = (0, 0) has no variational content."""


class NotOnVarietyError(ValueError):
    """A point was required to solve the variational equations but does not."""


class BranchParityError(ValueError):
    """A branch integer failed the integrality/evenness contract."""


class ConfigError(ValueError):
    """Solver or run configuration is unusable (bad tolerances, counts, paths)."""


class InsufficientDataError(ValueError):
    """Not enough sequence data for a requested fit or extrapolation."""


class SingularSystemError(ArithmeticError):
    """A linear system (e.g. the Pade Toeplitz block) is rank deficient."""


class SchemaError(ValueError):
    """Input file violates the JSON schema or the encoded invariants.

    Carries ``violations``, the full list of problems found, each a
    "<json-pointer>: <message>" string ("/Q/matrix/1: ..."); the parser
    reports every violated invariant, not just the first.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations is not None else [message]

    def __str__(self):
        base = super().__str__()
        if self.violations and self.violations != [base]:
            return base + ": " + "; ".join(self.violations)
        return base


def as_int(v, what, error=ValueError):
    """v as an int when it is an integer: a value with __index__ (numpy
    integers included) that is not a bool.  Anything else, a float with an
    integral value too, raises error."""
    if isinstance(v, bool) or not hasattr(type(v), "__index__"):
        raise error(f"{what} must be an integer, got {v!r}")
    return operator.index(v)
