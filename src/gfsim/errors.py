"""Exception taxonomy.

Three failure families map onto the CLI exit codes: bad input (2),
physics-regime refusal (3), numerical-invariant violation (4). Everything
derives from GfsimError so callers can catch the whole package in one clause.
"""

__all__ = [
    "GfsimError",
    "ConfigError",
    "RegimeError",
    "ClosedFormInapplicableError",
    "DoubletNotResolvedError",
    "NumericalInvariantError",
]


class GfsimError(Exception):
    """Base class for all gfsim errors."""


class ConfigError(GfsimError):
    """Invalid configuration input: bad shapes, unknown keys, out-of-range
    values, missing required flags. CLI exit code 2."""


class RegimeError(GfsimError):
    """The requested computation is well-posed but physically inapplicable
    to the given configuration. CLI exit code 3."""


class ClosedFormInapplicableError(RegimeError):
    """A closed-form result was requested for a configuration outside its
    validity domain (e.g. the resonant-walk profile on a detuned array)."""


class DoubletNotResolvedError(RegimeError):
    """The two-level reduction behind a transfer plan does not hold: the
    targeted eigenvector pair is not dominated by the source/target sites.
    Carries the measured purity in the message."""


class NumericalInvariantError(GfsimError):
    """A runtime numerical check failed beyond tolerance (trace drift,
    Hermiticity loss, negative population, non-convergence). CLI exit
    code 4. The message carries the measured defect."""
