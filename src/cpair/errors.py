"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or inconsistent user input (bad dimensions, bad indices,
    unparseable documents).  The CLI maps this to exit code 2."""


class WrongDifferential(TypeError):
    """A differential was applied at a bidegree where it is not defined
    (e.g. the Hochschild coboundary on a cochain with no algebra arguments)."""


class NotComposable(TypeError):
    """Circle product / Gerstenhaber bracket requested for cochains outside
    the Hochschild column."""


class NoInfinitesimalError(ValueError):
    """The deformation has no nonzero coefficient beyond order 0."""


class InvalidDeformation(ValueError):
    """An operation that presupposes the deformation equations was invoked
    on a deformation that does not satisfy them."""


class InternalError(RuntimeError):
    """An internal consistency check failed: a bug in cpair, not a property
    of the input.  The CLI maps this to exit code 3."""
