"""Exception types shared across the package."""

from contextlib import contextmanager


class IpdgError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGeometryError(IpdgError):
    """A coordinate map is singular or orientation-reversing at a point."""


class TopologyError(IpdgError):
    """Mesh connectivity violates two-to-one balance or face coverage rules."""


class SingularPointError(IpdgError):
    """A collocation point coincides with a singular point of the problem."""


class ConfigurationError(IpdgError, ValueError):
    """An argument or a run configuration failed validation.

    Carries a ``path`` identifying the offending field by its configuration
    key, e.g. ``solver.tolerance``. A ValueError too, since the library
    raises it for bad arguments.
    """

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


@contextmanager
def config_section(prefix):
    """Re-raise a ConfigurationError from the block with its path inside
    `prefix`: a condition's "center" becomes "boundary_conditions.<tag>.center"."""
    try:
        yield
    except ConfigurationError as exc:
        path = f"{prefix}.{exc.path}" if exc.path else prefix
        raise ConfigurationError(path, exc.message) from None


class ResourceCapError(IpdgError):
    """An operation exceeded a hard resource cap (e.g. explicit-assembly size)."""
