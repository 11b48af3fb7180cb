"""Exception types shared across the package."""


class IpdgError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGeometryError(IpdgError):
    """A coordinate map is singular or orientation-reversing at a point."""


class TopologyError(IpdgError):
    """Mesh connectivity violates two-to-one balance or face coverage rules."""


class SingularPointError(IpdgError):
    """A collocation point coincides with a singular point of the problem."""


class ConfigurationError(IpdgError):
    """A run configuration failed validation.

    Carries a ``path`` identifying the offending field, e.g.
    ``solver.tolerance``.
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class ResourceCapError(IpdgError):
    """An operation exceeded a hard resource cap (e.g. explicit-assembly size)."""
