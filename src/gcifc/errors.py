"""Exception types shared across the package."""


class GcifcError(Exception):
    """Base class for all library errors."""


class DegenerateDirectLink(GcifcError):
    """Standard-form reduction needs both direct gains nonzero."""


class RegimeMismatch(GcifcError):
    """A bound was requested outside its validity regime."""


class InvalidTransform(RegimeMismatch):
    """Channel-transformation coefficients violate the reconstruction constraints."""


class SingularPreset(RegimeMismatch):
    """A transformation preset hit a vanishing denominator."""


class EmptyInput(GcifcError):
    """No usable points were supplied."""


class MixedKinds(GcifcError):
    """Inner and outer regions cannot be combined by this operation."""


class PowerOverflow(GcifcError):
    """A power lies so close to the double range that a bound overflows."""
