"""Exception types shared across the package."""


class GcifcError(Exception):
    """Base class for all library errors."""


class DegenerateDirectLink(GcifcError):
    """Standard-form reduction needs both direct gains nonzero."""


class UnknownVariable(GcifcError):
    """A linear combination referenced an undeclared variable."""


class NonPSD(GcifcError):
    """A user-supplied covariance matrix is not positive semidefinite."""


class SingularConditioning(GcifcError):
    """Mutual information is infinite (deterministic dependence)."""


class RegimeMismatch(GcifcError):
    """A bound was requested outside its validity regime."""


class InvalidTransform(GcifcError):
    """Channel-transformation coefficients violate the reconstruction constraints."""


class SingularPreset(GcifcError):
    """A transformation preset hit a vanishing denominator."""


class EmptyInput(GcifcError):
    """No usable points were supplied."""


class MixedKinds(GcifcError):
    """Inner and outer regions cannot be combined by this operation."""


class DegenerateDenominator(GcifcError):
    """A closed form was evaluated at a parameter point where it is undefined."""


class PowerOverflow(GcifcError):
    """A power lies so close to the double range that a bound overflows."""
