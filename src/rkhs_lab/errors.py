"""Exception hierarchy for the kernel/curvature toolkit."""


class KernelLabError(Exception):
    """Base class for all library errors."""


class ConfigError(KernelLabError):
    """Malformed spec file or CLI configuration; message names the field."""


class PointOutsideDomain(KernelLabError):
    """A point outside the domain it is taken on: the disc, the annulus, the
    ball or the polydisc."""


class TruncationTailTooLarge(KernelLabError):
    pass


class NonFiniteValue(KernelLabError):
    """A series sum or a quantity built from it is not finite."""


class UnsupportedJetOrder(KernelLabError):
    pass


class KernelVanishesNearCenter(KernelLabError):
    pass


class CenterOutsideDisc(KernelLabError):
    pass


class DegenerateKernel(KernelLabError):
    pass


class NotPositiveDefinite(KernelLabError):
    pass


class NonHermitianInput(KernelLabError):
    pass


class NotAContraction(KernelLabError):
    pass


class DimensionMismatch(KernelLabError):
    pass


class NotLogHarmonic(KernelLabError):
    pass


class QuadratureFailure(KernelLabError):
    pass


class DegenerateJet(KernelLabError):
    pass
