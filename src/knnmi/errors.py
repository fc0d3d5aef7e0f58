"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Input the program cannot use: flags, config, data or records file, or the samples."""


class DuplicatePointError(ConfigurationError):
    """k + 1 or more samples coincide in joint space, so a k-NN radius is zero.

    Duplicates would later produce ln(0); we fail fast instead of jittering
    the data, which would silently perturb the estimate.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"sample {index} has a duplicate in joint space (k-NN radius is 0)"
        )


class NonFiniteNormalizationError(ValueError):
    """The normalization factor overflowed or underflowed (baseline backend)."""

    def __init__(self, result):
        self.result = result
        super().__init__(
            f"ln V is not finite ({result.ln_v!r}) for backend "
            f"{result.backend.value!r} at joint dimension {result.d_joint}"
        )


class RadiusOverflowError(ConfigurationError):
    """A sample's k-NN radius overflows float64, so no finite estimate exists.

    Max-norm distances are coordinate differences; for finite data beyond
    about 9e307 in magnitude they can exceed the largest float64.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"sample {index}: max-norm coordinate differences overflowed float64 "
            f"(k-NN radius is inf)"
        )
