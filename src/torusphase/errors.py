"""Exception types shared across the package."""


class TorusPhaseError(Exception):
    """Base class for all torusphase errors."""


class CollinearVectorsError(TorusPhaseError):
    """The lattice vector pair has m x m' = 0 mod D, so no deformed algebra exists."""


class SingularDeformationError(TorusPhaseError):
    """sin(gamma0 * m x m') vanishes, so the oscillator coefficients are undefined."""


class NonSymplecticMapError(TorusPhaseError):
    """A 2x2 integer matrix fails the unit-determinant symplectic condition mod D."""


class DegenerateSpectrumError(TorusPhaseError):
    """An eigensystem orbit fails to cover all residues (composite D)."""


class PhaseMismatchError(TorusPhaseError):
    """A measured phase contradicts an exact identity; signals convention drift."""


class CaseConditionError(TorusPhaseError):
    """A named spectral profile was requested at a D that does not support it."""


class DimensionTooLargeError(TorusPhaseError):
    """A check that scales with a power of D was requested beyond its size limit."""


class UnsupportedBasisError(TorusPhaseError):
    """Unknown basis tag in a state conversion."""


class NonPrimeDimensionError(TorusPhaseError, ValueError):
    """A prime ladder holds a dimension that is not prime."""


class NonRealWignerError(TorusPhaseError, ValueError):
    """A Wigner grid has an imaginary part above the reality tolerance (even D >= 4)."""
