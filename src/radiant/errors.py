"""Exception types shared across the toolkit."""


class RadiantError(Exception):
    """Base class for all domain errors raised by this package."""


class NonPositiveDepth(RadiantError):
    """Point lies at or behind the camera plane."""


class VanishingGradient(RadiantError):
    """SDF gradient magnitude below the usable threshold."""


class EmptyUnion(RadiantError):
    """Union shape constructed from zero child shapes."""


class NegativeDensity(RadiantError):
    """Volume density must be nonnegative."""


class LengthMismatch(RadiantError):
    """Parallel sequences have inconsistent lengths."""


class OriginOutsideSphere(RadiantError):
    """Ray origin must lie inside the unit sphere for near/far rendering."""


class EmptyScene(RadiantError):
    """Scene bounds requested with no cameras, no boxes, or zero volume."""


class DimsMismatch(RadiantError):
    """Grid or image dimensions do not agree."""


class IndivisibleDims(RadiantError):
    """Grid dimensions are not divisible by the patch size."""


class EmptySet(RadiantError):
    """Point set is empty."""


class LabelOutOfRange(RadiantError):
    """Class label outside the declared range."""


class EmptyPath(RadiantError):
    """Trajectory has no positions."""


class OutOfBounds(RadiantError):
    """Query location outside the valid index range."""


class FileFormatError(RadiantError):
    """Malformed file content."""


class BadMagic(FileFormatError):
    """File does not start with the expected magic bytes."""


class BadVersion(FileFormatError):
    """File declares an unsupported format version."""


class TruncatedFile(FileFormatError):
    """File payload is shorter than the header promises."""
