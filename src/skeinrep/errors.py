"""Exception hierarchy for skeinrep."""


class SkeinrepError(Exception):
    """Base class for all package errors."""


# --- triangulation ---

class NonInvolution(SkeinrepError):
    """Gluing map is not a fixed-point-free involution on side slots."""


class RepeatedFaceEdge(SkeinrepError):
    """A face whose three sides meet fewer than three distinct edges."""


class UnknownName(SkeinrepError):
    """Requested triangulation name is not in the standard library."""


class ParseError(SkeinrepError):
    """Malformed input file."""


def require_fields(data, what: str, *names) -> dict:
    """data, parsed from a JSON file (what), if it is an object with the
    named fields; otherwise ParseError naming the fault."""
    if not isinstance(data, dict):
        raise ParseError(f"bad {what}: the top level must be a JSON object")
    for name in names:
        if name not in data:
            raise ParseError(f"bad {what}: missing field {name!r}")
    return data


# --- algebra ---

class MixedAlgebra(SkeinrepError):
    """Operands belong to algebras over different triangulations."""


class NotBalanced(SkeinrepError):
    """Exponent vector violates the face parity condition."""


class IndexOutOfRange(SkeinrepError):
    """Fan position outside the valid range."""


class OmegaIntegralityError(SkeinrepError):
    """Half-pairing (k^T sigma l)/2 failed to be an integer on the balanced lattice."""


class Inadmissible(SkeinrepError):
    """Sign-reversal class does not vanish on every central vertex element."""


# --- representations ---

class ZeroWeight(SkeinrepError):
    """A weight system entry is zero."""


class InconsistentCenter(SkeinrepError):
    """No scalar assignment realizes the required central values."""


class DimensionMismatch(SkeinrepError):
    """Computed irreducible dimension differs from N^(3g+p-3)."""


class NotScalar(SkeinrepError):
    """Matrix expected to be scalar is not."""


class NotDiagonalizable(SkeinrepError):
    """Matrix failed the diagonalizability check."""


# --- kernels / traces ---

class NotSeparating(SkeinrepError):
    """Edge does not separate the surface."""


class NotCommuting(SkeinrepError):
    """Elements that must commute do not."""


class NotMonomial(SkeinrepError):
    """Element is not a single monomial."""


class NotOneVertex(SkeinrepError):
    """Operation requires a one-vertex triangulation."""


class BadState(SkeinrepError):
    """Unknown corner-arc state."""


class SamplerExhausted(SkeinrepError):
    """A random sampler rejected every draw up to its attempt bound."""


# --- moves ---

class BadSquare(SkeinrepError):
    """Flip square degenerate: faces not distinct or sides not four distinct edges."""


class UndecomposableMonomial(SkeinrepError):
    """Monomial does not decompose in the flip-square block basis."""


class DegenerateParam(SkeinrepError):
    """Free parameter value makes the transported weights degenerate."""


class DegenerateCrossratio(SkeinrepError):
    """Flip weight transport undefined because the diagonal weight is -1."""


class DegenerateConfiguration(SkeinrepError):
    """Crossratio of the four developed points is degenerate."""
