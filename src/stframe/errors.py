"""Exception types shared across the package."""


class StframeError(Exception):
    """Base class for all library errors."""


class SymmetryViolation(StframeError):
    """Raw array fails a curvature symmetry or the first Bianchi identity."""

    def __init__(self, identity: str, index: tuple, magnitude: float):
        self.identity = identity
        self.index = index
        self.magnitude = magnitude
        super().__init__(
            f"{identity} violated at {index}: |residual| = {magnitude:.3e}"
        )


class FrameNotOrthogonal(StframeError):
    pass


class JacobiViolation(StframeError):
    """Structure constants fail antisymmetry or the Jacobi identity."""


class ParseError(StframeError):
    def __init__(self, position, message):
        self.position = position
        self.message = message
        super().__init__(f"parse error at {position}: {message}")


class ValidationError(StframeError):
    def __init__(self, field, constraint):
        self.field = field
        self.constraint = constraint
        super().__init__(f"invalid field {field!r}: {constraint}")


class UnknownGalleryName(StframeError):
    pass


class NoConvergence(StframeError):
    """Eigensolver rejected its input (non-symmetric or non-finite) or did not converge."""


class DegenerateFit(StframeError):
    """Trigonometric interpolant is constant; the stationary point defaults to 0."""

    def __init__(self):
        self.t_star = 0.0
        super().__init__("trig fit degenerate: all non-constant coefficients vanish")


class NotWeaklyEinstein(StframeError):
    """Frame search requested on a tensor that fails the weakly-Einstein test."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"tensor is not weakly Einstein (relative residual {report.relative:.3e})"
        )


class SearchFailed(StframeError):
    """No reading of the Ricci spectrum gave a frame below the penalty
    tolerance; the smallest penalty was reached along construction_path."""

    def __init__(self, penalty, construction_path):
        self.penalty = penalty
        self.construction_path = construction_path
        super().__init__(f"frame search failed: best penalty {penalty:.3e}")


class NotSTFrame(StframeError):
    pass


class OrientationReversed(StframeError):
    pass


class CaseRelationViolated(StframeError):
    pass
