"""Exception types shared across the package.

Node indices carried by these exceptions are 1-based, matching every other
external surface of the package.
"""


class PowerflowError(Exception):
    """Base class for all powerflow errors."""


class MatrixValidationError(PowerflowError):
    """A raw matrix failed relative-interaction-matrix validation."""


class NonSquareError(MatrixValidationError):
    def __init__(self, shape):
        self.shape = tuple(shape)
        super().__init__(f"matrix must be square, got shape {self.shape}")


class NegativeEntryError(MatrixValidationError):
    def __init__(self, node_i, node_j, value):
        self.node_i = node_i
        self.node_j = node_j
        self.value = value
        super().__init__(f"entry ({node_i}, {node_j}) is negative: {value!r}")


class DiagonalNonzeroError(MatrixValidationError):
    def __init__(self, node, value):
        self.node = node
        self.value = value
        super().__init__(f"diagonal entry of node {node} must be 0, got {value!r}")


class RowSumOutOfToleranceError(MatrixValidationError):
    def __init__(self, node, row_sum):
        self.node = node
        self.row_sum = row_sum
        super().__init__(f"row of node {node} sums to {row_sum!r}, expected 1")


class ParseError(PowerflowError):
    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class EmptyAdviceSetError(PowerflowError):
    def __init__(self, node):
        self.node = node
        super().__init__(
            f"node {node} lists nobody to take advice from; its row would be "
            "all zero and could not be made row-stochastic"
        )


class NoConvergenceError(PowerflowError):
    """A solve missed its residual target (`residual` set).  No solver of
    the package sets `iterations` any more; it stays for callers that
    read it."""

    def __init__(self, iterations=None, residual=None):
        self.iterations = iterations
        self.residual = residual
        detail = "" if residual is None else f" (residual {residual:.3g})"
        if iterations is None:
            message = f"solve missed its residual target{detail}"
        else:
            message = f"no convergence after {iterations} iterations{detail}"
        super().__init__(message)


class InvalidInitialError(PowerflowError):
    """Initial self-weight vector is not a point of the unit simplex."""


class StructureMismatchError(PowerflowError):
    """Operation applied to a network structure variant it does not support."""


class CenterDominantError(PowerflowError):
    """No unique interior equilibrium: one centrality score is at least 1/2
    while the group holds all social power (the star or near-star regime)."""


class DimensionTooSmallError(PowerflowError):
    """Equilibrium solver needs at least two centrality entries."""


class MassDriftError(PowerflowError):
    """Total self-weight drifted during simulation; the update conserves it
    analytically, so drift beyond accumulation noise signals a defect."""


class FamilyParameterRequiredError(PowerflowError):
    """A two-node sink holds all social power, so its equilibria form the
    one-parameter family (a, 1-a); pass the split parameter to pick one."""
