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
    """A solve missed its residual target, or met it with a result that is
    not valid, which `problem` then names; `residual` is the one it reached."""

    def __init__(self, residual, problem="missed its residual target"):
        self.residual = residual
        super().__init__(f"solve {problem} (residual {residual:.3g})")


class InvalidInitialError(PowerflowError):
    """A self-weight vector is not a point of the unit simplex, an initial
    one has not one component per node of the network, or a CLI --network,
    --builder, --x0 or --zeta spec is bad."""


class StructureMismatchError(PowerflowError):
    """A network structure that does not fit the operation: one closed class
    where several are needed, or classified from a network of another size."""


class DimensionTooSmallError(PowerflowError):
    """Equilibrium solver needs at least two centrality entries."""


class MassDriftError(PowerflowError):
    """Total self-weight drifted during simulation; the update conserves it
    analytically, so drift beyond accumulation noise signals a defect."""


class FamilyParameterRequiredError(PowerflowError):
    """A two-node group holds all social power, so its equilibria form the
    one-parameter family (a, 1-a); pass the split parameter to pick one."""
