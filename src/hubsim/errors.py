"""Exception types shared across the package.

The CLI maps these onto exit codes: verification failures exit 1, usage
and parameter problems exit 2, resource-cap violations exit 3.
"""


class HubsimError(Exception):
    """Base class for all package errors."""


class ParameterError(HubsimError, ValueError):
    """Infeasible or malformed input parameters."""


class GraphStructureError(HubsimError, ValueError):
    """A graph object violates its structural contract."""


class RegisterError(HubsimError, ValueError):
    """Register placement or width mismatch."""


class ResourceError(HubsimError, RuntimeError):
    """A requested simulation exceeds the configured qubit cap.

    ``stage`` names the widest offending stage so callers can report it.
    """

    def __init__(self, message: str, stage: str = ""):
        super().__init__(message)
        self.stage = stage


class EncodingError(HubsimError, ValueError):
    """A block-encoding failed verification against its target."""


class OracleContractError(HubsimError, ValueError):
    """A query-model oracle was used outside its contract."""


class ConfigurationError(HubsimError, ValueError):
    """Evolution parameters cannot reach the requested accuracy."""


class StepSizeUnderflow(HubsimError, RuntimeError):
    """The adaptive integrator could not make progress."""
