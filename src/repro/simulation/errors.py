"""Exception hierarchy for the simulation substrate."""


class SimulationError(Exception):
    """Base class for all simulation-related errors."""


class LinkError(SimulationError):
    """A message was sent over a link that does not exist in the network."""


class CongestionError(SimulationError):
    """The CONGEST constraint (one message per link per direction per round)
    was violated while the simulator runs in strict mode."""


class MessageSizeError(SimulationError):
    """A message exceeded the configured maximum size in bits."""
