"""Exception hierarchy shared across the package."""


class FlcoreError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FlcoreError):
    """Invalid or inconsistent configuration."""


class ShapeError(FlcoreError):
    """Array dimensions do not match the model or message contract."""


class NumericError(FlcoreError):
    """A non-finite value appeared where finite arithmetic is required.

    ``row`` is the first non-finite row of a stacked computation (0 when
    unstacked), so the caller can name the client that row belongs to.
    """

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


class IngestionError(FlcoreError):
    """A data file is malformed; message includes the failing byte offset."""


class ProtocolError(FlcoreError):
    """A wire frame violates the protocol; message includes the byte offset."""


class TransportError(FlcoreError):
    """A carrier failed (lost client, timeout, handshake failure)."""
