"""Exception types shared across the toolkit."""

from __future__ import annotations


class XdgdlError(Exception):
    """Base class for every error raised by this package."""


class ParseError(XdgdlError):
    """Malformed XML input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(XdgdlError):
    """A structural rule was broken while building a document from XML."""

    def __init__(self, rule: str, path: str, message: str):
        self.rule = rule
        self.path = path
        super().__init__(f"[{rule}] {path}: {message}")


class InvalidDocument(XdgdlError):
    """A document failed validation where a clean report is required."""

    def __init__(self, report):
        self.report = report
        lines = "; ".join(str(v) for v in report.violations)
        super().__init__(f"document has {len(report.violations)} violation(s): {lines}")


class ArithmeticOverflow(XdgdlError):
    """A descriptor quantity exceeds the supported 64-bit range."""


class NoDevices(XdgdlError):
    """The island declares no server or no device to place bytes on."""


class NotAPartition(XdgdlError):
    """A distribution map does not cover the file exactly once."""

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(f"extents do not form an exact partition: {verdict.status.name}")


class MissingFragment(XdgdlError):
    """A device's fragment is absent."""


class ExtraFragment(XdgdlError):
    """A fragment does not correspond to any map entry."""


class LengthMismatch(XdgdlError):
    """A fragment's payload length differs from its extent total."""


class IoFailure(XdgdlError):
    """A filesystem operation failed."""

    def __init__(self, path, message: str):
        self.path = path
        super().__init__(f"{message}: {path}")


class EmptyDeviceList(XdgdlError):
    """The configuration declares zero storage devices."""


class DuplicateTimestamp(XdgdlError):
    """A fragment with this timestamp id is already stored."""


class MissingManifest(XdgdlError):
    """No stored descriptor exists for the requested name."""


class RosterMismatch(XdgdlError):
    """A descriptor references more devices than the store provides."""


class ConfigError(XdgdlError):
    """Invalid server configuration text."""


class MissingKey(ConfigError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"missing required configuration key {key}")


class UnknownKey(ConfigError):
    def __init__(self, token: str, ordinal: int):
        self.token = token
        self.ordinal = ordinal
        super().__init__(f"unknown configuration key {token!r} (token {ordinal})")


class DeviceCountMismatch(ConfigError):
    def __init__(self, token: str, ordinal: int, message: str):
        self.token = token
        self.ordinal = ordinal
        super().__init__(f"{message}: {token!r} (token {ordinal})")


class DimensionMismatch(XdgdlError):
    """Array and processor dimensionalities cannot be mapped."""


class UnresolvedProcessors(XdgdlError):
    """An array is distributed onto an undeclared processor array."""
