"""Exception types shared across the toolkit.

Each error carries the exit code the command line ends with
(``exit_code``):

2  ``DescriptorError`` (``ParseError``, ``ValidationError``,
   ``InvalidDocument``) and ``ConfigError``: a descriptor or a
   configuration it cannot use;
3  ``NotAPartition``: a layout that is not an exact partition;
4  ``XdgdlError`` itself and ``IoFailure``: a store or I/O failure.

A subclass exists only where it carries data beyond its message; any
other failure is raised as the class of its exit code.

Every file-system call goes through one rule, ``failing``: its OSError
becomes IoFailure, ``cannot <action> (<reason>): <path>``.  Four missing
files keep messages of their own: ``no stored descriptor for 'x'``, ``no
stored size for 'x'``, ``device ... has no fragment at ...`` and the
sidecar diagnostic ``no sidecar ...``.
"""

from __future__ import annotations


class XdgdlError(Exception):
    """Base class for every error raised by this package: a store or I/O
    failure unless a subclass says otherwise."""

    exit_code = 4


class DescriptorError(XdgdlError):
    """A descriptor that cannot be used: malformed, invalid, or naming a
    quantity or mapping the toolkit cannot evaluate."""

    exit_code = 2


class ParseError(DescriptorError):
    """Malformed XML input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(DescriptorError):
    """A structural rule was broken while building a document from XML."""

    def __init__(self, rule: str, path: str, message: str):
        self.rule = rule
        self.path = path
        super().__init__(f"[{rule}] {path}: {message}")


class InvalidDocument(DescriptorError):
    """A document failed validation where a clean report is required."""

    def __init__(self, report):
        self.report = report
        lines = "; ".join(str(v) for v in report.violations)
        super().__init__(f"document has {len(report.violations)} violation(s): {lines}")


class NotAPartition(XdgdlError):
    """A distribution map does not cover the file exactly once."""

    exit_code = 3

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(f"extents do not form an exact partition: {verdict.status.name}")


class IoFailure(XdgdlError):
    """A filesystem operation failed."""

    def __init__(self, path, message: str):
        self.path = path
        super().__init__(f"{message}: {path}")


def failing(path, action: str, fn, /, *args, missing: str | None = None, **kwargs):
    """``fn(*args, **kwargs)`` under the rule; a missing file raises XdgdlError(missing) if given."""
    try:
        return fn(*args, **kwargs)
    except OSError as exc:
        if missing is not None and isinstance(exc, FileNotFoundError):
            raise XdgdlError(missing) from None
        raise IoFailure(path, f"cannot {action} ({exc.strerror or exc})") from exc


class ConfigError(XdgdlError):
    """Invalid server configuration text."""

    exit_code = 2
