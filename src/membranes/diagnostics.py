"""Diagnostics shared by the parser and the system validator."""
from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    ERROR = "error"


@dataclass(frozen=True)
class SourceSpan:
    """A half-open region of an input file; line and column are 1-based."""

    file: str
    line: int
    column: int
    length: int = 0

    def __post_init__(self):
        if self.line < 1 or self.column < 1:
            raise ValueError("line and column are 1-based")

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class Diagnostic:
    """One problem found in an input text or an in-memory system.

    `span` is None for diagnostics about systems built programmatically;
    the parser always attaches a real span. `site` names the offending
    site when the problem is site-local, so callers can re-anchor spans.
    """

    severity: Severity
    message: str
    span: SourceSpan | None = None
    site: str | None = None

    def __post_init__(self):
        if not self.message:
            raise ValueError("diagnostic message must be nonempty")

    def __str__(self) -> str:
        where = f"{self.span}: " if self.span is not None else ""
        return f"{where}{self.severity.value}: {self.message}"


def error(message: str, span: SourceSpan | None = None, site: str | None = None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, message, span, site)
