"""Shared user-facing exception types.

Anything a *user input* can trigger — a malformed ``.pla`` file, a bad
KISS2 state table, an unknown benchmark name — raises
:class:`ReproInputError` (or a subclass) carrying enough context to
print a one-line diagnosis at the CLI boundary instead of a traceback
from deep inside a parser.
"""

from __future__ import annotations

from typing import Optional


class ReproInputError(ValueError):
    """Malformed user input (file content, CLI argument, ...).

    Parameters
    ----------
    message:
        What is wrong.
    source:
        The file (or logical source) the input came from.
    line:
        1-based line number inside ``source``, when known.
    """

    def __init__(self, message: str, source: Optional[str] = None,
                 line: Optional[int] = None):
        self.message = message
        self.source = source
        self.line = line
        super().__init__(str(self))

    def __str__(self) -> str:
        prefix = ""
        if self.source is not None and self.line is not None:
            prefix = f"{self.source}:{self.line}: "
        elif self.source is not None:
            prefix = f"{self.source}: "
        return prefix + self.message


def check_int(name: str, value: object, low: Optional[int] = None,
              high: Optional[int] = None) -> int:
    """``value`` if it is an integer (not a bool) in ``low..high``, else
    raise :class:`ReproInputError`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ReproInputError(f"{name} must be an integer, got "
                              f"{type(value).__name__}")
    if (low is not None and value < low) or \
            (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ReproInputError(f"{name} must be {bounds}, got {value}")
    return value


__all__ = ["ReproInputError", "check_int"]
