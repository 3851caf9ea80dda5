"""The lexical rules every hardylab text format shares.

`#` starts a comment, blank lines are skipped, commas count as spaces,
and each kept line carries its original 1-based number, so a diagnostic
can name the line it came from.  Numbers are finite ints or floats; any
other value raises a ValueError that names where it was found.
"""

from __future__ import annotations

import math


def content_lines(text: str):
    """(lineno, line) for every line left non-blank once its comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def fields(line: str) -> list:
    """Split on whitespace, with commas counted as spaces."""
    return line.replace(",", " ").split()


def numbers(words, cast, what: str) -> list:
    """Each word as a finite value of cast (int or float); what names the input."""
    kind = "integers" if cast is int else "finite numbers"
    out = []
    for word in words:
        try:
            value = cast(word)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{what} wants {kind}, got {word!r}")
        out.append(value)
    return out
