"""Inline suppression comments for reprolint.

Two forms, mirroring pylint's pragmas:

* ``# reprolint: disable=REP001`` — suppress the named rule(s) on the
  physical line carrying the comment (comma-separate several codes, or
  use ``all``).  When the comment stands alone on its line, it covers
  the *next* line instead — use this for statements too long to carry a
  trailing comment.  Trailing prose after the codes is allowed and
  encouraged: state *why* the violation is intentional.
* ``# reprolint: disable-file=REP002`` — suppress the rule(s) for the
  whole file; place it anywhere (conventionally in the module docstring
  region).

Comments are located with :mod:`tokenize` so ``#`` characters inside
string literals cannot masquerade as pragmas.

Every pragma is tracked individually (:class:`PragmaEntry`), recording
which of its codes actually shielded a diagnostic during a run — that
is what ``--check-suppressions`` reads to report stale pragmas that no
longer suppress anything.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, List, Optional, Set, Tuple

_PRAGMA = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

#: Sentinel meaning "every rule".
ALL_CODES = "all"


@dataclass
class PragmaEntry:
    """One ``# reprolint: disable[-file]=...`` comment in one file."""

    #: line the pragma comment itself sits on (diagnostic anchor).
    pragma_line: int
    #: line the pragma shields, or ``None`` for a file-wide pragma.
    target: Optional[int]
    codes: FrozenSet[str]
    #: codes (or :data:`ALL_CODES`) that suppressed at least one
    #: diagnostic during the run.
    used: Set[str] = field(default_factory=set)

    def matches_line(self, line: int) -> bool:
        return self.target is None or self.target == line

    def stale_codes(self) -> List[str]:
        """The codes this pragma names that shielded nothing."""
        if ALL_CODES in self.codes:
            return [] if self.used else [ALL_CODES]
        return sorted(self.codes - self.used)


@dataclass
class SuppressionMap:
    """Which rule codes are suppressed where, for one source file."""

    entries: List[PragmaEntry] = field(default_factory=list)

    def is_suppressed(self, code: str, line: int) -> bool:
        """True when ``code`` is disabled at ``line``; marks usage."""
        hit = False
        for entry in self.entries:
            if not entry.matches_line(line):
                continue
            if ALL_CODES in entry.codes:
                entry.used.add(ALL_CODES)
                hit = True
            elif code in entry.codes:
                entry.used.add(code)
                hit = True
        return hit

    def iter_stale(self) -> Iterator[Tuple[PragmaEntry, str]]:
        """``(entry, code)`` pairs that suppressed nothing this run."""
        for entry in self.entries:
            for code in entry.stale_codes():
                yield entry, code


def _comments(source: str) -> List[Tuple[int, int, str]]:
    """``(line, col, comment_text)`` triples, via tokenize (regex fallback)."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        return [
            (tok.start[0], tok.start[1], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Damaged file: fall back to a crude per-line scan so pragmas
        # still work while the syntax error itself gets reported.
        return [
            (idx, line.index("#"), line[line.index("#"):])
            for idx, line in enumerate(source.splitlines(), start=1)
            if "#" in line
        ]


def parse_suppressions(source: str) -> SuppressionMap:
    """Extract every reprolint pragma from ``source``."""
    smap = SuppressionMap()
    lines = source.splitlines()
    for line, col, comment in _comments(source):
        match = _PRAGMA.search(comment)
        if match is None:
            continue
        codes: FrozenSet[str] = frozenset(
            ALL_CODES if code.strip().lower() == ALL_CODES
            else code.strip().upper()
            for code in match.group("codes").split(",")
            if code.strip()
        )
        if match.group("kind") == "disable-file":
            smap.entries.append(PragmaEntry(line, None, codes))
            continue
        # A standalone pragma (nothing but whitespace before the ``#``)
        # shields the statement on the following line.
        text_before = lines[line - 1][:col] if line - 1 < len(lines) else ""
        target = line + 1 if not text_before.strip() else line
        smap.entries.append(PragmaEntry(line, target, codes))
    return smap
