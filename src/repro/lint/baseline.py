"""Warn-only baselines: land a new rule family, ratchet it to zero.

A baseline file records the diagnostics a tree is *known* to produce,
keyed by ``path|code|message`` with an occurrence count (line numbers
are deliberately excluded — inserting a line above a known finding must
not break the build).  ``--baseline check`` then reports only findings
**not** in the baseline, so a new rule family can merge while its
existing findings are paid down incrementally.

The ratchet has teeth in both directions: a baseline entry that no
longer matches anything is reported as *stale* and fails the check, so
the file can only ever shrink — fixed findings cannot silently regress
back in under an over-broad baseline.

Format (JSON, stable ordering)::

    {"format": 1, "entries": {"src/x.py|REP101|msg...": 2, ...}}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.lint.diagnostics import Diagnostic

_FORMAT = 1


class BaselineError(ValueError):
    """The baseline file is unreadable or has the wrong format."""


def baseline_key(diag: Diagnostic) -> str:
    """Stable identity of a finding: location-insensitive on purpose."""
    return f"{diag.path}|{diag.code}|{diag.message}"


def write_baseline(
    diagnostics: Sequence[Diagnostic], path: Path
) -> int:
    """Record ``diagnostics`` as the accepted baseline; returns count."""
    entries: Dict[str, int] = {}
    for diag in diagnostics:
        key = baseline_key(diag)
        entries[key] = entries.get(key, 0) + 1
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"format": _FORMAT, "entries": dict(sorted(entries.items()))}
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return len(entries)


def load_baseline(path: Path) -> Dict[str, int]:
    """Load a baseline written by :func:`write_baseline`."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BaselineError(f"baseline file not found: {path}")
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(f"unreadable baseline {path}: {exc}")
    if (not isinstance(payload, dict)
            or payload.get("format") != _FORMAT
            or not isinstance(payload.get("entries"), dict)):
        raise BaselineError(
            f"{path} is not a format-{_FORMAT} reprolint baseline"
        )
    entries: Dict[str, int] = {}
    for key, count in payload["entries"].items():
        if not isinstance(key, str) or not isinstance(count, int):
            raise BaselineError(f"{path}: malformed entry {key!r}")
        entries[key] = count
    return entries


def apply_baseline(
    diagnostics: Sequence[Diagnostic], entries: Dict[str, int]
) -> Tuple[List[Diagnostic], List[str]]:
    """Split findings against a baseline.

    Returns ``(new, stale)``: diagnostics not covered by the baseline
    (each key covers up to its recorded count), and baseline keys whose
    findings no longer occur at all — fixed findings that must now be
    removed from the file so they cannot regress.
    """
    remaining = dict(entries)
    new: List[Diagnostic] = []
    for diag in sorted(diagnostics):
        key = baseline_key(diag)
        budget = remaining.get(key, 0)
        if budget > 0:
            remaining[key] = budget - 1
        else:
            new.append(diag)
    stale = sorted(
        key for key, count in remaining.items()
        if count == entries.get(key)  # never matched even once
    )
    return new, stale
