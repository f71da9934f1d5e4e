"""The trace-file error taxonomy shared by every loader in the repo.

One base class, four defects.  Both loaders — the MSR/SNIA CSV reader
in :mod:`repro.traffic.csvtrace` and the ``.rbt`` binary chunk reader in
:mod:`repro.traffic.rbt` — raise the *same* subclasses, so callers
(CLI, campaign tasks, smoke scripts) can branch on the defect without
knowing which format they were handed:

* :class:`TraceFileMissingError`   — the path does not exist.
* :class:`TraceFileTruncatedError` — the bytes run out mid-structure
  (interrupted download, killed writer, partial copy).
* :class:`TraceFileCorruptError`   — the bytes are complete but are not
  the format they claim to be (bad magic, unparseable fields, wrong
  dtypes).
* :class:`TraceFileVersionError`   — a well-formed file written by a
  newer (or unknown) format revision.

All four subclass :class:`TraceFileError`, which remains a ``ValueError``
— existing ``except TraceFileError`` / ``except ValueError`` sites keep
working unchanged.
"""

from __future__ import annotations


class TraceFileError(ValueError):
    """A trace file is missing, truncated or not a trace at all."""


class TraceFileMissingError(TraceFileError):
    """The trace file does not exist."""


class TraceFileTruncatedError(TraceFileError):
    """The trace file ends mid-structure (partial copy / killed writer)."""


class TraceFileCorruptError(TraceFileError):
    """The trace file's bytes are not the format they claim to be."""


class TraceFileVersionError(TraceFileError):
    """The trace file was written by an unknown format revision."""
