"""``repro.traffic`` — real-trace ingestion.

The input side of the simulator for recorded workloads: a streaming
loader for MSR-Cambridge/SNIA block-trace CSV (optionally gzipped) and
the compact ``.rbt`` binary chunk format it converts to.  Both emit the
dual-granularity streams :func:`repro.sim.engine.run_trace_fast` and
:func:`~repro.sim.engine.run_trace` consume interchangeably — chunked
and scalar forms of one identical write stream.

See ``docs/workloads.md`` for the formats, windowing semantics and the
error taxonomy.
"""

from repro.traffic.adapter import (
    convert_to_rbt,
    open_trace_chunks,
    open_trace_entries,
    trace_format,
)
from repro.traffic.csvtrace import (
    AddressWindow,
    CSVRecord,
    csv_info,
    csv_trace_chunks,
    csv_trace_entries,
    iter_csv_records,
)
from repro.traffic.errors import (
    TraceFileCorruptError,
    TraceFileError,
    TraceFileMissingError,
    TraceFileTruncatedError,
    TraceFileVersionError,
)
from repro.traffic.rbt import (
    read_rbt_chunks,
    read_rbt_entries,
    rbt_metadata,
    rbt_n_entries,
    write_rbt,
)

__all__ = [
    "AddressWindow",
    "CSVRecord",
    "TraceFileCorruptError",
    "TraceFileError",
    "TraceFileMissingError",
    "TraceFileTruncatedError",
    "TraceFileVersionError",
    "convert_to_rbt",
    "csv_info",
    "csv_trace_chunks",
    "csv_trace_entries",
    "iter_csv_records",
    "open_trace_chunks",
    "open_trace_entries",
    "rbt_metadata",
    "rbt_n_entries",
    "read_rbt_chunks",
    "read_rbt_entries",
    "trace_format",
    "write_rbt",
]
