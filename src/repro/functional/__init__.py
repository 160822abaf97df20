"""Functional (architectural) execution and dynamic traces."""

from repro.functional.checkpoint import (
    load_checkpoint,
    restore,
    save_checkpoint,
    snapshot,
)
from repro.functional.machine import (
    FUNCTIONAL_VERSION,
    ArchState,
    ExecutionLimitExceeded,
    FunctionalMachine,
    program_digest,
    run_program,
)
from repro.functional.memory_image import SparseMemory
from repro.functional.trace import DynInstr, Trace

__all__ = [
    "load_checkpoint",
    "restore",
    "save_checkpoint",
    "snapshot",
    "FUNCTIONAL_VERSION",
    "ArchState",
    "ExecutionLimitExceeded",
    "FunctionalMachine",
    "program_digest",
    "run_program",
    "SparseMemory",
    "DynInstr",
    "Trace",
]
