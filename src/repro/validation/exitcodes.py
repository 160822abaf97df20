"""The one exit-code vocabulary every CLI verb speaks.

Collected here (instead of bare integers sprinkled through
``validation/cli.py``) so scripts, CI jobs, and the job service agree
on what a status means.  The table is documented in the README.
"""

from __future__ import annotations

import enum

__all__ = ["ExitCode"]


class ExitCode(enum.IntEnum):
    """Process exit status of ``repro-experiments`` / ``repro-serve``."""

    #: Clean run: every cell completed, every check passed.
    OK = 0
    #: A detection/verification suite found what it was hunting for:
    #: undetected injected faults (``integrity``) or chaos-scenario
    #: violations (``chaos``).
    FAILURE = 1
    #: Usage or input error: bad flags, unreadable files, malformed
    #: artifacts (argparse also exits 2 on its own).
    USAGE = 2
    #: The grid completed but one or more cells failed or were
    #: quarantined by the sanitizers.
    FAILED_CELLS = 3
    #: A strict sanitizer bundle aborted the run on the first
    #: invariant violation (``--sanitize --strict``).
    STRICT_ABORT = 4
    #: A gated divergence: ``bench --compare`` regression past the
    #: threshold, ``blockcache-check`` byte-inequivalence, or a
    #: ``cache-check`` trace-fingerprint mismatch.
    DIVERGENCE = 5
    #: The job service could not start or serve (``repro-serve``).
    SERVICE = 6
