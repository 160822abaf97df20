"""Host fingerprint, load guard and peak memory."""

from __future__ import annotations

import os
import platform
import resource
from typing import Dict

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_1m() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return -1.0


def fingerprint() -> Dict:
    """What a result must be read against: cores, CPU, interpreter."""
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def load_record(start: float, end: float, nproc: int) -> Dict:
    """The 1-minute load average around a run; ``loaded`` flags a run
    that began with more runnable work than cores."""
    return {
        "load_1m_start": start,
        "load_1m_end": end,
        "loaded": start > nproc,
    }


def reset_peak_rss() -> bool:
    """Restart this process's peak-RSS high-water mark (Linux
    ``clear_refs`` 5), so set-up that must not count is forgotten.
    Returns False where the kernel does not allow it."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """This process's peak RSS since the last :func:`reset_peak_rss`
    (``VmHWM``), in MiB; falls back to ``ru_maxrss`` (KiB on Linux)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """The largest peak RSS of any waited-for child process, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
