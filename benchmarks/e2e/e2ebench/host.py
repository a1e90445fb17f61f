"""What the benchmark reads from the operating system: CPU, memory, provenance."""

from __future__ import annotations

import os
import platform
import subprocess
import time
from typing import Any, Dict, Iterable, Optional

_TICK = os.sysconf("SC_CLK_TCK")


def _pid_cpu_s(pid: int) -> float:
    """user+sys CPU seconds of a live process (0 once it is gone)."""
    try:
        # Nanoseconds on a CPU, where the kernel keeps them; ``stat`` counts
        # in 10 ms ticks, which is 1 % of a half-second slice per process.
        with open(f"/proc/{pid}/schedstat", "rb") as handle:
            return int(handle.read().split()[0]) / 1e9
    except (OSError, IndexError, ValueError):
        pass
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def cpu_seconds(children: Iterable[int]) -> Dict[str, float]:
    """CPU consumed so far: by this process, and by it plus its children.

    Children still running are read from ``/proc``; children already reaped
    (a killed replica) are in ``os.times()``, so a delta across a window
    that contains a kill and a restart still adds up.
    """
    own = time.process_time()
    reaped = os.times()
    total = own + reaped.children_user + reaped.children_system
    total += sum(_pid_cpu_s(pid) for pid in children)
    return {"driver": own, "total": total}


def peak_rss_mib(pids: Iterable[int]) -> float:
    """Sum of ``VmHWM`` over this process and ``pids``, in MiB."""
    total_kib = 0
    for pid in [os.getpid(), *pids]:
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0


def reset_peak_rss() -> None:
    """Start this process's ``VmHWM`` afresh, so a workload run after another
    in one process does not report its predecessor's peak."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def filesystem_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, fs_type = "", "unknown"
    try:
        with open("/proc/mounts", "r", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                mount = parts[1]
                prefix = mount.rstrip("/") + "/"
                if (path + "/").startswith(prefix) and len(mount) > len(best):
                    best, fs_type = mount, parts[2]
    except OSError:
        pass
    return fs_type


def _git(root: str, *args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def provenance(root: str, work_dir: str, seed: int, quick: bool) -> Dict[str, Any]:
    """Where a result came from.  ``dirty`` is true for uncommitted code, and
    ``git_sha`` is null outside a git checkout: neither can pass for a commit."""
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain")
    return {
        "git_sha": sha.strip() if sha else None,
        "dirty": bool(status.strip()) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "wal_filesystem": filesystem_type(work_dir),
        "seed": seed,
        "quick": quick,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
