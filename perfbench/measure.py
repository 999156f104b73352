"""Measurement helpers shared by the harness (``run.py``) and the
workload child (``workloads.py``): host record, process-tree memory,
order statistics and in-memory spans.  Standard library only, so the
harness can import it before it knows whether guacray is present."""

from __future__ import annotations

import hashlib
import os
import signal
import statistics
import subprocess
import time
from contextlib import contextmanager, nullcontext

CALIB_MB = 64


def nproc() -> int:
    """What the ``nproc`` command prints: the CPUs this process may use,
    lowered by OMP_NUM_THREADS / OMP_THREAD_LIMIT when they are set."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
        return int(out)
    except (OSError, subprocess.SubprocessError, ValueError):
        return len(os.sched_getaffinity(0))


def ray_cpus(host_cpus: int) -> int:
    """The Ray local-cluster width for a host with ``host_cpus`` CPUs.

    Never 1: on a 1-CPU host ``ray.init(num_cpus=1)`` made no progress
    in 160 s on 2,048 pages.  run_kg's link actor pool takes the only
    CPU slot and the checkpoint write tasks behind it never schedule.
    A width of 2 logical CPUs on the same host completed 22 of 22
    builds."""
    return max(2, host_cpus)


def calibration_ms() -> float:
    """Fixed single-threaded CPU probe: blake2b over CALIB_MB MiB.  Its
    drift between runs measures host contention, not program speed."""
    buf = b"\xab" * (1 << 20)
    t0 = time.perf_counter()
    h = hashlib.blake2b()
    for _ in range(CALIB_MB):
        h.update(buf)
    h.digest()
    return (time.perf_counter() - t0) * 1e3


def _stat_fields(pid: str) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return None
    # fields after the parenthesised command name: state ppid pgrp sid
    return stat.rsplit(")", 1)[1].split()


def process_tree(root_pid: int) -> list[int]:
    """``root_pid`` and every live descendant (Ray's gcs, raylet and
    worker processes descend from the driver that called ray.init)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    out, stack = [], [root_pid]
    while stack:
        pid = stack.pop()
        out.append(pid)
        stack.extend(children.get(pid, ()))
    return out


def session_members(sid: int) -> list[int]:
    """Live processes whose session id is ``sid``."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None and int(fields[3]) == sid \
                    and fields[0] != "Z":
                out.append(int(entry))
    return out


def kill_session(sid: int, timeout_s: float = 15.0) -> bool:
    """SIGKILL every process in session ``sid``; True once none is left.
    The child is started with its own session, and Ray's processes
    inherit it, so this reaps a hung Ray cluster with its driver."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        pids = session_members(sid)
        if not pids:
            return True
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.1)
    return not session_members(sid)


def tree_rss_mb(root_pid: int) -> float:
    """Summed resident set size of a process tree, in MiB."""
    pages = 0
    for pid in process_tree(root_pid):
        try:
            with open(f"/proc/{pid}/statm") as f:
                pages += int(f.read().split()[1])
        except OSError:
            pass
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def host_cpu_s() -> tuple[float, float]:
    """(busy, stolen) CPU seconds of the whole host since boot, from
    /proc/stat.  Busy counts every process, exited ones too, so the
    delta over an operation is the CPU work it caused.  Stolen is time
    the hypervisor gave to other guests: it stretches wall times but
    is not work."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    busy = v[0] + v[1] + v[2] + v[5] + v[6]  # user nice system irq softirq
    return busy / os.sysconf("SC_CLK_TCK"), v[7] / os.sysconf("SC_CLK_TCK")


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, or
    the maximum when the samples support none; the label says which."""
    n = len(values)
    for p in (99.0, 95.0, 90.0):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")
            return q[int(p) - 1], f"p{p:g} of {n}"
    return max(values), f"max of {n}"


class Spans:
    """Layer-boundary spans kept in memory: name, start, end, parent
    span and run id.  ``span`` is a no-op when tracing is off."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        rec = {"id": len(self.records), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()
