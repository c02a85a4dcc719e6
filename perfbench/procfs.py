"""Process facts from ``/proc``: descendants, CPU time, memory, liveness,
and the host fingerprint recorded with every result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # Fields after the parenthesised command name, from field 3 on.
    return text.rsplit(")", 1)[1].split()


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid``."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        kids = [child for child, ppid in parents.items() if ppid == parent]
        found += kids
        frontier += kids
    return found


def alive(pid: int) -> bool:
    """Running or sleeping; a zombie has finished and counts as gone."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] not in ("Z", "X")


def cpu_seconds(pids) -> float:
    """User plus system CPU time of ``pids`` (gone ones count 0)."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total * _TICK_S


def machine_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine, from
    ``/proc/stat``: time the hypervisor gave to other guests."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice],
    # where guest time is already counted in user.
    return fields[7], sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Steal over all CPU time between two :func:`machine_ticks`."""
    steal, total = (b - a for a, b in zip(before, after))
    return steal / max(total, 1)


def rss_bytes(pids) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1]) * 1024
        except OSError:
            continue
    return total


def commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fingerprint(root: Path) -> dict:
    mem_kb = 0
    with open("/proc/meminfo") as handle:
        for line in handle:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {"cores": os.cpu_count(),
            "ram_gb": round(mem_kb / 2 ** 20, 1),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": commit(root)}
