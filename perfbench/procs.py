"""/proc readers: the process tree of a benchmark run, its CPU time and
memory, and a clean wait for every process it started (Linux only)."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat(pid) -> list:
    """Fields of /proc/<pid>/stat after the command name (state first)."""
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()


def _proc_table() -> dict:
    """pid -> (ppid, starttime, state) for every visible process."""
    out = {}
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            fields = _stat(p)
        except OSError:
            continue
        out[int(p)] = (int(fields[1]), fields[19], fields[0])
    return out


def descendants(table: dict, root: int) -> list:
    kids: dict = {}
    for pid, (ppid, _st, _state) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for k in kids.get(todo.pop(), []):
            out.append(k)
            todo.append(k)
    return out


def tree_cpu_s() -> float:
    """CPU seconds (user + system) used so far by this process, its Ray
    worker descendants (the processes whose memory ``ProcWatch`` sums)
    and the workers that already exited (reaped by the raylet, so in its
    children's times).  Ray's daemons' own CPU is left out: it is mostly
    polling that grows with wall time, not with work.  Time the
    hypervisor steals is not charged to processes, so this moves far less
    than wall time with the load other tenants put on the machine."""
    me = os.getpid()
    total = 0
    for pid in [me] + descendants(_proc_table(), me):
        try:
            f = _stat(pid)
        except OSError:
            continue
        if pid == me or _is_worker(pid):
            total += int(f[11]) + int(f[12])
        else:
            total += int(f[13]) + int(f[14])
    return total / _CLK_TCK


# Child process of SpeedProbe: every 100 ms, the CPU time of a fixed loop.
_PROBE = """
import sys, time
while True:
    t0 = time.thread_time()
    x = 0
    for i in range(50_000):
        x += i
    print(time.monotonic(), time.thread_time() - t0, flush=True)
    time.sleep(0.1)
"""


class SpeedProbe:
    """Measures the machine's CPU speed while jobs run.  On this VM a
    fixed amount of Python work takes ~30% more CPU time in busy periods
    of the host than in quiet ones, and the periods change within
    minutes; CPU time per doc moves with it.  A separate process times a
    fixed loop (a few ms, 10 times a second, on a core the jobs do not
    need) so a job's CPU time can be rescaled by the probe's mean over the
    job's interval."""

    def __init__(self):
        self.samples: list = []        # (monotonic time, loop CPU seconds)
        self._proc = subprocess.Popen([sys.executable, "-c", _PROBE],
                                      stdout=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        for line in self._proc.stdout:
            t, cpu = line.split()
            self.samples.append((float(t), float(cpu)))

    def mean_between(self, t0: float, t1: float) -> float:
        """Mean loop CPU time over [t0, t1] (the nearest sample if none)."""
        inside = [c for t, c in list(self.samples) if t0 <= t <= t1]
        if not inside:
            inside = [min(list(self.samples), key=lambda s: abs(s[0] - t1))[1]]
        return sum(inside) / len(inside)

    def close(self):
        self._proc.kill()
        self._proc.wait()
        self._reader.join()


def cpu_ticks() -> tuple:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except OSError:
        return 0


def _is_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


class ProcWatch:
    """Samples /proc every 200 ms (about 1% of a core).  Remembers every
    descendant process it ever saw, so they can be awaited at exit even
    once re-parented, and, while ``measuring`` is set, the peak summed RSS
    of this process and its Ray worker descendants."""

    def __init__(self):
        self.me = os.getpid()
        self.seen: dict = {}          # pid -> starttime
        self.peak = 0
        self.measuring = False
        self.killed: list = []        # command lines of stragglers killed at exit
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.wait(0.2):
            table = _proc_table()
            desc = descendants(table, self.me)
            for pid in desc:
                self.seen.setdefault(pid, table[pid][1])
            if self.measuring:
                rss = _rss_bytes(self.me) + sum(
                    _rss_bytes(p) for p in desc if _is_worker(p))
                self.peak = max(self.peak, rss)

    def stop_all(self, timeout: float = 10.0) -> None:
        """Wait until every process ever seen has ended; kill stragglers."""
        self._stop.set()
        self._thread.join()
        deadline = time.monotonic() + timeout
        while True:
            try:
                while os.waitpid(-1, os.WNOHANG)[0] > 0:   # reap our zombies
                    pass
            except ChildProcessError:
                pass
            table = _proc_table()
            alive = [p for p, st in self.seen.items()
                     if p in table and table[p][1] == st and table[p][2] != "Z"]
            if not alive:
                return
            if time.monotonic() > deadline:
                for p in alive:
                    try:
                        with open(f"/proc/{p}/cmdline", "rb") as f:
                            cmd = f.read().replace(b"\0", b" ")[:120].decode(errors="replace")
                        os.kill(p, 9)
                        self.killed.append(cmd)
                    except OSError:
                        pass
                deadline = time.monotonic() + 10
            time.sleep(0.1)
