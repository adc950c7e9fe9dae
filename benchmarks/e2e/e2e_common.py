"""Plumbing shared by the end-to-end workloads: inputs, digests, epochs.

Everything here is benchmark-side.  The program under test is reached only
through its public surface (``repro.connect``, ``Connection.execute``,
``Catalog.create_series/append/register_query``, ``python -m repro server
serve``); this module generates the inputs those calls receive, times them
from outside, and checks what they return.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
OUT = HERE / "out"

#: How often a run repeats what it takes a median of — set-ups (``setup_s``
#: is their median plus the one reference pass) and the kernels of a host
#: probe.  The smoke scale checks the plumbing; once does that.
REPEATS = {"full": 3, "smoke": 1}

#: What :func:`host_probe` reads on this sandbox in a quiet quarter of an
#: hour.  Timings are reported at this host speed (see ``host_probe``).
REFERENCE_PROBE_MS = 11.0


# ----------------------------------------------------------------------
# Inputs.
# ----------------------------------------------------------------------
def random_walks(
    rng: np.random.Generator, n_series: int, length: int
) -> dict[str, np.ndarray]:
    """``20 + cumsum(N(0, 0.1))`` walks keyed ``sensor-000`` …"""
    return {
        f"sensor-{index:03d}": 20.0
        + np.cumsum(rng.normal(0.0, 0.1, size=length))
        for index in range(n_series)
    }


def build_catalog(
    root: Path,
    walks: dict[str, np.ndarray],
    *,
    H: int,
    grid: Any,
    segment_times: int,
) -> Any:
    """A catalog holding ``walks``, one segment per ``segment_times`` rows.

    The first append carries the ``H`` warm-up values with the first
    segment's values, so every segment stores exactly ``segment_times``
    inferred times.
    """
    from repro.store import Catalog

    catalog = Catalog(root)
    for series_id, values in walks.items():
        catalog.create_series(
            series_id, metric="variable_threshold", H=H, grid=grid
        )
        cut = H + segment_times
        catalog.append(series_id, values[:cut])
        while cut < len(values):
            catalog.append(series_id, values[cut : cut + segment_times])
            cut += segment_times
    return catalog


# ----------------------------------------------------------------------
# Correctness.
# ----------------------------------------------------------------------
def _without_pruning(payload: Any) -> Any:
    """The payload minus its ``pruning`` blocks.

    The block reports how many segments the zone maps skipped, so it
    legitimately differs between the pruning service under test and the
    ``pruning=False`` reference; rows, scores and order must not.
    """
    if not isinstance(payload, dict):
        return payload
    out = {key: value for key, value in payload.items() if key != "pruning"}
    if "statements" in out:
        out["statements"] = [_without_pruning(s) for s in out["statements"]]
    return out


def digest(result: Any) -> str:
    """SHA-256 of a result's canonical JSON (``to_dict`` payload)."""
    text = json.dumps(
        _without_pruning(result.to_dict()),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_digests(root: Path, statements: list[str]) -> dict[str, str]:
    """Each statement's digest from a sequential, unpruned service."""
    from repro.service import CatalogQueryService

    with CatalogQueryService(
        root, backend="sequential", pruning=False
    ) as service:
        return {text: digest(service.execute(text)) for text in statements}


# ----------------------------------------------------------------------
# Epochs: one pass over a workload's fixed op list.
# ----------------------------------------------------------------------
@dataclass
class Epoch:
    """What one pass over the op list measured.

    ``latencies_ms`` maps an op class to its client-observed latencies;
    ``statements`` counts ``Connection.execute`` calls (appends are ops
    but not statements); ``units`` carries totals the workload counted at
    its own boundaries (values ingested, bytes stored, server counters …)
    — a key that is a per-layer metric's name is reported per epoch.
    """

    wall_s: float = 0.0
    epochs: int = 0
    latencies_ms: dict[str, list[float]] = field(default_factory=dict)
    statements: int = 0
    attempted: int = 0
    failed: int = 0
    units: dict[str, float] = field(default_factory=dict)

    def record(self, op_class: str, seconds: float) -> None:
        self.latencies_ms.setdefault(op_class, []).append(seconds * 1e3)

    def wall_from_latencies(self) -> None:
        """One thread ran the ops back to back: the wall is their sum.

        Checks between ops are the harness's time, not the workload's.
        """
        self.wall_s = sum(sum(v) for v in self.latencies_ms.values()) / 1e3

    def merge(self, other: "Epoch") -> None:
        self.wall_s += other.wall_s
        self.epochs += other.epochs
        for op_class, values in other.latencies_ms.items():
            self.latencies_ms.setdefault(op_class, []).extend(values)
        self.statements += other.statements
        self.attempted += other.attempted
        self.failed += other.failed
        for key, value in other.units.items():
            self.units[key] = self.units.get(key, 0.0) + value


def timed(epoch: Epoch, op_class: str, call: Any, *args: Any) -> Any:
    """Run one op, record its latency; ``None`` (and a failure) if it raised."""
    epoch.attempted += 1
    start = time.perf_counter()
    try:
        result = call(*args)
    except Exception as exc:  # noqa: BLE001 - a failed op is a data point.
        epoch.record(op_class, time.perf_counter() - start)
        epoch.failed += 1
        print(f"op {op_class} failed: {exc!r}", file=sys.stderr)
        return None
    epoch.record(op_class, time.perf_counter() - start)
    return result


def check(epoch: Epoch, ok: bool, what: str) -> None:
    """Count one correctness check as an attempted (and maybe failed) op."""
    epoch.attempted += 1
    if not ok:
        epoch.failed += 1
        print(f"check failed: {what}", file=sys.stderr)


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def class_mean(epoch: Epoch, classes: tuple[str, ...], q: float) -> float:
    """Mean over op classes of each class's ``q``-th percentile latency.

    A percentile pooled over classes of different cost sits in the gap
    between two classes and jumps across it from run to run; weighting
    the classes equally does not.
    """
    return statistics.mean(
        percentile(epoch.latencies_ms[op_class], q) for op_class in classes
    )


# ----------------------------------------------------------------------
# Host facts.
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """This interpreter's high-water resident set, MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another process's ``VmHWM`` from ``/proc``, MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _gauss_cdf_kernel() -> Any:
    from scipy.special import ndtr

    rng = np.random.default_rng(0)
    mean = rng.normal(20.0, 1.0, size=(4096, 1))
    sigma = rng.uniform(0.1, 1.0, size=(4096, 1))
    edges = np.linspace(15.0, 25.0, 64)[None, :]
    return lambda: ndtr((edges - mean) / sigma).sum()


def _python_kernel() -> None:
    total = 0.0
    for index in range(200_000):
        total += index * 0.5


def _small_arrays_kernel() -> None:
    values = np.arange(100.0)
    for _ in range(10_000):
        values = values * 1.0000001 + 0.1


def _on_two_threads(kernel: Any) -> None:
    threads = [threading.Thread(target=kernel) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _median_ms(call: Any, *args: Any, repeats: int) -> float:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        call(*args)
        timings.append((time.perf_counter() - start) * 1e3)
    return statistics.median(timings)


def calibrate_gauss_cdf_ms() -> float:
    """One fixed ``(4096, 64)`` Gaussian-CDF broadcast, median of 5, ms.

    The unit ROADMAP asks for: numbers from two hosts can be divided by
    it before they are compared.
    """
    return _median_ms(_gauss_cdf_kernel(), repeats=5)


def host_probe(repeats: int = 3) -> float:
    """How fast this host is right now, as one number in milliseconds.

    The geometric mean of five fixed kernels that belong to the benchmark,
    not to the program: a big-array Gaussian CDF, a pure-python loop, a
    loop of small-array operations, and the last two again on two threads
    at once (the interpreter lock across cores).  The sandbox's speed
    moves by 20–40% for minutes at a time; over twenty runs of three
    workloads the probe tracked a workload's latency with correlation
    0.7–0.8, and dividing by it halved both the run-to-run spread and the
    drift between a first and a second set of runs.
    """
    kernels = (
        (_gauss_cdf_kernel(),),
        (_python_kernel,),
        (_small_arrays_kernel,),
        (_on_two_threads, _python_kernel),
        (_on_two_threads, _small_arrays_kernel),
    )
    logs = [
        math.log(_median_ms(*kernel, repeats=repeats)) for kernel in kernels
    ]
    return math.exp(sum(logs) / len(logs))


# ----------------------------------------------------------------------
# Processes: nothing the benchmark started may outlive it.
# ----------------------------------------------------------------------
_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


def die_with_parent() -> None:
    """``preexec_fn``: the child is killed if the benchmark is (Linux).

    Covers the one way out that no ``finally`` sees, a ``SIGKILL`` of the
    benchmark itself.
    """
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def adopt_orphans() -> bool:
    """Make this process the parent of every orphaned descendant (Linux).

    A grandchild whose parent exits — the ``multiprocessing`` resource
    tracker that the process backend's spawn pool starts, a server's
    worker — is then handed to this process, not to init, so
    :func:`stop_descendants` can wait until it has ended.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def descendants() -> list[int]:
    """Every live or zombie process below this one, from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # Ended between the listing and the read.
        # "pid (comm) state ppid …"; comm may itself hold spaces and ")".
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found: list[int] = []
    frontier = [os.getpid()]
    while frontier:
        frontier = [c for pid in frontier for c in children.get(pid, [])]
        found += frontier
    return found


def stop_descendants(timeout_s: float = 30.0) -> int:
    """Kill and reap whatever is still running below this process.

    Called last, after every workload has torn down what it knows it
    started, so anything found here is a leftover: it gets ``SIGKILL``
    and is waited for.  Returns how many processes were left over.
    """
    leftovers: set[int] = set()
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        pids = descendants()
        if not pids:
            break
        leftovers.update(pids)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        time.sleep(0.01)
    return len(leftovers)


def git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_fingerprint() -> dict[str, Any]:
    import scipy

    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "host.calib_gauss_cdf_ms": calibrate_gauss_cdf_ms(),
        "git_commit": git_commit(),
    }
