"""Benchmark of the sepball command line, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One process is one closed-loop client: it calls ``sepball.cli.main(argv)``
in-process, one request after another, and checks every exit code and output
against an answer computed by the benchmark.  The last line of standard
output is the result object; the line before it records the environment and
the per-request details.  ``--trace 1`` reports per-layer metrics instead of
end-to-end ones (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

#: Set-up is repeated until it has taken this long (or MAX_SETUPS times) and
#: its median reported.  Inputs that take longer to write are set up once.
SETUP_BUDGET_S = 2.0
MAX_SETUPS = 5

#: The probe's duration at this benchmark's reference speed: a 2-core
#: x86_64 VM with Python 3.11 and numpy 2.4 in its fast phase.
PROBE_REF_S = 0.001

#: Percentiles tried for the tail latency, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Fewest requests that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def import_sepball():
    """Import the package from this checkout's ``src``; return (package, seconds)."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import sepball
    import sepball.cli  # noqa: F401  (the entry point every request goes through)

    elapsed = time.perf_counter() - start
    origin = Path(sepball.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"sepball was imported from {origin}, not from {SRC}")
    return sepball, elapsed


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
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
    return "unknown"


def blas_info() -> dict:
    """BLAS name, version and thread count as found; nothing is set."""
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    info["env"] = {k: os.environ[k] for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                   if k in os.environ}
    return info


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "commit": git_commit(),
        "seed": seed,
    }


class SpeedProbe:
    """Samples the machine's speed with a fixed ~1 ms task.

    Shared machines change speed by up to 1.5x for seconds to minutes at a
    time, which swamps run-to-run comparisons.  The task (interpreter loop,
    small LAPACK and numpy calls, JSON parsing) touches nothing of the
    package.  It runs between requests and, while ``sampling`` is active,
    every ``INTERVAL_S`` from a timer signal inside them; the signal's time
    is recorded in ``stolen`` so that callers can subtract it.
    """

    INTERVAL_S = 0.2

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._sym = rng.standard_normal((24, 24))
        self._sym += self._sym.T
        self._small = rng.standard_normal((4, 4))
        self._doc = json.dumps([[float(i), -float(i)] for i in range(100)])
        self.times: list[float] = []
        self.stolen = 0.0

    def __call__(self) -> float:
        np = self._np
        start = time.perf_counter()
        total = 0
        for k in range(8000):
            total += k * k
        for _ in range(5):
            np.linalg.eigvalsh(self._sym)
        for _ in range(100):
            np.linalg.norm(self._small @ self._small)
        json.loads(self._doc)
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed

    def _on_alarm(self, signum, frame) -> None:
        entered = time.perf_counter()
        self()
        self.stolen += time.perf_counter() - entered

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args):
        """Run ``fn`` sampled; (result, seconds without probes, seconds at reference speed)."""
        first = len(self.times)
        self()
        stolen = self.stolen
        start = time.perf_counter()
        with self.sampling():
            result = fn(*args)
        seconds = time.perf_counter() - start - (self.stolen - stolen)
        self()
        return result, seconds, seconds * PROBE_REF_S / statistics.fmean(self.times[first:])


def call(cli, argv) -> tuple[int | None, str, float]:
    """One request: ``cli.main(argv)`` with stdout captured; (exit code, stdout, s)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a wrong answer, not a benchmark failure
        rc = None
        out.write(f"\n{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), time.perf_counter() - start


class Client:
    """Closed-loop client: sends each request after the previous one returned.

    With a ``probe``, each request is also timed at reference speed.
    """

    def __init__(self, cli, requests, probe: SpeedProbe | None = None, tracer=None):
        self.cli = cli
        self.requests = requests
        self.probe = probe
        self.tracer = tracer
        self.latencies: list[float] = []      # measured seconds
        self.scaled: list[float] = []         # seconds at reference speed
        self.kinds: list[str] = []
        self.errors: list[dict] = []
        self.round_times: list[float] = []    # measured, probes excluded
        self.scaled_rounds: list[float] = []

    def run_round(self) -> float:
        """Send every request once; return the measured round time.

        The round time is the requests' time plus the client's own time
        checking answers; probes are excluded.
        """
        busy = scaled_busy = checking = 0.0
        for req in self.requests:
            if self.tracer is not None:
                self.tracer.request = len(self.latencies)
            if self.probe is None:
                rc, out, seconds = call(self.cli, req.argv)
                scaled = seconds
            else:
                (rc, out, _), seconds, scaled = self.probe.timed(call, self.cli, req.argv)
            start = time.perf_counter()
            problem = "crashed" if rc is None else req.check(rc, out)
            if problem is not None:
                self.errors.append({"kind": req.kind, "problem": problem})
            self.latencies.append(seconds)
            self.scaled.append(scaled)
            self.kinds.append(req.kind)
            busy += seconds
            scaled_busy += scaled
            checking += time.perf_counter() - start
        self.round_times.append(busy + checking)
        self.scaled_rounds.append(scaled_busy + checking)
        return busy + checking

    def run_until(self, deadline: float) -> None:
        """At least one round, then more while a median round still fits."""
        self.run_round()
        while time.perf_counter() + statistics.median(self.round_times) <= deadline:
            self.run_round()


def tail(latencies: list[float]) -> dict | None:
    """Highest listed percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(round(pct * n / 100, 9))  # nearest-rank percentile
        if n - rank >= TAIL_BEYOND:
            return {"percentile": pct, "value_s": ordered[rank - 1], "samples": n,
                    "beyond": n - rank}
    return None


def by_kind(kinds: list[str], latencies: list[float]) -> dict[str, float]:
    """Median latency of each request kind, in request-list order."""
    groups: dict[str, list[float]] = {}
    for kind, seconds in zip(kinds, latencies):
        groups.setdefault(kind, []).append(seconds)
    return {kind: statistics.median(v) for kind, v in groups.items()}


def set_up(builder, seed: int, matcore, workdir: Path,
           probe: SpeedProbe | None = None) -> tuple[list, float]:
    """Build the inputs; (requests, median seconds).

    With a ``probe``, set-up is repeated while it stays cheap and its
    seconds are at reference speed; without one it runs once, as measured.
    """
    times, requests = [], None
    while not times or (probe is not None and len(times) < MAX_SETUPS
                        and sum(times) < SETUP_BUDGET_S):
        target = workdir / f"setup{len(times)}"
        target.mkdir(parents=True)
        if probe is None:
            start = time.perf_counter()
            requests = builder(seed, target, matcore)
            times.append(time.perf_counter() - start)
        else:
            requests, _, scaled = probe.timed(builder, seed, target, matcore)
            times.append(scaled)
    return requests, statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        sepball, import_s = import_sepball()
    except ImportError as exc:
        print(f"error: cannot import sepball from {SRC}: {exc}", file=sys.stderr)
        return 2

    from spans import LAYER_UNITS, Tracer, layer_metrics
    from workloads import BUILDERS

    if args.workload not in BUILDERS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(BUILDERS)}", file=sys.stderr)
        return 2
    builder = BUILDERS[args.workload]
    seed = args.seed % 2**63  # numpy seeds must be non-negative
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    started = time.perf_counter()
    probe = SpeedProbe()
    try:
        if args.trace:
            tracer = Tracer()
            tracer.install(sepball)
            requests, _ = set_up(builder, seed, sepball.matcore, workdir)
            setup_spans = tracer.table()
            tracer.uninstall()
            deadline = time.perf_counter() + args.seconds
            client = Client(sepball.cli, requests)
            untraced = client.run_round()
            tracer.clear()
            tracer.install(sepball)
            traced = Client(sepball.cli, requests, tracer=tracer)
            try:
                traced.run_until(deadline)
            finally:
                tracer.uninstall()
            traced_wall = statistics.fmean(traced.round_times)
            values = layer_metrics(tracer.table(), setup_spans, len(traced.round_times),
                                   traced_wall, untraced)
            metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}
            for name in ("latencies", "scaled", "kinds", "errors", "round_times"):
                getattr(client, name).extend(getattr(traced, name))
        else:
            requests, setup_s = set_up(builder, seed, sepball.matcore, workdir, probe)
            import_scaled = import_s * PROBE_REF_S / probe.times[0]
            client = Client(sepball.cli, requests, probe)
            client.run_until(time.perf_counter() + args.seconds)
            metrics = {
                "wall_s": {"value": statistics.median(client.scaled_rounds), "unit": "s"},
                "req_p50_s": {"value": statistics.median(client.scaled), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
                "setup_s": {"value": import_scaled + setup_s, "unit": "s"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted = len(client.latencies)
    failed = len(client.errors)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "requests_per_round": len(requests),
        "rounds": len(client.round_times),
        "measured": {
            "round_times_s": client.round_times,
            "req_p50_s": statistics.median(client.latencies),
            "latency_s_by_kind": by_kind(client.kinds, client.latencies),
        },
        "probe_s": {"reference": PROBE_REF_S, "count": len(probe.times),
                    "median": statistics.median(probe.times) if probe.times else None},
        "error_frac": failed / attempted,
        "errors": client.errors[:20],
        "req_tail": tail(client.scaled),
        "elapsed_s": time.perf_counter() - started,
    }
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
