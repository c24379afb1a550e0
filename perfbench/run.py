"""gmpmat benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Load comes from this one process, one operation at a time (closed loop,
one client), with BLAS/OpenMP threads pinned to ``BLAS_THREADS``.  A run
sets up ``SETUPS`` times (``setup_s`` is the median), then runs a fixed
number of passes sized so that the measurement lasts about ``--seconds``
on the machine ``PASS_SECONDS`` was measured on; the work is fixed, so
two commits are timed on identical work.  Every operation's output is
checked against ``reference``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are given at reference speed.  On a host whose cores are shared
with other tenants, the same code runs up to half again as long for
minutes at a time, so a median over one run cannot steady it.  ``Speed``
therefore times a reference task that runs no gmpmat code at least
every ``REF_EVERY`` seconds, between operations, and scales each timed
operation and set-up by the task's nominal time over the mean of the
two reference times around it.  Each workload has the reference task
that slows most like its operations (``REFERENCE``).  ``raw_wall_s``
and ``ref_s`` show the unscaled wall time and the reference times.

``--trace 1`` measures start-up in fresh interpreters, then replays one
pass in-process (CLI operations through ``gmpmat.cli.main``) once plain
and once traced, and reports the per-layer metrics of ``tracer``; spans
are written to ``.perfbench-work/spans-<workload>-<seed>.npz``.

``python3 perfbench/smoke.py`` runs the benchmark's smoke test.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
BLAS_THREADS = 1
SETUPS = 5
# Seconds one pass takes at this benchmark's sizes, on a 2-core Intel Xeon
# with one BLAS thread.  They set the number of passes a run makes.
PASS_SECONDS = {"cli_small": 12.5, "grid_large": 14.5, "solver_sweep": 3.7}
# The end-to-end metrics of BENCHMARK.json, printed on the last line: those
# every workload has, and never 0.  The others are printed by name only.
CONTRACT_METRICS = ("setup_s", "wall_s", "peak_rss_mb")
TAIL_BEYOND = 10
# Least seconds between two timings of the reference task (see Speed).
REF_EVERY = 3.0


def pin_threads():
    """Pin BLAS/OpenMP threads of this process and its children."""
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def use_checkout_source():
    """Import gmpmat from this checkout's ``src``; exit 2 when it is absent."""
    if not (SRC / "gmpmat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gmpmat source under {SRC}")
    sys.path.insert(0, str(SRC))
    import gmpmat

    if SRC.resolve() not in Path(gmpmat.__file__).resolve().parents:
        sys.exit(f"perfbench: imported gmpmat from {gmpmat.__file__}, not from {SRC}")
    os.environ["PYTHONPATH"] = str(SRC)


@dataclass
class Sample:
    """Outcome of one operation, or the time of one set-up.

    ``status`` is "ok"; "failed" for a failure the program reports
    (ConvergenceError or DomainError, a CLI exit code 1 or 2 with its
    JSON error payload); "error" for any other failure, such as a crash;
    or "wrong" for an output that failed its check.  Only "error" and
    "wrong" make a run incorrect; every status but "ok" counts as failed.
    """

    op: str
    seconds: float
    status: str
    reason: str = ""
    rss_kb: int = 0
    rows: int = 0
    at: int = 0  # timed between reference times at - 1 and at of its Speed
    scale: float = 1.0  # reference speed over the speed while timed


def cold_start():
    """Reference task of the CLI workloads: a cold interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "import numpy"], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def small_array_loop():
    """Reference task of solver_sweep: interpreted numpy calls on tiny arrays."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 2000)
    t0 = time.perf_counter()
    for i in range(3000):
        m = np.array([[1.0 + i, 2.0], [3.0, 4.0]])
        m = m @ m
        float(np.abs(x * i).sum())
        complex(m[0, 0]) * 2.5
    return time.perf_counter() - t0


# Each workload's reference task and its nominal time, near its median on
# the machine PASS_SECONDS was measured on; only ratios between runs of
# one machine mean anything.  A cold start slows like the cold CLI calls;
# the in-process solver calls do not slow like it, but like the loop.
REFERENCE = {
    "cli_small": (cold_start, 0.15),
    "grid_large": (cold_start, 0.15),
    "solver_sweep": (small_array_loop, 0.03),
}


class Speed:
    """Reference times taken between timed work, to scale it to reference speed."""

    def __init__(self, task, nominal):
        self.task = task
        self.nominal = nominal
        self.refs = []
        self.last = float("-inf")

    def probe(self):
        self.refs.append(statistics.median(self.task() for _ in range(3)))
        self.last = time.perf_counter()

    def mark(self):
        """Call before timed work: probes when due; gives the work's ``at``."""
        if time.perf_counter() - self.last >= REF_EVERY:
            self.probe()
        return len(self.refs)

    def scale(self, samples):
        """Probe once more, then set each sample's ``scale`` from its ``at``."""
        self.probe()
        for s in samples:
            s.scale = self.nominal / (0.5 * (self.refs[s.at - 1] + self.refs[s.at]))


def _checked(op, output, seconds, rss_kb=0):
    try:
        reason = op.check(output)
    except Exception as exc:  # a malformed output is a wrong output
        reason = f"unreadable output: {exc!r}"
    status = "wrong" if reason else "ok"
    return Sample(op.name, seconds, status, reason or "", rss_kb)


def _out_path(op):
    return op.argv[op.argv.index("--out") + 1]


def run_cli_cold(op):
    """One cold ``python -m gmpmat.cli`` subprocess; RSS from wait4."""
    out = _out_path(op)
    log = out + ".stderr"
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gmpmat.cli", *op.argv],
                                stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        with open(log, errors="replace") as fh:
            text = fh.read(300)
        # a reported failure prints a JSON payload; a traceback or usage error does not
        status = "failed" if code in (1, 2) and text.startswith("{") else "error"
        return Sample(op.name, seconds, status, f"exit {code}: {text}", usage.ru_maxrss)
    sample = _checked(op, out, seconds, usage.ru_maxrss)
    os.remove(out)
    os.remove(log)
    return sample


def run_cli_inprocess(op):
    from gmpmat import cli

    t0 = time.perf_counter()
    try:
        code = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return Sample(op.name, time.perf_counter() - t0, "error", f"usage error {exc.code}")
    seconds = time.perf_counter() - t0
    if code != 0:  # main() returns 1 or 2 only after printing its error payload
        return Sample(op.name, seconds, "failed", f"exit {code}")
    sample = _checked(op, _out_path(op), seconds)
    os.remove(_out_path(op))
    return sample


def run_call(op):
    from gmpmat.errors import ConvergenceError, DomainError

    t0 = time.perf_counter()
    try:
        result = op.call()
    except (ConvergenceError, DomainError) as exc:
        return Sample(op.name, time.perf_counter() - t0, "failed", repr(exc))
    except Exception as exc:  # any other failure of the program is counted, not raised
        return Sample(op.name, time.perf_counter() - t0, "error", repr(exc))
    return _checked(op, result, time.perf_counter() - t0)


def run_pass(ops, execute, tracer=None, speed=None):
    samples = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        at = speed.mark() if speed else 0
        samples.append(execute(op))
        samples[-1].rows = op.rows
        samples[-1].at = at
    return samples


def setup(workload, seed, passes, index, small=False):
    """Make the inputs of every pass in a fresh directory, then warm up.

    CLI workloads warm up with one cold ``gmpmat.cli --help`` call, which
    also writes bytecode caches.  solver_sweep adds the import of gmpmat
    in a fresh interpreter and runs small solver calls of every kind.
    """
    import workloads

    t0 = time.perf_counter()
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = [workloads.make_pass(workload, seed, p, workdir, small) for p in range(passes)]
    if workload == "solver_sweep":
        subprocess.run([sys.executable, "-c", "import gmpmat"], check=True, cwd=ROOT)
        run_pass(workloads.warmup_ops(seed), run_call)
    else:
        subprocess.run([sys.executable, "-m", "gmpmat.cli", "--help"], check=True,
                       stdout=subprocess.DEVNULL, cwd=ROOT)
    return time.perf_counter() - t0, plan, workdir


def tail(times):
    """The highest percentile with TAIL_BEYOND samples beyond it.

    With fewer than 2 * TAIL_BEYOND samples that percentile would lie
    below the median, and the maximum is reported instead.
    """
    times = sorted(times)
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return times[-1], 100.0
    return times[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(workload, setups, passes, peak_rss_kb, speed):
    """Every end-to-end metric, as {name: (value, unit)}, and notes.

    Times are at reference speed (see ``Speed``) but for ``raw_wall_s``
    and ``ref_s``.  ``wall_s`` is the time of all passes over their
    number: passes differ in their inputs, and the mean weighs each alike.
    """
    samples = [s for p in passes for s in p]
    times = [s.seconds * s.scale for s in samples]
    wall = sum(times) / len(passes)
    tail_s, pct = tail(times)
    failed = sum(s.status != "ok" for s in samples)
    refs = speed.refs
    metrics = {
        "setup_s": (statistics.median(s.seconds * s.scale for s in setups), "s"),
        "wall_s": (wall, "s"),
        "raw_wall_s": (sum(s.seconds for s in samples) / len(passes), "s"),
        "ref_s": (statistics.median(refs), "s"),
        "fail_ratio": (failed / len(samples), "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    notes = {
        "fail_ratio": f"{failed} of {len(samples)} operations failed",
        "ref_s": f"{speed.task.__name__}, median of {len(refs)} from {min(refs):.4g} "
                 f"to {max(refs):.4g}; reference speed takes it as {speed.nominal}",
    }
    if workload == "grid_large":
        rows = sum(s.rows for s in samples if s.status == "ok")
        metrics["rows_per_s"] = (rows / len(passes) / wall, "rows/s")
    else:
        metrics["ops_per_s"] = (len(passes[0]) / wall, "1/s")
        metrics["op_p50_ms"] = (statistics.median(times) * 1e3, "ms")
        metrics["op_tail_ms"] = (tail_s * 1e3, "ms")
        notes["op_tail_ms"] = f"p{pct:.1f} of {len(samples)} samples"
    if workload != "solver_sweep":
        notes["peak_rss_mb"] = "largest child process"
    return metrics, notes


def machine_info(blas_threads):
    import numpy
    import scipy
    from gmpmat import _kernels

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "use_numba": bool(getattr(_kernels, "USE_NUMBA", False)),
        "blas_threads": blas_threads,
    }


def measure(workload, seed, seconds, small=False):
    """Untraced run: end-to-end metrics and samples; ``small`` for smoke tests."""
    passes = max(1, round(seconds / PASS_SECONDS[workload]))
    speed = Speed(*REFERENCE[workload])
    setups, workdirs = [], []
    try:
        for index in range(SETUPS):
            at = speed.mark()
            setup_s, plan, workdir = setup(workload, seed, passes, index, small)
            setups.append(Sample("setup", setup_s, "ok", at=at))
            workdirs.append(workdir)
        execute = run_call if workload == "solver_sweep" else run_cli_cold
        done = [run_pass(ops, execute, speed=speed) for ops in plan]
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)
    if workload == "solver_sweep":
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak = max(s.rss_kb for p in done for s in p)
    speed.scale(setups + [s for p in done for s in p])
    metrics, notes = end_to_end(workload, setups, done, peak, speed)
    return metrics, notes, [s for p in done for s in p]


def measure_traced(workload, seed, small=False):
    """Traced run: one pass in-process, plain then traced; per-layer metrics."""
    import tracer as tracing

    metrics = tracing.startup_metrics()
    _, plan, workdir = setup(workload, seed, 1, 0, small)
    execute = run_call if workload == "solver_sweep" else run_cli_inprocess
    tr = tracing.Tracer()
    try:
        plain = run_pass(plan[0], execute)
        tr.install()
        try:
            traced = run_pass(plan[0], execute, tr)
        finally:
            tr.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tr.save(WORK / f"spans-{workload}-{seed}.npz")
    metrics.update(tr.layer_metrics())
    overhead = sum(s.seconds for s in traced) - sum(s.seconds for s in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, {}, plain + traced


def report(workload, seed, trace, metrics, notes, samples, machine):
    """Print the run by metric name and unit; return the result object."""
    print(f"gmpmat benchmark: workload={workload} seed={seed} trace={trace}")
    print("machine: " + json.dumps(machine))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:36s} {shown} {unit}{note}")
    bad = [s for s in samples if s.status != "ok"]
    for s in bad[:10]:
        print(f"  {s.status}: {s.op}: {s.reason[:160]}")
    if len(bad) > 10:
        print(f"  ... {len(bad) - 10} more failed operations")
    if trace == 0:
        metrics = {k: metrics[k] for k in CONTRACT_METRICS}
    return {
        "correct": not any(s.status in ("error", "wrong") for s in samples),
        "attempted": len(samples),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*PASS_SECONDS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    blas = pin_threads()
    use_checkout_source()
    WORK.mkdir(exist_ok=True)
    machine = machine_info(blas)
    names = list(PASS_SECONDS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        if args.trace:
            metrics, notes, samples = measure_traced(name, args.seed)
        else:
            metrics, notes, samples = measure(name, args.seed, args.seconds)
        results[name] = report(name, args.seed, args.trace, metrics, notes, samples, machine)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
