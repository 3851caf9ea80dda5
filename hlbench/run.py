"""hardylab benchmark: one workload, one seed, one process, one check at a time.

Run from the root of a checkout:

    python3 hlbench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

The harness imports hardylab from ``src/`` of the checkout, builds the
workload's inputs from ``--seed``, warms up, then runs whole passes over the
workload until ``--seconds`` have elapsed (at least one pass).  Every check
is verified after it is timed; failures are counted, printed to stderr and
never dropped.  Timings are host-normalized (see hostspeed.py); the
wall-clock value of each is kept in the run record.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
is the run record: metadata, sample counts and wall-clock values.  The
record, with every failure, is also written to ``.hlbench_out/``; a traced
run also writes its spans there as JSON Lines.

BLAS runs single-threaded and ``HARDYLAB_*`` variables are removed, both
before numpy is imported; see README.md for why.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
for _var in [key for key in os.environ if key.startswith("HARDYLAB_")]:
    del os.environ[_var]

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hostspeed import host_factor, normalized, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".hlbench_out"
SETUP_PROBES = 7
PROBE_REFERENCES = 5
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10


class HarnessError(Exception):
    """The benchmark cannot run here (missing sources, failed probe)."""


def load_workloads() -> dict:
    """Import hardylab from this checkout's src/ and return the workload classes."""
    if not (SRC / "hardylab" / "__init__.py").is_file():
        raise HarnessError(f"no hardylab sources under {SRC}")
    if not (ROOT / "scenarios").is_dir():
        raise HarnessError(f"no scenarios directory under {ROOT}")
    sys.path.insert(0, str(SRC))
    import hardylab
    if Path(hardylab.__file__).resolve().parent != (SRC / "hardylab").resolve():
        raise HarnessError(f"imported hardylab from {hardylab.__file__}, not from {SRC}")
    from workloads import WORKLOADS
    return WORKLOADS


class Tally:
    """Every check attempted and every failure, across warm-up and passes."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def run(self, check, tracer=None) -> float:
        """Time one check, then verify it; returns its wall time."""
        if tracer is not None:
            tracer.check_id = check.check_id
            span = tracer.enter("check")
        started = perf_counter()
        try:
            outcome, raised = check.run(), None
        except Exception as exc:  # noqa: BLE001 - a raising check is a counted failure
            outcome, raised = None, exc
        elapsed = perf_counter() - started
        if tracer is not None:
            tracer.leave(span, raised)
        self.attempted += 1
        if raised is not None:
            problem = f"raised {type(raised).__name__}: {raised}"
        else:
            try:
                problem = check.verify(outcome)
            except Exception as exc:  # noqa: BLE001 - an unreadable outcome is a failure
                problem = f"outcome unreadable: {type(exc).__name__}: {exc}"
        if problem is not None:
            self.failures.append(f"{check.check_id}: {problem}")
            print(f"hlbench: FAILED {check.check_id}: {problem}", file=sys.stderr)
        return elapsed


@dataclass(frozen=True)
class Pass:
    wall: list          # wall seconds of each check, in order
    references: list    # reference-kernel samples; check i ran between samples i and i + 1

    @property
    def latencies(self) -> list:
        """Host-normalized check latencies, each by the two samples around it."""
        return [normalized(t, before, after)
                for t, before, after in zip(self.wall, self.references, self.references[1:])]

    @property
    def seconds(self) -> float:
        return sum(self.latencies)

    @property
    def factor(self) -> float:
        return host_factor(self.references)


def run_pass(checks, tally: Tally, tracer=None) -> Pass:
    """Every check once, in order, with a reference-kernel sample before and after each.

    The pass time is the sum of the timed check calls, so verification and
    the reference samples are not part of it.
    """
    references, wall = [reference_seconds()], []
    for check in checks:
        wall.append(tally.run(check, tracer))
        references.append(reference_seconds())
    return Pass(wall, references)


def repeat_for(seconds: float, step) -> list:
    """Call step() until `seconds` have elapsed, at least once; returns its results."""
    started = perf_counter()
    results = []
    while not results or perf_counter() - started < seconds:
        results.append(step())
    return results


def warm_up(checks, tally: Tally):
    """Run the first check of every group once, untimed but still verified."""
    seen = set()
    for check in checks:
        if check.group not in seen:
            seen.add(check.group)
            tally.run(check)


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile that leaves TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    index = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def setup_probes(args) -> list:
    """Host-normalized wall seconds of fresh processes that import, build the
    inputs and run the first check, each by reference samples taken around it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    before = [reference_seconds() for _ in range(PROBE_REFERENCES)]
    probes = []
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
        wall = perf_counter() - started
        if proc.returncode != 0:
            raise HarnessError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
        after = [reference_seconds() for _ in range(PROBE_REFERENCES)]
        probes.append((wall, host_factor(before + after)))
        before = after
    return probes


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(args) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def end_to_end(args, checks, tally: Tally) -> tuple:
    """Metrics {name: (value, unit)} of an untraced run, and its record fields."""
    probes = setup_probes(args)
    passes = repeat_for(args.seconds, lambda: run_pass(checks, tally))
    latencies = [t for p in passes for t in p.latencies]
    wall_latencies = [t for p in passes for t in p.wall]
    check_tail, percentile = tail(latencies)
    ok = (tally.attempted - len(tally.failures)) / tally.attempted
    metrics = {
        "pass_s": (statistics.median(p.seconds for p in passes), "s"),
        "check_p50_s": (statistics.median(latencies), "s"),
        "check_tail_s": (check_tail, "s"),
        "setup_s": (statistics.median(wall / factor for wall, factor in probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (ok, "ratio"),
    }
    record = {
        "passes": len(passes),
        "checks_per_pass": len(checks),
        "check_samples": len(latencies),
        "check_tail_percentile": percentile,
        "host_factor": statistics.median(p.factor for p in passes),
        "wall": {
            "pass_s": statistics.median(sum(p.wall) for p in passes),
            "check_p50_s": statistics.median(wall_latencies),
            "check_tail_s": tail(wall_latencies)[0],
            "setup_s": statistics.median(wall for wall, _ in probes),
        },
        "pass_wall_seconds": [sum(p.wall) for p in passes],
        "pass_host_factors": [p.factor for p in passes],
        "setup_probes": probes,
    }
    return metrics, record


def per_layer(args, workload, checks, tally: Tally) -> tuple:
    """Metrics {name: (value, unit)} of a traced run, and its record fields."""
    from tracing import Tracer, metric_units

    tracer = Tracer()

    def untraced_then_traced():
        # Alternating keeps both kinds of pass under the same host load.
        # The traced pass rebuilds its inputs first, so input generation is
        # traced once per pass without counting in the pass time.
        plain = run_pass(checks, tally)
        tracer.install()
        try:
            tracer.check_id = "inputs"
            span = tracer.enter("inputs")
            fresh = workload.make_checks()
            tracer.leave(span)
            return plain, run_pass(fresh, tally, tracer)
        finally:
            tracer.uninstall()

    origin = perf_counter()
    plain, traced = zip(*repeat_for(args.seconds, untraced_then_traced))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(spans_path, origin)
    factor = statistics.median(p.factor for p in traced)
    values = tracer.layer_metrics(len(traced), time_scale=1.0 / factor)
    values["trace.overhead_s"] = (statistics.median(p.seconds for p in traced)
                                  - statistics.median(p.seconds for p in plain))
    units = metric_units()
    record = {
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "host_factor": factor,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return {name: (values[name], units[name]) for name in units}, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small checks per pass, for the harness self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up, timed by the parent process
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        workloads = load_workloads()
        if args.workload not in workloads:
            raise HarnessError(f"unknown workload {args.workload!r}; "
                               f"choose from {', '.join(workloads)}")
        workload = workloads[args.workload](args.seed, ROOT, tiny=args.tiny)
        checks = workload.make_checks()
        if args.setup_probe:
            checks[0].run()
            return 0
        tally = Tally()
        warm_up(checks, tally)
        if args.trace:
            metrics, record = per_layer(args, workload, checks, tally)
        else:
            metrics, record = end_to_end(args, checks, tally)
        meta = metadata(args)
    except (HarnessError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"hlbench: error: {exc}", file=sys.stderr)
        return 2

    failed = len(tally.failures)
    record = {"metadata": meta, **record, "attempted": tally.attempted, "failed": failed,
              "failed_ratio": failed / tally.attempted, "failures": tally.failures}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=1))
    print(json.dumps({key: value for key, value in record.items()
                      if key not in ("pass_wall_seconds", "pass_host_factors")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
