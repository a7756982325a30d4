"""The antictx benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload vf-search --seed 1 --seconds 20 --trace 0

A single closed-loop client runs the workload's operations one after
another, each only after the previous one returned.  `--trace 0` reports the
end-to-end metrics of BENCHMARK.json; `--trace 1` wraps antictx's public
functions in spans and reports the per-layer metrics instead.  The last
line of standard output is the result object; the line before it is a
report with the environment, the tail percentile used and per-operation
medians.  The program is imported from `src/` next to this directory; the
run fails (exit 2, no result) when it is not there.
"""

from __future__ import annotations

import os

# one BLAS thread, set before anything can import numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import workloads
from tracer import Tracer, install, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # extra fresh processes timing set-up, beside the run's own
MAX_RUN_FACTOR = 3  # no new pass starts after this many times --seconds


class BenchmarkError(Exception):
    """The benchmark cannot run here (as opposed to an operation failing)."""


def check_sources() -> None:
    if not (SRC / "antictx" / "__init__.py").is_file():
        raise BenchmarkError(f"no antictx sources under {SRC}")


def import_program():
    check_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import antictx

    if Path(antictx.__file__).resolve().parent != SRC / "antictx":
        raise BenchmarkError(f"antictx imported from {antictx.__file__}, not from {SRC}")
    return antictx


def timed_setup(workload: str, seed: int, work_dir: Path) -> tuple[float, workloads.Workload]:
    """Import antictx and build the inputs; the clock starts before the import."""
    t0 = time.perf_counter()
    import_program()
    wl = workloads.build(workload, seed, work_dir)
    return time.perf_counter() - t0, wl


def probe_setup(workload: str, seed: int) -> None:
    """Entry point of a set-up probe process: print its set-up seconds."""
    with work_area() as work_dir:
        seconds, _ = timed_setup(workload, seed, Path(work_dir))
    print(json.dumps(seconds))


def probe_setup_in_subprocess(workload: str, seed: int) -> float:
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; run.probe_setup({workload!r}, {seed})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def work_area() -> tempfile.TemporaryDirectory:
    """A scratch directory for input files, inside the checkout, removed on exit."""
    base = HERE / ".work"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


def run_pass(ops: list[workloads.Op], tracer: Tracer | None, outcome: dict) -> float:
    """Run every op once; record latency and failures; return busy seconds."""
    busy = 0.0
    for op in ops:
        gc.collect()
        sid = tracer.begin("op") if tracer else None
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none stops the run
            result, error = None, exc
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end(sid)
            if isinstance(result, workloads.CliOutput):
                tracer.add("cli.output_bytes", len(result.stdout) + len(result.stderr))
        busy += elapsed
        if error is None:
            try:
                op.check(result)
            except workloads.CheckFailed as exc:
                error = exc
        del result
        outcome["latency"].setdefault(op.name, []).append(elapsed)
        outcome["attempted"] += 1
        if error is not None:
            outcome["failed"] += 1
            if len(outcome["errors"]) < 10:
                outcome["errors"].append(f"{op.name}: {type(error).__name__}: {error}")
    return busy


def new_outcome() -> dict:
    return {"attempted": 0, "failed": 0, "errors": [], "latency": {}}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the set-up probes and CLI runs
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def run_untraced(args, work_dir: Path, report: dict) -> tuple[dict, dict]:
    own_setup, wl = timed_setup(args.workload, args.seed, work_dir)
    setup_samples = [own_setup] + [probe_setup_in_subprocess(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    passes = max(1, round(args.seconds / wl.nominal_pass_s))
    outcome = new_outcome()
    busy = 0.0
    start = time.perf_counter()
    for done in range(passes):
        if time.perf_counter() - start > MAX_RUN_FACTOR * args.seconds:
            report["stopped_early_after_passes"] = done
            break
        busy += run_pass(wl.ops, None, outcome)
    samples = [x for xs in outcome["latency"].values() for x in xs]
    tail_s, percentile, beyond = tail(samples)
    completed = outcome["attempted"] - outcome["failed"]
    report.update(
        passes=passes,
        ops_per_pass=len(wl.ops),
        samples=len(samples),
        op_tail_percentile=percentile,
        op_tail_samples_beyond=beyond,
        setup_samples_s=setup_samples,
        fail_ratio=outcome["failed"] / outcome["attempted"],
    )
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": completed / busy,
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, outcome


def cli_probes(work_dir: Path) -> dict[str, float]:
    """Interpreter start, and import times of antictx.cli and numpy (medians of 5)."""
    env = workloads.cli_env(SRC)
    bare, imports, numpy_imports = [], [], []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=work_dir, timeout=60)
        bare.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import antictx.cli"], check=True,
                              env=env, cwd=work_dir, capture_output=True, text=True, timeout=60)
        cumulative = {}
        for line in proc.stderr.splitlines():
            # "import time: self [us] | cumulative | imported package"
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) / 1e6
        imports.append(cumulative["antictx.cli"] + cumulative.get("antictx", 0.0))
        numpy_imports.append(cumulative["numpy"])
    return {
        "cli.interpreter_s": statistics.median(bare),
        "cli.import_s": statistics.median(imports),
        "cli.import_numpy_s": statistics.median(numpy_imports),
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts_repeat(workload: str, seed: int, counts: dict[str, float]) -> bool:
    """Compare the exact work counts with an earlier run of this seed and code."""
    store = HERE / ".counts"
    store.mkdir(exist_ok=True)
    path = store / f"{workload}-{seed}-{source_digest()}.json"
    if path.exists():
        return json.loads(path.read_text()) == counts
    path.write_text(json.dumps(counts, sort_keys=True))
    return True


def run_traced(args, work_dir: Path, report: dict) -> tuple[dict, dict]:
    _, wl = timed_setup(args.workload, args.seed, work_dir)
    ops = wl.traced_ops or wl.ops
    outcome = new_outcome()
    untraced_s = run_pass(ops, None, outcome)

    tracer = Tracer()
    targets = layers.targets()  # imports every traced module first
    restore = install(tracer, layers.package_modules(), targets)
    try:
        wl = workloads.build(args.workload, args.seed, work_dir)  # set-up, traced this time
        traced_s = run_pass(wl.traced_ops or wl.ops, tracer, outcome)
    finally:
        restore()

    metrics = layers.metrics(tracer)
    if wl.traced_ops:  # the workload runs the CLI: time what starting it costs
        metrics.update(cli_probes(work_dir))
        startup = len(ops) * (metrics["cli.interpreter_s"] + metrics["cli.import_s"])
        report["cli_startup_share"] = startup / (startup + untraced_s)
    else:
        metrics.update({"cli.interpreter_s": 0.0, "cli.import_s": 0.0, "cli.import_numpy_s": 0.0})
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    exact = {name: metrics[name] for name in layers.EXACT_COUNTS}
    repeated = check_counts_repeat(args.workload, args.seed, exact)
    if not repeated:
        outcome["errors"].append("exact work counts differ from an earlier run of this seed and code")
    report.update(
        ops_per_pass=len(ops),
        untraced_pass_s=untraced_s,
        traced_pass_s=traced_s,
        spans=len(tracer.spans),
        layer_self_s=layers.layer_shares(tracer),
        exact_counts=exact,
        exact_counts_repeat=repeated,
    )
    return metrics, outcome


def environment(seed: int) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "commit": commit,
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # a terminated run still removes its work area
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        check_sources()
        units = declared_metrics(bool(args.trace))
        report = {"workload": args.workload, "trace": args.trace}
        with work_area() as work_dir:
            runner = run_traced if args.trace else run_untraced
            metrics, outcome = runner(args, Path(work_dir), report)
        report["environment"] = environment(args.seed)
    except (BenchmarkError, OSError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if set(metrics) != set(units):
        print(f"benchmark bug: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 2

    latency = outcome.pop("latency")
    report["op_median_ms"] = {name: statistics.median(xs) * 1e3 for name, xs in latency.items()}
    report["errors"] = outcome["errors"]
    correct = outcome["failed"] == 0 and report.get("exact_counts_repeat", True)
    for line in outcome["errors"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
