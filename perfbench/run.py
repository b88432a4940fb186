"""jordankron benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of the
current directory.  With ``--trace 0`` the run measures for S seconds and
reports the end-to-end metrics; with ``--trace 1`` it measures S/2 seconds
untraced, replays exactly those ops with span wrappers installed, and
reports the per-layer metrics (tracing overhead is the ratio of the two
passes).  End-to-end timings are scaled to a reference machine speed (see
``calibrate.py``); per-layer timings are raw.  Metric names and units come
from BENCHMARK.json.  The last line of stdout is the result object; the line
before it records the run's provenance (Python, CPUs, commit, source digest,
seeds, raw wall-clock figures).  Every op's output is checked; a wrong
answer counts as failed and stays in the timings.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from itertools import chain, islice
from pathlib import Path
from time import perf_counter
from typing import NoReturn

from calibrate import Speedometer, pin_to_one_cpu

# Later claims must also hold on this seed, which was never used for tuning.
HELD_OUT_SEED = 7_308_411
SETUP_REPEATS = 5
PREDRAW_ROUNDS = 20
# p90 needs at least ten samples beyond it; a slow machine runs longer.
MIN_OPS = 100
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import jordankron; "
                "print(time.perf_counter() - t)")


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: every order statistic,
    weighted by the Beta(p(n+1), (1-p)(n+1)) mass of its slot.  One or two
    order statistics, as ``statistics.quantiles`` uses, jump with each op's
    timing noise; the weighted average does not.  Falls back to plain
    interpolation when n is too small for the weights to be finite."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    if a <= 1 or b <= 1:
        return statistics.quantiles(xs, n=100)[round(100 * p) - 1] if n > 1 else xs[0]
    steps = 16
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit(root: Path) -> "str | None":
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _child_import_s(root: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.strip())


class Phase:
    """One pass of the closed loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.ops: list = []
        self.failures: list[str] = []
        self.wall = 0.0

    def scaled(self, speed: Speedometer) -> list[float]:
        """Latencies at the reference machine speed."""
        return [dt * speed.scale(t0, t0 + dt)
                for t0, dt in zip(self.starts, self.latencies)]


def run_phase(wl, rounds, seconds, speed: Speedometer, tracer=None,
              min_ops: int = 0) -> Phase:
    """Run rounds of ops back to back; stop at the first round boundary
    after ``seconds`` of wall time and ``min_ops`` ops (run every round
    when ``seconds`` is None).  Whole rounds keep each run's cost mix the
    same."""
    wl.tracer = tracer
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    phase = Phase()
    start = perf_counter()
    deadline = None if seconds is None else start + seconds
    ops = _until(rounds, deadline, min_ops)
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        with span("bench.reset"):
            # Each op starts with no garbage left by the one before it.
            gc.collect()
            speed.maybe_sample()
            wl.reset(op)
        with span("bench.op"):
            t0 = perf_counter()
            try:
                out, err = wl.execute(op), None
            except Exception as exc:  # a crashing op is a failed op
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
        with span("bench.verify"):
            if err is None:
                try:
                    err = wl.verify(op, out)
                except Exception as exc:  # unparsable output is a wrong answer
                    err = f"{type(exc).__name__}: {exc}"
        phase.latencies.append(dt)
        phase.starts.append(t0)
        phase.ops.append(op)
        if err is not None:
            phase.failures.append(f"op {i}: {err}")
    phase.wall = perf_counter() - start
    speed.sample()
    wl.tracer = None
    return phase


def _until(rounds, deadline, min_ops):
    done = 0
    for ops in rounds:
        if deadline is not None and perf_counter() >= deadline and done >= min_ops:
            return
        yield from ops
        done += len(ops)


def setup(wl_cls, root: Path, workdir: Path, seed: int, speed: Speedometer):
    """Import (timed in a fresh interpreter), input generation and warm-up,
    repeated; returns the last workload, its rounds, and every set-up time
    as (start, raw seconds)."""
    times, warm_failures = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        start = perf_counter()
        import_s = _child_import_s(root)
        t0 = perf_counter()
        wl = wl_cls(root, workdir)
        wl.begin_phase(workdir / "setup")
        rounds = wl.rounds(seed)
        head = list(islice(rounds, PREDRAW_ROUNDS))
        warm = run_phase(wl, [[wl.warmup_op()]], None, speed)
        warm_failures.extend(warm.failures)
        times.append((start, import_s + perf_counter() - t0))
    # Keep the pools and drawn inputs out of every later collection.
    gc.collect()
    gc.freeze()
    return wl, chain(head, rounds), times, warm_failures


def timing_metrics(lat: list[float], setup_s: list[float]) -> dict:
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000 * _quantile(lat, 0.5),
        "latency_p90_ms": 1000 * _quantile(lat, 0.9),
        "setup_s": statistics.median(setup_s),
    }


def per_layer(wl, tracer, untraced_lat, traced_lat, traced_wall, names) -> dict:
    spans = tracer.spans
    op_ids = {s[0] for s in spans if s[1] == "bench.op"}
    op_time = tracer.total_s["bench.op"]
    top = sum(tracer.total_s[n] for n in ("bench.op", "bench.reset", "bench.verify"))
    in_layers = sum(s[3] - s[2] for s in spans if s[4] in op_ids)
    by_id = {s[0]: s for s in spans}

    def outermost_oracle(s):
        parent = s[4]
        while parent is not None:
            if by_id[parent][1].startswith("oracle."):
                return False
            parent = by_id[parent][4]
        return True

    oracle_time = sum(s[3] - s[2] for s in spans
                      if s[1].startswith("oracle.") and outermost_oracle(s))
    rho_calls = tracer.calls["toeplitz.rho"]
    special = {
        "toeplitz.rho.distinct_ratio":
            len(tracer.rho_keys) / rho_calls if rho_calls else 0.0,
        "toeplitz.scan.resume_s": tracer.total_s["toeplitz.scan.load_records"],
        "trace.ops_per_s": len(traced_lat) / sum(traced_lat),
        "trace.overhead": sum(traced_lat) / sum(untraced_lat),
        "trace.span_coverage": top / traced_wall,
        "trace.layer_coverage": in_layers / op_time,
        "share.oracle_exactmat": oracle_time / op_time,
        "share.toeplitz_rho": tracer.total_s["toeplitz.rho"] / op_time,
        **wl.extra_layer_metrics(),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        span_name, stat = name.rsplit(".", 1)
        if stat == "calls":
            out[name] = tracer.calls[span_name]
        elif stat == "time_s":
            out[name] = tracer.total_s[span_name]
        elif stat == "self_s":
            out[name] = tracer.self_s[span_name]
        else:
            out[name] = tracer.counts[name]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    nproc = len(os.sched_getaffinity(0))
    if not (root / "src" / "jordankron" / "__init__.py").is_file():
        _fail("no src/jordankron here; run from the repository root")
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        _fail(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(root / "src"))
    import jordankron

    if Path(jordankron.__file__).resolve().parent != (root / "src" / "jordankron").resolve():
        _fail(f"imported jordankron from {jordankron.__file__}, not from ./src")
    from spans import Tracer
    from workloads import WORKLOADS

    out_dir = root / ".perfbench_out"
    workdir = root / ".perfbench_work" / str(os.getpid())
    cpu = pin_to_one_cpu()
    speed = Speedometer()
    tracer = None
    try:
        wl, rounds, setups, failures = setup(
            WORKLOADS[args.workload], root, workdir, args.seed, speed)
        attempted = len(failures)  # a failed warm-up op counts as attempted
        raw_setup = [dt for _, dt in setups]
        if not args.trace:
            wl.begin_phase(workdir / "run")
            phase = run_phase(wl, rounds, args.seconds, speed, min_ops=MIN_OPS)
            failures += phase.failures
            attempted += len(phase.latencies)
            latencies = phase.scaled(speed)
            metrics = timing_metrics(
                latencies, [dt * speed.scale(t0, t0 + dt) for t0, dt in setups])
            metrics["ok_ratio"] = 1 - len(failures) / attempted
            metrics["peak_rss_mb"] = wl.peak_rss_kb() / 1024
            raw = timing_metrics(phase.latencies, raw_setup)
            samples = len(phase.latencies)
            spec = bench["end_to_end"]
        else:
            wl.begin_phase(workdir / "untraced")
            untraced = run_phase(wl, rounds, args.seconds / 2, speed)
            tracer = Tracer()
            tracer.install()
            try:
                wl.begin_phase(workdir / "traced")
                traced = run_phase(wl, [untraced.ops], None, speed, tracer)
            finally:
                tracer.uninstall()
            failures += untraced.failures + traced.failures
            attempted += len(untraced.latencies) + len(traced.latencies)
            spec = bench["per_layer"]
            latencies = traced.scaled(speed)
            metrics = per_layer(wl, tracer, untraced.scaled(speed), latencies,
                                traced.wall, [m["name"] for m in spec])
            raw = timing_metrics(traced.latencies, raw_setup)
            samples = len(traced.latencies)
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{args.workload}-s{args.seed}.jsonl.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    meta = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace, "seconds": args.seconds, "samples": samples,
        "raw": raw, "reference_kernel_s": speed.median_s(),
        "setup_s_runs": raw_setup, "python": sys.version.split()[0],
        "nproc": nproc, "cpu_count": os.cpu_count(), "pinned_cpu": cpu,
        "commit": _commit(root), "src_sha256": _src_digest(root),
        "missing_hooks": tracer.missing_hooks if tracer else [],
        "probe_errors": sorted(tracer.probe_errors) if tracer else [],
        "failures": failures[:10],
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "latencies_s": latencies}, fh)
    for failure in failures[:10]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
