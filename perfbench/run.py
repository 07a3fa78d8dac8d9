"""Run one workload of the renormforest benchmark and print its metrics.

    python3 perfbench/run.py --workload certify|bphz|project --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones (set-up, run time, latency, memory; the
timings in reference seconds, which cancel the host's speed drifts); with
--trace 1 they are the per-layer ones from a traced run, including the
tracing overhead, and the spans are written to perfbench/traces/.

Exit codes: 0 all outputs correct, 1 an output check failed, 2 the program
or its configurations could not be loaded.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import statistics
import sys
import time

import harness
import workloads as wl

clock = time.perf_counter
# The median time harness.calibration_loop takes during a run on a shared 2-core
# 2.1 GHz Xeon VM: end-to-end timings are in reference seconds (see
# harness.ReferenceClock), which on that VM equal wall seconds on average.
REFERENCE_LOOP_S = 0.0008


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


class Run:
    """Sends a workload's requests, times them and checks every output."""

    def __init__(self, workload: wl.Workload, expected: dict, timer=clock):
        self.workload = workload
        self.expected = expected
        self.timer = timer  # what latencies are measured with
        self.tracer = None  # set while a traced pass runs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def request(self, req: wl.Request, label: str) -> float:
        """Send one request and check its output; returns its latency."""
        execute = wl.execute
        if self.tracer is not None:
            self.tracer.request = f"{label}:{req.key}"
            execute = self.tracer.spanned(wl.REQUEST_SPAN, execute)
        self.attempted += 1
        t0 = self.timer()
        try:
            out = execute(self.workload.prog, self.workload.wbs, req)
        except Exception as exc:  # a refused request (cap exceeded, bad input) counts as failed
            latency = self.timer() - t0
            problems = [f"{req.key}: {type(exc).__name__}: {exc}"]
        else:
            latency = self.timer() - t0
            problems = wl.check(req, out, self.expected)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return latency

    def warm_up(self) -> None:
        for req in self.workload.canonical():
            self.request(req, "warmup")

    def measure(
        self, seed: int, seconds: float, min_passes: int = 1, around_pass=None
    ) -> tuple[list[float], list[float]]:
        """Whole passes while the next one is expected to end within
        `seconds`, and until the workload has its minimum request count; at
        least `min_passes`.  `around_pass(i)`, if given, is a context manager
        entered around pass i.  Returns (per-pass times, latencies).  A pass
        time is the sum of its samples, so the output checks between requests
        are not counted."""
        rng = random.Random(seed)
        passes: list[float] = []
        samples: list[tuple[wl.Request, float]] = []
        walls: list[float] = []
        start = clock()
        while (
            len(passes) < min_passes
            or len(samples) < self.workload.min_requests
            or clock() - start + statistics.median(walls) <= seconds
        ):
            t0 = clock()
            with around_pass(len(passes)) if around_pass else contextlib.nullcontext():
                lat = [
                    (req, self.request(req, f"pass{len(passes)}"))
                    for req in self.workload.pass_requests(rng)
                ]
            walls.append(clock() - t0)
            passes.append(sum(x for _, x in lat))
            samples.extend(lat)
        if not self.workload.repeated_inputs:
            return passes, [x for _, x in samples]
        by_request: dict[wl.Request, list[float]] = {}
        for req, x in samples:
            by_request.setdefault(req, []).append(x)
        return passes, [statistics.median(xs) for xs in by_request.values()]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def end_to_end(workload_name: str, seed: int, seconds: float, prog, expected) -> dict:
    ref = harness.ReferenceClock(REFERENCE_LOOP_S)
    with ref.running():
        w0, t0 = clock(), ref.now()
        wbs = wl.setup(prog)
        setup_s, setup_wall = ref.now() - t0, clock() - w0
        basis_problems = wl.check_basis(wbs)
        run = Run(wl.make_workload(workload_name, prog, wbs), expected, timer=ref.now)
        run.warm_up()
        passes, lat = run.measure(seed, seconds)
    loops = statistics.quantiles(ref.loop_times, n=20)
    print(f"host speed: calibration loop {statistics.median(ref.loop_times) * 1000:.3f} ms "
          f"median over {len(ref.loop_times)} ticks, {loops[0] * 1000:.3f}-{loops[-1] * 1000:.3f} ms "
          f"between the 5th and 95th percentiles; reference {REFERENCE_LOOP_S * 1000:.3f} ms; "
          f"set-up took {setup_wall:.2f} wall s")
    n = len(lat)
    p99_note = "" if harness.tail_resolved(n, 99) else ", fewer than 10 beyond: the slowest"
    print(f"{workload_name}: {len(passes)} passes, {run.attempted} requests attempted "
          f"(with warm-up), {run.failed} failed")
    per = "distinct requests (median of each one's sends)" if run.workload.repeated_inputs else "sends"
    print(f"latency samples={n} {per}; p99 over {n}{p99_note}")
    print(f"  failed_frac = {harness.failed_frac(run.attempted, run.failed):.6g} ratio "
          "(in the JSON line as attempted and failed)")
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(passes), "s"),
        "latency_p50_ms": (harness.percentile(lat, 50) * 1000, "ms"),
        "latency_p99_ms": (harness.percentile(lat, 99) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return finish(run, basis_problems, metrics)


def traced(workload_name: str, seed: int, seconds: float, prog, expected) -> dict:
    tracer = harness.Tracer()
    wl.install_tracing(tracer, prog)
    try:
        wbs = wl.setup(prog)
    finally:
        tracer.unpatch_all()
    basis_problems = wl.check_basis(wbs)
    run = Run(wl.make_workload(workload_name, prog, wbs), expected)
    run.warm_up()

    @contextlib.contextmanager
    def odd_passes_traced(i: int):
        """Alternate untraced and traced passes, so that both see the same
        host conditions and their difference is the tracing overhead."""
        if i % 2 == 0:
            yield
            return
        run.tracer = tracer
        wl.install_tracing(tracer, prog)
        try:
            yield
        finally:
            tracer.unpatch_all()
            run.tracer = None

    passes, _ = run.measure(seed, 2 * seconds, min_passes=2, around_pass=odd_passes_traced)
    untraced, traced_passes = passes[0::2], passes[1::2]
    metrics = wl.layer_metrics(tracer)
    overhead = statistics.median(traced_passes) / statistics.median(untraced) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    out_dir = wl.ROOT / "perfbench" / "traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload_name}-seed{seed}.json"
    tracer.dump(path)
    print(f"{workload_name}: {len(tracer.spans)} spans written to {path.relative_to(wl.ROOT)}; "
          f"tracing overhead {overhead * 100:.1f}% of run_s "
          f"(untraced {statistics.median(untraced):.3f} s, traced {statistics.median(traced_passes):.3f} s)")
    return finish(run, basis_problems, metrics)


def finish(run: Run, basis_problems: list[str], metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    problems = basis_problems + run.problems
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        prog = wl.load_program()
        expected = wl.load_expected()
        (wl.ROOT / "configs" / "kpz.json").stat()
        (wl.ROOT / "configs" / "phi4_3.json").stat()
    except (ImportError, OSError) as exc:
        print(f"error: cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    measure = traced if args.trace else end_to_end
    result = measure(args.workload, args.seed, args.seconds, prog, expected)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
