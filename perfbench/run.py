"""chiralbag benchmark: one client, closed loop, one process.

    python3 perfbench/run.py --workload closed_grid --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout.  A request is one in-process
`chiralbag.cli.main([...])` call that writes its report with `--out` to a
scratch file; the next request starts when the previous one has returned.
Only the call is timed, and its wall time is corrected for the host's
drifting speed by a reference computation timed around it (hostspeed.py).
Each report is then checked outside the timed region (checks.py).  A run
measures as many whole periods of its workload's seeded stream
(workloads.py) as fit in `--seconds`, and at least one.

`--trace 0` reports the end-to-end metrics; every metric is also printed by
name with its unit, next to the sample counts, the generated-input properties
and the environment.  `--trace 1` replays a fixed prefix of the stream twice,
plainly and with per-layer wrappers (tracing.py), checks that both passes
write byte-identical reports, and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`.

The metric names and units are those of BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import os

# pinned before numpy loads, here and in the set-up timing children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
from workloads import (STREAMS, TRACE_REQUESTS, Request, probes,  # noqa: E402
                       warmup)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from chiralbag import cli; cli.build_parser()")
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


@dataclass
class Record:
    request: Request
    seconds: float
    exit_code: int | None  # None: the command raised
    error: str
    text: str
    scale: float  # host-speed correction, see hostspeed.py
    outcome: checks.Outcome | None = None

    @property
    def corrected(self) -> float:
        return self.seconds * self.scale


def execute(call, req: Request, path: Path) -> Record:
    """Run one request; only the call itself is timed, between two timings
    of the host-speed reference."""
    path.unlink(missing_ok=True)
    err = io.StringIO()
    argv = list(req.argv) + ["--out", str(path)]
    before = hostspeed.reference_time()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = call(argv)
        except Exception as exc:  # a crash fails this request, not the run
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
    scale = hostspeed.scale(before, hostspeed.reference_time())
    text = path.read_text() if path.exists() else ""
    return Record(req, seconds, code, err.getvalue().strip(), text, scale)


def run_and_check(call, requests, work: Path, rng):
    """Run the requests in order, checking each report after its call."""
    records = []
    for req in requests:
        rec = execute(call, req, work / "report.json")
        rec.outcome = checks.check(req, rec.exit_code, rec.text, rng)
        records.append(rec)
    return records


def checker_rng(args) -> random.Random:
    """Picks the table rows recomputed in mpmath; apart from the inputs'."""
    return random.Random(f"check:{args.workload}:{args.seed}")


def setup_times() -> list[tuple[float, float]]:
    """(wall time, host-speed scale) of fresh interpreters that import
    chiralbag.cli and build its parser; the first, which warms the file
    cache and writes bytecode, is not kept."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    times = []
    for i in range(SETUP_RUNS + 1):
        before = hostspeed.reference_time()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - t0
        if i:
            times.append((seconds, hostspeed.scale(
                before, hostspeed.reference_time())))
    return times


def tail_latency(values) -> tuple[float, int]:
    """The highest whole percentile with at least TAIL_BEYOND samples above
    it (nearest rank), and that percentile.  With 2 * TAIL_BEYOND samples or
    fewer that percentile is at most the median, so the maximum (100) is
    reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return xs[-1], 100
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    return xs[max(1, math.ceil(pct * n / 100)) - 1], pct


def clear_caches() -> None:
    """Empty every functools cache in the package, so a replay starts cold."""
    for name, mod in list(sys.modules.items()):
        if name == "chiralbag" or name.startswith("chiralbag."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def accuracy(records) -> tuple[float, float]:
    """(digits, margin in decades), each the minimum over all checks."""
    pairs = [c for r in records for c in r.outcome.checks]
    return (min((checks.digits(res) for res, _ in pairs), default=0.0),
            min((checks.margin(res, tol) for res, tol in pairs), default=0.0))


def results_per_s(records, raw: bool = False) -> float:
    return sum(r.outcome.results for r in records) / \
        sum(r.seconds if raw else r.corrected for r in records)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import mpmath
    import numpy
    import scipy
    env = {"nproc": os.cpu_count(),
           "cpus_usable": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "mpmath": mpmath.__version__,
           "commit": git_commit()}
    env.update({var: os.environ[var] for var in THREAD_VARS})
    return env


def show(name: str, value, unit: str = "", note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<42} {text:>14} {unit:<12} {note}".rstrip())


def show_inputs(workload: str, records) -> None:
    thetas = [th for r in records for th in r.request.thetas]
    show("inputs.theta_min", min(thetas))
    show("inputs.theta_max", max(thetas))
    if workload == "closed_grid":
        show("inputs.theta_abs_gt_3_share",
             sum(abs(th) > 3 for th in thetas) / len(thetas), "share")
        show("inputs.band_share", 0.0, "share",
             "4 < |theta| <= 6 is probed apart from the stream")
    if workload == "disc_fit":
        seen, repeats = set(), 0
        for th in thetas:
            repeats += abs(th) in seen
            seen.add(abs(th))
        show("inputs.spectrum_seen_share", repeats / len(thetas), "share",
             "|theta| already solved in this process (theta or -theta)")
    if workload == "cylinder_modes":
        mix = Counter(r.request.ms[0] for r in records)
        show("inputs.m_mix", " ".join(f"m{m}:{n}" for m, n in
                                      sorted(mix.items())), "requests")


def show_probes(records) -> None:
    if not records:
        return
    failed = [r for r in records if not r.outcome.ok]
    show("probe.failed_share", len(failed) / len(records), "share",
         f"of {len(records)} requests from the domain that fails today")
    for r in records:
        status = "ok" if r.outcome.ok else \
            f"exit {r.exit_code}: {r.error or r.outcome.why}"[:90]
        print(f"    {r.request.argv[0]} theta={r.request.thetas[0]}: "
              f"{status}")


def measured_run(args, units: dict) -> dict:
    setup = setup_times()
    from chiralbag import cli
    work = args.work
    for req in warmup(args.workload):
        execute(cli.main, req, work / "warmup.json")
    rng = checker_rng(args)
    stream = STREAMS[args.workload](args.seed)
    records = []
    start = now = time.perf_counter()
    period = 0.0
    # whole periods, and a next one only if it should end within --seconds
    while not records or now - start + period <= args.seconds:
        records += run_and_check(cli.main, next(stream), work, rng)
        period, now = time.perf_counter() - now, time.perf_counter()
    wall = now - start
    probe_records = run_and_check(cli.main, probes(args.workload, args.seed),
                                  work, rng)

    lat = [r.corrected for r in records]
    raw = [r.seconds for r in records]
    failed = [r for r in records if not r.outcome.ok]
    tail, pct = tail_latency(lat)
    digits, margin = accuracy(records)
    metrics = {
        "results_per_s": results_per_s(records),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "accuracy_digits": digits,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(t * k for t, k in setup),
    }
    raw_metrics = {
        "raw.results_per_s": results_per_s(records, raw=True),
        "raw.latency_p50_s": statistics.median(raw),
        "raw.latency_tail_s": tail_latency(raw)[0],
        "raw.setup_s": statistics.median(t for t, _ in setup),
        "host.speed": statistics.median(r.scale for r in records),
    }
    n = len(records)
    print(f"chiralbag benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace=0")
    show("requests", n, "count", f"in {wall:.1f} s of wall time, "
         f"one client, closed loop")
    for name, value in metrics.items():
        note = {"latency_p50_s": f"p50 of {n} requests",
                "latency_tail_s": f"p{pct} of {n} requests",
                "setup_s": f"median of {len(setup)} fresh interpreters",
                "accuracy_digits": "min over all checks of -log10(residual)",
                }.get(name, "")
        show(name, value, units[name], note)
    show("failed_share", len(failed) / n, "share",
         f"{len(failed)} of {n} requests")
    for name, value in raw_metrics.items():
        show(name, value, "" if name == "host.speed" else units[name[4:]],
             "median reference speed, 1 = nominal" if name == "host.speed"
             else "wall time, not corrected for host speed")
    show("accuracy_margin_decades", margin, "decades",
         "min over all checks of log10(tolerance / residual)")
    show_inputs(args.workload, records)
    show_probes(probe_records)
    for r in failed[:5]:
        print(f"    failed: {' '.join(r.request.argv)}: {r.outcome.why} "
              f"{r.error}"[:200])
    for key, value in environment().items():
        show(f"env.{key}", value)
    return {"correct": not failed, "attempted": n, "failed": len(failed),
            "metrics": metrics}


def traced_run(args, units: dict) -> dict:
    from chiralbag import cli
    from tracing import REQUEST_SPAN, Tracer
    work = args.work
    for req in warmup(args.workload):
        execute(cli.main, req, work / "warmup.json")
    stream = STREAMS[args.workload](args.seed)
    prefix = list(itertools.islice(itertools.chain.from_iterable(stream),
                                   TRACE_REQUESTS[args.workload]))
    plain = run_and_check(cli.main, prefix, work, checker_rng(args))
    clear_caches()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_and_check(tracer.span(REQUEST_SPAN, cli.main), prefix,
                               work, checker_rng(args))
    finally:
        tracer.restore()
    differs = sum(a.exit_code != b.exit_code or a.text != b.text
                  for a, b in zip(plain, traced))
    failed = sum(not r.outcome.ok for r in plain + traced) + differs

    metrics = tracer.layers()
    metrics["cli.bytes_out"] = sum(len(r.text.encode()) for r in traced)
    rate_plain, rate_traced = results_per_s(plain), results_per_s(traced)
    metrics["trace.overhead_share"] = 1.0 - rate_traced / rate_plain
    metrics["trace.requests"] = len(prefix)

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)

    print(f"chiralbag benchmark  workload={args.workload} seed={args.seed} "
          f"trace=1")
    show("requests", len(prefix), "count",
         "fixed prefix of the stream, run twice")
    show("results_per_s.untraced", rate_plain, "1/s")
    show("results_per_s.traced", rate_traced, "1/s")
    show("reports_identical", not differs, "",
         f"{len(prefix) - differs} of {len(prefix)} byte-identical")
    for name, value in metrics.items():
        show(name, value, units[name])
    show("spans", len(tracer.spans), "count",
         str(spans_path.relative_to(ROOT)))
    for key, value in environment().items():
        show(f"env.{key}", value)
    return {"correct": failed == 0, "attempted": 2 * len(prefix),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(STREAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "chiralbag" / "cli.py").is_file():
        print(f"error: no chiralbag sources under {SRC}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    sys.path.insert(0, str(SRC))

    args.work = ROOT / ".perfbench_tmp" / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    args.work.mkdir(parents=True)
    try:
        result = (traced_run if args.trace else measured_run)(args, units)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not "
              f"match BENCHMARK.json", file=sys.stderr)
        return 2
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                         for name in units}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
