"""geg benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`).  With `--trace 0` the run measures the end-to-end metrics, with no
tracer installed.  With `--trace 1` it alternates untraced and traced units
of identical seeded work and reports per-layer metrics: calls and self time
per unit for every wrapped layer call, the import profile of `geg.cli`, CLI
child CPU versus wall time, and the tracing overhead.

Human-readable report lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
from workloads import CliFiles, Context, SessionChurn, Tally  # noqa: E402

MIB = 1024 * 1024
CLI_SETUPS = 16     # input sets (key exchanges) per CLI run; setup_s is their median
CHURN_WORKERS = 8   # sequential processes per churn run, each one set-up
IMPORT_PROBES = 3   # `-X importtime` runs per traced run; medians reported

# name -> (kind, d, plaintext file bytes)
WORKLOADS = {
    "file_bulk_d8": ("cli", 8, 128 * 1024),
    "session_churn_d16": ("churn", 16, None),
    "cli_small_d16": ("cli", 16, 4096),
}


# -- helpers ---------------------------------------------------------------------


def percentile(samples: list[float], q: float) -> tuple[float, int] | None:
    """Nearest-rank percentile and the number of samples beyond it, or None
    when fewer than ten samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    beyond = len(ordered) - int(rank)
    if beyond < 10:
        return None
    return ordered[int(rank) - 1], beyond


def report_timing(label: str, samples_s: list[float], tails=(99, 90, 75)) -> None:
    """Print the median and the highest of `tails` with ten samples beyond it."""
    parts = [f"n={len(samples_s)}"]
    for q in (50, *tails):
        got = percentile(samples_s, q)
        if got:
            parts.append(f"p{q}={got[0] * 1e3:.3f} ms ({got[1]} beyond)")
            if q != 50:
                break
    if len(parts) == 1:
        parts.append(f"median={statistics.median(samples_s) * 1e3:.3f} ms (too few for percentiles)")
    print(f"  {label}: " + " ".join(parts))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def stamp() -> dict:
    """Versions, processor count and code identity of this run."""
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if got.returncode == 0:
            sha = got.stdout.strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unavailable"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "loadavg_start": loadavg(),
    }


def import_profile(ctx: Context) -> dict[str, float]:
    """Milliseconds from `python -X importtime -c "import geg.cli"`: the whole
    statement, numpy, and the modules no protocol path needs."""
    runs: dict[str, list[float]] = {}
    for _ in range(IMPORT_PROBES):
        got = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import geg.cli"],
            env=ctx.env, cwd=ctx.work, capture_output=True, text=True, check=True,
        )
        total = 0
        cumulative: dict[str, int] = {}
        for line in got.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            us, name, depth = int(m.group(2)), m.group(4), len(m.group(3)) - 1
            cumulative[name] = us
            if depth == 0 and (name == "geg" or name.startswith("geg.")):
                total += us
        for key, us in (("cli.import_ms", total),
                        ("import.numpy_ms", cumulative.get("numpy", 0)),
                        ("import.geg.analysis_ms", cumulative.get("geg.analysis", 0)),
                        ("import.geg.polyfield_ms", cumulative.get("geg.polyfield", 0)),
                        ("import.geg.factorint_ms", cumulative.get("geg.factorint", 0))):
            runs.setdefault(key, []).append(us / 1e3)
    return {k: statistics.median(v) for k, v in runs.items()}


# -- end-to-end runs ---------------------------------------------------------------


def measure_cli(ctx: Context, tally: Tally, dim: int, size: int, seconds: float) -> dict:
    bench = CliFiles(ctx, tally, dim, size)
    setups = [bench.setup(i) for i in range(CLI_SETUPS)]
    bench.children.clear()
    trips: list[float] = []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    last = 0.0
    # start an operation only if it should end by the deadline, at least one;
    # operations 0 and 1 use input set 0, so a repeated seeded encryption is
    # always checked, then the sets follow in turn
    while not trips or time.perf_counter() + last <= deadline:
        t = time.perf_counter()
        bench.round_trip(max(len(trips) - 1, 0) % CLI_SETUPS)
        last = time.perf_counter() - t
        trips.append(last)
    loop_s = time.perf_counter() - t0
    enc = bench.children[0::2]
    dec = bench.children[1::2]
    print(f"  file: {size} bytes at d={dim}; round trips: {len(trips)} in {loop_s:.2f} s")
    report_timing("cli_roundtrip", trips)
    report_timing("setup (keyexchange)", setups)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    # totals, not medians: each input set has its own cost per block, and a
    # median jumps between those levels where a total averages them
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "encrypt_MBps": metric(size * len(enc) / MIB / sum(c.wall_s for c in enc), "MiB/s"),
        "decrypt_MBps": metric(size * len(dec) / MIB / sum(c.wall_s for c in dec), "MiB/s"),
        "ops_per_s": metric(len(trips) / loop_s, "1/s"),
        "peak_rss_mb": metric(rss, "MiB"),
    }


def measure_churn(ctx: Context, tally: Tally, seconds: float) -> dict:
    setups: list[float] = []
    pooled: dict[str, list[float]] = {}
    totals: dict[str, float] = {}
    for k in range(CHURN_WORKERS):
        argv = [sys.executable, str(ctx.bench / "workloads.py"), str(ctx.seed),
                str(k * 1_000_000), str(seconds / CHURN_WORKERS)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=ctx.env, cwd=ctx.work, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline() == "ready\n"
            ready_s = time.perf_counter() - t0
            out, err = proc.communicate(timeout=seconds + 120)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if not tally.record(ready and proc.returncode == 0,
                            f"churn worker {k} exited {proc.returncode}: {err[-500:]}"):
            continue
        setups.append(ready_s)
        got = json.loads(out.splitlines()[-1])
        tally.attempted += got.pop("attempted")
        tally.failed += got.pop("failed")
        tally.errors += got.pop("errors")
        for key, values in got.items():
            if isinstance(values, list):
                pooled.setdefault(key, []).extend(values)
            else:
                totals[key] = totals.get(key, 0) + values
    print(f"  pairings: {totals['pairings']}, sessions: {totals['sessions']} "
          f"in {CHURN_WORKERS} worker processes of {seconds / CHURN_WORKERS:.2f} s "
          f"(d={SessionChurn.DIM}, {SessionChurn.UPDATES} updates per pairing)")
    report_timing("handshake", pooled["handshake"])
    report_timing("session", pooled["session"])
    report_timing("setup (start, import, warm-up pairing)", setups)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    # totals over all pairings, as in measure_cli: the host's speed drifts
    # in phases, and a median over pairings jumps between those levels
    mib = totals["bytes"] / MIB
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "encrypt_MBps": metric(mib / totals["encrypt_s"], "MiB/s"),
        "decrypt_MBps": metric(mib / totals["decrypt_s"], "MiB/s"),
        "ops_per_s": metric(totals["sessions"] / totals["pairing_s"], "1/s"),
        "peak_rss_mb": metric(rss, "MiB"),
    }


# -- traced runs ---------------------------------------------------------------------


def layer_metrics(units: list[dict], untraced_s: list[float], traced_s: list[float]) -> dict:
    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.calls"] = metric(units[0][name]["calls"], "count")
        out[f"{name}.self_ms"] = metric(
            statistics.median(u[name]["self_ns"] for u in units) / 1e6, "ms")
    draws = units[0]["linalg.random"]["draws_for_invertible"]
    accepted = units[0]["linalg.random_invertible"]["calls"]
    out["linalg.random_invertible.accept_ratio"] = metric(accepted / draws if draws else 0.0, "ratio")
    for name in ("wire.encode_plaintext", "wire.decode_plaintext"):
        ns = sum(u[name]["ns"] for u in units)
        nbytes = sum(u[name]["bytes"] for u in units)
        out[f"{name}.MBps"] = metric(nbytes / MIB / (ns / 1e9) if ns else 0.0, "MiB/s")
    untraced, traced = statistics.median(untraced_s), statistics.median(traced_s)
    out["trace.untraced_unit_ms"] = metric(untraced * 1e3, "ms")
    out["trace.traced_unit_ms"] = metric(traced * 1e3, "ms")
    out["trace.overhead_ms"] = metric((traced - untraced) * 1e3, "ms")
    return out


def check_counts(units: list[dict], tally: Tally) -> None:
    """Identical seeded units must make identical calls."""
    first = {n: units[0][n]["calls"] for n in tracing.SPAN_NAMES}
    for i, unit in enumerate(units[1:], 1):
        got = {n: unit[n]["calls"] for n in tracing.SPAN_NAMES}
        tally.record(got == first, f"traced unit {i} call counts differ from unit 0")


def trace_run(ctx: Context, tally: Tally, workload: str, seconds: float) -> dict:
    kind, dim, size = WORKLOADS[workload]
    profile = import_profile(ctx)
    units: list[dict] = []
    untraced_s: list[float] = []
    traced_s: list[float] = []
    children = []
    if kind == "cli":
        bench = CliFiles(ctx, tally, dim, size)

        def untraced():
            bench.setup(0)
            bench.round_trip(0)
            children.extend(bench.children[-3:])

        traced = bench.traced_unit
    else:
        bench = SessionChurn(ctx.seed, tally)
        bench.pairing(-1, bench.new_samples())
        tracer = tracing.Tracer()

        def untraced():
            bench.pairing(0, bench.new_samples())

        def traced():
            tracer.reset()
            tracer.install()
            try:
                bench.pairing(0, bench.new_samples(), tracer)
            finally:
                tracer.uninstall()
            return tracing.summarize(tracer.spans)

    deadline = time.perf_counter() + seconds
    pair_s = 0.0
    while not units or time.perf_counter() + pair_s <= deadline:
        start = time.perf_counter()
        # alternate which side goes first, so drift affects both alike
        for side in ((untraced, traced) if len(units) % 2 == 0 else (traced, untraced)):
            t = time.perf_counter()
            got = side()
            (traced_s if side is traced else untraced_s).append(time.perf_counter() - t)
            if side is traced:
                units.append(got)
        pair_s = time.perf_counter() - start
    check_counts(units, tally)
    print(f"  traced units: {len(units)} (each paired with an untraced one)")
    out = layer_metrics(units, untraced_s, traced_s)
    for key, value in profile.items():
        out[key] = metric(value, "ms")
    out["cli.child_cpu_s"] = metric(statistics.median(c.cpu_s for c in children) if children else 0.0, "s")
    out["cli.child_wall_s"] = metric(statistics.median(c.wall_s for c in children) if children else 0.0, "s")
    return out


# -- entry ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "geg" / "cli.py").is_file():
        print(f"run.py: no geg sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind: the child in flight is killed and the scratch removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run_stamp = stamp()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    sys.path.insert(0, str(ROOT / "src"))
    ctx = Context(ROOT, work, args.seed, env)
    tally = Tally()
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    try:
        kind, dim, size = WORKLOADS[args.workload]
        if args.trace:
            metrics = trace_run(ctx, tally, args.workload, args.seconds)
        elif kind == "cli":
            metrics = measure_cli(ctx, tally, dim, size, args.seconds)
        else:
            metrics = measure_churn(ctx, tally, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    run_stamp["loadavg_end"] = loadavg()
    print("stamp " + json.dumps(run_stamp))
    print(f"  operations attempted {tally.attempted}, failed {tally.failed}, "
          f"fail_ratio {tally.failed / max(tally.attempted, 1):.6f}")
    for error in tally.errors:
        print(f"  failure: {error}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
