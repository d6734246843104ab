#!/usr/bin/env python3
"""Figure-regeneration benchmark for the R-NUMA simulator.

Run from the repository root:

    python3 perfbench/run.py --workload fig6-paper --seed 0 --seconds 40 --trace 0

Each run builds `perfbench/` (a package of its own) and then drives its
binary in fresh, cold child processes, one at a time, with every
`RNUMA_*` variable scrubbed and a fresh working and temp directory per
process. One run is one closed-loop batch job: one client submits the
workload's grid(s) and waits for the result. The binary owns the table
of workloads: a first set-up-only child reports the workload's scale
and grids.

* `--trace 0` measures the end-to-end metrics: set-up-only children
  (`setup_s` is the median of the set-up times they report, from
  `main` to the first simulation call), then whole regenerations of the
  workload (tracing off) until `--seconds` is spent. Medians are
  reported.
* `--trace 1` runs one untraced regeneration plus one traced run that
  calls each layer on its own and records spans around the calls; the
  per-layer metrics are derived from those spans.

Every cell's simulated metrics are checked against `expected.json`
(digests recorded at the commit that defined the benchmark). A cell
that panics or mismatches counts as failed; the run goes on. The last
line of stdout is one JSON object: `correct`, `attempted`, `failed`,
`metrics`.

Other entry points:
    --record           rewrite expected.json for --workload at its scale
    --scale tiny       run a workload at another scale (the smoke test)
    --expected PATH    check against another digest file
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

# Set-up-only children per --trace 0 run; setup_s is their median.
SETUP_SAMPLES = 21
# Every child is killed past this many seconds of the run, so a run
# always ends inside the driver's 180-s limit.
RUN_DEADLINE_S = 170.0
MB = 1024.0 * 1024.0
LAYERS = ("live", "capture", "encode", "decode", "replay")
REPLAY_CLASSES = ("ccnuma", "scoma", "rnuma")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve()


def build():
    """Builds the harness; returns its path, or exits non-zero."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"perfbench: build failed: {err}")
        sys.exit(2)
    if done.returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return target_dir() / "release" / "rnuma-perfbench"


def host_facts(scale):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    # A checkout without git history is identified by its sources.
    h = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/**/*")):
        if path.is_file() and path.suffix in (".rs", ".toml"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "commit": commit,
        "source_sha256": h.hexdigest()[:16],
        "scale": scale,
    }


class Runner:
    """Spawns cold children one at a time and measures each."""

    def __init__(self, binary, workload, scale, seed, deadline):
        self.binary = binary
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.deadline = deadline
        self.scratch = target_dir() / "perfbench-runs"

    def child(self, mode, spans=None):
        """One cold process. Returns (wall_s, cpu_s, rss_mb, output | None)."""
        self.scratch.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=self.scratch))
        env = {k: v for k, v in os.environ.items() if not k.startswith("RNUMA_")}
        env["TMPDIR"] = str(workdir)
        cmd = [str(self.binary), mode, "--workload", self.workload, "--seed", str(self.seed)]
        if self.scale is not None:
            cmd += ["--scale", self.scale]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        remaining = self.deadline - time.monotonic()
        try:
            with open(workdir / "stderr.txt", "wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(
                    cmd, cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=err
                )
                killer = threading.Timer(max(remaining, 0.0), proc.kill)
                killer.start()
                stdout = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                killer.cancel()
                killer.join()
                proc.returncode = os.waitstatus_to_exitcode(status)
            errors = (workdir / "stderr.txt").read_text(errors="replace")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            log(f"perfbench: {mode} child exited {proc.returncode}:\n{errors[-2000:]}")
        elif errors.strip():
            log(errors[-2000:])
        output = None
        lines = stdout.decode(errors="replace").strip().splitlines()
        if proc.returncode == 0 and lines:
            try:
                output = json.loads(lines[-1])
            except json.JSONDecodeError:
                log("perfbench: child printed no result")
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss / 1024.0, output

    def plan(self):
        """One set-up-only child: the workload's scale, grids and set-up time."""
        _, _, _, out = self.child("setup")
        if out is None:
            log("perfbench: the set-up child failed")
            sys.exit(2)
        return out

    def out_of_time(self):
        return time.monotonic() >= self.deadline


def expected_cells(expected, scale, grids):
    table = expected.get(scale, {})
    missing = [g for g in grids if g not in table]
    if missing:
        log(f"perfbench: no expected digests for {missing} at scale {scale}")
        sys.exit(2)
    return {f"{g}/{cell}": want for g in grids for cell, want in table[g].items()}


def check(output, want):
    """Counts failed cells of one child: panicked, missing or mismatched."""
    got = {} if output is None else {c["key"]: c["digest"] for c in output["cells"]}
    failed = sum(1 for key, w in want.items() if got.get(key) != w["digest"])
    failed += sum(1 for key in got if key not in want)
    if output is not None and output["failed_grids"]:
        log(f"perfbench: grids panicked: {output['failed_grids']}")
    return failed


def run_end_to_end(runner, plan, want, seconds):
    """--trace 0: set-up samples, then cold regenerations for `seconds`."""
    setups = [plan["setup_s"]]
    while len(setups) < SETUP_SAMPLES:
        _, _, _, out = runner.child("setup")
        if out is not None:
            setups.append(out["setup_s"])
    ops = sum(w["ops"] for w in want.values())
    reps = []
    attempted = failed = 0
    begun = time.monotonic()
    while True:
        wall, cpu, rss, out = runner.child("sweep")
        attempted += len(want)
        failed += check(out, want)
        reps.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss})
        log(f"perfbench: rep {len(reps)}: wall {wall:.3f} s, cpu {cpu:.3f} s, rss {rss:.1f} MB")
        spent = time.monotonic() - begun
        if runner.out_of_time() or spent + wall > seconds:
            break
    med = lambda k: statistics.median(r[k] for r in reps)  # noqa: E731
    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "sim_mops_per_s": (statistics.median(ops / r["wall_s"] / 1e6 for r in reps), "Mops/s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    details = {"reps": reps, "setup_samples": setups}
    return attempted, failed, metrics, details


def derive_layers(spans, cells, workers, wall_s, cpu_s):
    """Per-layer and scheduler metrics from the traced run's spans."""
    dur = lambda s: s["end"] - s["start"]  # noqa: E731
    named = lambda n: [s for s in spans if s["name"] == n]  # noqa: E731
    total = {n: sum(dur(s) for s in named(n)) for n in LAYERS}
    root = next(s for s in spans if s["parent"] is None)
    grids = named("grid")

    captures = named("capture")
    captured_ops = sum(s["attrs"]["ops"] for s in captures)
    decoded_ops = sum(s["attrs"]["ops"] for s in named("decode"))
    # Replay walk = replay_serial minus the decode of the same cell,
    # measured by the isolated decode pass just before it.
    decode_of = {s["cell"]: dur(s) for s in named("decode")}
    replay_walk = {s["cell"]: dur(s) - decode_of[s["cell"]] for s in named("replay")}
    replay_s = sum(replay_walk.values())
    cell_of = {c["key"]: c for c in cells}
    per_class = {}
    for s in named("replay"):
        cls = cell_of[s["cell"]]["class"]
        ops, secs = per_class.get(cls, (0, 0.0))
        per_class[cls] = (ops + s["attrs"]["ops"], secs + replay_walk[s["cell"]])
    l1_replayed = sum(s["attrs"]["l1_misses"] for s in named("replay"))

    def rate(ops, secs):
        return ops / secs / 1e6 if secs > 0 else 0.0

    # Scheduler view: every grid is a barrier (the next sweep starts when
    # the previous returns); inside one, an app's chain is its capture,
    # its encode, and its longest replay.
    work_s = critical_path_s = lower_bound_s = 0.0
    for g in grids:
        kids = [s for s in spans if s["parent"] == g["id"] and s["name"] != "decode"]
        work = sum(dur(s) for s in kids)
        chains = {}
        for s in kids:
            app = s["cell"].split("/")[1]
            head, longest = chains.get(app, (0.0, 0.0))
            if s["name"] in ("replay", "live"):
                chains[app] = (head, max(longest, dur(s)))
            else:
                chains[app] = (head + dur(s), longest)
        critical = max((h + l for h, l in chains.values()), default=0.0)
        work_s += work
        critical_path_s += critical
        lower_bound_s += max(work / workers, critical)

    # Capture reuse: a stream is an (app, capture config) pair.
    seen = set()
    duplicate_s = 0.0
    encode_of = {s["cell"]: dur(s) for s in named("encode")}
    for s in captures:
        key = (s["cell"].split("/")[1], s["attrs"]["config_id"])
        if key in seen:
            duplicate_s += dur(s) + encode_of[s["cell"]]
        seen.add(key)

    # sweep_grid holds one chunk of `workers` raw traces at a time.
    flat_peak = 0
    for g in grids:
        flats = [s["attrs"]["flat_bytes"] for s in captures if s["parent"] == g["id"]]
        for i in range(0, len(flats), workers):
            flat_peak = max(flat_peak, sum(flats[i:i + workers]))

    stores = [g["attrs"] for g in grids if "encoded_bytes" in g["attrs"]]
    flat = sum(a["flat_bytes"] for a in stores)
    encoded = sum(a["encoded_bytes"] for a in stores)
    weight = sum(a["captured_ops"] for a in stores)
    interning = (
        sum(a["interning_ratio"] * a["captured_ops"] for a in stores) / weight if weight else 1.0
    )
    layer_self = sum(total.values())
    trace_wall = dur(root)

    m = {
        "capture_s": (total["capture"], "s"),
        "capture_mops_per_s": (rate(captured_ops, total["capture"]), "Mops/s"),
        "captured_ops": (captured_ops, "count"),
        "live_s": (total["live"], "s"),
        "encode_s": (total["encode"], "s"),
        "encode_mops_per_s": (rate(captured_ops, total["encode"]), "Mops/s"),
        "trace_flat_mb": (flat / MB, "MB"),
        "trace_encoded_mb": (encoded / MB, "MB"),
        "trace_footprint_ratio": (flat / encoded if encoded else 0.0, "ratio"),
        "interning_ratio": (interning, "ratio"),
        "decode_s": (total["decode"], "s"),
        "decode_mops_per_s": (rate(decoded_ops, total["decode"]), "Mops/s"),
        "replay_s": (replay_s, "s"),
    }
    for cls in REPLAY_CLASSES:
        m[f"replay_mops_per_s.{cls}"] = (rate(*per_class.get(cls, (0, 0.0))), "Mops/s")
    m.update({
        "replay_ns_per_l1_miss": (replay_s * 1e9 / l1_replayed if l1_replayed else 0.0, "ns"),
        "work_s": (work_s, "s"),
        "critical_path_s": (critical_path_s, "s"),
        "lower_bound_s": (lower_bound_s, "s"),
        "sched_efficiency": (lower_bound_s / wall_s, "ratio"),
        "parallelism": (cpu_s / wall_s, "ratio"),
        "idle_core_s": (workers * wall_s - cpu_s, "s"),
        "captures_requested": (len(captures), "count"),
        "distinct_streams": (len(seen), "count"),
        "duplicate_capture_s": (duplicate_s, "s"),
        "store_resident_mb": (max((a["resident_bytes"] for a in stores), default=0) / MB, "MB"),
        "flat_trace_peak_mb": (flat_peak / MB, "MB"),
        "sim_references": (sum(c["references"] for c in cells), "count"),
        "sim_l1_misses": (sum(c["l1_misses"] for c in cells), "count"),
        "sim_remote_fetches": (sum(c["remote_fetches"] for c in cells), "count"),
        "sim_refetches": (sum(c["refetches"] for c in cells), "count"),
        "sim_relocations": (sum(c["relocations"] for c in cells), "count"),
        "trace_wall_s": (trace_wall, "s"),
        "span_coverage": (layer_self / trace_wall, "ratio"),
        "trace_overhead_s": (trace_wall - layer_self, "s"),
        "trace_dilation": (trace_wall / wall_s, "ratio"),
    })
    return m


def run_traced(runner, want, out_dir, tag):
    """--trace 1: one untraced regeneration, then the traced run."""
    wall, cpu, rss, out = runner.child("sweep")
    failed = check(out, want)
    spans_path = out_dir / f"spans-{tag}.jsonl"
    t_wall, _, t_rss, traced = runner.child("trace", spans=spans_path)
    failed += check(traced, want)
    attempted = 2 * len(want)
    if out is None or traced is None:
        return attempted, max(failed, 1), None, {}
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    metrics = derive_layers(spans, traced["cells"], out["workers"], wall, cpu)
    details = {
        "untraced": {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss},
        "traced": {"wall_s": t_wall, "peak_rss_mb": t_rss},
        "spans": str(spans_path),
        "app_orders": out["app_orders"],
    }
    return attempted, failed, metrics, details


def record(runner, scale, path):
    """Rewrites the expected digests of the workload's grids at `scale`."""
    _, _, _, out = runner.child("trace", spans=target_dir() / "perfbench-record.jsonl")
    if out is None or out["failed_grids"]:
        log("perfbench: record run failed")
        sys.exit(1)
    expected = json.loads(path.read_text()) if path.exists() else {}
    table = expected.setdefault(scale, {})
    for cell in out["cells"]:
        grid, rest = cell["key"].split("/", 1)
        table.setdefault(grid, {})[rest] = {"digest": cell["digest"], "ops": cell["ops"]}
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    log(f"perfbench: recorded {len(out['cells'])} cells of {runner.workload} at {scale}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale")
    ap.add_argument("--expected", type=Path, default=EXPECTED)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    binary = build()
    # The first run in a checkout may spend minutes building; the 180-s
    # limit of every other run starts after the no-op build check.
    started = time.monotonic()
    deadline = started + (3600.0 if args.record else RUN_DEADLINE_S)
    runner = Runner(binary, args.workload, args.scale, args.seed, deadline)
    plan = runner.plan()
    scale = plan["scale"]
    if args.record:
        record(runner, scale, args.expected)
        return
    if not args.expected.exists():
        log(f"perfbench: {args.expected} is missing")
        sys.exit(2)
    want = expected_cells(json.loads(args.expected.read_text()), scale, plan["grids"])
    out_dir = target_dir() / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{scale}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        attempted, failed, metrics, details = run_traced(runner, want, out_dir, tag)
    else:
        attempted, failed, metrics, details = run_end_to_end(runner, plan, want, args.seconds)

    facts = host_facts(scale)
    print("host " + json.dumps(facts))
    print(f"workload {args.workload} (scale {scale}, seed {args.seed}, trace {args.trace})")
    print(f"error_rate {failed / attempted:.6f} fraction ({failed} of {attempted} cells failed)")
    for name, (value, unit) in (metrics or {}).items():
        print(f"{name} {value:.6g} {unit}")
    (out_dir / f"run-{tag}.json").write_text(json.dumps(
        {"host": facts, "workload": args.workload, "seed": args.seed, "attempted": attempted,
         "failed": failed, "metrics": metrics, "details": details}, indent=1) + "\n")
    result = {
        "correct": failed == 0 and metrics is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (metrics or {}).items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
