#!/usr/bin/env python3
"""Simulator benchmark runner (see README.md in this directory).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 times the real `padc` binary end to end and reports the
end-to-end metrics of BENCHMARK.json; --trace 1 runs the per-layer
measurement tool (layers.cc) and reports the per-layer metrics. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Everything else (build
log, the human-readable table) goes to standard error or comes before it.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

# Each workload: the registered experiments its padc invocation runs and
# whether it runs them on the worker-process pool. Why each was chosen
# is in README.md.
WORKLOADS = {
    "cmp4_saturated": {"experiments": ["fig10", "fig12"], "pool": False},
    "sweep_pool_resume": {"experiments": ["fig09"], "pool": True},
}
POOL_WORKERS = 2
SETUP_PROBES = 21
# The reference kernel (reference.cc) runs this many chunks before every
# repetition and once more at the end, about 0.5 s each time.
REFERENCE_CHUNKS = 6
# Its median chunk on the reference VM (4-vCPU Xeon, GCC 12.2, -O2).
# Host times are reported at this host speed; see "Steadiness" in
# README.md.
REFERENCE_NOMINAL_S = 0.08


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that stops the run without a result line."""


# --- building -------------------------------------------------------------


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = root / path
    return path / "perfbench"


def build(root):
    """Configure once, then bring padc and the layer tool up to date."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources under {root}/src; run from "
                         "the root of a checkout")
    out = build_dir(root)
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "padc", out / "perfbench_layers"


def machine_context(root):
    """nproc, CPU model, compiler and build type, recorded with every
    result: host-time figures mean nothing without them."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    for line in (build_dir(root) / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"],
                                 stdout=subprocess.PIPE, text=True,
                                 check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        version = compiler
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


# --- running padc ---------------------------------------------------------


def process_tree(pid):
    """pid and every descendant, from /proc/<pid>/task/*/children."""
    found, todo = [], [pid]
    while todo:
        p = todo.pop()
        found.append(p)
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as f:
                    todo.extend(int(c) for c in f.read().split())
        except OSError:
            pass
    return found


def vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Invocation:
    """One padc process: wall time, exit code, peak RSS of its tree."""

    def __init__(self, argv, env_extra=None):
        env = dict(os.environ)
        env.pop("PADC_TEST_INTERRUPT_AFTER", None)
        env.pop("PADC_RESUME", None)
        env.pop("PADC_THREADS", None)
        env.update(env_extra or {})
        self.launch = time.monotonic()
        proc = subprocess.Popen(argv, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        # Workers are grandchildren whose rusage the benchmark cannot
        # wait for, so their peak RSS is sampled while they live (VmHWM
        # only grows, so the last sample is their peak).
        peaks = {}
        done = threading.Event()

        def poll():
            while not done.is_set():
                for p in process_tree(proc.pid)[1:]:
                    peaks[p] = max(peaks.get(p, 0), vm_hwm_kb(p))
                done.wait(0.02)

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            with proc.stderr:
                stderr = proc.stderr.read()
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            # Stopped from outside (SIGTERM, Ctrl-C): take padc down
            # with us; it stops and reaps its own workers.
            proc.terminate()
            proc.wait()
            raise
        finally:
            done.set()
            poller.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall = time.monotonic() - self.launch
        self.code = proc.returncode
        self.stderr = stderr.decode(errors="replace")
        self.peak_rss_kb = rusage.ru_maxrss + sum(peaks.values())


def padc_argv(padc, spec, out_dir, extra=()):
    argv = [str(padc), "run", *spec["experiments"], "--out", str(out_dir)]
    if spec["pool"]:
        argv += ["--workers", str(POOL_WORKERS)]
    else:
        argv += ["--threads", "1"]
    return argv + list(extra)


# --- correctness --------------------------------------------------------


def point_digest(point):
    """Key, status, simulated cycles and metrics of one BENCH point.

    wall_seconds, profile and attempts describe the host run, not the
    result, and are left out.
    """
    body = json.dumps({k: point.get(k) for k in
                       ("key", "label", "status", "detail", "cycles",
                        "metrics")}, sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def bench_points(out_dir, experiments):
    points = []
    for name in experiments:
        path = Path(out_dir) / f"BENCH_{name}.json"
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as e:
            raise BenchError(f"unreadable {path}: {e}")
        points += [(name, p) for p in doc["points"]]
    return points


def load_golden():
    return json.loads((BENCH_DIR / "digests.json").read_text())


def check_points(points, golden, label):
    """Count points that are not ok or differ from the golden digest.

    golden is the workload's list of [experiment, digest], in order.
    """
    if len(points) != len(golden):
        log(f"{label}: {len(points)} points, expected {len(golden)}")
        return max(len(points), len(golden)), len(points)
    failed = 0
    for (name, point), (gname, gdigest) in zip(points, golden):
        bad = point["status"] != "ok" or name != gname or \
            point_digest(point) != gdigest
        if bad:
            log(f"{label}: point {point.get('label')} "
                f"status={point['status']} digest mismatch="
                f"{point_digest(point) != gdigest}")
        failed += bad
    return failed, len(points)


# --- counts -------------------------------------------------------------


def workload_counts(layers, workload, root):
    """Simulated cycles and instructions of every System::run.

    They are deterministic for a build (the workloads' inputs are
    fixed), so they are computed once per build and cached beside it.
    """
    cache = build_dir(root) / f"counts_{workload}.json"
    stamp = layers.stat().st_mtime_ns
    if cache.is_file():
        data = json.loads(cache.read_text())
        if data.get("stamp") == stamp:
            return data
    proc = subprocess.run([str(layers), "count", workload],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError("perfbench_layers count failed")
    data = json.loads(proc.stdout)
    data["stamp"] = stamp
    cache.write_text(json.dumps(data))
    return data


# --- the end-to-end run --------------------------------------------------


def interrupt_after(seed):
    """The seed's deterministic interrupt point: completed points
    before PADC_TEST_INTERRUPT_AFTER stops the journaled pass."""
    return random.Random(seed).randint(15, 45)


def run_rep(padc, spec, work, rep, seed, golden, keep=False):
    """One repetition of the workload; returns its measurements.

    With keep (the traced run), padc also writes its run-event logs
    (--progress), the output directories stay, and the logs are
    returned under "logs".
    """
    rep_dir = work / f"rep{rep}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    invs, failed, attempted = [], 0, 0

    def invoke(out, extra=(), env=None, expect=0):
        if keep:
            extra = (*extra, "--progress")
        inv = Invocation(padc_argv(padc, spec, out, extra), env)
        if inv.code != expect:
            log(inv.stderr[-2000:])
            raise BenchError(f"padc exited {inv.code}, expected {expect}")
        invs.append(inv)
        return inv

    def check(out, label):
        nonlocal failed, attempted
        f, a = check_points(bench_points(out, spec["experiments"]), golden,
                            label)
        failed, attempted = failed + f, attempted + a

    outs = [rep_dir / "fresh"]
    invoke(outs[0])
    check(outs[0], "fresh pass")
    resume_wall = None
    if spec["pool"]:
        outs.append(rep_dir / "resumed")
        journal = ["--resume", str(rep_dir / "sweep.padcjournal")]
        invoke(outs[1], journal,
               {"PADC_TEST_INTERRUPT_AFTER": str(interrupt_after(seed))},
               expect=130)
        resume_wall = invoke(outs[1], journal).wall
        check(outs[1], "resumed pass")
    if not keep:
        shutil.rmtree(rep_dir, ignore_errors=True)
    return {
        "wall": sum(i.wall for i in invs),
        "invocations": len(invs),
        "rss_kb": max(i.peak_rss_kb for i in invs),
        "resume_wall": resume_wall,
        "failed": failed,
        "attempted": attempted,
        "logs": [out / "events.jsonl" for out in outs],
    }


def run_reference(reference):
    """Host seconds of each chunk of one reference-kernel run."""
    proc = subprocess.run([str(reference), str(REFERENCE_CHUNKS)],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError("perfbench_reference failed")
    return [float(line) for line in proc.stdout.split()]


def probe_setup(padc, spec, work):
    """Wall time of the workload's padc invocation stopped before its
    first point by PADC_TEST_INTERRUPT_AFTER=0: process start, registry
    load, config validation and, for the pool, worker spawn and hello,
    plus the (trivial) write-out of an all-interrupted result."""
    out = work / "probe"
    shutil.rmtree(out, ignore_errors=True)
    inv = Invocation(padc_argv(padc, spec, out),
                     {"PADC_TEST_INTERRUPT_AFTER": "0"})
    if inv.code != 130:
        log(inv.stderr[-2000:])
        raise BenchError(f"set-up probe exited {inv.code}, expected 130")
    shutil.rmtree(out, ignore_errors=True)
    return inv.wall


def end_to_end(args, root, padc, layers):
    spec = WORKLOADS[args.workload]
    golden = load_golden()[args.workload]
    counts = workload_counts(layers, args.workload, root)
    work = build_dir(root).parent / "runs" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # The pool workload simulates its sweep twice per repetition: the
    # fresh pass, and the interrupted pass plus its resume.
    passes = 2 if spec["pool"] else 1
    cycles = counts["simulated_cycles"] * passes
    instructions = counts["instructions"] * passes

    reference = padc.with_name("perfbench_reference")
    bursts = []
    setups = [probe_setup(padc, spec, work)
              for _ in range((SETUP_PROBES + 1) // 2)]
    # Repeat until --seconds have passed, starting another repetition
    # only while it is expected to end within half a repetition of the
    # deadline, so that a run lasts about --seconds. The reference
    # kernel runs between repetitions, so that it samples the host's
    # speed across the whole run.
    reps = []
    deadline = time.monotonic() + args.seconds
    while not reps or time.monotonic() + statistics.median(
            r["wall"] for r in reps) / 2 <= deadline:
        bursts.append(run_reference(reference))
        reps.append(run_rep(padc, spec, work, len(reps), args.seed,
                            golden))
        log(f"repetition {len(reps)}: {reps[-1]['wall']:.3f} s")
    bursts.append(run_reference(reference))
    setups += [probe_setup(padc, spec, work)
               for _ in range(SETUP_PROBES // 2)]
    shutil.rmtree(work, ignore_errors=True)
    setup = statistics.median(setups)
    # The shared host's speed drifts by a third over minutes, which no
    # run length averages away. Host times are therefore scaled to the
    # reference host speed: a repetition during which the reference
    # kernel's median chunk (in the bursts just before and after it)
    # took twice REFERENCE_NOMINAL_S has its times halved. The set-up
    # probes take the median over the whole run. Within the run, times
    # are means (total work over total time), which keep less of one
    # repetition's noise than a median of a handful of them.
    speed = REFERENCE_NOMINAL_S / statistics.median(
        t for burst in bursts for t in burst)
    for i, r in enumerate(reps):
        r["speed"] = REFERENCE_NOMINAL_S / statistics.median(
            bursts[i] + bursts[i + 1])
        r["sim_wall"] = r["wall"] - r["invocations"] * setup

    def mean(key, scaled):
        return statistics.fmean(
            r[key] * (r["speed"] if scaled else 1) for r in reps)

    failed = sum(r["failed"] for r in reps)
    attempted = sum(r["attempted"] for r in reps)
    metrics = {
        "wall_s": (mean("wall", True), "s"),
        "setup_s": (setup * speed, "s"),
        "sim_cycles_per_s": (cycles / mean("sim_wall", True), "1/s"),
        "sim_instr_per_s": (instructions / mean("sim_wall", True), "1/s"),
        "peak_rss_mb": (statistics.median(
            r["rss_kb"] / 1024.0 for r in reps), "MB"),
    }
    extra = {
        "host_speed": (speed, "ratio"),
        "measured_wall_s": (mean("wall", False), "s"),
        "measured_setup_s": (setup, "s"),
        "measured_sim_cycles_per_s": (cycles / mean("sim_wall", False),
                                      "1/s"),
        "fail_ratio": (failed / attempted, "ratio"),
        "repetitions": (len(reps), "count"),
        "setup_samples": (len(setups), "count"),
        "reference_chunks": (sum(len(b) for b in bursts), "count"),
        "simulated_cycles_per_rep": (cycles, "count"),
    }
    if spec["pool"]:
        extra["resume_wall_s"] = (mean("resume_wall", True), "s")
    return metrics, extra, failed, attempted


# --- the traced run ------------------------------------------------------


def nearest_rank(ordered, pct):
    """The ceil(pct * n / 100)-th smallest of the sorted samples."""
    return ordered[max(1, math.ceil(pct * len(ordered) / 100)) - 1]


def percentile_tail(values):
    """The tail rule: the highest whole percentile with at least ten
    samples beyond it, floor(100 - 1000 / n), capped at 99, by nearest
    rank (which leaves n - ceil(pct * n / 100) >= 10 samples beyond).

    Returns (percentile, value), or (0, 0) below 20 samples, where no
    percentile of at least 50 has ten samples beyond it.
    """
    n = len(values)
    if n < 20:
        return 0, 0.0
    pct = min(99, math.floor(100 - 1000 / n))
    return pct, nearest_rank(sorted(values), pct)


def pool_metrics(events_files, workers):
    """procpool.* from the run-event logs of the traced pool passes."""
    retries, span_ms, durations = 0, 0, []
    for path in events_files:
        start, dispatched = None, {}
        for line in Path(path).read_text().splitlines():
            try:
                e = json.loads(line)
            except ValueError:
                continue
            kind, t = e.get("ev"), e.get("t_ms", 0)
            if kind in ("sweep_start", "sweep_resume"):
                start = t
            elif kind in ("sweep_finish", "sweep_interrupted") and start:
                span_ms += t - start
            elif kind == "point_dispatch":
                dispatched[e["point"]] = t
            elif kind == "point_retry":
                retries += 1
            elif kind == "point_complete" and e["point"] in dispatched:
                durations.append(t - dispatched.pop(e["point"]))
    pct, tail = percentile_tail(durations)
    exec_ms = sum(durations)
    return {
        "procpool.tasks": len(durations),
        "procpool.retries": retries,
        "procpool.exec_s": exec_ms / 1000.0,
        "procpool.worker_busy_ratio":
            exec_ms / (workers * span_ms) if span_ms else 0.0,
        "procpool.task_ms_p50":
            nearest_rank(sorted(durations), 50) if pct >= 50 else 0.0,
        "procpool.task_ms_tail": tail,
        "procpool.task_ms_tail_pct": pct,
        "procpool.task_samples": len(durations),
    }


def declared(kind):
    """{name: unit} of the BENCHMARK.json metrics of @p kind."""
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def traced(args, root, padc, layers):
    spec = WORKLOADS[args.workload]
    work = build_dir(root).parent / "runs" / (args.workload + "_trace")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    proc = subprocess.run([str(layers), "trace", args.workload, str(work)],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError("perfbench_layers trace failed")
    raw = json.loads(proc.stdout)
    failed = int(raw["sim.not_converged"]) + int(raw["dram.replay_illegal"])
    failed += 0 if raw["trace.cycles_match"] == 1 else 1
    attempted = int(raw["sim.runs"])

    values = dict(raw)
    if spec["pool"]:
        golden = load_golden()[args.workload]
        rep = run_rep(padc, spec, work, 0, args.seed, golden, keep=True)
        failed += rep["failed"]
        attempted += rep["attempted"]
        values.update(pool_metrics(rep["logs"], POOL_WORKERS))
        values["procpool.resume_wall_s"] = rep["resume_wall"]
    shutil.rmtree(work, ignore_errors=True)
    # The harness layers an in-thread workload never enters read 0.
    metrics = {name: values.get(name, 0) for name in declared("per_layer")}
    return metrics, raw, failed, attempted


# --- main ---------------------------------------------------------------


def record_digests(root, padc):
    """Re-record digests.json from in-thread runs of every workload.

    Only for a change that alters a reported number on purpose; the
    change must say which number moved and why.
    """
    golden = {}
    for name, spec in WORKLOADS.items():
        out = build_dir(root).parent / "runs" / "record"
        shutil.rmtree(out, ignore_errors=True)
        inv = Invocation([str(padc), "run", *spec["experiments"], "--out",
                          str(out), "--threads", "1"])
        if inv.code != 0:
            raise BenchError(f"padc exited {inv.code} recording {name}")
        golden[name] = [[exp, point_digest(p)] for exp, p in
                        bench_points(out, spec["experiments"])]
        shutil.rmtree(out, ignore_errors=True)
    # One point per line, so a re-recording diffs point by point.
    body = ",\n".join(
        f" {json.dumps(name)}: [\n" +
        ",\n".join("  " + json.dumps(row) for row in rows) + "\n ]"
        for name, rows in golden.items())
    (BENCH_DIR / "digests.json").write_text("{\n" + body + "\n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload is None and not args.record_digests:
        ap.error("--workload is required")
    root = Path.cwd()
    try:
        padc, layers = build(root)
        print("machine " + json.dumps(machine_context(root)))
        if args.record_digests:
            record_digests(root, padc)
            return 0
        if args.trace:
            values, raw, failed, attempted = traced(args, root, padc,
                                                    layers)
            units = declared("per_layer")
            metrics = {k: {"value": v, "unit": units[k]}
                       for k, v in values.items()}
            log(json.dumps(raw, indent=1, sort_keys=True))
        else:
            values, extra, failed, attempted = end_to_end(args, root, padc,
                                                          layers)
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in values.items()}
            for k, (v, u) in {**values, **extra}.items():
                print(f"{args.workload:18s} {k:26s} {v:>16.6g} {u}")
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
