#!/usr/bin/env python3
"""Repository benchmark: build perfbench/ and run its workloads.

One workload, as BENCHMARK.json's command runs it (the last stdout line is
one JSON object with correct / attempted / failed / metrics):

    python3 perfbench/run.py --workload engines_serial --seed 1 \\
        --seconds 30 --trace 0

Every workload, printing each end-to-end metric with its unit and sample
count (omit --workload):

    python3 perfbench/run.py

The traced run of every workload: writes one Chrome trace per workload,
prints the per-span and per-layer self-time tables and
obs.trace_overhead_frac:

    python3 perfbench/run.py --trace 1

The program is built from the checkout's sources as a Release build with
LTO (the repository default) under $CARGO_TARGET_DIR, or .bench_build when
that is unset.  Exits non-zero without a result when the build or the run
fails.
"""

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("engines_serial", "lowload_socket", "service_mixed")
RUN_TIMEOUT_S = 170

# Span-name prefix -> layer.  "pb." spans are the benchmark's own, around
# calls into each layer's public functions; the rest are the program's.
LAYERS = (
    ("pb.core.", "core"),
    ("low_load.", "core"),
    ("high_load.", "core"),
    ("hitting_set.", "core"),
    ("hypercube.", "core"),
    ("pb.shard.", "shard"),
    ("shard.", "shard"),
    ("pb.service.", "service"),
    ("service.", "service"),
    ("pb.check", "benchmark checks"),
)


def layer_of(name):
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
            / "perfbench")


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", "3"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                sys.stderr.write("perfbench build failed:\n"
                                 + "\n".join(tail) + "\n")
                # A half-configured tree must not look configured next time.
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                sys.exit(1)
    return out / "perfbench"


def self_times(events):
    """Per span name: (count, total us, self us).  A span's self time is
    its duration minus the time its direct children cover; spans nest per
    thread (tools/trace_summary.py validates that)."""
    count = defaultdict(int)
    total = defaultdict(float)
    self_us = defaultdict(float)
    by_tid = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            by_tid[e["tid"]].append((float(e["ts"]), float(e["dur"]),
                                     e["name"]))
    for spans in by_tid.values():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []  # [end, name, dur, covered]

        def close(item):
            self_us[item[1]] += max(0.0, item[2] - item[3])

        for ts, dur, name in spans:
            while stack and stack[-1][0] <= ts:
                close(stack.pop())
            if stack:
                stack[-1][3] += dur
            stack.append([ts + dur, name, dur, 0.0])
            count[name] += 1
            total[name] += dur
        while stack:
            close(stack.pop())
    return {n: (count[n], total[n], self_us[n]) for n in count}


def check_self_times():
    events = [
        {"ph": "X", "tid": 1, "ts": 0.0, "dur": 10.0, "name": "a"},
        {"ph": "X", "tid": 1, "ts": 1.0, "dur": 3.0, "name": "b"},
        {"ph": "X", "tid": 1, "ts": 2.0, "dur": 1.0, "name": "c"},
        {"ph": "X", "tid": 1, "ts": 5.0, "dur": 4.0, "name": "b"},
        {"ph": "X", "tid": 2, "ts": 0.5, "dur": 2.0, "name": "a"},
        {"ph": "i", "tid": 1, "ts": 3.0, "name": "instant"},
    ]
    got = self_times(events)
    want = {"a": (2, 12.0, 5.0), "b": (2, 7.0, 6.0), "c": (1, 1.0, 1.0)}
    if got != want:
        sys.stderr.write(f"self-time reducer self-test failed: {got}\n")
        sys.exit(3)


def trace_tables(trace_path, aux):
    """Print the self-time tables; return trace-derived per-layer metrics."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    st = self_times(events)
    spanned_us = sum(slf for _, _, slf in st.values())
    print(f"self time by span ({trace_path}):")
    print(f"  {'span':<36} {'count':>8} {'total ms':>11} {'self ms':>11}")
    for name, (n, tot, slf) in sorted(st.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:<36} {n:>8} {tot / 1e3:>11.2f} {slf / 1e3:>11.2f}")
    layers = defaultdict(float)
    for name, (_, _, slf) in st.items():
        layers[layer_of(name)] += slf
    print("self time by layer (share of all spanned time):")
    for layer, slf in sorted(layers.items(), key=lambda kv: -kv[1]):
        share = slf / spanned_us if spanned_us > 0 else 0.0
        print(f"  {layer:<20} {slf / 1e3:>11.2f} ms {share:>7.1%}")
    if aux["trace_events"] >= aux["trace_capacity"]:
        print("WARNING: the trace ring wrapped; early events are missing")
    rounds = aux.get("trace_sharded_rounds", 0)
    if rounds == 0:
        return {}, {}
    recv_us = st.get("shard.frame_recv", (0, 0.0, 0.0))[2]
    return ({"shard.frame_wait_ms_per_round": {
        "value": recv_us / 1e3 / rounds, "unit": "ms"}},
            {"shard.frame_wait_ms_per_round": rounds})


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def catalog():
    with open(BENCH_DIR / "catalog.json") as f:
        return json.load(f)


def check_catalog():
    """catalog.json documents exactly the workloads and metrics of
    BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    cat = catalog()
    for key in ("workloads", "end_to_end", "per_layer"):
        if {m["name"] for m in spec[key]} != set(cat[key]):
            sys.stderr.write(f"catalog.json and BENCHMARK.json disagree on "
                             f"{key}\n")
            sys.exit(3)


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload; print its output; return the reduced result."""
    trace_path = build_dir() / "traces" / f"{workload}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", str(trace_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{workload}: timed out after {RUN_TIMEOUT_S} s\n")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(f"{workload}: perfbench exited "
                         f"{proc.returncode}\n")
        sys.exit(1)
    print("\n".join(lines[:-1]))
    raw = json.loads(lines[-1])
    metrics = raw["metrics"]
    samples = raw["samples"]
    if trace:
        extra, extra_samples = trace_tables(trace_path, raw["aux"])
        metrics.update(extra)
        samples.update(extra_samples)
        print(f"trace written to {trace_path}")
    if not raw["aux"].get("release_lto"):
        sys.stderr.write("WARNING: perfbench is not a Release+LTO build\n")
    names = expected_metrics(trace)
    # A layer the workload does not exercise did no work: its metrics read 0.
    per_layer = catalog()["per_layer"]
    for n in names:
        if (n not in metrics and trace
                and workload not in per_layer[n]["measured_on"]):
            metrics[n] = {"value": 0.0, "unit": per_layer[n]["unit"]}
    missing = [n for n in names if n not in metrics]
    if missing:
        sys.stderr.write(f"{workload}: metrics missing: {missing}\n")
        sys.exit(1)
    return {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {n: metrics[n] for n in names},
    }, samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    check_self_times()
    check_catalog()
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json") as f:
            args.seconds = json.load(f)["run_seconds"]
    binary = build()
    if args.workload:
        result, _ = run_one(binary, args.workload, args.seed, args.seconds,
                            args.trace)
        print(json.dumps(result))
        return

    results = {}
    for w in WORKLOADS:
        print(f"=== {w} ===")
        results[w] = run_one(binary, w, args.seed, args.seconds, args.trace)
    print(f"\n{'metric':<36} {'unit':<8}"
          + "".join(f" {w:>24}" for w in WORKLOADS))
    for name in expected_metrics(args.trace):
        unit = results[WORKLOADS[0]][0]["metrics"][name]["unit"]
        cells = []
        for w in WORKLOADS:
            res, samples = results[w]
            v = res["metrics"][name]["value"]
            cells.append(f" {v:>14.6g} (n={samples.get(name, 0):>6.0f})")
        print(f"{name:<36} {unit:<8}" + "".join(cells))
    for w in WORKLOADS:
        res = results[w][0]
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")


if __name__ == "__main__":
    main()
