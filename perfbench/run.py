#!/usr/bin/env python3
"""The verifier's benchmark: builds the program from source, runs one
workload for a fixed time, checks every verdict against its known answer and
prints one JSON result line.

    python3 perfbench/run.py --workload gen-fanout --seed 1 --seconds 45 --trace 0

Run it from the root of a source tree.  The build goes to $CARGO_TARGET_DIR
(default `.bench_build`).  Workloads:

  table1-cold   the 8 Table 1 programs x {flux, baseline}, both thread pools
                at 1; every pass is a fresh process, so the process-global
                caches start cold.  Not in BENCHMARK.json: its single-thread
                times follow the host's speed, and their spread across runs
                reaches the time bounds.  Run it by name for Table 1 and for
                the traced counters, which repeat exactly on it.
  gen-fanout    a seeded corpus of 24 generated programs of 30 functions
                each (one in three carries a planted bug), verified one at a
                time at the shipped thread defaults; a fresh process per pass.
                Latency and throughput count the Flux requests; the baseline
                flavours run after them and feed `baseline_corpus_s` only.
  daemon-mixed  one client drives a spawned `fluxd` with shipped defaults,
                nproc verify requests in flight; each round runs heapsort and
                kmp (Flux) alone, then the other 14 Table 1 cells, 2 generated
                programs from fresh seeds and a `status` request.

End-to-end metrics (`--trace 0`), each the median over the run's passes (or
daemon rounds):
  setup_s               time to first verdict: start the verifying process
                        (fluxd for daemon-mixed), build the inputs and verify
                        one trivial program; median of several fresh starts
  flux_corpus_s         summed Flux request time of one pass or round
  baseline_corpus_s     the same for the baseline verifier
  latency_ms.p50/.p90   per verify request, client-measured, per pass or round  throughput_fns_per_s  functions with a conclusive verdict per second
  peak_rss_mb           VmHWM of the verifying process (fluxd for daemon-mixed)
Wrong verdicts and failures go into `correct`, `attempted` and `failed`; a
wrong verdict also makes the run exit with code 1.

`--trace 1` reports the per-layer metrics instead: traced passes repeat the
pipeline call by call with a span around each layer's entry point, plain
passes give the tracing overhead, and fan-out passes give the contention and
fan-out figures of `check_program`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("table1-cold", "gen-fanout", "daemon-mixed")
# Ceiling on one worker process; the daemon-mixed client gets this on top
# of its measured window.
CHILD_TIMEOUT_S = 150
SETUP_PROBES = 9
BUILD_TIMEOUT_S = 400


def metric_units(kind):
    """Name -> unit of BENCHMARK.json's `end_to_end` or `per_layer` list.
    Per-layer counters are per pass (or, for the daemon's own figures, per
    run)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}

# Counters that must repeat exactly between traced passes of one corpus at
# one thread (table1-cold); elsewhere a difference is reported, not an error.
DETERMINISTIC_PREFIXES = ("fixpoint.", "smt.")
NONDETERMINISTIC = {
    "fixpoint.validity_contentions",
    "smt.cnf_contentions",
    "smt.cnf_evictions",
}


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def child_env():
    # Shipped defaults: no FLUX_* / FLUXD_* overrides reach the verifier.
    env = {k: v for k, v in os.environ.items() if not k.startswith(("FLUX_", "FLUXD_"))}
    env["CARGO_TARGET_DIR"] = target_dir()
    return env


def build():
    manifests = [
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "flux-daemon", "--bin", "fluxd"],
    ]
    for args in manifests:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "fluxd")


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """The q-th percentile (0 < q < 100), Python's default (exclusive)
    interpolation: a batch's p90 with 16 to 19 samples lies between its two
    largest, so it does not straddle two unrelated requests."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def run_child(args, what, timeout=CHILD_TIMEOUT_S):
    """Runs a worker process to completion; returns its last stdout line."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, env=child_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{what} failed (exit {proc.returncode})")
    return out.strip().splitlines()[-1]


def run_pass(binary, workload, seed, mode):
    """One pass in a fresh process."""
    args = [binary, "pass", "--workload", workload, "--seed", str(seed), "--mode", mode]
    return json.loads(run_child(args, f"{workload} {mode} pass"))


def setup_probes(binary, workload, seed):
    """Seconds from spawning a fresh verifier until its first verdict."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [binary, "probe", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, env=child_env(), text=True)
        ready = proc.stdout.readline()
        times.append(time.perf_counter() - started)
        proc.communicate(timeout=CHILD_TIMEOUT_S)
        if ready.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"{workload} set-up probe failed (exit {proc.returncode})")
    return times


def run_daemon(binary, fluxd, seed, seconds):
    args = [binary, "daemon", "--fluxd", fluxd, "--seed", str(seed), "--seconds", str(seconds),
            "--setup-probes", str(SETUP_PROBES)]
    return json.loads(run_child(args, "daemon-mixed client", seconds + CHILD_TIMEOUT_S))


class Tally:
    """Verdict oracle over every verify request of a run."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.unknown = 0
        self.errors = 0

    def add(self, requests):
        for r in requests:
            self.attempted += 1
            verdict = r["verdict"]
            if verdict in ("verified", "rejected"):
                if verdict != r["expect"] or r.get("fn_mismatch"):
                    self.wrong += 1
                    which = " (a function's verdict differs from its label)" \
                        if r.get("fn_mismatch") else ""
                    log(f"WRONG VERDICT: {r['name']} ({r['mode']}): got {verdict}, "
                        f"expected {r['expect']}{which}")
            elif verdict == "unknown":
                self.unknown += 1
            else:
                self.errors += 1

    @property
    def failed(self):
        return self.unknown + self.errors + self.wrong


def groups(requests, key):
    out = {}
    for r in requests:
        out.setdefault(key(r), []).append(r)
    return list(out.values())


def request_metrics(batches, counted):
    """Per-batch (pass or round) figures, medians over batches."""
    flux, baseline, p50, p90, thr = [], [], [], [], []
    samples = 0
    for batch in batches:
        flux.append(sum(r["ms"] for r in batch if r["mode"] == "flux") / 1e3)
        baseline.append(sum(r["ms"] for r in batch if r["mode"] == "baseline") / 1e3)
        lat = [r["ms"] for r in batch if counted(r)]
        samples += len(lat)
        p50.append(percentile(lat, 50))
        p90.append(percentile(lat, 90))
        busy_s = sum(lat) / 1e3
        fns = sum(r["conclusive"] for r in batch if counted(r) and r["verdict"] != "error")
        thr.append(fns / busy_s if busy_s > 0 else 0.0)
    return {
        "flux_corpus_s": median(flux),
        "baseline_corpus_s": median(baseline),
        "latency_ms.p50": median(p50),
        "latency_ms.p90": median(p90),
        "throughput_fns_per_s": median(thr),
    }, samples


def end_to_end(workload, seed, seconds, binary, fluxd, tally):
    if workload == "daemon-mixed":
        result = run_daemon(binary, fluxd, seed, seconds)
        requests = result["requests"]
        tally.add(requests)
        complete = set(result["complete_rounds"])
        rounds = groups([r for r in requests if r["round"] in complete], lambda r: r["round"])
        metrics, samples = request_metrics(rounds, lambda r: True)
        # Overlapping rounds share the wall-clock, so throughput is taken
        # over the whole closed loop.
        fns = sum(r["conclusive"] for r in requests if r["verdict"] != "error")
        metrics["throughput_fns_per_s"] = fns / (result["wall_ms"] / 1e3)
        metrics["setup_s"] = median(result["setup_ms"]) / 1e3
        metrics["peak_rss_mb"] = result["rss_mb"]
        return metrics, f"{len(rounds)} rounds, {samples} latency samples"
    passes = []
    started = time.perf_counter()  # the measured window covers the passes only
    while time.perf_counter() - started < seconds or len(passes) < 3:
        passes.append(run_pass(binary, workload, seed, "plain"))
    for p in passes:
        tally.add(p["requests"])
    # gen-fanout's latency and throughput are about the Flux fan-out; its
    # baseline flavours only feed baseline_corpus_s.
    counted = (lambda r: r["mode"] == "flux") if workload == "gen-fanout" else (lambda r: True)
    metrics, samples = request_metrics([p["requests"] for p in passes], counted)
    metrics["setup_s"] = median(setup_probes(binary, workload, seed))
    metrics["peak_rss_mb"] = median([p["rss_mb"] for p in passes])
    return metrics, f"{len(passes)} passes, {samples} latency samples"


def counter_mismatches(traced_passes):
    first = traced_passes[0]["layers"]
    names = set()
    for other in traced_passes[1:]:
        layers = other["layers"]
        for name, value in first.items():
            if (name.startswith(DETERMINISTIC_PREFIXES) and not name.endswith("_ms")
                    and name not in NONDETERMINISTIC and layers.get(name) != value):
                names.add(name)
    for name in sorted(names):
        log(f"counter differs between traced passes: {name}: "
            + ", ".join(str(p["layers"].get(name)) for p in traced_passes))
    return len(names)


def per_layer(workload, seed, seconds, binary, fluxd, tally, units):
    metrics = {name: 0.0 for name in units}
    daemon = None
    if workload == "daemon-mixed":
        daemon = run_daemon(binary, fluxd, seed, seconds)
        tally.add(daemon["requests"])
        # The in-process replay below runs one round under the daemon's caps.
        schedule = ["traced", "plain", "traced", "fanout"]
        budget = 0.0
    else:
        schedule = ["traced", "plain", "fanout", "traced"]
        budget = seconds
    runs = {"traced": [], "plain": [], "fanout": []}
    started = time.perf_counter()
    i = 0
    while i < len(schedule) or time.perf_counter() - started < budget:
        mode = schedule[i % len(schedule)]
        result = run_pass(binary, workload, seed, mode)
        tally.add(result["requests"])
        runs[mode].append(result)
        i += 1
    traced = runs["traced"]
    # Times and ratios: median over traced passes; counters: the first
    # traced pass (they repeat, see counter_mismatches).
    for name, unit in units.items():
        values = [p["layers"][name] for p in traced if name in p["layers"]]
        if values:
            metrics[name] = values[0] if unit == "count" else median(values)
    hits = traced[0]["layers"].get("fixpoint.cache_hits", 0.0)
    queries = traced[0]["layers"].get("fixpoint.smt_queries", 0.0)
    metrics["fixpoint.cache_hit_ratio"] = hits / queries if queries else 0.0
    for name in ("check.fanout_efficiency", "logic.hcons_contentions",
                 "fixpoint.validity_contentions", "smt.cnf_contentions"):
        metrics[name] = median([p["fanout"][name] for p in runs["fanout"]])
    plain_flux = median([sum(r["ms"] for r in p["requests"] if r["mode"] == "flux")
                         for p in runs["plain"]])
    metrics["trace.overhead_ms"] = median(
        [p["layers"]["trace.flux_corpus_ms"] for p in traced]) - plain_flux
    metrics["trace.counter_mismatches"] = counter_mismatches(traced)
    coverage = metrics["trace.coverage"]
    if coverage < 0.95:
        log(f"trace coverage {coverage:.3f} < 0.95: layer self-times miss "
            f"{metrics['untraced_ms']:.1f} ms of the traced wall-clock")
    if daemon is not None:
        requests = daemon["requests"]
        complete = set(daemon["complete_rounds"])
        rounds = groups([r for r in requests if r["round"] in complete], lambda r: r["round"])
        metrics["daemon.server_ms.p50"] = median(
            [percentile([r["server_ms"] for r in rd], 50) for rd in rounds])
        metrics["daemon.overhead_ms.p50"] = median(
            [percentile([r["ms"] - r["server_ms"] for r in rd], 50) for rd in rounds])
        d = daemon["daemon"]
        metrics["daemon.busy"] = d["busy"]
        metrics["daemon.validity_evictions"] = d["validity_evictions"]
        # The daemon's own lifetime figures replace the replay's.
        metrics["smt.cnf_evictions"] = d["cnf_evictions"]
        metrics["logic.hcons_memo_evictions"] = d["hcons_memo_evictions"]
        metrics["logic.hcons_nodes_added"] = d["hcons_nodes_added"]
        queries = sum(r["smt_queries"] for r in requests)
        hits = sum(r["cache_hits"] for r in requests)
        metrics["fixpoint.smt_queries"] = queries
        metrics["fixpoint.xbench_hits"] = sum(r["xbench_hits"] for r in requests)
        metrics["fixpoint.cache_hit_ratio"] = hits / queries if queries else 0.0
    return metrics, (f"{len(traced)} traced, {len(runs['plain'])} plain, "
                     f"{len(runs['fanout'])} fan-out passes")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.seed %= 2**64
    try:
        units = metric_units("per_layer" if args.trace else "end_to_end")
        binary, fluxd = build()
        tally = Tally()
        if args.trace:
            metrics, note = per_layer(args.workload, args.seed, args.seconds, binary, fluxd, tally,
                                      units)
        else:
            metrics, note = end_to_end(args.workload, args.seed, args.seconds, binary, fluxd,
                                       tally)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log(f"benchmark failed: {e}")
        return 2
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {note}")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    print(f"# wrong_verdicts = {tally.wrong}  failed_share = "
          f"{tally.failed / max(tally.attempted, 1):.4g} "
          f"({tally.unknown} unknown, {tally.errors} error, of {tally.attempted})")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if tally.wrong == 0 and tally.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
