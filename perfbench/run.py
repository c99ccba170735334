#!/usr/bin/env python3
"""The tgks benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds tgks_cli and the benchmark's two
harnesses into .bench_build/ (Release), runs one workload in fresh processes,
checks every answer, and prints one JSON object as its last stdout line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 they are the
per-layer metrics, taken from a traced run whose spans are written under
.bench_build/perfbench-traces/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench-cmake")
STATE = os.path.join(ROOT, ".bench_build", "perfbench-state")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")

WORKLOADS = ("dblp-batch", "social-http-live")

# Fixed work per run, proportional to --seconds; on a 4-core box the timed
# window lasts two to three times --seconds (see README.md).
DBLP_PASSES_PER_SECOND = 10
# 10% of them are writes: at least 1000 write samples for --seconds 10.
LIVE_OPS_PER_SECOND = 1100

SOCIAL_SCALE = "1.0"
# Server executor threads and build jobs: the box's 4 cores.
WORKERS = 4
# Server starts per HTTP run; setup_s is their median.
SERVER_SETUPS = 3
# Size-only compaction for the live workload: the age trigger is off, so the
# number of folds depends on the writes, not on wall time.
LIVE_COMPACT_BYTES = 65536
CHILD_TIMEOUT_S = 150
SERVER_READY_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s", "search_qps": "1/s", "search_p50_ms": "ms",
    "search_p99_ms": "ms", "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "graph.build_s": "s", "graph.reach_build_s": "s",
    "graph.reach_label_bytes": "bytes", "graph.index_build_s": "s",
    "search.match_ms": "ms", "search.filter_ms": "ms",
    "search.expand_ms": "ms", "search.generate_ms": "ms",
    "search.pops": "count", "search.edges_scanned": "count",
    "search.ntds_created": "count", "search.candidates": "count",
    "search.useless_pop_ratio": "ratio", "search.valid_candidate_ratio": "ratio",
    "search.combo_overflows": "count", "search.stop_bound_ratio": "ratio",
    "search.heap_high_water": "count", "search.pops_per_s": "1/s",
    "search.edges_per_s": "1/s", "temporal.interval_ops": "count",
    "exec.query_ms": "ms", "exec.queue_wait_ms": "ms",
    "exec.queue_wait_p99_ms": "ms", "exec.busy_frac": "ratio",
    "cache.result_hit_ratio": "ratio", "cache.result_coalesced_ratio": "ratio",
    "cache.result_evictions": "count", "cache.result_bytes": "bytes",
    "server.request_us": "us", "server.wire_us": "us",
    "server.response_bytes": "bytes", "server.shed_ratio": "ratio",
    "ingest.qps": "1/s", "ingest.p50_ms": "ms", "ingest.p99_ms": "ms",
    "ingest.apply_us": "us", "ingest.publishes": "count",
    "ingest.compactions": "count", "ingest.compaction_rebuild_s": "s",
    "ingest.compaction_swap_us": "us", "ingest.delta_bytes_end": "bytes",
    "ingest.gen_lag_mean": "count", "proc.cpu_ms_per_op": "ms",
    "proc.rss_growth_mb_per_kq": "MiB", "trace.overhead_pct": "%",
    "failed_ratio": "ratio",
}
EXACT_KEYS = ["exact.pops", "exact.edges_scanned", "exact.ntds_created",
              "exact.candidates", "exact.interval_ops"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the three targets (incremental)."""
    for required in ("CMakeLists.txt", "src", "examples"):
        if not os.path.exists(os.path.join(ROOT, required)):
            raise RuntimeError("no tgks sources beside perfbench/ "
                               "(missing %s)" % required)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "w") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", BUILD, "-j", str(WORKERS),
                        "--target", "tgks_cli", "perfbench_dblp",
                        "perfbench_http"],
                       stdout=out, stderr=subprocess.STDOUT, check=True)
    return {
        "cli": os.path.join(BUILD, "tgks", "examples", "tgks_cli"),
        "dblp": os.path.join(BUILD, "perfbench_dblp"),
        "http": os.path.join(BUILD, "perfbench_http"),
    }


def memory_ceiling_mib():
    """A quarter of the machine's memory: far below what the OOM killer
    would act on, on a box shared with other work."""
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0 / 4.0
    return 4096.0


class MemoryGuard:
    """Samples a process's RSS; kills it once RSS crosses the ceiling."""

    def __init__(self, proc, ceiling_mib):
        self.proc = proc
        self.ceiling_mib = ceiling_mib
        self.tripped = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        path = "/proc/%d/status" % self.proc.pid
        while not self._stop.is_set() and self.proc.poll() is None:
            try:
                with open(path) as f:
                    for line in f:
                        if line.startswith("VmRSS:"):
                            if int(line.split()[1]) / 1024.0 > self.ceiling_mib:
                                self.tripped = True
                                self.proc.kill()
                            break
            except OSError:
                return
            self._stop.wait(0.02)

    def stop(self):
        self._stop.set()
        self._thread.join()


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("harness printed nothing")
    return json.loads(lines[-1])


def run_dblp(bins, args, trace_path):
    cmd = [bins["dblp"], "--seed", str(args.seed),
           "--passes", str(DBLP_PASSES_PER_SECOND * args.seconds)]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    guard = MemoryGuard(proc, memory_ceiling_mib())
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        guard.stop()
        return None, "timed out"
    guard.stop()
    if guard.tripped:
        return None, "memory guard: RSS above %.0f MiB" % guard.ceiling_mib
    if proc.returncode != 0:
        raise RuntimeError("perfbench_dblp exited %d" % proc.returncode)
    result = last_json_line(out)
    return result, check_exact_counts(result)


def code_version():
    """A hash of the sources that decide the dblp work counts: the library,
    the example binaries, the top-level build and the benchmark itself."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for tree in ("src", "examples", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, tree)):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            files += [os.path.join(dirpath, name) for name in filenames]
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def check_exact_counts(result):
    """The dblp work counts must repeat exactly across runs of the same
    code; a different version starts its own record."""
    os.makedirs(STATE, exist_ok=True)
    path = os.path.join(STATE, "dblp-exact-counts-%s.json" % code_version())
    counts = {key: result[key] for key in EXACT_KEYS}
    if os.path.exists(path):
        with open(path) as f:
            previous = json.load(f)
        if previous != counts:
            return "exact counts drifted: %s != %s" % (counts, previous)
    else:
        with open(path, "w") as f:
            json.dump(counts, f)
    return None


def http_get(port, path):
    # No proxy: the server is on loopback, whatever the environment says.
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    with opener.open("http://127.0.0.1:%d%s" % (port, path),
                     timeout=10) as response:
        return response.status


def start_server(bins):
    """Starts tgks_cli --serve --live; returns (proc, port, seconds to
    /healthz)."""
    cmd = [bins["cli"], "--dataset", "social", "--serve", "--cache",
           "--port", "0", "--threads", str(WORKERS), "--live",
           "--compact-age-ms", "0", "--compact-bytes", str(LIVE_COMPACT_BYTES)]
    env = dict(os.environ, TGKS_BENCH_SCALE=SOCIAL_SCALE)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    port = None
    deadline = start + SERVER_READY_TIMEOUT_S
    while port is None and proc.poll() is None:
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
            break
        line = proc.stdout.readline()
        if line.startswith("serving "):
            port = int(line.rsplit(":", 1)[1])
    if port is None or http_get(port, "/healthz") != 200:
        stop_server(proc)
        raise RuntimeError("server did not become ready")
    return proc, port, time.perf_counter() - start


def stop_server(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def run_http(bins, args, trace_path):
    setup_s = []
    proc = None
    try:
        for i in range(SERVER_SETUPS):
            proc, port, seconds = start_server(bins)
            setup_s.append(seconds)
            if i + 1 < SERVER_SETUPS:
                stop_server(proc)
                proc = None
        cmd = [bins["http"], "--port", str(port), "--server-pid",
               str(proc.pid), "--seed", str(args.seed), "--ops",
               str(LIVE_OPS_PER_SECOND * args.seconds)]
        if trace_path:
            cmd += ["--trace-out", trace_path]
        guard = MemoryGuard(proc, memory_ceiling_mib())
        client = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = client.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            client.kill()
            client.wait()
            guard.stop()
            return None, "timed out"
        guard.stop()
        if guard.tripped:
            return None, "memory guard: RSS above %.0f MiB" % guard.ceiling_mib
        if client.returncode != 0:
            raise RuntimeError("perfbench_http exited %d" % client.returncode)
        result = last_json_line(out)
    finally:
        if proc is not None:
            stop_server(proc)
    result["setup_s"] = statistics.median(setup_s)
    if not result["state_ok"]:
        # Already counted as a failed operation by the client.
        log("final /varz does not match acknowledged writes")
    return result, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        bins = build()
    except subprocess.CalledProcessError as e:
        log("build failed: %s (see %s)" % (e, os.path.join(BUILD, "build.log")))
        return 1
    except (RuntimeError, OSError) as e:
        log("build failed: %s" % e)
        return 1

    trace_path = None
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        trace_path = os.path.join(
            TRACES, "%s-seed%d.jsonl" % (args.workload, args.seed))
    runner = run_dblp if args.workload == "dblp-batch" else run_http
    try:
        result, problem = runner(bins, args, trace_path)
    except (RuntimeError, OSError, ValueError) as e:
        log("run failed: %s" % e)
        return 1

    if result is None:
        # The run was stopped (memory guard or timeout): every operation of
        # the run counts as failed.
        log(problem)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 0
    attempted = int(result["attempted"])
    failed = int(result["failed"]) + (1 if problem else 0)
    if problem:
        log(problem)
    result["failed_ratio"] = failed / attempted
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(result.get(name, 0.0)), "unit": unit}
               for name, unit in names.items()}
    log("%s seed %d: %d/%d failed; %d search samples; trace spans %s" % (
        args.workload, args.seed, failed, attempted,
        int(result.get("search_samples", 0)), trace_path or "off"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
