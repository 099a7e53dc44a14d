#!/usr/bin/env python3
"""Time-to-plan benchmark of NeuroPlan: both planning stages, multi-worker
acting and what-if serving.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run builds the library and the
benchmark driver (Release) under .bench_build/perfbench. Every run is one
process: the driver generates its inputs from the seed, times the workload
and checks its outputs. The last line of standard output is one JSON
object: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. See README.md in this directory for the workloads and metrics.
"""

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("train_c", "rollout_d2", "serve_e", "stage2_a")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(target):
    """Configure once, then bring `target` up to date. Build output goes
    to standard error so that standard output ends with the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources at", os.path.join(ROOT, "src"))
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, target)


def quantile(values, q):
    """Linear interpolation between order statistics (as the driver)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------
# Trace analysis: inclusive and exclusive (self) time per span name.

class SpanTotals:
    def __init__(self, events):
        self.total = {}      # name -> inclusive microseconds
        self.self_us = {}    # name -> exclusive microseconds
        self.durations = {}  # name -> [microseconds]
        self.under = {}      # (name, ancestor) -> inclusive microseconds
        by_tid = {}
        for e in events:
            if e.get("ph") == "X":
                by_tid.setdefault(e["tid"], []).append(e)
        for spans in by_tid.values():
            self._fold_thread(spans)

    def _fold_thread(self, spans):
        # Complete events of one thread nest; walk them in start order
        # with a stack and subtract each child's duration from its parent.
        # Times are exported to the nanosecond, hence the 0.01 us slack.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, child_us]

        def close(entry):
            event, child_us = entry
            name = event["name"]
            self.self_us[name] = self.self_us.get(name, 0.0) + max(0.0, event["dur"] - child_us)

        for e in spans:
            end = e["ts"] + e["dur"]
            while stack and stack[-1][0]["ts"] + stack[-1][0]["dur"] < end - 0.01:
                close(stack.pop())
            name = e["name"]
            self.total[name] = self.total.get(name, 0.0) + e["dur"]
            self.durations.setdefault(name, []).append(e["dur"])
            for ancestor in {entry[0]["name"] for entry in stack}:
                key = (name, ancestor)
                self.under[key] = self.under.get(key, 0.0) + e["dur"]
            if stack:
                stack[-1][1] += e["dur"]
            stack.append([e, 0.0])
        while stack:
            close(stack.pop())

    def inclusive_s(self, *names):
        return sum(self.total.get(n, 0.0) for n in names) / 1e6

    def self_s(self, *names):
        return sum(self.self_us.get(n, 0.0) for n in names) / 1e6

    def self_with_prefix_s(self, *prefixes):
        return sum(v for n, v in self.self_us.items() if n.startswith(prefixes)) / 1e6

    def all_self_s(self):
        return sum(self.self_us.values()) / 1e6


def serve_queue_waits(spans, replies):
    """Client latency minus service time per traced query. A reply is
    handed to the write hook inside a bench.reply span on the worker
    that served it, right after that worker's serve.query span."""
    by_tid = {}
    for e in spans:
        if e.get("ph") == "X" and e["name"] in ("serve.query", "bench.reply"):
            by_tid.setdefault(e["tid"], []).append(e)
    handoffs = []  # (reply span start, reply span end, service us)
    for events in by_tid.values():
        events.sort(key=lambda e: e["ts"])
        service = None
        for e in events:
            if e["name"] == "serve.query":
                service = e["dur"]
            elif service is not None:
                handoffs.append((e["ts"], e["ts"] + e["dur"], service))
                service = None
    handoffs.sort()
    waits = []
    starts = [h[0] for h in handoffs]
    for _, written, handed, read in replies:
        i = bisect.bisect_right(starts, handed) - 1
        if i >= 0 and handoffs[i][0] <= handed <= handoffs[i][1] + 1.0:
            waits.append((read - written) - handoffs[i][2])
    return waits


def per_layer_metrics(raw, trace_events):
    spans = SpanTotals(trace_events)
    traced = raw["traced"]
    timed = raw["timed"]
    layers = raw["layers"]
    c = traced["counters"]
    jobs = max(1, len(traced["job_seconds"]))
    per_job = lambda v: v / jobs
    workers = layers.get("rl.workers", 0.0)

    tape = ("nn.policy_forward", "nn.value_forward", "nn.forward_batch", "nn.value_batch")
    infer = ("nn.infer.forward", "nn.infer.batch")
    tape_s = spans.self_s(*tape)
    infer_s = spans.self_s(*infer)
    infer_graphs = c["nn.infer.forwards"] + (
        c["rollout.active_worker_steps"] if c["nn.infer.batch_forwards"] > 0 else 0.0)
    update_s = spans.inclusive_s("train.update")
    solve_s = spans.inclusive_s("simplex.solve")
    price_s = spans.inclusive_s("lp.price")
    milp_s = spans.inclusive_s("milp.solve")
    check_us = spans.durations.get("plan.check", [])
    collect_ms = sum(timed["request_ms"]) + sum(traced["request_ms"])
    scenarios = c["plan.scenarios_checked"] + c["plan.scenarios_skipped"]
    warm = c["plan.warm_start_hits"] + c["plan.warm_start_misses"]
    replies = raw.get("traced_replies", [])
    admits = spans.durations.get("bench.on_bytes", [])
    total_self = spans.all_self_s()
    untraced_job = statistics.median(timed["job_seconds"])
    traced_job = statistics.median(traced["job_seconds"]) if traced["job_seconds"] else untraced_job

    return {
        "ad.backward_s": per_job(spans.inclusive_s("ad.backward")),
        "ad.backwards": per_job(c["ad.backwards"]),
        "nn.tape_forward_s": per_job(tape_s),
        "nn.tape_forwards": per_job(c["nn.policy_forwards"] + c["nn.value_forwards"]
                                    + c["nn.batch_forwards"]),
        "nn.infer_s": per_job(infer_s),
        "nn.infer_graphs": per_job(infer_graphs),
        "la.update_gflops": ratio(layers.get("la.update_flops_per_job", 0.0),
                                  per_job(update_s)) / 1e9,
        "la.infer_gflops": ratio(layers.get("la.infer_flops_per_graph", 0.0) * infer_graphs,
                                 infer_s) / 1e9,
        "rl.update_s": per_job(update_s),
        "rl.collect_s": per_job(spans.inclusive_s("rollout.collect")),
        "rl.round_wait_s": per_job(spans.self_s("rollout.env_step")),
        "rl.active_worker_share": ratio(c["rollout.active_worker_steps"],
                                        c["rollout.rounds"] * workers),
        "rl.lp_cpu_share": ratio(layers.get("rl.lp_cpu_seconds", 0.0),
                                 workers * collect_ms / 1e3),
        "rl.cost_ratio": layers.get("rl.cost_ratio", 0.0),
        "plan.check_s": per_job(spans.inclusive_s("plan.check")),
        "plan.checks": per_job(c["plan.checks"]),
        "plan.check_p50_us": quantile(check_us, 0.50),
        "plan.check_p99_us": quantile(check_us, 0.99),
        "plan.scenarios_per_check": ratio(c["plan.scenarios_checked"], c["plan.checks"]),
        "plan.skip_share": ratio(c["plan.scenarios_skipped"], scenarios),
        "plan.warm_hit_share": ratio(c["plan.warm_start_hits"], warm),
        "plan.unknown_verdicts": per_job(c["plan.unknown_verdicts"]),
        "plan.cold_retries": per_job(c["plan.cold_retries"]),
        "lp.solve_s": per_job(solve_s),
        "lp.price_s": per_job(price_s),
        "lp.price_share": ratio(price_s, solve_s),
        "lp.solves": per_job(c["lp.solves"]),
        "lp.iterations": per_job(c["lp.iterations"]),
        "lp.iters_per_solve": ratio(c["lp.iterations"], c["lp.solves"]),
        "lp.us_per_iter": ratio(solve_s * 1e6, c["lp.iterations"]),
        "lp.refactorizations": per_job(c["lp.refactorizations"]),
        "lp.cold_share": ratio(c["lp.start.cold"], c["lp.solves"]),
        "lp.singular_retries": per_job(c["lp.singular_retries"]),
        "milp.solve_s": per_job(milp_s),
        "milp.solves": per_job(c["milp.solves"]),
        "milp.nodes": per_job(c["milp.nodes"]),
        "milp.us_per_node": ratio(milp_s * 1e6, c["milp.nodes"]),
        "core.second_stage_s": per_job(spans.inclusive_s("bench.second_stage")),
        "core.lazy_check_s": per_job(spans.under.get(("plan.check", "bench.second_stage"), 0.0) / 1e6),
        "core.cost_ratio": layers.get("core.cost_ratio", 0.0),
        "serve.service_us_p50": quantile(spans.durations.get("serve.query", []), 0.50),
        "serve.queue_wait_us_p95": quantile(serve_queue_waits(trace_events, replies), 0.95),
        "serve.admit_us": statistics.fmean(admits) if admits else 0.0,
        "serve.retries": per_job(c["serve.retries"]),
        "serve.non_ok": per_job(c["serve.degraded"] + c["serve.shed"] + c["serve.errors"]),
        "pool.queue_wait_us_p50": layers.get("pool.queue_wait_us_p50", 0.0),
        "pool.queue_wait_us_p95": layers.get("pool.queue_wait_us_p95", 0.0),
        "pool.tasks": per_job(c["pool.tasks"]),
        "obs.trace_overhead_share": ratio(traced_job - untraced_job, untraced_job),
        "self_share.ad": ratio(spans.self_with_prefix_s("ad."), total_self),
        "self_share.nn_tape": ratio(tape_s, total_self),
        "self_share.nn_infer": ratio(infer_s, total_self),
        "self_share.rl": ratio(spans.self_with_prefix_s("train.", "rollout."), total_self),
        "self_share.plan": ratio(spans.self_with_prefix_s("plan."), total_self),
        "self_share.lp": ratio(spans.self_s("simplex.solve", "lp.price"), total_self),
        "self_share.milp": ratio(spans.self_s("milp.solve"), total_self),
        "self_share.serve": ratio(spans.self_with_prefix_s("serve."), total_self),
        "self_share.outside_spans": ratio(spans.self_with_prefix_s("bench."), total_self),
    }


def end_to_end_metrics(raw):
    timed = raw["timed"]
    return {
        "job_s": statistics.median(timed["job_seconds"]),
        "throughput_per_s": ratio(timed["work_units"], sum(timed["job_seconds"])),
        "p50_ms": quantile(timed["request_ms"], 0.50),
        "p95_ms": quantile(timed["request_ms"], 0.95),
        "setup_s": statistics.median(raw["setup_seconds"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, \
           {m["name"]: m["unit"] for m in spec["per_layer"]}


def run(args):
    e2e_units, layer_units = load_spec()
    binary = build("np_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(BUILD, "trace_%s_%d.json" % (args.workload, os.getpid()))
        cmd += ["--trace-out", trace_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        log("perfbench: driver exited with", proc.returncode)
        sys.exit(1)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    print("workload %s seed %d: inputs %s" % (args.workload, args.seed, json.dumps(raw["inputs"])))
    print("properties %s" % json.dumps({k: round(v, 4) for k, v in raw["properties"].items()}))
    print("digest %s" % raw["digest"])
    print("p99_ms %.4f (reported, not gated)" % quantile(raw["timed"]["request_ms"], 0.99))
    for reason in raw["failure_reasons"]:
        print("failure: %s" % reason)

    if args.trace:
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        os.remove(trace_path)
        values = per_layer_metrics(raw, events)
        units = layer_units
        print("split: ad+tape %.3f, simplex+pricing %.3f of self time; trace overhead %.3f"
              % (values["self_share.ad"] + values["self_share.nn_tape"],
                 values["self_share.lp"], values["obs.trace_overhead_share"]))
    else:
        values = end_to_end_metrics(raw)
        units = e2e_units
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] >= 1,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))


def selftest():
    binary = build("perfbench_test")
    sys.exit(subprocess.run([binary]).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the tests of the benchmark's own checks")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    run(args)


if __name__ == "__main__":
    main()
