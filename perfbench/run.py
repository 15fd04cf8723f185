"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload reproduce --seed 777 --seconds 20 --trace 0

Run from the repository root.  Sessions of the workload repeat while
another one fits in ``--seconds``; every metric is the median over sessions.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
untraced and traced sessions and prints the per-layer metrics (span
totals, per-layer self times, the program's own counters, and the tracing
overhead).  A failed correctness check exits 1 without a result line;
a checkout without the program's sources exits 2.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
RECORD_FORMAT = "perfbench-record/1"
DEFAULT_SCALE = 0.1
#: The pipeline-stage spans whose totals become per-layer metrics.
SPAN_METRICS = {
    "io.append_s": "io.append_view",
    "stream.publish_s": "stream.publish",
    "stream.analyzer.consume_s": "stream.analyzer.consume",
    "serve.tracker.consume_s": "serve.tracker.consume",
    "incident.pipeline.consume_s": "incident.pipeline.consume",
    "incident.detect_s": "incident.detect_incidents",
    "analysis.dataset_build_s": "analysis.dataset_build",
    "analysis.engine_build_s": "analysis.engine_build",
    "analysis.source_aggregates_s": "analysis.source_aggregates",
    "stats.chi_square_s": "stats.chi_square",
    "experiments.shard_wise_s": "experiments.shard_wise",
}
#: Untraced measurements reported as per-layer metrics (see README.md).
MEASURES = ("ingest_events_per_s", "event_lag_p50_ms", "event_lag_tail_ms",
            "event_lag_tail_pct", "live_query_p50_ms", "live_query_tail_ms",
            "live_query_tail_pct", "live_query_samples", "query_p50_ms", "query_tail_ms",
            "query_tail_pct", "query_rps", "query_samples", "drop_ratio")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("reproduce", "rundir", "live"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help=f"population scale (default {DEFAULT_SCALE})")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: perform one set-up and exit")
    parser.add_argument("--run-dir", default=None, help="internal: run dir for --setup-probe")
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Pin thread pools and temp files, and put the program on sys.path."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({source / 'repro'})", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(source))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    temp = STATE_DIR / "tmp"
    temp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(temp)
    tempfile.tempdir = str(temp)


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def setup_probe_runner(args, samples: list, count: int = 5):
    """Time ``count`` fresh-process set-ups of the workload (spawn to exit)."""
    def probe(run_dir) -> None:
        command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", "1", "--scale", str(args.scale)]
        if run_dir is not None:
            command += ["--run-dir", str(run_dir)]
        for _ in range(count):
            began = time.perf_counter()
            subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
            samples.append(time.perf_counter() - began)
    return probe


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def work_of(session) -> float:
    """One session's collect + analyze + respond seconds (medians of its samples)."""
    return sum(median(session.stages[name]) for name in ("collect_s", "analyze_s", "respond_s"))


def traced_metrics(summary: dict, events: int) -> dict:
    """Per-layer metrics of one traced session from its span summary."""
    totals, calls = summary["totals"], summary["calls"]
    sim_collect = summary["sim_by_stage"].get("collect", 0.0)
    values = {
        "sim.run_s": sim_collect,
        "sim.events_per_s": events / sim_collect if sim_collect else 0.0,
        "sim.resim_s": summary["sim_by_stage"].get("respond", 0.0),
        "serve.lock_wait_s": summary["self_by_name"].get("serve.locked_consume", 0.0),
        "stats.chi_square_calls": calls.get("stats.chi_square", 0),
        "stream.analyzer.chunks": calls.get("stream.analyzer.consume", 0),
        "trace.spans": summary["spans"],
    }
    for metric, span in SPAN_METRICS.items():
        values[metric] = totals.get(span, 0.0)
    for name, total in totals.items():
        if name.startswith("serve.endpoint.") and calls[name]:
            route = name[len("serve.endpoint./"):]
            values[f"serve.endpoint.{route}_ms"] = 1e3 * total / calls[name]
    for layer, seconds in summary["self"].items():
        values[f"layer.{layer}.self_s"] = seconds
    return values


def collect_metrics(args, sessions, setup_samples, extra_collect, spec) -> tuple:
    """(printed metrics, every computed value, attempted, failed) of a run.

    ``extra_collect`` holds the collections run after the last session.
    """
    untraced = [s for traced, s, _t in sessions if not traced]
    traced = [(s, t) for is_traced, s, t in sessions if is_traced]
    values = {
        "setup_s": median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
        "incident.canonical_incidents": untraced[0].fingerprint["canonical_incidents"],
    }
    values["collect_s"] = median(
        [x for s in untraced for x in s.stages["collect_s"]] + extra_collect)
    for stage in ("analyze_s", "respond_s"):
        values[stage] = median(x for s in untraced for x in s.stages[stage])
    attempted = sum(s.attempted for _t, s, _x in sessions)
    failed = sum(s.failed for _t, s, _x in sessions)
    values["error_ratio"] = failed / attempted
    for name in MEASURES:
        present = [s.measures[name] for s in untraced if name in s.measures]
        values[name] = median(present)
    for driver in untraced[0].measures["drivers_s"]:
        values[f"experiment.{driver}_s"] = median(
            s.measures["drivers_s"][driver] for s in untraced)
    for name in {key for s in untraced for key in s.counters}:
        values[name] = median(s.counters[name] for s in untraced)
    if traced:
        late = [s.counters["stream.late_event_ratio"] for s, _ in traced
                if "stream.late_event_ratio" in s.counters]
        if late:
            values["stream.late_event_ratio"] = median(late)
        events = untraced[0].fingerprint["events"]
        per_session = [traced_metrics(summary, events) for _s, summary in traced]
        for name in {key for metrics in per_session for key in metrics}:
            values[name] = median(m.get(name, 0.0) for m in per_session)
        values["trace.overhead_ratio"] = (
            median(work_of(s) for s, _ in traced) / median(work_of(s) for s in untraced) - 1.0)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    return {entry["name"]: {"value": float(values.get(entry["name"], 0.0)),
                            "unit": entry["unit"]} for entry in wanted}, values, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    import sessions as workloads  # after prepare_environment: numpy thread pins
    from checks import CheckFailed, check_golden, check_ledger, require_same, source_digest

    if args.setup_probe:
        context = workloads.Context(args.seed, args.scale, STATE_DIR, None)
        workloads.setup_once(args.workload, context.config, args.run_dir)
        return 0

    from tracing import Tracer

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{int(time.time())}"
    setup_samples: list[float] = []
    context = workloads.Context(args.seed, args.scale, STATE_DIR / "work",
                                setup_probe_runner(args, setup_samples))
    run_session = workloads.SESSIONS[args.workload]
    sessions = []
    tracers = []
    extra_collect: list[float] = []
    started = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(sessions) % 2 == 1
            gc.collect()  # start every session without the previous one's garbage
            session_began = time.perf_counter()
            probed_before = sum(setup_samples)
            if traced:
                tracer = Tracer(f"{run_id}-s{len(sessions)}")
                with tracer.installed():
                    session = run_session(context, tracer)
                summary = tracer.summary()
                summary["sim_by_stage"] = tracer.totals_by_stage(
                    "sim.run_simulation", session.trace_marks)
                tracers.append(tracer)
                sessions.append((True, session, summary))
            else:
                sessions.append((False, run_session(context), None))
            # Stop when another session like the last would overrun --seconds;
            # the set-up probes run in the first session only, so they do not
            # count towards the next session's length.
            now = time.perf_counter()
            last = now - session_began - (sum(setup_samples) - probed_before)
            done = now - started + last > args.seconds
            if done and (not args.trace or len(sessions) >= 2):
                break
        collect_only = workloads.COLLECT_ONLY.get(args.workload)
        if collect_only is not None and not args.trace:
            estimate = median(x for _t, s, _x in sessions for x in s.stages["collect_s"])
            while time.perf_counter() - started + estimate <= args.seconds:
                events = collect_only(context, extra_collect)
                if events != sessions[0][1].fingerprint["events"]:
                    raise CheckFailed(f"a collection after the sessions gave {events} events")
        first = sessions[0][1].fingerprint
        for _traced, session, _summary in sessions[1:]:
            require_same(first, session.fingerprint, "sessions of one run")
        golden = check_golden(first, args.seed, args.scale)
        source = source_digest(ROOT / "src")
        ledger = check_ledger(STATE_DIR / "ledger", first, args.seed, args.scale,
                              args.workload, source)
        metrics, values, attempted, failed = collect_metrics(
            args, sessions, setup_samples, extra_collect, spec)
        if failed:
            raise CheckFailed(f"{failed} of {attempted} queries or drivers failed")
    except CheckFailed as error:
        print(f"correctness check failed: {error}", file=sys.stderr)
        return 1

    trace_files = [
        str(tracer.write(STATE_DIR / "traces" / f"{tracer.run_id}.npz").relative_to(ROOT))
        for tracer in tracers]
    record = {
        "format": RECORD_FORMAT,
        "run_id": run_id,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_digest": source,
        "sessions": [{"traced": traced, "stages": s.stages, "measures": s.measures}
                     for traced, s, _summary in sessions],
        "setup_samples_s": setup_samples,
        "extra_collect_s": extra_collect,
        "events": first["events"],
        "checks": {"golden_compared": golden, "ledger_compared_with": ledger},
        "values": values,
        "trace_files": trace_files,
    }
    results = STATE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
