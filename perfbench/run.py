"""Run one perfbench workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload route_wide --seed 1 --seconds 12 --trace 0

The library is imported from ``src/`` next to this directory, so no
install step is needed.  The run generates its inputs from the seed
(several times back to back, to time set-up), then drives a closed loop
of ops from a single client until ``--seconds`` of op time have been
measured, checks every op against the oracles, and prints the metrics
that ``BENCHMARK.json`` declares: the end-to-end ones with ``--trace 0``,
the per-layer ones with ``--trace 1``.  Run metadata and, when traced,
the recorded spans are written under ``.perfbench/results/``.

End-to-end times are scaled to a reference machine speed: a fixed
stdlib-only task runs between ops and between set-ups, and each time is
multiplied by ``REFERENCE_S`` over the mean of the two reference times
around it.  On a shared host whose CPU speed drifts, this keeps the
metrics comparable between runs; the wall-clock figures are in the
metadata.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REFERENCE_S = 0.001       # times are scaled to a machine where reference() takes this long
SETUP_REPEATS = 15        # set-ups timed back to back; setup_s is their median
MIN_SAMPLES = 24          # timed ops, so the tail leaves at least ten beyond it
LOOP_WALL_LIMIT_S = 120   # keeps a pathologically slow build inside the run budget
SPANS = (
    "prefix.scan_registry", "prefix.read_registry_summaries", "engine.route_tier1",
    "library.deserialize_library", "engine.select_tier2", "guidance.build_condition",
    "bench.run_benchmark", "bench.parse_response", "bench.score_responses",
    "engine.apply_complement_pass", "distractors.expand_round", "guidance.build_summary",
    "library.validate_library", "library.serialize_library", "corpus.section_document",
    "corpus.build_doc_summary", "corpus.resolve_coload",
)
COUNTERS = (
    "prefix.bytes_read", "engine.route_tier1.entries_scored",
    "engine.route_tier1.expanded_scope", "engine.select_tier2.pairs_scored",
    "engine.select_tier2.guard_dropped", "library.deserialize_library.bytes",
    "library.serialize_library.bytes", "distractors.expand_round.categories_added",
    "guidance.build_condition.artifact_bytes", "bench.parse_response.malformed",
)


_REF_DOC = json.dumps([{"name": f"word{i} part{i * 7}", "hint": "alpha beta gamma " * (i % 5),
                        "n": list(range(i % 9))} for i in range(260)])
_REF_TOKEN = re.compile(r"[0-9a-z]+")


def reference() -> float:
    """Seconds taken by a fixed stdlib-only task: the machine-speed yardstick.

    It does the kinds of work ops spend their time on (a JSON parse,
    regex tokenizing, set unions, integer arithmetic) without calling
    sdsr, so no change to the program can change it.  The collector is
    off, so garbage an op left behind is not collected inside it.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: set[str] = set()
        for item in json.loads(_REF_DOC):
            seen |= set(_REF_TOKEN.findall(f"{item['name']} {item['hint']}"))
        total = 0
        for k in range(4000):
            total += k * k % 7
        return time.perf_counter() - t0
    finally:
        gc.enable()


@dataclass
class OpRecord:
    index: int
    latency_ns: int
    ref_s: float     # mean reference time just before and just after the op
    traced: bool
    failed: bool

    @property
    def scaled_s(self) -> float:
        return self.latency_ns / 1e9 * REFERENCE_S / self.ref_s


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def time_setup(wl) -> tuple[list[float], list[float], str]:
    """Set up SETUP_REPEATS times back to back.

    Returns the scaled times, the wall times and the input digest.  Every
    repeat must generate the same inputs; the last one is what ops use.
    """
    scaled, wall, digests = [], [], set()
    ref_before = reference()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        digests.add(wl.setup())
        elapsed = time.perf_counter() - t0
        ref_after = reference()
        wall.append(elapsed)
        scaled.append(elapsed * REFERENCE_S / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    if len(digests) != 1:
        raise RuntimeError(f"one seed generated different inputs: {sorted(digests)}")
    return scaled, wall, digests.pop()


def run_ops(wl, seconds: float, traced_run: bool, tracer, null_tracer):
    """Closed loop: one warm-up cycle, then whole cycles until *seconds* of op time.

    The warm-up cycle takes the cold start and every first-visit oracle
    pass.  Stopping only at a cycle boundary samples every cycle position
    equally often, so the latency mix does not depend on where time ran out.
    If the loop hits LOOP_WALL_LIMIT_S first, it reports itself truncated
    and only its whole cycles are measured.
    In a traced run every op runs twice back to back, traced and untraced
    in alternating order, so each pair's difference is the tracing
    overhead with the machine's drift cancelled out.
    """
    records: list[OpRecord] = []
    counts: dict[int, dict[str, float]] = {}
    problems: list[str] = []
    warmup = wl.cycle
    min_ops = max(wl.counted_ops, warmup + MIN_SAMPLES)
    measured_ns = 0
    started = time.monotonic()
    truncated = False
    ref_before = reference()
    i = 0
    while i < min_ops or measured_ns < seconds * 1e9 or (i - warmup) % wl.cycle:
        if time.monotonic() - started >= LOOP_WALL_LIMIT_S:
            truncated = True
            break
        prepared = wl.prepare(i)
        modes = ((True, False) if i % 2 == 0 else (False, True)) if traced_run else (False,)
        for traced in modes:
            out = None
            t0 = time.perf_counter_ns()
            try:
                if traced:
                    tracer.op = i
                    with tracer.span("op"):
                        out = wl.op(prepared, tracer)
                else:
                    out = wl.op(prepared, null_tracer)
            except Exception:
                op_problems = [traceback.format_exc()]
            t1 = time.perf_counter_ns()
            ref_after = reference()
            if out is not None:
                try:
                    op_problems = wl.check(i, prepared, out)
                    if i < wl.counted_ops or traced:
                        counts[i] = wl.counts(i, prepared, out)
                except Exception:
                    op_problems = [traceback.format_exc()]
            del out
            records.append(OpRecord(i, t1 - t0, (ref_before + ref_after) / 2, traced,
                                    bool(op_problems)))
            ref_before = ref_after
            problems += [f"op {i}: {p}" for p in op_problems]
            if i >= warmup:
                measured_ns += t1 - t0
        i += 1
    return records, counts, problems, truncated


def whole_cycles(records: list[OpRecord], cycle: int) -> list[OpRecord]:
    """Records of the measured whole cycles: no warm-up, no cut-off last cycle."""
    ops = 1 + max((r.index for r in records), default=-1)
    end = ops - ops % cycle
    return [r for r in records if cycle <= r.index < end]


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def end_to_end(records, counts, counted_ops: int, cycle: int,
               setup_s: list[float]) -> tuple[dict, dict]:
    measured = whole_cycles(records, cycle)
    latencies = [r.scaled_s * 1000 for r in measured]
    percentile, tail_ms = stats.tail(latencies)
    per_cycle: dict[int, list[float]] = {}
    for r in measured:
        per_cycle.setdefault(r.index // cycle, []).append(r.scaled_s)
    throughput = [len(v) / sum(v) for v in per_cycle.values() if len(v) == cycle]
    counted = [counts[i] for i in range(counted_ops) if i in counts]
    targeted = sum(c.get("targeted", 0) for c in counted)
    failed = sum(r.failed for r in records)
    metrics = {
        "setup_s": stats.median(setup_s),
        "ops_per_s": stats.median(throughput),
        "latency_p50_ms": stats.median(latencies),
        "latency_tail_ms": tail_ms,
        "bytes_read_per_op": mean([c["bytes_read"] for c in counted]),
        "tokens_per_op": mean([c["tokens"] for c in counted]),
        "tier1_recall": sum(c.get("recall_hits", 0) for c in counted) / max(targeted, 1),
        "primary_accuracy": sum(c.get("accuracy_hits", 0) for c in counted) / max(targeted, 1),
        "ok_ratio": 1 - failed / len(records),
        "peak_rss_mb": peak_rss_mb(),
    }
    meta = {"latency_samples": len(latencies), "tail_percentile": round(percentile, 2),
            "cycles": len(throughput), "counted_ops": len(counted),
            "wall_latency_p50_ms": stats.median([r.latency_ns / 1e6 for r in measured])}
    return metrics, meta


def per_layer(records, counts, spans, cycle: int) -> tuple[dict, dict]:
    traced_ok = {r.index for r in whole_cycles(records, cycle) if r.traced and not r.failed}
    spans = [s for s in spans if s.op in traced_ok]
    selfs = tracing.self_times(spans)
    op_ns = [s.end_ns - s.start_ns for s in spans if s.name == "op"]
    total_op_ns = sum(op_ns)
    by_layer: dict[str, list[int]] = {}
    for s in spans:
        by_layer.setdefault(s.name, []).append(selfs[s.span_id])
    metrics = {}
    for name in SPANS:
        values = by_layer.get(name, [])
        metrics[f"{name}.ms"] = stats.median(values) / 1e6 if values else 0.0
        metrics[f"{name}.share"] = sum(values) / total_op_ns
    unattributed = by_layer["op"]
    metrics["op.unattributed_ms"] = stats.median(unattributed) / 1e6
    metrics["op.unattributed.share"] = sum(unattributed) / total_op_ns

    traced_counts = [counts[i] for i in sorted(traced_ok) if i in counts]
    for name in COUNTERS:
        metrics[name] = mean([c.get(name, 0) for c in traced_counts])
    summary_end = sum(c.get("prefix.summary_end", 0) for c in traced_counts)
    metrics["prefix.read_amplification"] = (
        sum(c.get("prefix.bytes_read", 0) for c in traced_counts) / summary_end
        if summary_end else 0.0)

    pairs: dict[int, dict[bool, float]] = {}
    for r in records:
        if r.index in traced_ok and not r.failed:
            pairs.setdefault(r.index, {})[r.traced] = r.latency_ns / 1e6
    overheads = [p[True] - p[False] for p in pairs.values() if len(p) == 2]
    metrics["trace.overhead_ms"] = stats.median(overheads)
    meta = {
        "traced_ops": len(traced_ok),
        "overhead_pairs": len(overheads),
        "traced_op_p50_ms": stats.median([p[True] for p in pairs.values()]),
        # Self times of every span in an op, the op's own unattributed part
        # included, must add up to the op's duration exactly.
        "self_time_sum_ns": sum(selfs.values()),
        "op_time_sum_ns": total_op_ns,
    }
    return metrics, meta


def declared_metrics(trace_flag: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace_flag else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src, fixtures = ROOT / "src", ROOT / "fixtures"
    if not (src / "sdsr" / "__init__.py").is_file() or not fixtures.is_dir():
        print(f"perfbench: no sdsr sources under {ROOT}; run it from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import sdsr
    from workloads import WORKLOADS

    if Path(sdsr.__file__).resolve().parent != (src / "sdsr").resolve():
        print(f"perfbench: imported sdsr from {sdsr.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    declared = declared_metrics(args.trace)

    results_dir = ROOT / ".perfbench" / "results"
    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    started = time.monotonic()
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, fixtures)
        setup_times, setup_wall, digest = time_setup(wl)
        setup_rss_mb = peak_rss_mb()
        # The inputs live for the whole run; keep them out of the collector's
        # scans so ops pay only for the garbage they make themselves.
        gc.collect()
        gc.freeze()
        tracer = tracing.Tracer()
        records, counts, problems, truncated = run_ops(
            wl, args.seconds, bool(args.trace), tracer, tracing.NullTracer())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops_run = 1 + max((r.index for r in records), default=-1)
    measured_ops = len({r.index for r in whole_cycles(records, wl.cycle)})
    if measured_ops < MIN_SAMPLES or ops_run < wl.counted_ops:
        print(f"perfbench: {ops_run} ops in the {LOOP_WALL_LIMIT_S} s loop limit, "
              f"{measured_ops} of them in whole measured cycles; a result needs "
              f"{wl.counted_ops} ops and {MIN_SAMPLES} measured", file=sys.stderr)
        return 1

    if args.trace:
        values, loop_meta = per_layer(records, counts, tracer.finished(), wl.cycle)
    else:
        values, loop_meta = end_to_end(records, counts, wl.counted_ops, wl.cycle, setup_times)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"BENCHMARK.json declares metrics this run did not produce: {missing}")
    failed = sum(r.failed for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    counted = [counts[i] for i in range(wl.counted_ops) if i in counts]
    metadata = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "reference_ms": stats.median([r.ref_s * 1000 for r in records]),
        "input_digest": digest, "setup_repeats": len(setup_times),
        "wall_setup_s": stats.median(setup_wall), "peak_rss_after_setup_mb": setup_rss_mb,
        "wall_s": time.monotonic() - started, "truncated": truncated,
        "failed_ratio": failed / len(records),
        "count_means": {k: mean([c.get(k, 0) for c in counted])
                        for k in sorted({k for c in counted for k in c})},
        "problems": problems[:5],
    } | loop_meta
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(
        json.dumps({"metadata": metadata, "result": result}, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        spans = tracer.finished()
        (results_dir / f"{stem}-spans.json").write_text(
            json.dumps(tracing.to_json(spans, tracing.self_times(spans))) + "\n", encoding="utf-8")
    for p in problems[:5]:
        print(p, file=sys.stderr)
    print("metadata: " + json.dumps(metadata))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
