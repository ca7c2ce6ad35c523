"""Metric math for the perfbench benchmark.

Turns perfbench_driver's raw measurements (per-repetition clocks, counters, the
span Profiler's report and the TraceRecorder's events) into the named
end-to-end and per-layer metrics, and evaluates the output checks. Pure
functions over plain dicts, so tests/test_metrics.py can cover them without
building anything.
"""

import math
import statistics

WORKLOADS = ("identify", "survey", "inferred-gen2")

ROOT_SPAN = "bench.traced"

# Spans perfbench_driver opens around its calls into each layer (driver.cpp).
LAYER_SPANS = (
    "constellation.propagate_all",
    "ground.candidates",
    "scheduler.allocate",
    "obsmap.record",
    "match.identify",
    "core.pipeline_run",
    "core.append_inferred_rows",
    "core.run_campaign",
    "analysis.characterize",
    "ml.build_dataset",
    "ml.train",
)

# name -> unit, for the --trace 0 result (BENCHMARK.json "end_to_end").
END_TO_END = {
    "setup_s": "s",
    "ref_cpu_s": "s",
    "slots_per_ref_cpu_s": "1/s",
    "decided_frac": "fraction",
    "peak_rss_mb": "MB",
}

# Wall-clock figures: printed on every workload, but too noisy on a shared
# host to gate on, so the JSON result leaves them out.
WALL_CLOCK = {"wall_s": "s", "slots_per_s": "1/s"}

# Printed (and checked) only where the workload computes them; they are not
# defined on every workload, so the JSON result leaves them out.
WORKLOAD_EXTRAS = {
    "identify": {"id_accuracy": "fraction"},
    "survey": {"train_s": "s", "top5_lift": "fraction"},
    "inferred-gen2": {"id_accuracy": "fraction"},
}

# CPU time of perfbench_driver's calibration kernel on one core of the reference
# machine (4-core 2.1 GHz Xeon VM, where it measures 18-23 ms). CPU times are
# rescaled to that core: t * KERNEL_REF_S / kernel time measured next to t.
KERNEL_REF_S = 0.020

# name -> unit, for the --trace 1 result (BENCHMARK.json "per_layer").
PER_LAYER = {
    "constellation.propagate_all.calls": "count",
    "constellation.propagate_all.busy_ms": "ms",
    "constellation.propagate_all.p50_us": "us",
    "constellation.sats_propagated": "count",
    "constellation.useful_frac": "fraction",
    "ground.candidates.calls": "count",
    "ground.candidates.busy_ms": "ms",
    "ground.candidates_per_slot": "count/slot",
    "scheduler.allocate.calls": "count",
    "scheduler.allocate.busy_ms": "ms",
    "obsmap.record.busy_ms": "ms",
    "match.identify.calls": "count",
    "match.identify.busy_ms": "ms",
    "match.identify.p95_us": "us",
    "match.candidates_scored": "count",
    "match.abstain_frac": "fraction",
    "core.pipeline_run.busy_ms": "ms",
    "core.append_inferred_rows.busy_ms": "ms",
    "core.run_campaign.busy_ms": "ms",
    "analysis.characterize.busy_ms": "ms",
    "ml.build_dataset.busy_ms": "ms",
    "ml.train.busy_ms": "ms",
    "ml.dataset_rows": "count",
    "trace.attributed_frac": "fraction",
    "trace.overhead_frac": "fraction",
}

MIN_ID_ACCURACY = 0.99  # §4.1: >99 % agreement with the oracle
MIN_ATTRIBUTED_FRAC = 0.95


def ratio(num, den):
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100): the smallest sample with
    at least q % of the samples at or below it. Always a measured value."""
    if not values:
        return 0.0
    if not 0 < q <= 100:
        raise ValueError("percentile q must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def useful_frac(usable_candidates, sats_propagated):
    """Share of propagated satellites that ended up as usable candidates."""
    return ratio(usable_candidates, sats_propagated)


def attributed_frac(spans, root=ROOT_SPAN):
    """Share of the root span's wall-clock covered by its child spans, i.e.
    1 - self/total of the root in the profiler's report."""
    for s in spans:
        if s["path"] == root:
            return 1.0 - ratio(s["self_ns"], s["total_ns"])
    return 0.0


def layer_rollup(spans, layers=LAYER_SPANS, root=ROOT_SPAN):
    """Per-layer calls and busy time from the profiler's per-path report.

    A path's self time belongs to the innermost layer span on it, so the
    library's own spans nested inside a layer (exec.chunk, pipeline.run, ...)
    count toward that layer and nothing is counted twice. Only paths under
    the root span are used: pool workers' spans are top-level paths and run
    concurrently with the caller, so they add no wall-clock of their own.
    """
    out = {name: {"calls": 0, "busy_ns": 0} for name in layers}
    prefix = root + ";"
    for s in spans:
        if not s["path"].startswith(prefix):
            continue
        parts = s["path"].split(";")
        owner = next((p for p in reversed(parts) if p in out), None)
        if owner is None:
            continue
        out[owner]["busy_ns"] += s["self_ns"]
        if parts[-1] == owner:
            out[owner]["calls"] += s["count"]
    return out


def span_durations_us(trace_events, name):
    """Durations (microseconds) of every traced span called `name`."""
    return [e["dur"] for e in trace_events if e.get("name") == name]


def quality_metrics(workload, q):
    """The deterministic output metrics of one seed, name -> value."""
    m = {"decided_frac": ratio(q["decided"], q["slots"])}
    extras = WORKLOAD_EXTRAS[workload]
    if "id_accuracy" in extras:
        m["id_accuracy"] = ratio(q["correct"], q["compared"])
    if "top5_lift" in extras:
        m["top5_lift"] = q["forest_top5"] - q["baseline_top5"]
    return m


def ref_cpu_s(cpu_ns, kernel_ns):
    """CPU time rescaled to the reference core, in seconds."""
    return cpu_ns / 1e9 * KERNEL_REF_S / (kernel_ns / 1e9)


def end_to_end(result):
    """The --trace 0 metrics plus the workload's extras, name -> value."""
    reps = result["reps"]
    m = {
        "setup_s": statistics.median(
            ref_cpu_s(s["cpu_ns"], s["kernel_ns"]) for s in result["setup"]),
        "ref_cpu_s": statistics.median(
            ref_cpu_s(r["cpu_ns"], r["kernel_ns"]) for r in reps),
        "slots_per_ref_cpu_s": statistics.median(
            ratio(r["terminal_slots"],
                  ref_cpu_s(r["slot_cpu_ns"], r["kernel_ns"]))
            for r in reps),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "wall_s": statistics.median(r["wall_ns"] for r in reps) / 1e9,
        "slots_per_s": statistics.median(
            ratio(r["terminal_slots"], r["slot_ns"] / 1e9) for r in reps),
    }
    m.update(quality_metrics(result["workload"], result["quality"]))
    if "train_s" in WORKLOAD_EXTRAS[result["workload"]]:
        m["train_s"] = statistics.median(r["train_ns"] for r in reps) / 1e9
    return m


def per_layer(result, profile, trace_events):
    """The --trace 1 metrics, name -> value. Layers a workload does not
    reach report 0 calls and 0 ms."""
    spans = profile["spans"]
    layers = layer_rollup(spans)
    c = result["counters"]
    m = {}
    for name in LAYER_SPANS:
        m[name + ".calls"] = layers[name]["calls"]
        m[name + ".busy_ms"] = layers[name]["busy_ns"] / 1e6
    m["constellation.propagate_all.p50_us"] = percentile(
        span_durations_us(trace_events, "constellation.propagate_all"), 50)
    m["match.identify.p95_us"] = percentile(
        span_durations_us(trace_events, "match.identify"), 95)
    m["constellation.sats_propagated"] = c["sats_propagated"]
    m["constellation.useful_frac"] = useful_frac(c["usable_candidates"],
                                                 c["sats_propagated"])
    m["ground.candidates_per_slot"] = ratio(
        c["candidates"], layers["ground.candidates"]["calls"])
    m["match.candidates_scored"] = c["candidates_scored"]
    m["match.abstain_frac"] = ratio(c["abstained"], c["identify_calls"])
    m["ml.dataset_rows"] = c["dataset_rows"]
    m["trace.attributed_frac"] = attributed_frac(spans)
    m["trace.overhead_frac"] = ratio(result["wall_on_ns"],
                                     result["wall_off_ns"]) - 1.0
    return {name: m[name] for name in PER_LAYER}


def quality_failures(workload, q, seed):
    """Output checks on one seed's quality counts."""
    failures = []
    if workload in ("identify", "inferred-gen2"):
        acc = ratio(q["correct"], q["compared"])
        if q["compared"] == 0 or acc < MIN_ID_ACCURACY:
            failures.append(
                f"seed {seed}: id_accuracy {acc:.4f} over {q['compared']} "
                f"compared slots is below {MIN_ID_ACCURACY}")
    if workload == "survey":
        lift = q["forest_top5"] - q["baseline_top5"]
        if not lift > 0:
            failures.append(f"seed {seed}: top5_lift {lift:.4f} is not "
                            f"above 0")
    return failures


def mismatched_reps(result):
    """Indices of timed repetitions whose output differs from the first's."""
    reps = result["reps"]
    return [i for i, r in enumerate(reps) if r["digest"] != reps[0]["digest"]]


def check(result, metrics, trace):
    """Output checks on the timed seed and the check seed; returns the list
    of failures (empty when correct)."""
    workload = result["workload"]
    failures = (quality_failures(workload, result["quality"], result["seed"])
                + quality_failures(workload, result["check_quality"],
                                   result["check_seed"]))
    if not trace:
        bad = mismatched_reps(result)
        if bad:
            failures.append(f"repetitions {bad} differ from the first output")
    else:
        c = result["counters"]
        if c["replay_rows"] == 0 or c["replay_mismatches"]:
            failures.append(f"replay differs from the entry point on "
                            f"{c['replay_mismatches']} of {c['replay_rows']} "
                            f"rows")
        if c["digest_mismatches"] or result["untraced_mismatches"]:
            failures.append("traced outputs differ from the untraced run")
        if metrics["trace.attributed_frac"] < MIN_ATTRIBUTED_FRAC:
            failures.append(f"trace.attributed_frac "
                            f"{metrics['trace.attributed_frac']:.4f} is below "
                            f"{MIN_ATTRIBUTED_FRAC}")
    return failures


def attempted_failed(result, trace):
    """(attempted, failed) operations. An operation is a terminal-slot of a
    timed repetition (or a replayed row); it fails when its repetition's
    output differs from the first repetition's (or the replayed row differs
    from the entry point's). A slot that throws ends the run instead.
    Misidentifications are the identifier's accuracy, which id_accuracy
    reports and checks, not failed operations."""
    if trace:
        c = result["counters"]
        return c["replay_rows"], c["replay_mismatches"]
    reps = result["reps"]
    bad = mismatched_reps(result)
    return (sum(r["terminal_slots"] for r in reps),
            sum(reps[i]["terminal_slots"] for i in bad))
