#!/usr/bin/env python3
"""CHAM-BENCH regression gate.

Parses the machine-readable lines the bench binaries print --

    CHAM-BENCH  {"kernel": ..., "ns_per_coeff": ..., ...}
    CHAM-BENCH  {"benchmark": ..., "shape": ..., "cham_s": ..., ...}
    CHAM-BENCH  {"server": ..., "req_s": ..., "p99_ms": ..., ...}
    CHAM-METRICS {"counters": {...}, "gauges": {...}, "histograms": {...}}

-- flattens them into named metrics, and compares against a checked-in
baseline (bench/baseline.json) with per-metric tolerances. Exits nonzero
on any regression so CI can gate merges on the perf trajectory.

Usage:
    check_bench.py compare --baseline bench/baseline.json OUT [OUT...]
    check_bench.py update  --baseline bench/baseline.json OUT [OUT...]
    check_bench.py selftest

`compare` fails when a baseline metric is missing from the measured set
(coverage loss) or regresses beyond its tolerance; improvements and new
metrics never fail. `update` rewrites the baseline from fresh bench
output (run it on the reference machine after an intentional perf
change). `selftest` proves the gate works by injecting a synthetic 2x
slowdown and checking the comparison fails.

Baseline format:
    {"default_tolerance": 0.25,
     "metrics": {"<name>": {"value": v, "tolerance": t,
                            "direction": "lower"|"higher"|"exact"}, ...}}

direction "lower" means lower-is-better (latencies): measured may not
exceed value*(1+tolerance). "higher" means higher-is-better (speed-ups):
measured may not drop below value*(1-tolerance). "exact" must match
bit-for-bit (deterministic operation counts). "level" is the SIMD
dispatch level stamped on every CHAM-BENCH line: a baseline recorded at
one level (e.g. avx2) refuses comparison against output measured at
another (e.g. avx512) — the numbers are from different code paths, so
pin CHAM_SIMD_LEVEL or regenerate the baseline instead.
"""

import argparse
import json
import os
import sys

DEFAULT_TOLERANCE = 0.25

# Registry of SIMD dispatch levels the current tree can emit. A baseline
# whose meta/simd_level is not in this set was recorded at a retired (or
# never-existing) level: its numbers come from a code path the tree no
# longer has, so the gate refuses the comparison outright instead of
# failing metric-by-metric.
KNOWN_LEVELS = ("scalar", "avx2", "avx512", "avx512ifma")

# Flattening + baseline-generation rules, keyed by metric-name prefix or
# field. Wall-clock fields get wide tolerances (CI runners are noisy and
# heterogeneous); model-derived and ratio fields get tight ones; operation
# counters are deterministic and must match exactly.
KERNEL_TIME_TOLERANCE = 0.75  # absolute ns/coeff: gates a 2x slowdown
KERNEL_RATIO_TOLERANCE = 0.6  # kernel-vs-kernel speed-ups
PAIRED_RATIO_TOLERANCE = 0.3  # interleaved same-run A/B ratios: both
                              # sides see the same frequency/scheduler
                              # drift, so the gate can trip on a 1.4x
                              # loss instead of a 2.5x one
MODEL_TIME_TOLERANCE = 0.10   # device-model seconds: deterministic
HEADLINE_SPEEDUP_TOLERANCE = 0.9  # order-of-magnitude sanity floor
PEAK_RSS_TOLERANCE = 0.5      # MiB high-water mark: generous, but gates
                              # a leak or a pool-bypass blow-up
BSGS_TIME_TOLERANCE = 0.75    # per-algorithm HMVP seconds: wall clock
BSGS_SPEEDUP_TOLERANCE = 0.4  # hoisted-vs-naive ratio: both sides are
                              # measured in the same process, so noise
                              # mostly cancels; gates losing the hoisting
                              # win (the bench itself enforces the 1.5x
                              # floor at 1024x4096)
SERVER_THROUGHPUT_TOLERANCE = 0.6  # req/s on shared runners: gates a
                                   # sustained-throughput collapse
SERVER_LATENCY_TOLERANCE = 1.0     # p50/p95/p99 ms: scheduler jitter on CI
                                   # is brutal; gates a >2x tail blow-up
SERVER_OCCUPANCY_TOLERANCE = 0.6   # batch occupancy under an open loop
SERVER_RATIO_TOLERANCE = 0.05      # seeded wire ratio: format-determined,
                                   # so any drift is a serializer change
SERVER_AB_TOLERANCE = 0.4          # bsgs-vs-coefficient serving ratio:
                                   # both arms run in the same process so
                                   # noise mostly cancels; gates losing
                                   # the algorithm-dispatch win (the bench
                                   # itself enforces the 1.5x floor)


def parse_lines(text):
    """Yield (tag, obj) for every CHAM-BENCH / CHAM-METRICS line."""
    for line in text.splitlines():
        line = line.strip()
        for tag in ("CHAM-BENCH", "CHAM-METRICS"):
            if line.startswith(tag + " "):
                payload = line[len(tag) + 1:]
                try:
                    yield tag, json.loads(payload)
                except json.JSONDecodeError as e:
                    raise SystemExit(f"unparseable {tag} line: {payload!r}: {e}")


def flatten(records, source="sample"):
    """Flatten parsed records into {metric_name: (value, rule)}.

    rule is (tolerance, direction) used when generating a baseline.
    `source` namespaces the CHAM-METRICS counters, which use the same
    registry names (hmvp.runs, ...) in every bench binary.
    """
    records = list(records)
    metrics = {}
    levels = set()

    def put(name, value, tolerance, direction):
        metrics[name] = (float(value), (tolerance, direction))

    # Server load tests coalesce requests into batches wherever the race
    # between clients and the batch window happens to land, so their
    # operation counters (sweeps, NTTs, key-switches) are not run-to-run
    # comparable. The load gate lives in the server/ CHAM-BENCH fields;
    # counters from such a run are informational only.
    server_run = any(tag == "CHAM-BENCH" and "server" in obj
                     for tag, obj in records)

    for tag, obj in records:
        if tag == "CHAM-BENCH" and "simd_level" in obj:
            levels.add(obj["simd_level"])
        if tag == "CHAM-BENCH" and "kernel" in obj:
            key = f"kernels/{obj['kernel']}@t{obj.get('threads', 1)}"
            if "ns_per_coeff" in obj:
                put(key + "/ns_per_coeff", obj["ns_per_coeff"],
                    KERNEL_TIME_TOLERANCE, "lower")
            if "speedup" in obj and obj.get("speedup", 1) != 1:
                put(key + "/speedup", obj["speedup"],
                    KERNEL_RATIO_TOLERANCE, "higher")
            if "paired_speedup" in obj:
                put(key + "/paired_speedup", obj["paired_speedup"],
                    PAIRED_RATIO_TOLERANCE, "higher")
        elif tag == "CHAM-BENCH" and "rns" in obj:
            # Span-wise CRT engine lines (bench_kernels bench_crt): wall
            # clock per coefficient plus the span-vs-per-coefficient
            # ratio, which is same-process and so tighter than absolute
            # time. Losing the ratio means the vectorized compose/lift
            # fell back to scalar recursion.
            key = f"rns/{obj['rns']}/{obj.get('shape', '')}"
            if "ns_per_coeff" in obj:
                put(key + "/ns_per_coeff", obj["ns_per_coeff"],
                    KERNEL_TIME_TOLERANCE, "lower")
            if "speedup" in obj and obj.get("speedup", 1) != 1:
                put(key + "/speedup", obj["speedup"],
                    KERNEL_RATIO_TOLERANCE, "higher")
        elif tag == "CHAM-BENCH" and "benchmark" in obj:
            key = f"headline/{obj['benchmark']}/{obj.get('shape', '')}"
            if "cham_s" in obj:
                put(key + "/cham_s", obj["cham_s"],
                    MODEL_TIME_TOLERANCE, "lower")
            if "speedup" in obj:
                put(key + "/speedup", obj["speedup"],
                    HEADLINE_SPEEDUP_TOLERANCE, "higher")
            # Steady-state allocation discipline: the per-run system
            # allocation count is deterministic (0 with the pool on) and
            # any drift means a hot path started allocating again. The
            # pool flag pins the configuration the baseline was
            # recorded at; RSS gates memory blow-ups.
            if "alloc_count" in obj:
                put(key + "/alloc_count", obj["alloc_count"], 0.0, "exact")
            if "pool" in obj:
                put(key + "/pool", obj["pool"], 0.0, "exact")
            if "peak_rss_mb" in obj:
                put(key + "/peak_rss_mb", obj["peak_rss_mb"],
                    PEAK_RSS_TOLERANCE, "lower")
        elif tag == "CHAM-BENCH" and "mvp" in obj:
            # Per-shape HMVP algorithm crossover lines (bench_bsgs).
            # Wall-clock per algorithm is noisy; the hoisted-vs-naive
            # ratio is same-process and tighter; rotation/product counts
            # are deterministic per shape.
            key = (f"bsgs/{obj['mvp']}/{obj.get('shape', '')}"
                   f"@t{obj.get('threads', 1)}")
            for field in ("naive_s", "bsgs_s", "bsgs_enc_s", "coeff_s"):
                if field in obj:
                    put(f"{key}/{field}", obj[field],
                        BSGS_TIME_TOLERANCE, "lower")
            if "speedup_vs_naive" in obj:
                put(key + "/speedup_vs_naive", obj["speedup_vs_naive"],
                    BSGS_SPEEDUP_TOLERANCE, "higher")
            for field in ("rotations", "rotations_hoisted", "plain_mults"):
                if field in obj:
                    put(f"{key}/{field}", obj[field], 0.0, "exact")
            if "peak_rss_mb" in obj:
                put(key + "/peak_rss_mb", obj["peak_rss_mb"],
                    PEAK_RSS_TOLERANCE, "lower")
        elif tag == "CHAM-BENCH" and "server" in obj:
            key = (f"server/{obj['server']}/{obj.get('shape', '')}"
                   f"@c{obj.get('clients', 1)}")
            # Throughput and occupancy are higher-is-better: the gate
            # trips when they fall below baseline*(1-tol). Latency
            # percentiles are lower-is-better: an improvement passes,
            # only measured > baseline*(1+tol) trips.
            if "req_s" in obj:
                put(key + "/req_s", obj["req_s"],
                    SERVER_THROUGHPUT_TOLERANCE, "higher")
            # Algorithm A/B lines (bench_server phase 2): per-arm
            # throughput plus the same-process bsgs-vs-coefficient ratio.
            # The encode-cache miss count is deterministic (one diagonal
            # freeze per matrix version); hit counts depend on where the
            # batch window lands, so they are never baselined.
            for arm in ("bsgs_req_s", "coeff_req_s"):
                if arm in obj:
                    put(f"{key}/{arm}", obj[arm],
                        SERVER_THROUGHPUT_TOLERANCE, "higher")
            if "bsgs_vs_coeff" in obj:
                put(key + "/bsgs_vs_coeff", obj["bsgs_vs_coeff"],
                    SERVER_AB_TOLERANCE, "higher")
            if "encode_cache_miss" in obj:
                put(key + "/encode_cache_miss", obj["encode_cache_miss"],
                    0.0, "exact")
            for pct in ("p50_ms", "p95_ms", "p99_ms"):
                if pct in obj:
                    put(f"{key}/{pct}", obj[pct],
                        SERVER_LATENCY_TOLERANCE, "lower")
            if "batch_occupancy" in obj:
                put(key + "/batch_occupancy", obj["batch_occupancy"],
                    SERVER_OCCUPANCY_TOLERANCE, "higher")
            if "seeded_wire_ratio" in obj:
                put(key + "/seeded_wire_ratio", obj["seeded_wire_ratio"],
                    SERVER_RATIO_TOLERANCE, "lower")
            if "peak_rss_mb" in obj:
                put(key + "/peak_rss_mb", obj["peak_rss_mb"],
                    PEAK_RSS_TOLERANCE, "lower")
        elif tag == "CHAM-METRICS":
            if server_run:
                continue
            for name, value in obj.get("counters", {}).items():
                # Whole-process allocator/pool totals depend on which
                # pool worker claims which lane (a cold thread cache
                # carves, a warm one hits), so they are not run-to-run
                # comparable. Allocation discipline is gated by the
                # per-bench `alloc_count` CHAM-BENCH field instead,
                # measured at a controlled post-warmup point.
                if name.startswith(("alloc.", "pool.")):
                    continue
                put(f"counters/{source}/{name}", value, 0.0, "exact")
    if len(levels) > 1:
        raise SystemExit(
            f"bench output mixes SIMD dispatch levels {sorted(levels)}: "
            "every compared run must be measured at one level "
            "(pin CHAM_SIMD_LEVEL)")
    if levels:
        # Stored as a string metric; direction "level" refuses any
        # baseline/measured mismatch instead of comparing numerically.
        metrics["meta/simd_level"] = (levels.pop(), (0.0, "level"))
    return metrics


def load_outputs(paths):
    metrics = {}
    levels = {}
    for path in paths:
        stem = os.path.splitext(os.path.basename(path))[0]
        with open(path) as f:
            flat = flatten(parse_lines(f.read()), source=stem)
        if "meta/simd_level" in flat:
            levels[path] = flat["meta/simd_level"][0]
        metrics.update(flat)
    if len(set(levels.values())) > 1:
        raise SystemExit(
            "bench outputs mix SIMD dispatch levels: "
            + ", ".join(f"{p}={l}" for p, l in sorted(levels.items()))
            + " (pin CHAM_SIMD_LEVEL so all outputs share one level)")
    return metrics


def fmt(value):
    """Format a metric value that may be a float or a string level name."""
    return f"{value:g}" if isinstance(value, float) else str(value)


def compare(baseline, measured):
    """Return a list of human-readable failure strings."""
    failures = []
    default_tol = baseline.get("default_tolerance", DEFAULT_TOLERANCE)
    for name, spec in sorted(baseline.get("metrics", {}).items()):
        base_value = spec["value"]
        tol = spec.get("tolerance", default_tol)
        direction = spec.get("direction", "lower")
        if name not in measured:
            failures.append(f"{name}: missing from bench output "
                            f"(baseline {fmt(base_value)})")
            continue
        value = measured[name][0]
        if direction == "level":
            if base_value not in KNOWN_LEVELS:
                failures.append(
                    f"{name}: baseline was recorded at retired SIMD level "
                    f"{fmt(base_value)} (known levels: "
                    f"{', '.join(KNOWN_LEVELS)}) — regenerate the baseline "
                    f"with `update` on a current build")
            elif value != base_value:
                failures.append(
                    f"{name}: bench output measured at SIMD level "
                    f"{fmt(value)} but baseline was recorded at "
                    f"{fmt(base_value)} — refusing cross-level comparison "
                    f"(pin CHAM_SIMD_LEVEL={fmt(base_value)} or regenerate "
                    f"the baseline with `update`)")
        elif direction == "exact":
            if value != base_value:
                failures.append(f"{name}: {value:g} != baseline "
                                f"{base_value:g} (exact match required)")
        elif direction == "lower":
            limit = base_value * (1.0 + tol)
            if value > limit:
                failures.append(
                    f"{name}: {value:g} exceeds baseline {base_value:g} "
                    f"+{tol:.0%} (limit {limit:g})")
        elif direction == "higher":
            limit = base_value * (1.0 - tol)
            if value < limit:
                failures.append(
                    f"{name}: {value:g} below baseline {base_value:g} "
                    f"-{tol:.0%} (limit {limit:g})")
        else:
            failures.append(f"{name}: unknown direction {direction!r}")
    return failures


def cmd_compare(args):
    with open(args.baseline) as f:
        baseline = json.load(f)
    measured = load_outputs(args.outputs)
    failures = compare(baseline, measured)
    known = set(baseline.get("metrics", {}))
    new = sorted(set(measured) - known)
    ok = len(baseline.get("metrics", {})) - len(failures)
    print(f"check_bench: {ok}/{len(baseline.get('metrics', {}))} baseline "
          f"metrics within tolerance, {len(new)} unbaselined metric(s)")
    for name in new:
        print(f"  note: new metric {name} = {fmt(measured[name][0])} "
              f"(run `update` to baseline it)")
    if failures:
        print(f"\ncheck_bench: {len(failures)} REGRESSION(S):")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("check_bench: no regressions")
    return 0


def cpu_model():
    """Best-effort CPU model string, for baseline provenance: kernel-time
    tolerances only mean something relative to the machine that recorded
    them."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cmd_update(args):
    measured = load_outputs(args.outputs)
    if not measured:
        print("check_bench: no CHAM-BENCH/CHAM-METRICS lines found",
              file=sys.stderr)
        return 1
    baseline = {
        "default_tolerance": DEFAULT_TOLERANCE,
        "cpu_model": cpu_model(),
        "metrics": {
            name: {"value": value, "tolerance": tol, "direction": direction}
            for name, (value, (tol, direction)) in sorted(measured.items())
        },
    }
    with open(args.baseline, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"check_bench: wrote {len(measured)} metrics to {args.baseline}")
    return 0


def cmd_selftest(_args):
    """Prove the gate trips: inject a synthetic 2x slowdown, a counter
    drift and a SIMD-level switch into sample output and require the
    comparison to fail."""
    sample = "\n".join([
        'CHAM-BENCH {"kernel":"ntt_forward_lazy","ns_per_coeff":10.0,'
        '"threads":1,"speedup":1.5,"simd_level":"avx2"}',
        'CHAM-BENCH {"kernel":"dw_pointwise_mac","ns_per_coeff":0.5,'
        '"threads":1,"speedup":1.44,"simd_level":"avx2"}',
        'CHAM-BENCH {"kernel":"dot2_k16:avx2","ns_per_coeff":40.0,'
        '"threads":1,"paired_speedup":1.3,"simd_level":"avx2"}',
        'CHAM-BENCH {"rns":"compose_all","shape":"3x4096",'
        '"ns_per_coeff":8.0,"speedup":6.0,"simd_level":"avx2"}',
        'CHAM-BENCH {"benchmark":"hmvp","shape":"8192x8192",'
        '"baseline_s":100.0,"cham_s":0.125,"speedup":800.0,'
        '"simd_level":"avx2"}',
        'CHAM-BENCH {"benchmark":"steady_state_hmvp","shape":"32x4096",'
        '"alloc_count":0,"pool":1,"peak_rss_mb":512.0,'
        '"simd_level":"avx2"}',
        'CHAM-BENCH {"mvp":"bsgs_vs_naive","shape":"1024x4096","threads":1,'
        '"naive_s":8.0,"bsgs_s":3.2,"bsgs_enc_s":1.6,"coeff_s":2.5,'
        '"speedup_vs_naive":2.5,'
        '"rotations":126,"rotations_hoisted":63,"plain_mults":4096,'
        '"chosen":"bsgs","simd_level":"avx2"}',
        'CHAM-METRICS {"counters":{"hmvp.forward_ntts":216,'
        '"alloc.count":8,"pool.hit":543},"gauges":{},"histograms":{}}',
    ])
    baseline = {
        "default_tolerance": DEFAULT_TOLERANCE,
        "metrics": {
            name: {"value": value, "tolerance": tol, "direction": direction}
            for name, (value, (tol, direction))
            in flatten(parse_lines(sample)).items()
        },
    }

    clean = compare(baseline, flatten(parse_lines(sample)))
    if clean:
        print(f"selftest FAILED: clean run reported regressions: {clean}")
        return 1

    # Pool/allocator process totals are lane-assignment-dependent, so the
    # flattener must drop them (and a run whose totals drifted must still
    # pass — only the controlled CHAM-BENCH alloc_count field gates).
    if any("alloc." in n or "pool." in n
           for n in flatten(parse_lines(sample)) if n.startswith("counters/")):
        print("selftest FAILED: racy pool counters were baselined")
        return 1
    churn = sample.replace('"alloc.count":8,"pool.hit":543',
                           '"alloc.count":11,"pool.hit":540')
    if compare(baseline, flatten(parse_lines(churn))):
        print("selftest FAILED: pool-counter churn tripped the gate")
        return 1

    slow = sample.replace('"ns_per_coeff":10.0', '"ns_per_coeff":20.0')
    failures = compare(baseline, flatten(parse_lines(slow)))
    if not any("ntt_forward_lazy" in f for f in failures):
        print("selftest FAILED: synthetic 2x slowdown passed the gate")
        return 1

    # Double-word kernel ratio: the dw-vs-64-bit speedup collapsing to
    # parity (dw path delegating again) must trip the ratio gate.
    undw = sample.replace('"speedup":1.44', '"speedup":0.5')
    failures = compare(baseline, flatten(parse_lines(undw)))
    if not any("dw_pointwise_mac" in f for f in failures):
        print("selftest FAILED: dw speedup collapse passed the gate")
        return 1

    # Paired dot2-vs-Shoup ratio: a 1.5x loss against the old MAC (the
    # dot2 table entry falling back to a slow body) must trip the
    # tighter paired gate.
    undot = sample.replace('"paired_speedup":1.3', '"paired_speedup":0.85')
    failures = compare(baseline, flatten(parse_lines(undot)))
    if not any("dot2_k16" in f for f in failures):
        print("selftest FAILED: paired dot2 ratio collapse passed the gate")
        return 1

    # Span-wise CRT ratio: compose_all falling back to the
    # per-coefficient recursion (speedup 6x -> 1x) must trip.
    unspan = sample.replace('"speedup":6.0', '"speedup":1.1')
    failures = compare(baseline, flatten(parse_lines(unspan)))
    if not any("rns/compose_all" in f for f in failures):
        print("selftest FAILED: CRT span speedup collapse passed the gate")
        return 1

    drift = sample.replace('"hmvp.forward_ntts":216', '"hmvp.forward_ntts":217')
    failures = compare(baseline, flatten(parse_lines(drift)))
    if not any("hmvp.forward_ntts" in f for f in failures):
        print("selftest FAILED: operation-count drift passed the gate")
        return 1

    # A hot path that starts allocating again (alloc_count 0 -> 2) or an
    # RSS blow-up beyond the tolerance must both trip the gate.
    realloc = sample.replace('"alloc_count":0', '"alloc_count":2')
    failures = compare(baseline, flatten(parse_lines(realloc)))
    if not any("alloc_count" in f for f in failures):
        print("selftest FAILED: steady-state allocation drift passed the gate")
        return 1

    bloat = sample.replace('"peak_rss_mb":512.0', '"peak_rss_mb":1024.0')
    failures = compare(baseline, flatten(parse_lines(bloat)))
    if not any("peak_rss_mb" in f for f in failures):
        print("selftest FAILED: 2x RSS blow-up passed the gate")
        return 1

    missing = "\n".join(l for l in sample.splitlines() if "benchmark" not in l)
    failures = compare(baseline, flatten(parse_lines(missing)))
    if not any("missing" in f for f in failures):
        print("selftest FAILED: dropped metric passed the gate")
        return 1

    # Hoisted-BSGS crossover lines: losing the hoisting speed-up trips
    # the ratio gate, a rotation-count drift (e.g. hoisting silently
    # disabled, so rotations_hoisted drops to 0) trips the exact gate,
    # and a within-tolerance wall-clock wobble passes.
    unhoisted = sample.replace('"speedup_vs_naive":2.5',
                               '"speedup_vs_naive":1.2')
    failures = compare(baseline, flatten(parse_lines(unhoisted)))
    if not any("speedup_vs_naive" in f for f in failures):
        print("selftest FAILED: hoisting speed-up collapse passed the gate")
        return 1
    rehoist = sample.replace('"rotations_hoisted":63', '"rotations_hoisted":0')
    failures = compare(baseline, flatten(parse_lines(rehoist)))
    if not any("rotations_hoisted" in f for f in failures):
        print("selftest FAILED: hoisted-rotation count drift passed the gate")
        return 1
    wobble = sample.replace('"bsgs_s":3.2', '"bsgs_s":3.9')
    if compare(baseline, flatten(parse_lines(wobble))):
        print("selftest FAILED: in-tolerance BSGS wall-clock wobble "
              "tripped the gate")
        return 1
    unfrozen = sample.replace('"bsgs_enc_s":1.6', '"bsgs_enc_s":4.0')
    failures = compare(baseline, flatten(parse_lines(unfrozen)))
    if not any("bsgs_enc_s" in f for f in failures):
        print("selftest FAILED: frozen-diagonal 2.5x slowdown passed the gate")
        return 1

    relevel = sample.replace('"simd_level":"avx2"', '"simd_level":"scalar"')
    failures = compare(baseline, flatten(parse_lines(relevel)))
    if not any("cross-level" in f for f in failures):
        print("selftest FAILED: SIMD dispatch-level switch passed the gate")
        return 1

    mixed = sample.replace('"simd_level":"avx2"', '"simd_level":"avx512"', 1)
    try:
        flatten(parse_lines(mixed))
    except SystemExit:
        pass
    else:
        print("selftest FAILED: mixed-level output was not rejected")
        return 1

    # avx512ifma is a first-class registry level: a baseline recorded at
    # it round-trips cleanly, and a cross-level run against it is refused
    # like any other level switch.
    ifma_sample = sample.replace('"simd_level":"avx2"',
                                 '"simd_level":"avx512ifma"')
    ifma_sample = ifma_sample.replace('"threads":1,',
                                      '"threads":1,"limb_bits":52,')
    ifma_baseline = {
        "default_tolerance": DEFAULT_TOLERANCE,
        "metrics": {
            name: {"value": value, "tolerance": tol, "direction": direction}
            for name, (value, (tol, direction))
            in flatten(parse_lines(ifma_sample)).items()
        },
    }
    clean = compare(ifma_baseline, flatten(parse_lines(ifma_sample)))
    if clean:
        print(f"selftest FAILED: clean avx512ifma run reported "
              f"regressions: {clean}")
        return 1
    failures = compare(ifma_baseline, flatten(parse_lines(sample)))
    if not any("cross-level" in f and "avx512ifma" in f for f in failures):
        print("selftest FAILED: avx2 run passed against an avx512ifma "
              "baseline")
        return 1

    # A baseline recorded at a retired level must be refused outright —
    # its numbers come from a code path the tree no longer has.
    retired_baseline = json.loads(json.dumps(baseline))
    retired_baseline["metrics"]["meta/simd_level"]["value"] = "avx512vnni"
    failures = compare(retired_baseline, flatten(parse_lines(sample)))
    if not any("retired" in f for f in failures):
        print("selftest FAILED: retired-level baseline passed the gate")
        return 1

    # Server load-test metrics: req/s is higher-is-better (a throughput
    # collapse trips the gate), latency percentiles are lower-is-better
    # (a tail blow-up trips, an across-the-board improvement passes),
    # and the batching sweep's timing-dependent operation counters are
    # never baselined — where the batch window lands is a race.
    server_sample = "\n".join([
        'CHAM-BENCH {"server":"hmvp_serve","shape":"128x4096","clients":8,'
        '"requests":32,"req_s":5.0,"p50_ms":900.0,"p95_ms":1500.0,'
        '"p99_ms":1800.0,"batch_occupancy":3.2,"seeded_wire_ratio":0.5,'
        '"peak_rss_mb":140.0,"simd_level":"avx2"}',
        'CHAM-BENCH {"server":"hmvp_serve_ab","shape":"1024x4096",'
        '"clients":2,"requests":8,"bsgs_req_s":0.9,"coeff_req_s":0.4,'
        '"bsgs_vs_coeff":2.25,"encode_cache_miss":1,'
        '"peak_rss_mb":1500.0,"simd_level":"avx2"}',
        'CHAM-METRICS {"counters":{"serve.batches":11,'
        '"serve.algo.bsgs":5,"serve.encode_cache.miss":1,'
        '"hmvp.forward_ntts":444},"gauges":{},"histograms":{}}',
    ])
    server_flat = flatten(parse_lines(server_sample))
    if any(n.startswith("counters/") for n in server_flat):
        print("selftest FAILED: server-run operation counters were "
              "baselined despite batching nondeterminism")
        return 1
    server_baseline = {
        "default_tolerance": DEFAULT_TOLERANCE,
        "metrics": {
            name: {"value": value, "tolerance": tol, "direction": direction}
            for name, (value, (tol, direction)) in server_flat.items()
        },
    }
    clean = compare(server_baseline, server_flat)
    if clean:
        print(f"selftest FAILED: clean server run reported "
              f"regressions: {clean}")
        return 1

    rebatch = server_sample.replace('"serve.batches":11', '"serve.batches":7')
    if compare(server_baseline, flatten(parse_lines(rebatch))):
        print("selftest FAILED: a different batch split tripped the gate")
        return 1

    collapse = server_sample.replace('"req_s":5.0', '"req_s":1.5')
    failures = compare(server_baseline, flatten(parse_lines(collapse)))
    if not any("req_s" in f for f in failures):
        print("selftest FAILED: throughput collapse passed the gate")
        return 1

    tail = server_sample.replace('"p99_ms":1800.0', '"p99_ms":4000.0')
    failures = compare(server_baseline, flatten(parse_lines(tail)))
    if not any("p99_ms" in f for f in failures):
        print("selftest FAILED: p99 tail blow-up passed the gate")
        return 1

    faster = (server_sample
              .replace('"req_s":5.0', '"req_s":9.0')
              .replace('"p50_ms":900.0', '"p50_ms":300.0')
              .replace('"p95_ms":1500.0', '"p95_ms":600.0')
              .replace('"p99_ms":1800.0', '"p99_ms":700.0'))
    if compare(server_baseline, flatten(parse_lines(faster))):
        print("selftest FAILED: a faster server run tripped the gate")
        return 1

    fat = server_sample.replace('"seeded_wire_ratio":0.5',
                                '"seeded_wire_ratio":0.7')
    failures = compare(server_baseline, flatten(parse_lines(fat)))
    if not any("seeded_wire_ratio" in f for f in failures):
        print("selftest FAILED: seeded-wire-format bloat passed the gate")
        return 1

    unbatched = server_sample.replace('"batch_occupancy":3.2',
                                      '"batch_occupancy":1.0')
    failures = compare(server_baseline, flatten(parse_lines(unbatched)))
    if not any("batch_occupancy" in f for f in failures):
        print("selftest FAILED: loss of request coalescing passed the gate")
        return 1

    # Algorithm A/B lines: the batched-BSGS serving advantage collapsing
    # toward parity must trip the ratio gate, and an encode-cache miss
    # drift (the diagonal freeze running per batch instead of once per
    # matrix version) must trip the exact gate. The process-wide serve
    # counters on CHAM-METRICS must never be baselined.
    undispatched = server_sample.replace('"bsgs_vs_coeff":2.25',
                                         '"bsgs_vs_coeff":1.1')
    failures = compare(server_baseline, flatten(parse_lines(undispatched)))
    if not any("bsgs_vs_coeff" in f for f in failures):
        print("selftest FAILED: serving-dispatch ratio collapse passed "
              "the gate")
        return 1
    refreeze = server_sample.replace('"encode_cache_miss":1',
                                     '"encode_cache_miss":5')
    failures = compare(server_baseline, flatten(parse_lines(refreeze)))
    if not any("encode_cache_miss" in f for f in failures):
        print("selftest FAILED: per-batch diagonal refreeze passed the gate")
        return 1
    if any("encode_cache." in n or "serve.algo" in n
           for n in server_flat):
        print("selftest FAILED: timing-dependent serve counters were "
              "baselined")
        return 1

    print("selftest OK: 2x slowdown, counter drift, metric loss, "
          "SIMD-level switches (incl. avx512ifma), retired-level "
          "baselines, dw-kernel and CRT-span ratio collapses, BSGS "
          "hoisting/ratio/frozen-path regressions, server "
          "throughput/latency/occupancy regressions and "
          "A/B dispatch-ratio / encode-cache regressions all trip the "
          "gate; clean and improved runs pass")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="gate bench output against a baseline")
    p.add_argument("--baseline", required=True)
    p.add_argument("outputs", nargs="+")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("update", help="rewrite the baseline from bench output")
    p.add_argument("--baseline", required=True)
    p.add_argument("outputs", nargs="+")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("selftest", help="verify the gate trips on slowdowns")
    p.set_defaults(func=cmd_selftest)

    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
