"""Arithmetic of the fleet benchmark: percentiles, span self time, failure
ratios and the comparison between two sets of runs.

Kept free of I/O so that test_benchstats.py can pin every rule down.
"""

import math
import statistics

# End-to-end metrics: (name, unit, better, bound). `bound` is the share of
# the first set's median by which the second set's median may be worse.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("rounds_per_s", "rounds/s", "higher", 0.25),
    ("msgs_per_s", "msgs/s", "higher", 0.25),
    ("round_p50_s", "s", "lower", 0.25),
    ("round_p90_s", "s", "lower", 0.25),
    ("cpu_ms_per_round", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Per-layer metrics: (name, unit, better). Zero where a workload does not
# exercise the layer (see README.md for the metric -> workload map).
PER_LAYER = [
    ("crypto.unwrap_us", "us", "lower"),
    ("crypto.x25519_us", "us", "lower"),
    ("crypto.noise_wrap_us", "us", "lower"),
    ("noise.gen_ms", "ms", "lower"),
    ("transport.fwd_ms.h0", "ms", "lower"),
    ("transport.fwd_ms.h1", "ms", "lower"),
    ("transport.last_ms.h2", "ms", "lower"),
    ("transport.bwd_ms.h0", "ms", "lower"),
    ("transport.bwd_ms.h1", "ms", "lower"),
    ("transport.fwd_us_per_onion.h0", "us", "lower"),
    ("transport.fwd_us_per_onion.h1", "us", "lower"),
    ("transport.fwd_us_per_onion.h2", "us", "lower"),
    ("transport.wire_frac", "ratio", "lower"),
    ("mixnet.requests_in.h0", "count", "lower"),
    ("mixnet.requests_in.h1", "count", "lower"),
    ("mixnet.requests_in.h2", "count", "lower"),
    ("mixnet.noise_added.h0", "count", "lower"),
    ("mixnet.noise_added.h1", "count", "lower"),
    ("mixnet.noise_added.h2", "count", "lower"),
    ("mixnet.dh_ops_per_round", "count", "lower"),
    ("mixnet.bytes_out_per_round", "bytes", "lower"),
    ("mixnet.dropped", "count", "lower"),
    ("deaddrop.exchange_ms", "ms", "lower"),
    ("deaddrop.exchange_requests", "count", "lower"),
    ("engine.submit_block_ms", "ms", "lower"),
    ("engine.max_in_flight", "count", "higher"),
    ("engine.self_ms", "ms", "lower"),
    ("coord.admission_ms", "ms", "lower"),
    ("coord.announce_gap_ms", "ms", "lower"),
    ("net.frames_per_round", "count", "lower"),
    ("net.sheds", "count", "lower"),
    ("client.prepare_us", "us", "lower"),
    ("client.handle_us", "us", "lower"),
    ("dist.publish_ms", "ms", "lower"),
    ("dist.fetch_rpc_us", "us", "lower"),
    ("client.fetch_us", "us", "lower"),
    ("client.bucket_bytes", "bytes", "lower"),
    ("fetches_per_s", "fetches/s", "higher"),
    ("fetch_p50_ms", "ms", "lower"),
    ("fetch_p90_ms", "ms", "lower"),
    ("fail_ratio", "ratio", "lower"),
    ("proc.busy_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# Every child span name the traced run records, and the per-layer metric
# its attributed time becomes (ms per traced round).
SPAN_LAYERS = {
    "engine.submit": "engine.submit_block_ms",
    "coord.admission": "coord.admission_ms",
    "transport.fwd.h0": "transport.fwd_ms.h0",
    "transport.fwd.h1": "transport.fwd_ms.h1",
    "transport.last.h2": "transport.last_ms.h2",
    "transport.bwd.h0": "transport.bwd_ms.h0",
    "transport.bwd.h1": "transport.bwd_ms.h1",
    "dist.publish": "dist.publish_ms",
}

# Samples a percentile needs beyond it to be reported.
TAIL_SAMPLES = 10


# --- Percentiles --------------------------------------------------------------


def nearest_rank(values, q):
    """Nearest-rank percentile: the smallest sample with at least a share
    `q` of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-percentile's rank."""
    return n - max(1, math.ceil(q * n))


def tail_supported(n, q=0.9, need=TAIL_SAMPLES):
    """True when at least `need` samples lie beyond the q-percentile."""
    return n > 0 and samples_beyond(n, q) >= need


# --- Spans ----------------------------------------------------------------------


def clip(interval, bounds):
    """The part of `interval` inside `bounds` (empty, at a bound, if none)."""
    start = min(max(interval[0], bounds[0]), bounds[1])
    end = max(start, min(interval[1], bounds[1]))
    return (start, end)


def attribute(root, children):
    """Splits a root span's interval among its children: each instant goes
    in equal shares to the children covering it, and instants no child
    covers go to the root itself. Returns ({child name: time}, root self
    time); the parts sum to the root's duration exactly."""
    bounds = (root["start_us"], root["end_us"])
    clipped = [(clip((c["start_us"], c["end_us"]), bounds), c["name"]) for c in children]
    points = sorted({bounds[0], bounds[1]} | {p for (iv, _) in clipped for p in iv})
    shares = {}
    unattributed = 0.0
    for a, b in zip(points, points[1:]):
        covering = [name for (iv, name) in clipped if iv[0] <= a and b <= iv[1] and iv[1] > iv[0]]
        if not covering:
            unattributed += b - a
            continue
        for name in covering:
            shares[name] = shares.get(name, 0.0) + (b - a) / len(covering)
    return shares, unattributed


def layer_times(spans):
    """Per-round attribution over a run's spans. Returns (per-name total
    attributed us, total root self us, total root us, rounds) over every
    round that has a root span."""
    roots = {s["id"]: s for s in spans if s["parent"] == 0 and s["name"] == "round"}
    children = {}
    for s in spans:
        if s["parent"] in roots:
            children.setdefault(s["parent"], []).append(s)
    totals = {}
    self_total = 0.0
    root_total = 0.0
    for rid, root in roots.items():
        shares, unattributed = attribute(root, children.get(rid, []))
        for name, t in shares.items():
            totals[name] = totals.get(name, 0.0) + t
        self_total += unattributed
        root_total += root["end_us"] - root["start_us"]
    return totals, self_total, root_total, len(roots)


def span_metrics(spans):
    """The per-layer metrics a traced run's spans give: every SPAN_LAYERS
    metric and engine.self_ms, in ms per round. Returns (metrics, total
    root us, rounds)."""
    totals, self_us, root_us, rounds = layer_times(spans)
    n = max(rounds, 1)
    out = {metric: totals.get(name, 0.0) / 1e3 / n for name, metric in SPAN_LAYERS.items()}
    out["engine.self_ms"] = self_us / 1e3 / n
    return out, root_us, rounds


def unreported_share(metrics, root_us, rounds):
    """The share of the round spans' total time that the printed span
    metrics plus engine.self_ms do not account for (1 without rounds). A
    recorded span name with no metric in SPAN_LAYERS shows up here."""
    if root_us <= 0 or rounds <= 0:
        return 1.0
    reported_ms = metrics["engine.self_ms"] + sum(metrics[m] for m in SPAN_LAYERS.values())
    return abs(root_us - rounds * 1e3 * reported_ms) / root_us


# --- Failures ----------------------------------------------------------------------


def fail_ratio(raw):
    """Failed or abandoned rounds, errored fetches and missing probe
    messages, over everything attempted."""
    failed = raw["rounds_failed"] + raw["fetches_failed"] + raw["probe_missing"]
    attempted = raw["rounds_attempted"] + raw["fetches_attempted"] + raw["probe_expected"]
    if attempted <= 0:
        raise ValueError("nothing attempted")
    return failed / attempted


# --- Comparing two sets of runs -------------------------------------------------------


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles, n=4)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(first_median, second_median, better):
    """How much worse the second median is than the first, as a share of
    the first (negative when it is better)."""
    if better == "lower":
        return (second_median - first_median) / first_median
    return (first_median - second_median) / first_median


def compare(first, second, metrics=END_TO_END):
    """Checks two sets of runs of one workload against the metric bounds.

    `first` and `second` map metric name -> list of values, one per run.
    A metric fails when its spread within either set exceeds its bound, or
    when the second median is worse than the first by more than the bound.
    Returns a list of (metric, reason) failures."""
    failures = []
    for name, _unit, better, bound in metrics:
        a, b = first[name], second[name]
        for label, values in (("first", a), ("second", b)):
            s = spread(values)
            if s > bound:
                failures.append((name, f"{label} spread {s:.3f} > {bound}"))
        w = worse_by(statistics.median(a), statistics.median(b), better)
        if w > bound:
            failures.append((name, f"second median worse by {w:.3f} > {bound}"))
    return failures
