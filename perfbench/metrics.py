"""End-to-end and per-layer metrics, and the tracing self-test.

Every metric is taken per CLI call and reported as the median over the
panel's calls.  Per-layer metrics of layers a workload never reaches read 0.
"""

from __future__ import annotations

import resource
import statistics

from tracing import LayerTotals, count_under
from twindisc import sysid

USEFUL_START_RTOL = 1e-9
TIMED = (
    "sysid.identify_family", "sysid.fit_noise_model", "sysid.one_step_residuals",
    "matching.match_parameters", "twin.write_csv", "twin.read_csv", "configio.load",
    "nugap.select_nominal", "cli.write_report", "cli.discriminate_datasets",
)
COUNTED_AND_TIMED = (
    "sysid.fit_output_error", "twin.simulate_closed_loop", "coding.simo_information_gain",
    "criteria.simo_criteria", "lti.simulate",
)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(workload, records: list, setup: list, fail_ratio: float) -> dict:
    wall = median([r["wall"] for r in records])
    # A quality metric the workload does not produce reads 1, so that every
    # run reports every end-to-end metric with a value that is never 0.
    quality = {}
    for name in ("fit_loss_geomean", "match_sse_ratio"):
        values = [r[name] for r in records if name in r]
        quality[name] = median(values) if values else 1.0
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "pass_ratio": (1.0 - fail_ratio, "ratio"),
        "fit_loss_geomean": (quality["fit_loss_geomean"], "1"),
        "match_sse_ratio": (quality["match_sse_ratio"], "ratio"),
        "sims_per_s": (workload.points / wall, "1/s"),
    }


def call_metrics(rec: dict) -> dict:
    """Per-layer values of one traced call."""
    spans = rec["spans"]
    t = LayerTotals(spans)
    m = {}
    for name in TIMED:
        m[f"{name}.s"] = t.seconds[name]
    for name in COUNTED_AND_TIMED:
        m[f"{name}.calls"] = t.calls[name]
        m[f"{name}.s"] = t.seconds[name]
    for label in sysid.DEFAULT_ORDER_LABELS:
        m[f"sysid.fit_output_error.{label}.s"] = t.seconds[f"sysid.fit_output_error.{label}"]
    fits = t.results["sysid.fit_output_error"]
    m["sysid.iterations"] = sum(f.iterations for f in fits)
    m["sysid.converged_ratio"] = sum(f.converged for f in fits) / len(fits) if fits else 0.0
    m["sysid.roots.calls"], m["sysid.roots.s"] = rec["roots"].get("sysid", (0, 0.0))

    matches = t.results["matching.match_parameters"]
    m["matching.sims"] = count_under(spans, "matching.match_parameters", "twin.simulate_closed_loop")
    m["matching.starts"] = sum(len(r.start_costs) for r in matches)
    useful = sum(
        abs(c - r.sse) <= USEFUL_START_RTOL * abs(r.sse) for r in matches for c in r.start_costs
    )
    m["matching.useful_start_ratio"] = useful / m["matching.starts"] if matches else 0.0
    m["matching.iterations"] = sum(r.iterations for r in matches)
    m["matching.param_err_max"] = rec.get("param_err_max", 0.0)

    sims = t.calls["twin.simulate_closed_loop"]
    m["twin.simulate_closed_loop.ms_per_call"] = (
        1e3 * t.seconds["twin.simulate_closed_loop"] / sims if sims else 0.0
    )
    pairs = t.calls["nugap.nugap"]
    m["nugap.nugap.calls"] = pairs
    m["nugap.nugap.ms_per_pair"] = 1e3 * t.seconds["nugap.nugap"] / pairs if pairs else 0.0
    return m


UNITS = {"s": "s", "calls": "count", "ms_per_call": "ms", "ms_per_pair": "ms"}
OTHER_UNITS = {
    "sysid.iterations": "count",
    "sysid.converged_ratio": "ratio",
    "matching.sims": "count",
    "matching.starts": "count",
    "matching.useful_start_ratio": "ratio",
    "matching.iterations": "count",
    "matching.param_err_max": "ratio",
}


def layer_metrics(plain: list, traced: list, fail_ratio: float) -> dict:
    per_call = [call_metrics(rec) for rec in traced]
    metrics = {}
    for name in per_call[0]:
        unit = OTHER_UNITS.get(name) or UNITS[name.rsplit(".", 1)[1]]
        metrics[name] = (median([m[name] for m in per_call]), unit)
    plain_wall = median([r["wall"] for r in plain])
    traced_wall = median([r["wall"] for r in traced])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["fail_ratio"] = (fail_ratio, "ratio")
    return metrics


def self_test(workload, plain: list, traced: list, checks) -> None:
    """Traced calls must do the expected work and write byte-identical outputs."""
    for i, (a, b) in enumerate(zip(plain, traced)):
        checks.expect(
            "digest" in a and a.get("digest") == b.get("digest"),
            f"{workload.name} input {i}: traced output differs from untraced output",
        )
        t = LayerTotals(b["spans"])
        for name, expected in workload.expected_counts.items():
            checks.expect(
                t.calls[name] == expected,
                f"{workload.name} input {i}: {t.calls[name]} {name} calls, expected {expected}",
            )
