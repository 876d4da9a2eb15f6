#!/usr/bin/env python3
"""Integration check for the live telemetry plane (DESIGN.md section 14).

Drives an audited `dasc_cli simulate ... --serve-metrics=0` run and, while
it is still running, scrapes the exposition endpoint the way a monitoring
agent would:

  * /metrics (Prometheus text): parsed for the sim_batch_allocator_ms
    histogram and the sim_batch_allocator_ms_window summary, whose p95
    estimates must agree within the documented bound
        sketch_p95 in [hist_p95 / growth * (1 - alpha),
                       hist_p95 * (1 + alpha)]
    (hist_p95 is a bucket upper bound with growth-factor spacing; the
    sketch is alpha-relative around the true value — both defaults, 2.0
    and 0.01, are pinned here and in DESIGN.md);
  * /window and /snapshot: well-formed JSON with the expected blocks;
  * `dasc_report live <port> --iterations=1 --no-ansi`: the terminal
    dashboard renders one frame from the same server and exits 0.

Stdlib only (subprocess + urllib); exits nonzero with a reason on any
violation.
"""

import argparse
import json
import re
import subprocess
import sys
import tempfile
import urllib.error
import urllib.request

HISTOGRAM = "sim_batch_allocator_ms"
SKETCH = HISTOGRAM + "_window"
HIST_GROWTH = 2.0  # HistogramOptions default bucket growth factor
SKETCH_ALPHA = 0.01  # QuantileSketchOptions default relative error


def fail(message):
    print(f"check_live_telemetry: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def fetch(port, path, timeout=5.0):
    url = f"http://127.0.0.1:{port}{path}"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def parse_histogram_p95(metrics_text):
    """Cumulative-le p95 upper bound, mirroring util::HistogramQuantile."""
    buckets = []  # (le, cumulative_count), +Inf last
    count = None
    pattern = re.compile(
        rf'^{HISTOGRAM}_bucket{{le="([^"]+)"}} (\d+)$', re.MULTILINE
    )
    for le, cumulative in pattern.findall(metrics_text):
        buckets.append((le, int(cumulative)))
    match = re.search(rf"^{HISTOGRAM}_count (\d+)$", metrics_text, re.MULTILINE)
    if match:
        count = int(match.group(1))
    if not buckets or count is None:
        return None, 0
    if buckets[-1][0] != "+Inf":
        fail(f"{HISTOGRAM} buckets do not end at +Inf")
    if buckets[-1][1] != count:
        fail(f"{HISTOGRAM} +Inf bucket {buckets[-1][1]} != _count {count}")
    if count == 0:
        return None, 0
    target = 0.95 * count
    largest_finite = float(buckets[-2][0]) if len(buckets) > 1 else 0.0
    for le, cumulative in buckets:
        if cumulative >= target:
            return (largest_finite if le == "+Inf" else float(le)), count
    return largest_finite, count


def parse_sketch_p95(metrics_text):
    match = re.search(
        rf'^{SKETCH}{{quantile="0\.95"}} ([0-9.eE+-]+)$',
        metrics_text,
        re.MULTILINE,
    )
    return float(match.group(1)) if match else None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--cli", required=True, help="path to dasc_cli")
    parser.add_argument("--report", required=True, help="path to dasc_report")
    parser.add_argument("--workers", type=int, default=300)
    parser.add_argument("--tasks", type=int, default=400)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        workload = f"{tmp}/live_telemetry.dasc"
        generate = subprocess.run(
            [
                args.cli,
                "generate",
                "synthetic",
                workload,
                f"--workers={args.workers}",
                f"--tasks={args.tasks}",
                "--skills=10",
                "--dep-max=6",
            ],
            capture_output=True,
            text=True,
        )
        if generate.returncode != 0:
            fail(f"generate failed: {generate.stderr}")

        # A big enough audited gg run that the scrapes below land mid-run.
        simulate = subprocess.Popen(
            [
                args.cli,
                "simulate",
                workload,
                "gg",
                "--audit",
                "--serve-metrics=0",
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            port = None
            for line in simulate.stdout:
                match = re.match(
                    r"serving telemetry on 127\.0\.0\.1:(\d+)", line
                )
                if match:
                    port = int(match.group(1))
                    break
            if port is None:
                fail("simulate never announced the telemetry port")

            # One dashboard frame from the same live server.
            live = subprocess.run(
                [
                    args.report,
                    "live",
                    str(port),
                    "--iterations=1",
                    "--no-ansi",
                ],
                capture_output=True,
                text=True,
            )
            if live.returncode != 0:
                fail(f"dasc_report live exited {live.returncode}: {live.stderr}")
            if "dasc live telemetry" not in live.stdout:
                fail("dasc_report live rendered no frame header")

            # Scrape until the run finishes, keeping the freshest payloads.
            metrics_text = window_text = snapshot_text = None
            scrapes = 0
            while True:
                try:
                    fetched = (
                        fetch(port, "/metrics"),
                        fetch(port, "/window"),
                        fetch(port, "/snapshot"),
                    )
                except (urllib.error.URLError, ConnectionError, OSError):
                    break  # server stopped: run is over
                metrics_text, window_text, snapshot_text = fetched
                scrapes += 1
                if simulate.poll() is not None:
                    break
            if scrapes == 0:
                fail("no successful scrape before the server stopped")
        finally:
            # Drain the pipe before reaping: closing it while simulate still
            # prints its summary would kill it with SIGPIPE.
            simulate.communicate(timeout=600)
            returncode = simulate.returncode
        if returncode != 0:
            fail(f"simulate exited {returncode}")

    if "# TYPE" not in metrics_text:
        fail("/metrics carries no TYPE lines")
    window = json.loads(window_text)
    sketch_names = [s.get("name") for s in window.get("sketches", [])]
    if SKETCH not in sketch_names:
        fail(f"/window lacks {SKETCH} (saw {sketch_names})")
    snapshot = json.loads(snapshot_text)
    for block in ("counters", "gauges", "histograms", "sketches"):
        if block not in snapshot:
            fail(f"/snapshot lacks the {block} block")

    # The acceptance bound: both estimators over the same samples, read
    # from one atomically-consistent /metrics payload.
    hist_p95, count = parse_histogram_p95(metrics_text)
    sketch_p95 = parse_sketch_p95(metrics_text)
    if hist_p95 is None or count == 0:
        fail(f"scraped no timed batches in {HISTOGRAM}")
    if sketch_p95 is None:
        fail(f"/metrics lacks the {SKETCH} p95 sample")
    lower = hist_p95 / HIST_GROWTH * (1.0 - SKETCH_ALPHA)
    upper = hist_p95 * (1.0 + SKETCH_ALPHA)
    if not lower <= sketch_p95 <= upper:
        fail(
            f"p95 disagreement: sketch {sketch_p95:.6g} outside "
            f"[{lower:.6g}, {upper:.6g}] from histogram p95 {hist_p95:.6g} "
            f"({count} samples)"
        )

    print(
        f"check_live_telemetry: OK ({scrapes} mid-run scrapes; "
        f"sketch p95 {sketch_p95:.4g} vs histogram p95 {hist_p95:.4g} "
        f"over {count} batches)"
    )


if __name__ == "__main__":
    main()
