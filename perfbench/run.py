"""threadalg benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload extract --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`.  The client sends CLI queries back to back, each an in-process
call of `threadalg.cli.main(argv)` with stdout and stderr captured.
A query fails on a nonzero exit, an exception, any stderr output or a
failed output check; checks run outside the timed region.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json;
`--trace 1` replays the workload once untraced and then with the spans
and counters of spans.py, and reports the per-layer metrics.  Every
metric is printed by name with its unit and sample count; the last
stdout line is the JSON result.  `--pin` stores the per-query stdout
digests of this seed in pinned.json, which later runs of the same seed
must match.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINNED = BENCH / "pinned.json"
LAYERS = BENCH / "layers.json"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import TIMED, Tracer  # noqa: E402

SETUP_REPEATS = 15


def measure_setup() -> float:
    """Median import time of `threadalg.cli` over fresh interpreters, in
    reference seconds (speed.py): each interpreter times the calibration
    loop before and after its import.

    One unmeasured import first leaves compiled bytecode behind, as an
    installed package has it.
    """
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:3]; "
        "from speed import calibrate, scale; "
        "c = calibrate() + calibrate(); "
        "t = time.perf_counter(); import threadalg.cli; "
        "t = time.perf_counter() - t; "
        "print(t * scale((c + calibrate() + calibrate()) / 4))"
    )
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", code, str(BENCH), str(SRC)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        if i:
            times.append(float(done.stdout))
    return statistics.median(times)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Client:
    """Plays a workload's rounds and checks every answer."""

    def __init__(self, pkg, workload, pinned):
        self.pkg = pkg
        self.workload = workload
        self.pinned = pinned
        self.digests = {}
        self.failures = []
        self.tracer = None

    def ask(self, query):
        """Run one query; returns (seconds, failure reason or None)."""
        out, err = io.StringIO(), io.StringIO()
        exc = None
        # Each CLI call of a user starts in a fresh process: collect the
        # previous queries' garbage now, so that no query pays for it.
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.pkg.cli.main(list(query.argv))
            except Exception as e:  # a traceback the CLI let through
                code, exc = None, e
            elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.active = False
        try:
            return elapsed, self._judge(query, code, exc, out.getvalue(), err.getvalue())
        finally:
            if self.tracer is not None:
                self.tracer.active = True

    def _judge(self, query, code, exc, stdout, stderr):
        if exc is not None:
            return f"{type(exc).__name__}: {str(exc)[:120]}"
        if code != 0:
            return f"exit {code}: {stderr.strip()[:120]}"
        if stderr:
            return f"stderr: {stderr.strip()[:120]}"
        d = digest(stdout)
        first = self.digests.get(query.qid)
        if first is not None:
            return None if d == first else "stdout differs from the first run"
        self.digests[query.qid] = d
        pinned = self.pinned.get(query.qid)
        if pinned is not None and pinned != d:
            return f"stdout digest {d} differs from the pinned {pinned}"
        return checks.check_output(query, stdout, self.pkg)

    def play(self, seconds, on_start=None, rounds=None, calibrated=False):
        """Closed loop: queries back to back, in whole rounds, until
        `seconds` of query time have passed and every round ran once, or
        for exactly `rounds` rounds.  Whole rounds keep every run's query
        mix the same.  Returns (query, seconds, failure) records; with
        `calibrated`, the calibration of speed.py runs between queries
        and the seconds are reference seconds."""
        records = []
        speeds = [speed.calibrate()] if calibrated else []
        busy = 0.0
        played = 0
        cycle = self.workload.rounds
        while played < rounds if rounds is not None else (
            played < len(cycle) or busy < seconds
        ):
            for query in cycle[played % len(cycle)]:
                if on_start is not None:
                    on_start(len(records))
                elapsed, failure = self.ask(query)
                if calibrated:
                    speeds.append(speed.calibrate())
                busy += elapsed
                records.append((query, elapsed, failure))
                if failure is not None:
                    self.failures.append((query.qid, failure))
            played += 1
        if calibrated:
            self.raw_times = [elapsed for _, elapsed, _ in records]
            scaled = speed.reference_times(self.raw_times, speeds)
            records = [
                (q, t, failure) for (q, _, failure), t in zip(records, scaled)
            ]
        return records

    def combined_digest(self) -> str:
        lines = "".join(f"{q} {d}\n" for q, d in sorted(self.digests.items()))
        return digest(lines)


def _growth(workload, records):
    """log2 of the time ratio between the two growth classes: the median
    over inputs of each input's own ratio where the queries come in pairs
    over one input, else the ratio of the two classes' medians."""
    small, large = workload.growth_classes
    by = {small: [], large: []}
    for q, elapsed, _ in records:
        if q.size_class in by:
            by[q.size_class].append((q.pair, elapsed))
    if all(pair is not None for queries in by.values() for pair, _ in queries):
        waiting = {}
        for pair, elapsed in by[small]:
            waiting.setdefault(pair, []).append(elapsed)
        ratios = [
            math.log2(elapsed / waiting[pair].pop(0))
            for pair, elapsed in by[large] if waiting.get(pair)
        ]
        return statistics.median(ratios), len(ratios)
    medians = [statistics.median(e for _, e in by[c]) for c in (small, large)]
    return math.log2(medians[1] / medians[0]), min(len(by[small]), len(by[large]))


def end_to_end(client, seconds):
    setup = measure_setup()
    # the first query once, untimed, so lazy set-up in the program is done;
    # then what lives now is frozen, so that the collection before each
    # query only walks what later queries made
    warmup = client.workload.rounds[0][0]
    client.ask(warmup)
    gc.freeze()
    records = client.play(seconds, calibrated=True)
    times = [elapsed for _, elapsed, _ in records]
    raw = client.raw_times
    print(f"raw wall p50 {statistics.median(raw):.6g} s, "
          f"p90 {statistics.quantiles(raw, n=10)[8]:.6g} s, "
          f"{len(raw) / sum(raw):.6g} queries/s")
    failed = sum(1 for *_, failure in records if failure is not None)
    growth, growth_n = _growth(client.workload, records)
    n = len(times)
    metrics = {
        "query_s.p50": (statistics.median(times), "s", n),
        "query_s.p90": (statistics.quantiles(times, n=10)[8], "s", n),
        "queries_per_s": (n / sum(times), "1/s", n),
        "growth": (growth, "log2", growth_n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "ok_ratio": ((n - failed) / n, "ratio", n),
        "setup_s": (setup, "s", SETUP_REPEATS),
    }
    return records, failed, metrics


def per_layer(client, seconds, layers, spans_file):
    """One untraced round, then the traced loop; the first traced round
    repeats the untraced one, which gives the tracing overhead."""
    name = client.workload.name
    untraced = client.play(0, rounds=1)
    tracer = Tracer()
    tracer.install(client.pkg)
    client.tracer = tracer
    tracer.active = True
    try:
        def on_start(index):
            tracer.query = index

        records = client.play(seconds, on_start)
    finally:
        tracer.active = False
        client.tracer = None
        tracer.uninstall()
    n = len(records)
    # the untraced pass checked each query's first answer: its failures count too
    failed = sum(1 for *_, failure in untraced + records if failure is not None)
    period = len(untraced)
    overhead = (
        sum(e for _, e, _ in records[:period]) / sum(e for _, e, _ in untraced) - 1
    )
    traced_wall = sum(e for _, e, _ in records)

    selfs = tracer.self_times()
    metrics = {"trace_overhead": (overhead, "ratio", period)}
    for key in TIMED:
        metrics[f"{key}.self_s"] = (selfs.get(key, 0.0) / n, "s/query", n)
        metrics[f"{key}.errors"] = (tracer.errors.get(key, 0), "count", n)
    for key, value in tracer.counts.items():
        metrics[key] = (value / n, "count/query", n)
    for key, value in tracer.peaks.items():
        metrics[key] = (value, "ratio" if key.endswith("share") else "bits", n)

    seen = tracer.layers_seen()
    coverage = []
    for layer, row in layers.items():
        if name in row["workloads"] and layer not in seen:
            coverage.append(f"layer {layer} recorded no span or count on {name}")
    for reason in coverage:
        client.failures.append(("coverage", reason))

    share = {k: v / traced_wall for k, v in selfs.items()}
    claims = {
        "dist": ("threads.normalize self share < 0.05",
                 share.get("threads.normalize", 0) < 0.05),
        "extract": ("abstract_tau + normalize self share > 0.5",
                    share.get("interaction.abstract_tau", 0)
                    + share.get("threads.normalize", 0) > 0.5),
        "interleave": ("interleave + normalize self share > 0.5",
                       share.get("interleaving.interleave", 0)
                       + share.get("threads.normalize", 0) > 0.5),
    }
    text, ok = claims[name]
    print(f"design {name}: {text}: {'holds' if ok else 'DOES NOT HOLD'}")
    for key, value in sorted(share.items(), key=lambda kv: -kv[1]):
        print(f"self share {key} = {value:.4f}")

    spans_file.parent.mkdir(exist_ok=True)
    tracer.write(spans_file)
    return untraced + records, failed + len(coverage), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="store this seed's stdout digests in pinned.json")
    args = parser.parse_args(argv)

    if not (SRC / "threadalg" / "cli.py").is_file():
        print(f"error: no threadalg sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads(LAYERS.read_text())
    sys.path.insert(0, str(SRC))
    import threadalg
    import threadalg.cli  # noqa: F401

    pinned_all = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
    pin = pinned_all.get(args.workload, {})
    pinned = pin.get("queries", {}) if pin.get("seed") == args.seed and not args.pin else {}

    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        client = Client(threadalg, workload, pinned)
        if args.trace:
            spans_file = BENCH / "out" / f"spans-{args.workload}-{args.seed}.csv"
            records, failed, metrics = per_layer(client, args.seconds, layers, spans_file)
            wanted = spec["per_layer"]
        else:
            records, failed, metrics = end_to_end(client, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for qid, reason in client.failures[:20]:
        print(f"FAILED {qid}: {reason}")
    print(f"stdout digest {args.workload} seed {args.seed}: {client.combined_digest()}"
          f" over {len(client.digests)} queries"
          + (" (pinned)" if pinned else ""))
    if args.pin:
        pinned_all[args.workload] = {"seed": args.seed, "queries": dict(sorted(client.digests.items()))}
        PINNED.write_text(json.dumps(pinned_all, indent=1, sort_keys=True) + "\n")

    result = {}
    for m in wanted:
        value, unit, count = metrics.get(m["name"], (0, m["unit"], 0))
        if unit != m["unit"]:
            raise SystemExit(f"metric {m['name']} measured in {unit}, declared {m['unit']}")
        print(f"metric {m['name']} = {value:.6g} {unit} (n={count})")
        result[m["name"]] = {"value": value, "unit": unit}
    print(f"metric failed_ops = {failed / len(records):.6g} ratio "
          f"({failed} of {len(records)} queries)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
