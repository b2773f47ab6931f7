"""End-to-end benchmark of the DEUCE simulator, driven from outside.

Usage::

    python3 e2ebench/run.py --workload paper-repro --seed 1 --seconds 20 --trace 0

Runs one workload for about ``--seconds`` seconds of repetitions and
prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics.  Every process runs on
one vCPU, beside a :class:`hostclock.HostClock` that scales each time to
a nominal host speed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    OUT,
    ROOT,
    SRC,
    beyond_count,
    flip_pct,
    metric_name,
    paper_flip_err_pp,
    physics_digest,
)
from hostclock import HostClock, pin_to_one_cpu  # noqa: E402
from spans import layer_totals  # noqa: E402

WORKLOADS = ("paper-repro", "trace-sweep", "service-jobs")
#: The registered schemes, each reported under ``schemes.<name>``.
SCHEME_NAMES = (
    "noencr-dcw", "noencr-fnw", "encr-dcw", "encr-fnw", "deuce",
    "dyndeuce", "deuce+fnw", "ble", "ble+deuce", "invmm",
)
#: Set-ups per run (the median is reported).
SETUPS = 7
#: service-jobs servers per run.  Each start is a set-up sample, and each
#: server serves an equal share of the run: a server process's own speed
#: (its hash seed, its memory layout) differs by a few per cent from the
#: next one's, and a run spread over several averages that out.
SERVICE_SERVERS = 5
#: service-jobs repetitions per server at least: 5 x 5 x 24 jobs put 60
#: latency samples beyond the p90.  Each server's peak RSS is read after
#: this many.
SERVICE_MIN_REPS = 5
#: A child that takes longer than this is hung.
CHILD_TIMEOUT_S = 150

SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); "
    "import repro.api, repro.registry, repro.sim.experiments"
)


def fail(message: str) -> None:
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def repeat(seconds: float, rep, min_reps: int = 1) -> list:
    """Call ``rep(i)`` until the next call would end past ``seconds``.

    A call is predicted to take the mean of those so far; the run stops
    when less than half of one is left, after at least ``min_reps`` calls.
    """
    t0 = time.perf_counter()
    out = []
    while True:
        out.append(rep(len(out)))
        elapsed = time.perf_counter() - t0
        if len(out) >= min_reps and elapsed + 0.5 * elapsed / len(out) > seconds:
            return out


def measure_setup(n: int, clock: HostClock) -> float:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
            timeout=CHILD_TIMEOUT_S,
        )
        t1 = time.perf_counter()
        times.append((t1 - t0) * clock.scale(t0, t1))
    return median(times)


def scale_rep(rep: dict, clock: HostClock) -> dict:
    """Scale a repetition's times by the host's speed over its window
    ``[t0, t1]``; the measured ``run_s`` and ``wall_s`` are kept as
    ``raw_run_s`` and ``raw_wall_s``."""
    piece_s = clock.piece_s(rep["t0"], rep["t1"])
    factor = clock.scale(rep["t0"], rep["t1"])
    rep.update(
        raw_run_s=rep["run_s"], raw_wall_s=rep["wall_s"], host_piece_s=piece_s,
        run_s=rep["run_s"] * factor, wall_s=rep["wall_s"] * factor,
    )
    for job in rep.get("jobs", ()):
        job["latency"] *= factor
    print(
        f"e2ebench: repetition: run_s {rep['run_s']:.4g} s (unscaled "
        f"{rep['raw_run_s']:.4g}), wall {rep['wall_s']:.4g} s, reference "
        f"piece {1e6 * piece_s:.4g} us",
        file=sys.stderr,
    )
    return rep


def run_worker(workload: str, seed: int, tag: str, traced: bool, reference: bool) -> dict:
    out = OUT / f"rep-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(out)]
    if reference:
        cmd.append("--reference")
    if traced:
        cmd += ["--spans", str(OUT / f"spans-{workload}.npz")]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    report = json.loads(out.read_text())
    out.unlink()
    return report


# -- correctness -----------------------------------------------------------------


def check_reps(reps: list[dict]) -> tuple[int, int]:
    """Within-rep checks plus: every rep's cells equal the first rep's."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    first = reps[0]["cells"]
    for rep in reps[1:]:
        for key in first.keys() | rep["cells"].keys():
            attempted += 1
            a, b = first.get(key), rep["cells"].get(key)
            failed += a is None or b is None or a["digest"] != b["digest"]
    return attempted, failed


# -- metrics ---------------------------------------------------------------------


def paper_targets() -> dict:
    sys.path.insert(0, str(SRC))
    from repro.workloads.profiles import PAPER_TARGETS

    return PAPER_TARGETS


def flip_cells(workload: str, cells: dict) -> list:
    # PAPER_TARGETS average the Table 2 suite at default knobs: KV cells
    # are not in it, and fig14 reruns default-knob configs on
    # shrunken-working-set traces of its own.
    return [
        (c["scheme"], c["flip_pct"])
        for c in cells.values()
        if c["default_knobs"] and c["spec"]
        and not (workload == "paper-repro" and c["explicit_trace"])
    ]


def with_units(values: dict, kind: str) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the metrics that
    ``BENCHMARK.json`` declares under ``kind``, with its units."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in declared}
    if units.keys() != values.keys():
        raise RuntimeError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"{sorted(units.keys() ^ values.keys())}"
        )
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def end_to_end(workload, reps, setup_s, sim_writes, flip_err, latencies, rss):
    print(
        f"e2ebench: {workload}: {len(reps)} repetition(s), {len(latencies)} jobs, "
        f"{beyond_count(len(latencies), 90)} beyond p90; unscaled run_s "
        f"{median([r['raw_run_s'] for r in reps]):.4g} s, reference piece "
        f"{1e6 * median([r['host_piece_s'] for r in reps]):.4g} us",
        file=sys.stderr,
    )
    return with_units({
        "setup_s": setup_s,
        "run_s": median([r["run_s"] for r in reps]),
        "sim_writes_per_s": median([sim_writes / r["run_s"] for r in reps]),
        "peak_rss_mb": rss,
        "paper_flip_err_pp": flip_err,
        "job_latency_p50_s": median(latencies),
        "job_latency_p90_s": float(np.percentile(latencies, 90)),
    }, "end_to_end")


def layer_metrics(stats: dict, extra: dict) -> dict:
    """The per-layer metrics from one traced repetition's span stats."""
    totals = layer_totals(stats)

    def self_s(layer):
        return totals.get(layer, {}).get("self_s", 0.0)

    def incl_s(layer):
        return totals.get(layer, {}).get("incl_s", 0.0)

    def count(name):
        return stats.get(name, {}).get("count", 0)

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    m = {
        "workloads.generator.self_s": self_s("workloads.generator"),
        "workloads.generator.writes_per_s": rate(
            count("workloads.generator"), incl_s("workloads.generator")
        ),
        "workloads.kv.self_s": self_s("workloads.kv"),
        "workloads.kv.requests_per_s": rate(
            count("workloads.kv:request"), incl_s("workloads.kv")
        ),
        "memory.cache.self_s": self_s("memory.cache"),
        "memory.cache.writebacks_per_request": rate(
            count("workloads.kv:trace"), count("workloads.kv:request")
        ),
    }
    all_writes = batched = 0
    for scheme in SCHEME_NAMES:
        layer = "schemes." + metric_name(scheme)
        writes = count(layer) + count(layer + ":batch")
        all_writes += writes
        batched += count(layer + ":batch")
        m[layer + ".self_s"] = self_s(layer)
        m[layer + ".writes_per_s"] = rate(writes, incl_s(layer))
    m["schemes.batched_frac"] = rate(batched, all_writes)
    m.update({
        "crypto.pads.self_s": self_s("crypto.pads"),
        "crypto.pads.lines": count("crypto.pads"),
        "crypto.pads.cache_hit_ratio": rate(
            extra["pad_hits"], extra["pad_hits"] + extra["pad_misses"]
        ),
        "memory.pcm.self_s": self_s("memory.pcm"),
        "memory.pcm.writes": count("memory.pcm"),
        "wear.self_s": self_s("wear"),
        "sim.runner.self_s": self_s("sim.runner"),
        "sim.runner.calls": count("sim.runner"),
        "sim.experiments.self_s": self_s("sim.experiments"),
        "sim.experiments.cells_total": extra["cells_total"],
        "sim.experiments.cells_distinct": extra["cells_distinct"],
        "sim.experiments.distinct_ratio": rate(
            extra["cells_distinct"], extra["cells_total"]
        ),
        "perf.self_s": self_s("perf"),
        "api.session.self_s": self_s("api.session"),
        "obs.ledger.self_s": self_s("obs.ledger"),
        "obs.ledger.records": count("obs.ledger:record"),
        "service.queue_wait_s": extra.get("service.queue_wait_s", 0.0),
        "service.exec_s": extra.get("service.exec_s", 0.0),
        "service.requests": extra.get("service.requests", 0),
        "service.rejected": extra.get("service.rejected", 0),
        "bench.attributed_frac": rate(stats[""]["incl_s"], extra["wall_s"]),
    })
    return m


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Median per-layer metrics over the traced repetitions, plus the
    tracing overhead against the untraced ones."""
    rows = [r["layers"] for r in traced]
    out = {k: median([row[k] for row in rows]) for k in rows[0]}
    out["bench.tracing_overhead_frac"] = (
        median([r["run_s"] for r in traced]) / median([r["run_s"] for r in untraced])
        - 1.0
    )
    out["bench.raw_run_s"] = median([r["raw_run_s"] for r in untraced])
    out["bench.host_piece_us"] = 1e6 * median([r["host_piece_s"] for r in untraced])
    return with_units(out, "per_layer")


# -- workloads -------------------------------------------------------------------


def simulator_workload(args, clock: HostClock) -> dict:
    def rep(i: int, traced: bool) -> dict:
        # The per-write reference runs once per run, in the first
        # repetition; check_reps holds every later one to the first.
        r = run_worker(
            args.workload, args.seed, f"{i}-{int(traced)}", traced, reference=i == 0
        )
        if traced:
            cells = r["cells"].values()
            r["layers"] = layer_metrics(r["spans"], {
                "pad_hits": sum(c["pad_hits"] for c in cells),
                "pad_misses": sum(c["pad_misses"] for c in cells),
                "cells_total": r["runs"],
                "cells_distinct": len(r["cells"]),
                "wall_s": r["wall_s"],
            })
        return scale_rep(r, clock)

    if args.trace:
        pairs = repeat(args.seconds, lambda i: (rep(2 * i, False), rep(2 * i + 1, True)))
        untraced = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
        attempted, failed = check_reps(untraced + traced)
        return result(attempted, failed, per_layer(untraced, traced))

    setup_s = measure_setup(SETUPS, clock)
    reps = repeat(args.seconds, lambda i: rep(i, False))
    attempted, failed = check_reps(reps)
    cells = reps[0]["cells"]
    metrics = end_to_end(
        args.workload, reps, setup_s,
        sim_writes=sum(c["n_writes"] for c in cells.values()),
        flip_err=paper_flip_err_pp(flip_cells(args.workload, cells), paper_targets()),
        # A job is one repetition: what a user runs as one command.
        latencies=[r["wall_s"] for r in reps],
        rss=median([r["peak_rss_mb"] for r in reps]),
    )
    return result(attempted, failed, metrics)


def service_workload(args, clock: HostClock) -> dict:
    import service

    def reps_on(server, seconds: float, min_reps: int = 1) -> list[dict]:
        return repeat(
            seconds, lambda i: scale_rep(service.repetition(server, args.seed), clock),
            min_reps,
        )

    configs = service.job_configs(args.seed)
    if args.trace:
        server, _ = service.start_warm(args.seed, "plain")
        try:
            untraced = reps_on(server, args.seconds / 2)
        finally:
            server.stop()
        spans_out = OUT / "spans-service-jobs.npz"
        server, _ = service.start_warm(args.seed, "traced", str(spans_out))
        try:
            before = server.metrics()
            t0 = time.perf_counter()
            traced = reps_on(server, args.seconds / 2)
            after = server.metrics()
        finally:
            server.stop()
        import spans

        reference = service.local_results(configs)
        data = dict(np.load(spans_out))
        names = [str(n) for n in data.pop("names")]
        data = spans.select(data, data["start"] >= t0)
        # One span dump and one metrics delta cover every traced
        # repetition; scale the totals to one repetition.
        n = len(traced)
        stats = {
            name: {k: v / n for k, v in s.items()}
            for name, s in spans.span_stats(names, data).items()
        }
        jobs = [j for r in traced for j in r["jobs"]]
        extra = service.service_layer(before, after)
        extra["service.requests"] /= n
        extra["service.rejected"] /= n
        extra.update({
            "pad_hits": sum(j["result"]["pad_hits"] for j in jobs if j["result"]),
            "pad_misses": sum(j["result"]["pad_misses"] for j in jobs if j["result"]),
            "cells_total": 0,
            "cells_distinct": 0,
            # Spans are unscaled wall-clock intervals.
            "wall_s": sum(r["raw_wall_s"] for r in traced) / n,
        })
        layers = layer_metrics(stats, extra)
        for r in traced:
            r["layers"] = layers
        attempted, failed = check_jobs(untraced + traced, reference)
        return result(attempted, failed, per_layer(untraced, traced))

    setups, reps, rss = [], [], []
    for i in range(SERVICE_SERVERS):
        server, (t0, t1) = service.start_warm(args.seed, f"run{i}")

        def rep(i: int) -> dict:
            r = scale_rep(service.repetition(server, args.seed), clock)
            if i == SERVICE_MIN_REPS - 1:
                # The server keeps every job it ran, so its peak grows with
                # the job count: read it after a fixed number of repetitions.
                rss.append(server.peak_rss_mb())
            return r

        try:
            setups.append((t1 - t0) * clock.scale(t0, t1))
            reps += repeat(args.seconds / SERVICE_SERVERS, rep, SERVICE_MIN_REPS)
        finally:
            server.stop()
    reference = service.local_results(configs)
    attempted, failed = check_jobs(reps, reference)
    metrics = end_to_end(
        args.workload, reps, median(setups),
        sim_writes=sum(c["n_writes"] for c in configs),
        flip_err=paper_flip_err_pp(
            [(r["scheme"], flip_pct(r)) for r in reference.values()], paper_targets()
        ),
        latencies=[j["latency"] for r in reps for j in r["jobs"]],
        rss=median(rss),
    )
    return result(attempted, failed, metrics)


def check_jobs(reps: list[dict], reference: dict) -> tuple[int, int]:
    """Every job's result against a local ``Session.run`` of its config."""
    digests = {key: physics_digest(r) for key, r in reference.items()}
    attempted = failed = 0
    for rep in reps:
        for job in rep["jobs"]:
            attempted += 1
            key = json.dumps(job["config"], sort_keys=True)
            failed += job["result"] is None or (
                physics_digest(job["result"]) != digests[key]
            )
    return attempted, failed


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no simulator source at {SRC}")
    OUT.mkdir(exist_ok=True)
    pin_to_one_cpu()
    with HostClock() as clock:
        if args.workload == "service-jobs":
            report = service_workload(args, clock)
        else:
            report = simulator_workload(args, clock)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
