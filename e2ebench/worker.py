"""One repetition of a simulator workload, in a fresh process.

Usage: ``python3 e2ebench/worker.py WORKLOAD SEED OUT.json [--reference] [--spans SPANS.npz]``

Runs the workload's fixed work once, cold (a new interpreter has an empty
trace cache), timing it by this process's CPU seconds.  Every ``run()``
call is captured on the way; after the timed part the worker checks each
distinct cell's physics digest against the cell's other runs and, with
``--reference``, each batch-capable scheme's cells against a
``chunk_size=1`` per-write reference (run.py asks for that once per run;
later repetitions are checked against the first).  With ``--spans`` the
layer wrappers of :mod:`spans` are installed for the timed part and the
spans are saved to ``SPANS.npz``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, cpu_seconds, flip_pct, peak_rss_mb, physics_digest  # noqa: E402

sys.path.insert(0, str(SRC))

from repro.api import Session  # noqa: E402
from repro.sim.config import SimConfig  # noqa: E402
from repro.sim.experiments import EXPERIMENTS  # noqa: E402
from repro.registry import SCHEMES  # noqa: E402
from repro.sim import runner  # noqa: E402
from repro.workloads import trace as trace_module  # noqa: E402
from repro.workloads.profiles import WORKLOAD_NAMES  # noqa: E402

import spans  # noqa: E402

#: Writes per cell.  paper-repro stays small because its 12 exhibits
#: carry fixed costs (working-set install, perf.system) per cell.
PAPER_WRITES = 100
#: Instructions fig16/fig17 hand perf.system per cell (the default is
#: 1M, which alone would take most of a repetition).
PAPER_INSTRUCTIONS = 200_000
SPEC_WRITES = 2000
#: Long enough for every KV trace to reach its steady phase after populate.
KV_WRITES = 4000
#: Two Table 2 traces with different write footprints: mcf's writes are
#: sparse, Gems rewrites whole lines.  Every scheme runs on both.
SPEC_TRACES = ("mcf", "Gems")
KV_TRACES = ("kv-udb", "kv-zippydb", "kv-etc", "kv-cache")
KV_SCHEMES = ("deuce", "encr-fnw", "dyndeuce")


def paper_repro(seed: int) -> None:
    session = Session(ledger=False)
    for name in EXPERIMENTS:
        session.experiment(
            name, n_writes=PAPER_WRITES, seed=seed,
            instructions=PAPER_INSTRUCTIONS,
        )


def _trace_sweep(traces, schemes, n_writes: int, seed: int) -> None:
    session = Session(ledger=False)
    for workload in traces:
        # Looked up on the module at call time, where the tracer wraps it.
        trace = trace_module.generate_trace(workload, n_writes, seed=seed)
        for scheme in schemes:
            session.run(SimConfig(workload, scheme, n_writes, seed), trace=trace)


def trace_sweep(seed: int) -> None:
    _trace_sweep(SPEC_TRACES, SCHEMES.names, SPEC_WRITES, seed)
    _trace_sweep(KV_TRACES, KV_SCHEMES, KV_WRITES, seed)


WORKLOADS = {
    "paper-repro": paper_repro,
    "trace-sweep": trace_sweep,
}


def trace_key(trace) -> str:
    """Fingerprint of an explicitly passed trace ("" for generated ones)."""
    if trace is None:
        return ""
    h = hashlib.sha256()
    for arr in (*trace.initial_arrays(), *trace.write_arrays()):
        h.update(arr.tobytes())
    h.update(repr(trace.phases).encode())
    return h.hexdigest()


def check_cells(captured: list, reference: bool) -> dict:
    """Digest every captured run and compare the runs of each cell.

    A cell is a (physics config, trace) pair.  Every run of a cell must
    match its first run.  With ``reference``, the first run of a
    batch-capable scheme must also match a fresh ``chunk_size=1`` run on
    the per-write path.
    """
    cells: dict[str, dict] = {}
    attempted = failed = 0
    for config, trace, result in captured:
        payload = result.to_dict()
        digest = physics_digest(payload)
        cfg = dict(payload["config"])
        cfg.pop("chunk_size", None)
        key = hashlib.sha256(
            (json.dumps(cfg, sort_keys=True) + trace_key(trace)).encode()
        ).hexdigest()
        cell = cells.get(key)
        if cell is None:
            cells[key] = {
                "digest": digest,
                "scheme": config.scheme,
                "workload": config.workload,
                "n_writes": result.n_writes,
                "flip_pct": flip_pct(payload),
                "default_knobs": config == SimConfig(
                    config.workload, config.scheme, config.n_writes, config.seed,
                    workload_params=config.workload_params,
                ),
                "explicit_trace": trace is not None,
                # A Table 2 trace: the paper's averages are over these.
                "spec": config.workload in WORKLOAD_NAMES,
                "pad_hits": result.pad_hits,
                "pad_misses": result.pad_misses,
            }
            if reference and SCHEMES.get(config.scheme).factory.supports_write_batch:
                ref = runner.run(config.with_(chunk_size=1), trace=trace)
                attempted += 1
                failed += physics_digest(ref.to_dict()) != digest
        else:
            attempted += 1
            failed += digest != cell["digest"]
    return {"cells": cells, "attempted": attempted, "failed": failed,
            "runs": len(captured)}


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    reference = "--reference" in argv[3:]
    spans_out = argv[argv.index("--spans") + 1] if "--spans" in argv else None
    work = WORKLOADS[workload]

    captured: list = []

    def capture(run):
        def capturing_run(config=None, trace=None, *args, **kwargs):
            result = run(config, trace, *args, **kwargs)
            captured.append((result.config, trace, result))
            return result

        return capturing_run

    real_run = spans.replace_function("repro.sim.runner", "run", capture)
    recorder = None
    if spans_out:
        recorder = spans.SpanRecorder()
        spans.install_tracing(recorder)

    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    work(seed)
    run_s = cpu_seconds() - cpu0
    wall_s = time.perf_counter() - wall0
    rss = peak_rss_mb()

    # perf_counter is system-wide, so run.py can match this window with
    # the host-speed samples it took meanwhile.
    report = {"run_s": run_s, "wall_s": wall_s, "peak_rss_mb": rss,
              "t0": wall0, "t1": wall0 + wall_s}
    if recorder is not None:
        data = recorder.save(spans_out)
        report["spans"] = spans.span_stats(recorder.names, data)
    # The reference runs below must neither be captured nor traced.
    runner.run = real_run
    report.update(check_cells(captured, reference))
    out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
