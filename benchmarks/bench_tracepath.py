"""Native ``write_batch`` kernels vs the generic ``write()`` loop, end to end.

The write-path vectorization work (``bench_writepath.py``) sped up one
``Deuce.write`` call; this benchmark measures the next layer — the runner
consuming whole trace chunks through a scheme's native ``write_batch`` /
``install_batch`` kernels, with batched pad streams and scatter-add wear
accumulation — against the generic ``WriteScheme.write_batch`` /
``install_batch``, which loop ``write()`` / ``install()``.  The generic
side is patched into the scheme class and run at the *same* chunk size,
so both sides pay the same per-chunk runner overhead and the ratio
isolates the kernel.  The two sides' repeats alternate, so a burst of
load on a shared runner lands on both rather than on one.

The suite is the regression gate's pinned config (``baselines/``:
workload mcf, 2000 writes, seed 0) for every scheme whose
``supports_write_batch`` is true, run end-to-end through
:func:`repro.sim.runner.run`.  Both sides are timed best-of-N
(simulation wall times on shared runners spread ~30%, so a single rep of
either side would make the ratio noise).  Before any ratio is reported
both sides are asserted **bit-identical** to the ``chunk_size=1``
``write()`` reference — speed that changes physics is a bug, not a win.

Results land in ``benchmarks/results/BENCH_tracepath.json`` (plus a repo-
root copy) via :func:`common.record` for CI consumption.
"""

from __future__ import annotations

import gc

from repro import registry
from repro.schemes.base import WriteScheme
from repro.sim.config import SimConfig
from repro.sim.runner import run

from .common import record

WORKLOAD = "mcf"
N_WRITES = 2_000
SEED = 0

#: Schemes with a native batch kernel; for the rest both sides would run
#: the same generic loop and measure nothing.
SCHEMES = tuple(
    spec.name for spec in registry.SCHEMES if spec.factory.supports_write_batch
)

#: The default chunk size plus the whole pinned trace as one chunk.
CHUNK_SIZES = (SimConfig("mcf", "deuce").chunk_size, N_WRITES)

#: Best-of-N repeats per (scheme, chunk_size) side.
REPEATS = 5


def _comparable(result) -> dict:
    """A result's full physics dict, minus timing and identity noise."""
    d = result.to_dict()
    d.pop("wall_time_s", None)
    d.pop("run_id", None)
    d.get("config", {}).pop("chunk_size", None)
    return d


def _best_of_both(config: SimConfig, monkeypatch, repeats: int = REPEATS):
    """Alternating native and generic runs of ``config``, best of each.

    Returns ``{side: (best wall seconds, a result)}``.  The generic side
    patches the base-class ``write_batch``/``install_batch`` into the
    scheme class for the duration of its run.
    """
    cls = registry.SCHEMES.get(config.scheme).factory
    best: dict[str, tuple] = {}
    for _ in range(repeats):
        for side in ("native", "generic"):
            gc.collect()
            with monkeypatch.context() as mp:
                if side == "generic":
                    mp.setattr(cls, "write_batch", WriteScheme.write_batch)
                    mp.setattr(cls, "install_batch", WriteScheme.install_batch)
                result = run(config)
            if side not in best or result.wall_time_s < best[side][0]:
                best[side] = (result.wall_time_s, result)
    return best


def test_tracepath_throughput(monkeypatch):
    per_scheme: dict[str, dict] = {}
    lines = []
    for scheme in SCHEMES:
        reference = _comparable(
            run(SimConfig(WORKLOAD, scheme, n_writes=N_WRITES, seed=SEED,
                          chunk_size=1))
        )
        entry: dict = {"chunked": {}}
        for chunk_size in CHUNK_SIZES:
            cfg = SimConfig(
                WORKLOAD,
                scheme,
                n_writes=N_WRITES,
                seed=SEED,
                chunk_size=chunk_size,
            )
            best = _best_of_both(cfg, monkeypatch)
            (native_s, _), (generic_s, _) = best["native"], best["generic"]
            # Parity oracle: every aggregate, histogram, and wear count
            # must match the write() reference exactly, on both sides.
            for side, (_, res) in best.items():
                assert _comparable(res) == reference, (
                    f"{scheme} {side} chunk_size={chunk_size} diverged "
                    "from the write() reference"
                )
            entry["chunked"][str(chunk_size)] = {
                "native_s": round(native_s, 6),
                "writes_per_s": round(N_WRITES / native_s),
                "generic_s": round(generic_s, 6),
                "generic_writes_per_s": round(N_WRITES / generic_s),
                "speedup": round(generic_s / native_s, 2),
            }
        # Headline: the whole pinned trace as one chunk — the fully
        # trace-compiled path the batching work targets at >= 10x.
        top = entry["chunked"][str(N_WRITES)]
        entry["writes_per_s"] = top["writes_per_s"]
        entry["generic_writes_per_s"] = top["generic_writes_per_s"]
        entry["speedup"] = top["speedup"]
        per_scheme[scheme] = entry
        chunk_cells = " | ".join(
            f"cs={cs} {c['generic_writes_per_s']:>6} -> "
            f"{c['writes_per_s']:>7} w/s ({c['speedup']:5.2f}x)"
            for cs, c in ((cs, entry["chunked"][str(cs)]) for cs in CHUNK_SIZES)
        )
        lines.append(f"{scheme:>10}: generic -> native | {chunk_cells}")

    deuce = per_scheme["deuce"]
    data = {
        "bench": "tracepath",
        "workload": WORKLOAD,
        "n_writes": N_WRITES,
        "seed": SEED,
        "chunk_sizes": list(CHUNK_SIZES),
        "repeats": REPEATS,
        "schemes": per_scheme,
        "writes_per_s": deuce["writes_per_s"],
        "generic_writes_per_s": deuce["generic_writes_per_s"],
        "speedup": deuce["speedup"],
        "target_speedup": 10.0,
        "meets_target": deuce["speedup"] >= 10.0,
    }
    record("tracepath", "\n".join(lines), data=data)
    # The batching target is 10x (recorded in meets_target); assert a
    # lower floor so a loaded CI machine doesn't flake the suite.
    assert deuce["speedup"] >= 8.0
