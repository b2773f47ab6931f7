"""Helpers shared by run.py, its worker and its tests.

Nothing here imports the simulator: run.py must be able to fail fast
(and the unit tests must run) without ``src/`` on the path.  Percentiles
are ``numpy.percentile``'s default (linear) method.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
from pathlib import Path

#: The checkout the benchmark measures: the parent of this directory.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for reports, spans and the service's runs dir.
OUT = ROOT / ".bench_out"

#: Paper-reported suite-average flip % per scheme (keys of
#: ``repro.workloads.profiles.PAPER_TARGETS``).  invmm is not in the paper.
PAPER_FLIP_KEYS = {
    "noencr-dcw": "avg_dcw_noencr_pct",
    "noencr-fnw": "avg_fnw_noencr_pct",
    "encr-dcw": "avg_dcw_encr_pct",
    "encr-fnw": "avg_fnw_encr_pct",
    "deuce": "avg_deuce_pct",
    "dyndeuce": "avg_dyndeuce_pct",
    "deuce+fnw": "avg_deuce_fnw_pct",
    "ble": "avg_ble_pct",
    "ble+deuce": "avg_ble_deuce_pct",
}


def metric_name(scheme: str) -> str:
    """A scheme's registry name as a metric-name segment (``+`` -> ``-``)."""
    return scheme.replace("+", "-")


def beyond_count(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th percentile."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def physics_view(result: dict) -> dict:
    """``RunResult.to_dict()`` minus timing, ids and ``chunk_size``.

    What is left is the simulation's physics: every integer aggregate and
    the config knobs that change them.  Two runs of one cell must agree on
    it exactly, whatever the chunk size or the path they took.
    """
    view = {k: v for k, v in result.items() if k not in ("wall_time_s", "run_id")}
    if view.get("config") is not None:
        view["config"] = {
            k: v for k, v in view["config"].items() if k != "chunk_size"
        }
    return view


def physics_digest(result: dict) -> str:
    """A stable hash of :func:`physics_view`."""
    blob = json.dumps(physics_view(result), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def flip_pct(result: dict) -> float:
    """Modified bits per write as % of the data bits (``avg_flips_pct``)."""
    return 100.0 * result["total_flips"] / (result["n_writes"] * result["line_bits"])


def paper_flip_err_pp(cells, targets: dict) -> float:
    """Mean |measured - paper| suite-average flip % over the paper's schemes.

    ``cells`` are ``(scheme, flip_pct)`` pairs, one per distinct
    (workload, scheme) cell at the paper's default knobs; each scheme's
    measured value is its mean over the workloads it ran on.
    """
    per_scheme: dict[str, list[float]] = {}
    for scheme, pct in cells:
        if scheme in PAPER_FLIP_KEYS:
            per_scheme.setdefault(scheme, []).append(pct)
    if not per_scheme:
        raise ValueError("no cell of a scheme the paper reports")
    errs = [
        abs(sum(v) / len(v) - targets[PAPER_FLIP_KEYS[s]])
        for s, v in per_scheme.items()
    ]
    return sum(errs) / len(errs)


def cpu_seconds() -> float:
    """User plus sys CPU seconds of this process and its waited children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
