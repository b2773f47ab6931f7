"""Unit tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest e2ebench/tests -q``.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import spans  # noqa: E402
from common import (  # noqa: E402
    beyond_count,
    metric_name,
    paper_flip_err_pp,
    physics_digest,
    physics_view,
)


def test_beyond_count():
    # 110 samples: the p90 sits at index 98.1, so 11 lie beyond it.
    assert beyond_count(110, 90) == 11
    assert beyond_count(10, 90) == 1
    data = list(range(110))
    assert sum(x > np.percentile(data, 90) for x in data) == beyond_count(110, 90)


def _result(**overrides):
    result = {
        "workload": "mcf",
        "scheme": "deuce",
        "n_writes": 100,
        "line_bits": 512,
        "total_flips": 12000,
        "wall_time_s": 0.25,
        "run_id": "run-1",
        "config": {"workload": "mcf", "scheme": "deuce", "chunk_size": 512},
    }
    result.update(overrides)
    return result


def test_physics_digest_ignores_timing_ids_and_chunk_size():
    base = _result()
    other = _result(
        wall_time_s=9.0,
        run_id="run-2",
        config={"workload": "mcf", "scheme": "deuce", "chunk_size": 1},
    )
    assert physics_digest(base) == physics_digest(other)
    assert "chunk_size" not in physics_view(base)["config"]
    assert "wall_time_s" not in physics_view(base)


def test_physics_digest_sees_physics():
    base = _result()
    assert physics_digest(base) != physics_digest(_result(total_flips=12001))
    changed = _result(config={"workload": "mcf", "scheme": "deuce", "chunk_size": 512,
                              "word_bytes": 4})
    assert physics_digest(base) != physics_digest(changed)


def test_physics_digest_without_config():
    assert physics_digest(_result(config=None)) == physics_digest(
        _result(config=None, wall_time_s=1.0)
    )


def test_metric_name_mapping():
    assert metric_name("deuce+fnw") == "deuce-fnw"
    assert metric_name("ble+deuce") == "ble-deuce"
    assert metric_name("encr-dcw") == "encr-dcw"


def test_paper_flip_err_pp():
    targets = {"avg_deuce_pct": 23.7, "avg_dcw_encr_pct": 50.0}
    cells = [("deuce", 20.0), ("deuce", 22.0), ("encr-dcw", 51.0), ("invmm", 9.0)]
    # deuce: |21.0 - 23.7| = 2.7, encr-dcw: 1.0; invmm is not in the paper.
    assert paper_flip_err_pp(cells, targets) == pytest.approx((2.7 + 1.0) / 2)
    with pytest.raises(ValueError):
        paper_flip_err_pp([("invmm", 9.0)], targets)


def _tree():
    """root(0..10) -> a(1..4) -> c(2..3); root -> b(5..9), plus a lone d(12..13).

    Names: root=0, a=1 ("x:op"), b=2 ("x"), c=3 ("y"), d=4 ("y").
    """
    names = ["root", "x:op", "x", "y"]
    data = {
        "name": np.array([0, 1, 3, 2, 3], dtype=np.int32),
        "parent": np.array([-1, 0, 1, 0, -1], dtype=np.int64),
        "start": np.array([0.0, 1.0, 2.0, 5.0, 12.0]),
        "end": np.array([10.0, 4.0, 3.0, 9.0, 13.0]),
        "count": np.array([0, 3, 1, 2, 4], dtype=np.int64),
    }
    return names, data


def test_span_self_time_on_hand_built_tree():
    names, data = _tree()
    stats = spans.span_stats(names, data)
    # root: 10 - (3 + 4) = 3; a: 3 - 1 = 2; b: 4; c: 1; d: 1.
    assert stats["root"]["self_s"] == pytest.approx(3.0)
    assert stats["x:op"]["self_s"] == pytest.approx(2.0)
    assert stats["x"]["self_s"] == pytest.approx(4.0)
    assert stats["y"]["self_s"] == pytest.approx(2.0)
    assert stats["y"]["count"] == 5
    assert stats["y"]["spans"] == 2
    # Root spans cover 10 + 1 seconds.
    assert stats[""]["incl_s"] == pytest.approx(11.0)
    totals = spans.layer_totals(stats)
    assert totals["x"]["self_s"] == pytest.approx(6.0)
    assert totals["x"]["incl_s"] == pytest.approx(7.0)
    # Self times partition the covered time.
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(11.0)


def test_nested_span_of_same_layer_is_not_outermost():
    names = ["x", "x:op"]
    data = {
        "name": np.array([0, 1], dtype=np.int32),
        "parent": np.array([-1, 0], dtype=np.int64),
        "start": np.array([0.0, 1.0]),
        "end": np.array([4.0, 2.0]),
        "count": np.array([0, 0], dtype=np.int64),
    }
    stats = spans.span_stats(names, data)
    assert stats["x"]["incl_s"] == pytest.approx(4.0)
    assert stats["x:op"]["incl_s"] == 0.0


def test_select_reroots_orphans():
    names, data = _tree()
    kept = spans.select(data, data["start"] >= 1.5)
    # c (parent a dropped), b and d (parent root dropped) become roots.
    assert kept["parent"].tolist() == [-1, -1, -1]
    assert spans.span_stats(names, kept)["y"]["self_s"] == pytest.approx(2.0)


def test_recorder_parents_counts_and_threads():
    import threading

    rec = spans.SpanRecorder()

    def leaf(n):
        return list(range(n))

    leaf = rec.wrap(leaf, "leaf", lambda args, result: len(result))

    def outer():
        return leaf(3) + leaf(2)

    outer = rec.wrap(outer, "outer")
    outer()
    t = threading.Thread(target=outer)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    data = rec.arrays()
    stats = spans.span_stats(rec.names, data)
    assert stats["outer"]["spans"] == 2
    assert stats["leaf"]["spans"] == 4
    assert stats["leaf"]["count"] == 10
    roots = data["parent"] < 0
    assert [rec.names[i] for i in data["name"][roots]] == ["outer", "outer"]
    assert stats[""]["incl_s"] == pytest.approx(stats["outer"]["incl_s"])


def test_recorder_counts_a_delegating_subclass_once():
    rec = spans.SpanRecorder()

    class Base:
        def write(self):
            return 1

    class Child(Base):
        def write(self):
            return super().write()

    one = lambda _args, _result: 1  # noqa: E731
    Base.write = rec.wrap(Base.write, lambda cls: "schemes.x", one)
    Child.write = rec.wrap(Child.write, lambda cls: "schemes.x", one)
    Child().write()
    stats = spans.span_stats(rec.names, rec.arrays())
    assert stats["schemes.x"]["spans"] == 2
    assert stats["schemes.x"]["count"] == 1


def test_steady_spread_uses_statistics_quartiles():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from steady import spread

    values = [10.0, 11.0, 9.0, 10.5, 10.2, 9.8, 10.1, 9.9, 10.3, 10.4]
    med, q1, q3, s = spread(values)
    qs = statistics.quantiles(values, n=4)
    assert (q1, q3) == (qs[0], qs[2])
    assert s == pytest.approx((qs[2] - qs[0]) / statistics.median(values))


def test_mean_piece_s_inside_and_nearest():
    from hostclock import MIN_PIECES, mean_piece_s

    ends = np.arange(20, dtype=float)
    durations = np.where(ends < 10, 1.0, 2.0)
    # Twelve pieces end within [8, 19]: two at 1.0 and ten at 2.0.
    assert mean_piece_s(ends, durations, 8.0, 19.0) == pytest.approx(22.0 / 12)
    # Only one piece ends in [4.5, 5.5]: the MIN_PIECES nearest 5.0 are
    # used, all of them before the change at 10.
    assert MIN_PIECES <= 10
    assert mean_piece_s(ends, durations, 4.5, 5.5) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        mean_piece_s(ends[:MIN_PIECES - 1], durations[:MIN_PIECES - 1], 0.0, 5.0)


def test_host_clock_scales_to_the_nominal_piece():
    import time

    from hostclock import MIN_PIECES, NOMINAL_PIECE_S, PERIOD_S, HostClock

    with HostClock() as clock:
        # Entering waits for enough samples to scale an interval at once.
        now = time.perf_counter()
        assert clock.scale(now, now) > 0
        t0 = time.perf_counter()
        time.sleep(PERIOD_S * (MIN_PIECES + 4))
        t1 = time.perf_counter()
        piece = clock.piece_s(t0, t1)
        assert piece > 0
        assert clock.scale(t0, t1) == pytest.approx(NOMINAL_PIECE_S / piece)
