"""The batched fold == applying each write outcome in turn.

The write loop folds a whole chunk's outcomes into the PCM wear counts and
the run's totals at once (``PcmArray.apply_batch`` / ``apply_batch_diffs``,
``slots_for_batch`` / ``slots_for_batch_diffs`` and the runner's
``_accumulate_batch``).  The oracle here is the scalar path: random
:class:`WriteOutcome` objects applied one at a time with ``apply_write``
and ``slots_for_write``, folded with :func:`fold_one`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.memory.pcm import (
    PcmArray,
    slots_for_batch,
    slots_for_batch_diffs,
    slots_for_write,
)
from repro.schemes.base import WriteOutcome
from repro.schemes.batch import BatchOutcome
from repro.sim.results import RunResult
from repro.sim.runner import _accumulate_batch

LINE_BYTES = 64
LINE_BITS = 8 * LINE_BYTES
MODES = ("", "deuce", "fnw")


def random_outcomes(rng, n: int, meta_bits: int) -> list[WriteOutcome]:
    """``n`` outcomes over a few hot lines, sorted positions per write."""
    addresses = rng.choice(np.arange(0, 64 * 12, 64), size=n)
    outs = []
    for address in addresses.tolist():
        k = int(rng.integers(0, 40)) if rng.random() > 0.1 else 0
        data = np.sort(rng.choice(LINE_BITS, size=k, replace=False))
        km = int(rng.integers(0, meta_bits + 1))
        meta = np.sort(rng.choice(max(meta_bits, 1), size=km, replace=False))
        sets = int(rng.integers(0, k + 1))
        outs.append(
            WriteOutcome(
                address=address,
                data_flips=k,
                metadata_flips=km,
                set_flips=sets,
                reset_flips=k - sets,
                flipped_data_positions=data.astype(np.int64),
                flipped_meta_positions=meta.astype(np.int64),
                words_reencrypted=int(rng.integers(0, 33)),
                full_line_reencrypted=bool(rng.random() < 0.2),
                epoch_reset=bool(rng.random() < 0.1),
                mode_switched=bool(rng.random() < 0.1),
                mode=MODES[int(rng.integers(0, len(MODES)))],
            )
        )
    return outs


def packed_diffs(outs, meta_bits: int):
    """The ``(m, line_bytes)`` data diff and ``(m, meta_bits)`` meta diff."""
    bits = np.zeros((len(outs), LINE_BITS), dtype=np.uint8)
    meta = np.zeros((len(outs), meta_bits), dtype=bool)
    for row, o in enumerate(outs):
        bits[row, o.flipped_data_positions] = 1
        meta[row, o.flipped_meta_positions] = True
    return np.packbits(bits, axis=1), (meta if meta_bits else None)


def fold_one(result: RunResult, outcome: WriteOutcome) -> None:
    """Fold one outcome into the run totals, the scalar way."""
    result.total_flips += outcome.total_flips
    result.data_flips += outcome.data_flips
    result.meta_flips += outcome.metadata_flips
    result.set_flips += outcome.set_flips
    result.reset_flips += outcome.reset_flips
    slots = slots_for_write(outcome, LINE_BITS)
    result.total_slots += slots
    result.slot_histogram[slots] += 1
    result.total_words_reencrypted += outcome.words_reencrypted
    result.full_reencryptions += int(outcome.full_line_reencrypted)
    result.epoch_resets += int(outcome.epoch_reset)
    result.mode_switches += int(outcome.mode_switched)
    if outcome.mode:
        result.mode_histogram[outcome.mode] += 1


TOTALS = (
    "total_flips", "data_flips", "meta_flips", "set_flips", "reset_flips",
    "total_slots", "slot_histogram", "total_words_reencrypted",
    "full_reencryptions", "epoch_resets", "mode_switches", "mode_histogram",
)


def totals(result: RunResult) -> dict:
    return {name: getattr(result, name) for name in TOTALS}


def wear(pcm: PcmArray) -> tuple:
    return (
        pcm.position_writes.tolist(),
        {a: w.tolist() for a, w in sorted(pcm._line_wear.items())},
        pcm.total_writes,
        pcm.total_flips,
    )


CASES = [
    pytest.param(seed, meta_bits, rotate, per_line,
                 id=f"s{seed}-meta{meta_bits}-rot{int(rotate)}-line{int(per_line)}")
    for seed in range(3)
    for meta_bits in (0, 32)
    for rotate in (False, True)
    for per_line in (False, True)
]


@pytest.mark.parametrize("seed, meta_bits, rotate, per_line", CASES)
def test_batched_fold_matches_per_write(seed, meta_bits, rotate, per_line):
    rng = np.random.default_rng(seed)
    outs = random_outcomes(rng, 120, meta_bits)
    batch = BatchOutcome.from_outcomes(outs)
    data_diff, meta_diff = packed_diffs(outs, meta_bits)
    bits_per_line = LINE_BITS + meta_bits
    # One rotation per line, constant across the chunk (the write loop
    # cuts chunks at wear-leveler events).
    line_rot = {
        a: (int(rng.integers(0, bits_per_line)) if rotate else 0)
        for a in {o.address for o in outs}
    }
    rotations = np.array([line_rot[int(a)] for a in batch.addresses])

    def pcm():
        return PcmArray(LINE_BYTES, meta_bits, track_per_line=per_line)

    serial = pcm()
    serial_flips = sum(
        serial.apply_write(o, rotation=line_rot[o.address]) for o in outs
    )
    batched = pcm()
    assert batched.apply_batch(
        batch.addresses, batch.data_positions, batch.data_rows,
        batch.meta_positions, batch.meta_rows,
        rotations=rotations if rotate else None,
    ) == serial_flips
    assert wear(batched) == wear(serial)
    diffed = pcm()
    assert diffed.apply_batch_diffs(
        batch.addresses, data_diff, meta_diff,
        rotations=rotations if rotate else None,
    ) == serial_flips
    assert wear(diffed) == wear(serial)

    slots = [slots_for_write(o, LINE_BITS) for o in outs]
    assert slots_for_batch(
        batch.n_writes, batch.data_positions, batch.data_rows,
        batch.meta_positions, batch.meta_rows, LINE_BITS,
    ).tolist() == slots
    assert slots_for_batch_diffs(
        data_diff, meta_diff, LINE_BITS
    ).tolist() == slots

    def fresh():
        return RunResult("mcf", "x", len(outs), LINE_BITS, meta_bits)

    expected = fresh()
    for o in outs:
        fold_one(expected, o)
    from_positions = fresh()
    _accumulate_batch(from_positions, batch, LINE_BITS)
    assert totals(from_positions) == totals(expected)
    # The same batch in the packed-diff form the native kernels emit.
    diff_batch = dataclasses.replace(
        batch, data_diff=data_diff, meta_diff=meta_diff,
        _data_positions=None, _data_rows=None,
        _meta_positions=None, _meta_rows=None,
    )
    from_diffs = fresh()
    _accumulate_batch(from_diffs, diff_batch, LINE_BITS)
    assert totals(from_diffs) == totals(expected)
    # Lazy expansion of the diffs gives back the outcomes' positions.
    assert np.array_equal(diff_batch.data_positions, batch.data_positions)
    assert np.array_equal(diff_batch.data_rows, batch.data_rows)
    assert np.array_equal(diff_batch.meta_positions, batch.meta_positions)
    assert np.array_equal(diff_batch.meta_rows, batch.meta_rows)


def test_empty_outcome_list_folds_to_nothing():
    batch = BatchOutcome.from_outcomes([])
    result = RunResult("mcf", "x", 0, LINE_BITS, 0)
    _accumulate_batch(result, batch, LINE_BITS)
    assert result.total_flips == result.total_slots == 0
    assert not result.slot_histogram and not result.mode_histogram
