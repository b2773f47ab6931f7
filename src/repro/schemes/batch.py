"""Batched write outcomes and the shared chunk vectorization machinery.

The chunked write path hands a scheme a whole slice of the trace at once —
``(addresses, data)`` arrays covering up to ``chunk_size`` consecutive
writebacks — and gets back one :class:`BatchOutcome` describing every write's
cell-level effect.  The contract mirrors :class:`~repro.schemes.base
.WriteOutcome` exactly, just in structure-of-arrays form, so the runner can
fold a chunk into the aggregates with scatter-adds instead of per-write
Python.

The helpers here implement the address-group plumbing every batchable scheme
shares: stable-sort the chunk by address so each line's writes become one
contiguous run, carry the per-line stored image through the run with
shift-by-one previous-row gathers, and diff consecutive stored images into
flip counts and bit positions in one wide pass.  Rows of a
:class:`BatchOutcome` are in the scheme's internal (sorted) order — every
consumer aggregates over the chunk, so row order never affects results.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.memory import bitops

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_BOOL = np.zeros(0, dtype=bool)

# Ragged lookup tables for set-bit extraction: for each byte value, the
# MSB-first indices of its set bits (matching ``np.unpackbits`` order),
# concatenated, with per-value offsets and counts.  Extracting flipped
# positions through these tables touches only the nonzero diff bytes
# instead of unpacking the whole chunk to bits.
_BITS_TABLE = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
_BIT_COUNTS = _BITS_TABLE.sum(axis=1).astype(np.int64)
_BIT_OFFSETS = np.zeros(257, dtype=np.int64)
np.cumsum(_BIT_COUNTS, out=_BIT_OFFSETS[1:])
_BIT_INDICES = np.nonzero(_BITS_TABLE)[1].astype(np.int64)
del _BITS_TABLE


def bit_positions(diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and bit positions of every set bit in a ``(m, n)`` byte diff.

    Identical output (values and order) to
    ``np.nonzero(np.unpackbits(diff, axis=1))`` but sparse: only the nonzero
    bytes are expanded, via the ragged per-byte-value tables above.  On
    realistic write chunks (a few flipped words per line) this is several
    times faster than unpacking every byte.
    """
    flat = np.flatnonzero(diff)
    if flat.size == 0:
        return _EMPTY_I64, _EMPTY_I64
    nz = diff.reshape(-1)[flat]
    counts = _BIT_COUNTS[nz]
    total = int(counts.sum())
    starts = np.zeros(flat.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    bit = _BIT_INDICES[np.repeat(_BIT_OFFSETS[nz], counts) + within]
    n_cols = diff.shape[1]
    rows = np.repeat(flat // n_cols, counts)
    positions = np.repeat(flat % n_cols, counts) * 8 + bit
    return rows, positions


@dataclass(slots=True)
class BatchOutcome:
    """Structure-of-arrays form of ``m`` consecutive write outcomes.

    Attributes
    ----------
    addresses:
        ``(m,)`` line address per row (rows may be address-sorted).
    data_flips / meta_flips / set_flips / reset_flips / words_reencrypted:
        ``(m,)`` per-write counts, exactly the scalar outcome fields.
    full_line_reencrypted / epoch_reset / mode_switched:
        ``(m,)`` boolean flags per write.
    data_diff / meta_diff:
        The packed per-write diffs: ``data_diff`` is the ``(m, line_bytes)``
        XOR of consecutive stored images, ``meta_diff`` the ``(m, n_words)``
        boolean metadata diff (or ``None`` for schemes without metadata).
        The wear and slot accumulators consume these directly — flat bit
        positions are only materialized on demand.
    data_positions / data_rows:
        Flat flipped data-bit positions and the row each belongs to
        (lazily expanded from ``data_diff`` on first access).
    meta_positions / meta_rows:
        Same for metadata bits (positions relative to the metadata region).
    mode_counts:
        Contribution to ``RunResult.mode_histogram`` (writes with an empty
        ``mode`` label are not counted).
    """

    addresses: np.ndarray
    data_flips: np.ndarray
    meta_flips: np.ndarray
    set_flips: np.ndarray
    reset_flips: np.ndarray
    words_reencrypted: np.ndarray
    full_line_reencrypted: np.ndarray
    epoch_reset: np.ndarray
    mode_switched: np.ndarray
    data_diff: np.ndarray | None = None
    meta_diff: np.ndarray | None = None
    _data_positions: np.ndarray | None = field(default=None, repr=False)
    _data_rows: np.ndarray | None = field(default=None, repr=False)
    _meta_positions: np.ndarray | None = field(default=None, repr=False)
    _meta_rows: np.ndarray | None = field(default=None, repr=False)
    mode_counts: dict[str, int] = field(default_factory=dict)

    @property
    def n_writes(self) -> int:
        return int(self.addresses.shape[0])

    @property
    def data_positions(self) -> np.ndarray:
        if self._data_positions is None:
            self._expand_data()
        return self._data_positions

    @property
    def data_rows(self) -> np.ndarray:
        if self._data_rows is None:
            self._expand_data()
        return self._data_rows

    @property
    def meta_positions(self) -> np.ndarray:
        if self._meta_positions is None:
            self._expand_meta()
        return self._meta_positions

    @property
    def meta_rows(self) -> np.ndarray:
        if self._meta_rows is None:
            self._expand_meta()
        return self._meta_rows

    def _expand_data(self) -> None:
        if self.data_diff is None:
            self._data_rows = self._data_positions = _EMPTY_I64
        else:
            rows, positions = bit_positions(self.data_diff)
            self._data_rows, self._data_positions = rows, positions

    def _expand_meta(self) -> None:
        if self.meta_diff is None or self.meta_diff.size == 0:
            self._meta_rows = self._meta_positions = _EMPTY_I64
        else:
            rows, positions = np.nonzero(self.meta_diff)
            self._meta_rows = rows.astype(np.int64, copy=False)
            self._meta_positions = positions.astype(np.int64, copy=False)

    @classmethod
    def from_outcomes(cls, outcomes: Sequence) -> "BatchOutcome":
        """Pack scalar :class:`WriteOutcome` objects into one batch.

        The generic ``write_batch`` fallback and the property tests use
        this; the vectorized schemes build their batches directly.
        """
        m = len(outcomes)
        addresses = np.fromiter(
            (o.address for o in outcomes), dtype=np.int64, count=m
        )
        data_positions, data_rows = _flatten(
            [o.flipped_data_positions for o in outcomes]
        )
        meta_positions, meta_rows = _flatten(
            [o.flipped_meta_positions for o in outcomes]
        )
        modes = Counter(o.mode for o in outcomes if o.mode)
        return cls(
            addresses=addresses,
            data_flips=np.fromiter(
                (o.data_flips for o in outcomes), dtype=np.int64, count=m
            ),
            meta_flips=np.fromiter(
                (o.metadata_flips for o in outcomes), dtype=np.int64, count=m
            ),
            set_flips=np.fromiter(
                (o.set_flips for o in outcomes), dtype=np.int64, count=m
            ),
            reset_flips=np.fromiter(
                (o.reset_flips for o in outcomes), dtype=np.int64, count=m
            ),
            words_reencrypted=np.fromiter(
                (o.words_reencrypted for o in outcomes), dtype=np.int64,
                count=m,
            ),
            full_line_reencrypted=np.fromiter(
                (o.full_line_reencrypted for o in outcomes), dtype=bool,
                count=m,
            ),
            epoch_reset=np.fromiter(
                (o.epoch_reset for o in outcomes), dtype=bool, count=m
            ),
            mode_switched=np.fromiter(
                (o.mode_switched for o in outcomes), dtype=bool, count=m
            ),
            _data_positions=data_positions,
            _data_rows=data_rows,
            _meta_positions=meta_positions,
            _meta_rows=meta_rows,
            mode_counts=dict(modes),
        )


def _flatten(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated per-write position arrays and the row of each entry."""
    if not arrays:
        return _EMPTY_I64, _EMPTY_I64
    sizes = np.fromiter((a.size for a in arrays), dtype=np.int64,
                        count=len(arrays))
    rows = np.repeat(np.arange(len(arrays), dtype=np.int64), sizes)
    return np.concatenate(arrays).astype(np.int64, copy=False), rows


def empty_batch() -> BatchOutcome:
    """A zero-write batch (write-loop edge cases)."""
    return BatchOutcome(
        addresses=_EMPTY_I64,
        data_flips=_EMPTY_I64,
        meta_flips=_EMPTY_I64,
        set_flips=_EMPTY_I64,
        reset_flips=_EMPTY_I64,
        words_reencrypted=_EMPTY_I64,
        full_line_reencrypted=_EMPTY_BOOL,
        epoch_reset=_EMPTY_BOOL,
        mode_switched=_EMPTY_BOOL,
    )


@dataclass(slots=True)
class AddressGroups:
    """A chunk stable-sorted by address, with per-line run bookkeeping.

    Attributes
    ----------
    order:
        Permutation that sorts the chunk by address (stable, so each line's
        writes keep their trace order inside the run).
    addresses / data:
        The sorted ``(m,)`` addresses and ``(m, line_bytes)`` payloads.
    starts:
        Row index where each address run begins.
    group_id:
        ``(m,)`` run index per row.
    rank:
        ``(m,)`` position of the row inside its run (0-based).
    unique_addresses:
        One address per run, in sorted order.
    """

    order: np.ndarray
    addresses: np.ndarray
    data: np.ndarray
    starts: np.ndarray
    group_id: np.ndarray
    rank: np.ndarray
    unique_addresses: np.ndarray

    @property
    def last_rows(self) -> np.ndarray:
        """Row index of each run's final write (the state to commit)."""
        m = self.addresses.shape[0]
        return np.concatenate([self.starts[1:] - 1, [m - 1]])


def group_by_address(addresses: np.ndarray, data: np.ndarray) -> AddressGroups:
    """Stable-sort a chunk by address into contiguous per-line runs."""
    addresses = np.asarray(addresses, dtype=np.int64)
    data = np.ascontiguousarray(data, dtype=np.uint8)
    m = addresses.shape[0]
    order = np.argsort(addresses, kind="stable")
    s_addr = addresses[order]
    starts_mask = np.empty(m, dtype=bool)
    starts_mask[0] = True
    np.not_equal(s_addr[1:], s_addr[:-1], out=starts_mask[1:])
    starts = np.flatnonzero(starts_mask)
    group_id = np.cumsum(starts_mask) - 1
    rank = np.arange(m, dtype=np.int64) - starts[group_id]
    return AddressGroups(
        order=order,
        addresses=s_addr,
        data=np.ascontiguousarray(data[order]),
        starts=starts,
        group_id=group_id,
        rank=rank,
        unique_addresses=s_addr[starts],
    )


def previous_rows(
    current: np.ndarray, starts: np.ndarray, firsts: np.ndarray
) -> np.ndarray:
    """Shift rows down by one within each address run.

    Row ``j`` receives row ``j - 1`` of ``current``; the first row of each
    run receives the corresponding row of ``firsts`` (the pre-chunk state).
    This is how the chunk carries "previous stored image" / "previous
    plaintext" without a Python loop.
    """
    prev = np.empty_like(current)
    prev[1:] = current[:-1]
    prev[starts] = firsts
    return prev


def diff_stored_rows(
    prev_stored: np.ndarray,
    stored: np.ndarray,
    prev_meta: np.ndarray | None,
    meta: np.ndarray | None,
) -> dict[str, np.ndarray]:
    """Diff consecutive stored images into per-write flips and diffs.

    The batched form of ``WriteScheme._outcome``: XOR the whole chunk at
    once and popcount per row.  The packed diff matrices ride along in the
    :class:`BatchOutcome` for the wear/slot accumulators; flat bit positions
    are only expanded if something asks for them.
    """
    diff = prev_stored ^ stored
    if diff.shape[1] % 8 == 0 and diff.flags.c_contiguous:
        # Popcount eight bytes at a time through a uint64 view.
        data_flips = np.bitwise_count(diff.view(np.uint64)).sum(
            axis=1, dtype=np.int64
        )
        set_flips = np.bitwise_count(
            np.ascontiguousarray(diff & stored).view(np.uint64)
        ).sum(axis=1, dtype=np.int64)
    else:
        data_flips = bitops.byte_popcounts(diff).sum(axis=1, dtype=np.int64)
        set_flips = bitops.byte_popcounts(diff & stored).sum(
            axis=1, dtype=np.int64
        )
    if meta is None or meta.size == 0:
        m = stored.shape[0]
        meta_flips = np.zeros(m, dtype=np.int64)
        mdiff = None
    else:
        mdiff = prev_meta != meta
        meta_flips = mdiff.sum(axis=1, dtype=np.int64)
    return {
        "data_flips": data_flips,
        "set_flips": set_flips,
        "reset_flips": data_flips - set_flips,
        "meta_flips": meta_flips,
        "data_diff": diff,
        "meta_diff": mdiff,
    }
