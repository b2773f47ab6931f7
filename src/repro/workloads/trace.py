"""Trace containers and file I/O.

A :class:`Trace` is a materialized writeback stream: the initial contents of
every working-set line plus an ordered list of :class:`WriteRecord`.  Traces
can be saved to a compact binary format so expensive sweeps reuse identical
inputs across schemes and runs.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.workloads.generator import TraceGenerator, WriteRecord
from repro.workloads.profiles import WorkloadProfile, get_profile


class _LazyRecords(Sequence):
    """Record list backed by (addresses, data) arrays, built on demand.

    Shared-memory traces attach to another process's buffers; materializing
    ``n_writes`` :class:`WriteRecord` objects up front would copy everything
    the shared mapping exists to avoid.  This view constructs records only
    when a caller actually asks for them; the runner reads the arrays
    directly and never touches it.
    """

    def __init__(self, addresses: np.ndarray, data: np.ndarray) -> None:
        self._addresses = addresses
        self._data = data

    def __len__(self) -> int:
        return int(self._addresses.shape[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            rng = range(*index.indices(len(self)))
            return [
                WriteRecord(int(self._addresses[i]), self._data[i].tobytes())
                for i in rng
            ]
        return WriteRecord(
            int(self._addresses[index]), self._data[index].tobytes()
        )

_MAGIC = b"DEUCETRC"
_VERSION = 1


@dataclass
class Trace:
    """A reproducible writeback trace for one workload.

    Attributes
    ----------
    profile_name:
        Workload the trace was generated from.
    seed:
        Generator seed.
    line_bytes:
        Line size of every record.
    initial:
        address -> pristine line contents, used to install lines.
    records:
        Ordered writebacks.
    phases:
        ``(name, first write index)`` pairs in stream order, for traces
        with phase structure (KV populate -> steady state).  Empty for
        the statistical Table 2 traces; each phase runs until the next
        phase's start (the last until ``n_writes``).
    """

    profile_name: str
    seed: int
    line_bytes: int
    initial: dict[int, bytes]
    records: list[WriteRecord] | _LazyRecords = field(default_factory=list)
    phases: tuple[tuple[str, int], ...] = ()
    _arrays: tuple | None = field(
        default=None, repr=False, compare=False
    )
    _init_arrays: tuple | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_writes(self) -> int:
        return len(self.records)

    def addresses(self) -> list[int]:
        return sorted(self.initial)

    # -- array form ----------------------------------------------------------

    def write_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The writeback stream as ``(addresses, data)`` arrays, cached.

        ``addresses`` is ``(n,)`` int64 and ``data`` ``(n, line_bytes)``
        uint8, in trace order — the chunked write path slices these instead
        of iterating :class:`WriteRecord` objects.
        """
        if self._arrays is None:
            n = len(self.records)
            addresses = np.empty(n, dtype=np.int64)
            data = np.empty((n, self.line_bytes), dtype=np.uint8)
            for i, rec in enumerate(self.records):
                addresses[i] = rec.address
                data[i] = np.frombuffer(rec.data, dtype=np.uint8)
            self._arrays = (addresses, data)
        return self._arrays

    def initial_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``initial`` as ``(addresses, data)`` arrays in address order.

        Cached; feeds the batched install path (one wide pad call for the
        whole working set) and the shared-memory trace publisher.
        """
        if self._init_arrays is None:
            addrs = sorted(self.initial)
            init_addresses = np.asarray(addrs, dtype=np.int64)
            if addrs:
                init_data = np.frombuffer(
                    b"".join(self.initial[a] for a in addrs), dtype=np.uint8
                ).reshape(len(addrs), self.line_bytes)
            else:
                init_data = np.empty((0, self.line_bytes), dtype=np.uint8)
            self._init_arrays = (init_addresses, init_data)
        return self._init_arrays

    @classmethod
    def from_arrays(
        cls,
        profile_name: str,
        seed: int,
        line_bytes: int,
        init_addresses: np.ndarray,
        init_data: np.ndarray,
        addresses: np.ndarray,
        data: np.ndarray,
        phases: tuple[tuple[str, int], ...] = (),
    ) -> "Trace":
        """Build a trace view over preexisting arrays without copying.

        Used by the shared-memory sweep path: the arrays may live in a
        ``multiprocessing.shared_memory`` buffer owned by another process.
        ``init_addresses`` must be in address order, as
        :meth:`initial_arrays` returns them.  ``records`` stays lazy, so nothing is materialized unless a
        caller iterates it.
        """
        initial = {
            int(init_addresses[i]): init_data[i].tobytes()
            for i in range(init_addresses.shape[0])
        }
        return cls(
            profile_name=profile_name,
            seed=seed,
            line_bytes=line_bytes,
            initial=initial,
            records=_LazyRecords(addresses, data),
            phases=tuple((str(n), int(s)) for n, s in phases),
            _arrays=(addresses, data),
            _init_arrays=(init_addresses, init_data),
        )

    # -- serialization -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the trace to a binary file."""
        meta: dict[str, object] = {
            "version": _VERSION,
            "profile": self.profile_name,
            "seed": self.seed,
            "line_bytes": self.line_bytes,
            "n_initial": len(self.initial),
            "n_records": len(self.records),
        }
        if self.phases:
            # Optional key: files without it load with phases=() and old
            # readers ignore it, so the format version stays 1.
            meta["phases"] = [list(p) for p in self.phases]
        header = json.dumps(meta).encode()
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(len(header).to_bytes(4, "little"))
            fh.write(header)
            for addr in sorted(self.initial):
                fh.write(addr.to_bytes(8, "little"))
                fh.write(self.initial[addr])
            for rec in self.records:
                fh.write(rec.address.to_bytes(8, "little"))
                fh.write(rec.data)

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace previously written by :meth:`save`."""
        with open(path, "rb") as fh:
            data = fh.read()
        buf = io.BytesIO(data)
        if buf.read(8) != _MAGIC:
            raise ValueError(f"{path}: not a DEUCE trace file")
        header_len = int.from_bytes(buf.read(4), "little")
        header = json.loads(buf.read(header_len))
        if header["version"] != _VERSION:
            raise ValueError(f"unsupported trace version {header['version']}")
        line_bytes = header["line_bytes"]
        initial = {}
        for _ in range(header["n_initial"]):
            addr = int.from_bytes(buf.read(8), "little")
            initial[addr] = buf.read(line_bytes)
        records = []
        for _ in range(header["n_records"]):
            addr = int.from_bytes(buf.read(8), "little")
            records.append(WriteRecord(addr, buf.read(line_bytes)))
        return cls(
            profile_name=header["profile"],
            seed=header["seed"],
            line_bytes=line_bytes,
            initial=initial,
            records=records,
            phases=tuple(
                (str(n), int(s)) for n, s in header.get("phases", ())
            ),
        )


def generate_trace(
    profile: WorkloadProfile | str,
    n_writes: int,
    seed: int = 0,
    line_bytes: int = 64,
    abort=None,
    abort_every: int = 1024,
    params: dict | None = None,
) -> Trace:
    """Materialize a trace of ``n_writes`` writebacks for a workload.

    ``abort`` is an optional zero-argument callable polled every
    ``abort_every`` generated writes; when it returns True, generation
    stops and :class:`~repro.obs.instruments.RunAborted` is raised.  Large
    traces take long enough to synthesize that a job deadline or cancel
    must be able to interrupt this phase too, not just the write loop.

    ``params`` are workload parameters forwarded to the registry factory
    when ``profile`` is a name (a config's ``workload_params``).  Profiles
    that synthesize their own stream (KV request engines) are dispatched
    through their ``generate_trace`` method; everything else runs the
    statistical :class:`TraceGenerator`.
    """
    if isinstance(profile, str):
        profile = get_profile(profile, params)
    build = getattr(profile, "generate_trace", None)
    if build is not None:
        return build(
            n_writes,
            seed=seed,
            line_bytes=line_bytes,
            abort=abort,
            abort_every=abort_every,
        )
    gen = TraceGenerator(profile, seed=seed, line_bytes=line_bytes)
    trace = Trace(
        profile_name=profile.name,
        seed=seed,
        line_bytes=line_bytes,
        initial=gen.initial_lines(),
    )
    if abort is None:
        trace.records = list(gen.writes(n_writes))
        return trace
    from repro.obs.instruments import RunAborted

    records: list[WriteRecord] = []
    append = records.append
    next_write = gen.next_write
    for i in range(n_writes):
        if i % abort_every == 0 and abort():
            raise RunAborted(
                f"trace generation aborted at write {i}/{n_writes}"
            )
        append(next_write())
    trace.records = records
    return trace
