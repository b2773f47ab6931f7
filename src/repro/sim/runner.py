"""Simulation runner: stream traces through schemes and aggregate results.

The runner wires together the substrates — trace generation, the write
scheme, the PCM wear array, and (optionally) Start-Gap + HWL — and produces
a :class:`~repro.sim.results.RunResult`.  Traces are cached per (workload,
n_writes, seed, line_bytes) so that every scheme in a comparison sees the
*identical* writeback stream, which is what makes per-workload bars
comparable across schemes.

There is one write loop, :func:`_write_loop`: every scheme consumes the
trace in chunks through ``write_batch``.  Schemes with a native kernel
vectorize the chunk; the rest inherit :meth:`WriteScheme.write_batch`,
which loops ``write()``.  ``chunk_size=1`` selects the inherited
``install_batch``/``write_batch`` for every scheme, so each line goes
through one ``install()`` and each write through one ``write()``: that
run is the reference every native kernel is checked against.

Observability: :func:`run` accepts an optional
:class:`~repro.obs.instruments.Instruments` bundle.  When every backend is
null (the default), nothing is timed or recorded; when any backend is
live, the loop additionally records per-phase timers, one span per chunk
(``scheme.write`` / ``wear.rotation`` / ``pcm.apply``, plus ``pad.fetch``
from the pad wrapper), interval samples into ``RunResult.series``, and
periodic heartbeats.  Instrumentation only ever *reads* simulation state,
so results are identical either way (there is a test for this).
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from functools import partial

import numpy as np

from repro.crypto.pads import CachingPadSource, make_pad_source
from repro.memory.pcm import PcmArray, slots_for_batch, slots_for_batch_diffs
from repro.schemes.batch import BatchOutcome
from repro.obs.instruments import (
    DISABLED,
    Instruments,
    InstrumentedPadSource,
    RunAborted,
)
from repro.obs.sampling import IntervalSampler
from repro import registry
from repro.schemes.base import WriteScheme
from repro.sim.checkpoint import (
    CheckpointError,
    RunCheckpoint,
    RunCheckpointer,
    config_signature,
    load_run_checkpoint,
)
from repro.sim.config import SimConfig
from repro.sim.results import RunResult
from repro.wear.hwl import NoWearLeveler
from repro.wear.lifetime import lifetime_report
from repro.workloads.trace import Trace, generate_trace


_TRACE_CACHE: OrderedDict[tuple, Trace] = OrderedDict()
_TRACE_CACHE_MAX = 32
_TRACE_CACHE_LOCK = threading.Lock()


def cached_trace(
    workload: str,
    n_writes: int,
    seed: int,
    line_bytes: int,
    abort=None,
    params: dict | None = None,
) -> Trace:
    """Memoized trace generation (same stream for every scheme compared).

    ``abort`` is threaded into :func:`generate_trace` so a job deadline or
    cancel can interrupt synthesis of a large trace; an aborted generation
    raises without poisoning the cache.  ``params`` (a config's
    ``workload_params``) is part of the cache key — two configs differing
    only in a KV knob get distinct traces.
    """
    key = (
        workload,
        n_writes,
        seed,
        line_bytes,
        json.dumps(params or {}, sort_keys=True),
    )
    with _TRACE_CACHE_LOCK:
        trace = _TRACE_CACHE.get(key)
        if trace is not None:
            _TRACE_CACHE.move_to_end(key)
            return trace
    trace = generate_trace(
        workload,
        n_writes,
        seed=seed,
        line_bytes=line_bytes,
        abort=abort,
        params=params,
    )
    with _TRACE_CACHE_LOCK:
        _TRACE_CACHE[key] = trace
        _TRACE_CACHE.move_to_end(key)
        while len(_TRACE_CACHE) > _TRACE_CACHE_MAX:
            _TRACE_CACHE.popitem(last=False)
    return trace


def build_scheme(config: SimConfig) -> WriteScheme:
    """Instantiate the configured write scheme (with pads if encrypted).

    Encrypted schemes get their pad source wrapped in an LRU
    :class:`~repro.crypto.pads.CachingPadSource` sized by
    ``config.pad_cache_lines`` (0 disables), so epoch-boundary re-reads of a
    hot line's trailing pad hit the cache instead of the cipher.
    """
    cls = registry.SCHEMES.get(config.scheme).factory
    pads = None
    if cls.requires_pads:
        pads = make_pad_source(config.pad_kind, config.key)
        if config.pad_cache_lines > 0:
            pads = CachingPadSource(pads, capacity=config.pad_cache_lines)
    return cls.from_config(config, pads=pads)


def _find_pad_cache(pads) -> CachingPadSource | None:
    """Locate the LRU pad cache in a (possibly wrapped) pad-source chain."""
    while pads is not None:
        if isinstance(pads, CachingPadSource):
            return pads
        pads = getattr(pads, "inner", None)
    return None


def _accumulate_batch(
    result: RunResult, batch: BatchOutcome, line_bits: int
) -> None:
    """Fold a whole chunk's outcomes into the aggregates at once.

    Every count, computed as array sums and one ``bincount`` for the slot
    histogram — bit-identical to folding the chunk's writes one at a time
    with :func:`~repro.memory.pcm.slots_for_write`.
    """
    data = int(batch.data_flips.sum())
    meta = int(batch.meta_flips.sum())
    result.total_flips += data + meta
    result.data_flips += data
    result.meta_flips += meta
    result.set_flips += int(batch.set_flips.sum())
    result.reset_flips += int(batch.reset_flips.sum())
    if batch.data_diff is not None:
        slots = slots_for_batch_diffs(
            batch.data_diff, batch.meta_diff, line_bits
        )
    else:
        slots = slots_for_batch(
            batch.n_writes,
            batch.data_positions,
            batch.data_rows,
            batch.meta_positions,
            batch.meta_rows,
            line_bits,
        )
    result.total_slots += int(slots.sum())
    for n_slots, count in enumerate(np.bincount(slots).tolist()):
        if count:
            result.slot_histogram[n_slots] += count
    result.total_words_reencrypted += int(batch.words_reencrypted.sum())
    result.full_reencryptions += int(batch.full_line_reencrypted.sum())
    result.epoch_resets += int(batch.epoch_reset.sum())
    result.mode_switches += int(batch.mode_switched.sum())
    for mode, count in batch.mode_counts.items():
        result.mode_histogram[mode] += count


class _PhaseTracker:
    """Fires :meth:`RunResult.record_phase` at exact phase boundaries.

    Built from the trace's ``phases`` declaration; each phase's end is the
    next phase's start (the last ends at ``n_records``).  The write loop
    calls :meth:`note` with the count of writes folded in so far; because
    it also cuts chunks at :attr:`next_end`, ``note`` always sees the
    boundary index exactly and the cumulative snapshot is the same at any
    chunk size.  On resume, phases the checkpoint already recorded are not
    re-recorded.
    """

    def __init__(
        self, trace: Trace, result: RunResult, start: int = 0
    ) -> None:
        n_records = len(trace.records)
        phases = trace.phases
        self._result = result
        pending: list[tuple[int, str, int]] = []
        for idx, (name, p_start) in enumerate(phases):
            p_end = (
                phases[idx + 1][1] if idx + 1 < len(phases) else n_records
            )
            p_end = min(int(p_end), n_records)
            if p_end <= int(p_start) or name in result.phase_stats:
                continue  # empty phase, or already restored from checkpoint
            if p_end <= start:
                # Resumed past the boundary without a recorded snapshot
                # (pre-phase checkpoint): the exact cumulative values are
                # gone, so skip rather than record wrong ones.
                continue
            pending.append((p_end, str(name), int(p_start)))
        pending.sort()
        self._pending = pending

    @property
    def next_end(self) -> int | None:
        """The next boundary index a chunk must not cross, if any."""
        return self._pending[0][0] if self._pending else None

    def note(self, i: int) -> None:
        """Record every phase whose last write has now been folded in."""
        while self._pending and i >= self._pending[0][0]:
            end, name, start = self._pending.pop(0)
            self._result.record_phase(name, start, end)


def run(
    config: SimConfig | None = None,
    trace: Trace | None = None,
    instruments: Instruments | None = None,
    *,
    checkpoint_dir=None,
    checkpoint_every: int = 0,
    resume_from: "RunCheckpoint | str | None" = None,
) -> RunResult:
    """Execute one simulation and return aggregated results.

    Parameters
    ----------
    config:
        The run configuration.  May be omitted when resuming — the
        checkpoint carries its config; when both are given they must match.
    trace:
        Optional pre-generated trace (must match the config's workload and
        line size); omitted, the cached generator is used.
    instruments:
        Optional observability bundle (metrics, tracing, sampling,
        heartbeats).  ``None`` (or a fully-null bundle) times and records
        nothing; results are identical either way.
    checkpoint_dir / checkpoint_every:
        When ``checkpoint_every > 0``, snapshot all mutable state into
        ``checkpoint_dir`` every that many writes (crash-safe; see
        :mod:`repro.sim.checkpoint`).
    resume_from:
        A :class:`RunCheckpoint` or a checkpoint directory path.  The run
        skips install, restores every piece of state, and continues from
        the saved write index; the final result is bit-identical to an
        uninterrupted run (only ``wall_time_s`` covers the continuation).
    """
    t_start = time.perf_counter()
    obs = instruments if instruments is not None else DISABLED
    tracer = obs.tracer
    profile = obs.profile

    checkpoint = None
    if resume_from is not None:
        checkpoint = (
            resume_from
            if isinstance(resume_from, RunCheckpoint)
            else load_run_checkpoint(resume_from)
        )
        if config is None:
            config = checkpoint.config
        elif config_signature(config) != config_signature(checkpoint.config):
            raise CheckpointError(
                "resume config does not match the checkpoint's config "
                f"({config_signature(config)} != "
                f"{config_signature(checkpoint.config)})"
            )
    if config is None:
        raise ValueError("run() needs a config or a resume_from checkpoint")

    if trace is None:
        with tracer.span("trace.gen", workload=config.workload):
            tg0 = time.perf_counter()
            trace = cached_trace(
                config.workload,
                config.n_writes,
                config.seed,
                config.line_bytes,
                abort=obs.abort if obs.enabled else None,
                params=config.workload_params,
            )
            if profile is not None:
                profile.add("trace.gen", time.perf_counter() - tg0)
    scheme = build_scheme(config)
    pad_cache = _find_pad_cache(getattr(scheme, "pads", None))
    if obs.enabled and getattr(scheme, "pads", None) is not None:
        # Outermost wrap: pad-fetch timing as the scheme experiences it
        # (cache hits included).
        scheme.pads = InstrumentedPadSource(scheme.pads, obs.metrics, tracer)

    if config.chunk_size == 1:
        # The write() reference path: the base-class batch methods run
        # one install() per line and one write() per write.
        install_batch = partial(WriteScheme.install_batch, scheme)
        write_batch = partial(WriteScheme.write_batch, scheme)
    else:
        install_batch, write_batch = scheme.install_batch, scheme.write_batch
    # Pad fetches run inside install and scheme.write.  The pad timer's
    # readings around install move their time into a phase of its own, so
    # the profile's phases stay disjoint.
    pad_timer = obs.metrics.timer("pad.fetch_s")
    pad_t0, pad_n0 = pad_timer.total, pad_timer.count
    addresses, init_data = trace.initial_arrays()
    ti0 = time.perf_counter() if profile is not None else 0.0
    if checkpoint is None:
        with tracer.span("install", lines=len(addresses)):
            install_batch(addresses, init_data)
        if profile is not None:
            profile.add(
                "install",
                time.perf_counter() - ti0 - (pad_timer.total - pad_t0),
            )
    else:
        with tracer.span("resume.load", write_index=checkpoint.write_index):
            scheme.load_state_dict(checkpoint.scheme_state)
        if profile is not None:
            profile.add("resume.load", time.perf_counter() - ti0)
    pad_t1 = pad_timer.total

    meta_bits = scheme.metadata_bits_per_line
    pcm = PcmArray(
        line_bytes=config.line_bytes,
        meta_bits=meta_bits,
        track_per_line=config.track_per_line_wear,
    )
    region = config.hwl_region_lines or len(addresses)
    if config.wear_leveling == "sr-hwl":
        # Security Refresh remaps by XOR, so its region must be a power
        # of two; round down if the working set is not.
        while region & (region - 1):
            region &= region - 1
        region = max(region, 2)
    leveler = _build_leveler(config, region, pcm.bits_per_line)
    vwl = getattr(leveler, "startgap", None) or getattr(
        leveler, "refresh", None
    )

    result = RunResult(
        workload=config.workload,
        scheme=config.scheme,
        n_writes=len(trace.records),
        line_bits=8 * config.line_bytes,
        meta_bits=meta_bits,
    )
    start = 0
    if checkpoint is not None:
        pcm.load_state_dict(checkpoint.pcm_state)
        leveler.load_state_dict(checkpoint.leveler_state)
        if pad_cache is not None and checkpoint.pad_cache_state is not None:
            pad_cache.load_state_dict(checkpoint.pad_cache_state)
        result.load_checkpoint_state(checkpoint.result_state)
        start = checkpoint.write_index
    checkpointer = None
    if checkpoint_every > 0:
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every > 0 needs a checkpoint_dir")
        checkpointer = RunCheckpointer(
            checkpoint_dir,
            checkpoint_every,
            config=config,
            scheme=scheme,
            pcm=pcm,
            leveler=leveler,
            result=result,
            pad_cache=pad_cache,
        )
    tracker = (
        _PhaseTracker(trace, result, start=start) if trace.phases else None
    )
    _write_loop(
        config, trace, write_batch, pcm, leveler, vwl, addresses, region,
        result, obs, pad_cache, start=start, checkpointer=checkpointer,
        tracker=tracker,
    )

    result.wear = pcm.summary()
    result.lifetime = lifetime_report(
        result.wear.position_writes, result.wear.total_writes
    )
    if pad_cache is not None:
        result.pad_hits = pad_cache.hits
        result.pad_misses = pad_cache.misses
    # Timing/provenance metadata for the run ledger; reading the clock and
    # attaching the config cannot perturb the simulation aggregates above.
    result.wall_time_s = time.perf_counter() - t_start
    result.config = config
    if profile is not None:
        if pad_timer.count > pad_n0:
            # install already left out its share of the pad time.
            if pad_timer.total > pad_t1:
                profile.add("scheme.write", pad_t1 - pad_timer.total, 0)
            profile.add(
                "pad.fetch", pad_timer.total - pad_t0,
                pad_timer.count - pad_n0,
            )
        result.profile = profile.to_dict()
    return result


def _next_multiple(i: int, every: int) -> int:
    """The smallest multiple of ``every`` strictly greater than ``i``."""
    return (i // every + 1) * every


def _write_loop(
    config: SimConfig,
    trace: Trace,
    write_batch,
    pcm: PcmArray,
    leveler,
    vwl,
    line_addresses: np.ndarray,
    region: int,
    result: RunResult,
    obs: Instruments,
    pad_cache: CachingPadSource | None,
    start: int = 0,
    checkpointer: RunCheckpointer | None = None,
    tracker: "_PhaseTracker | None" = None,
) -> None:
    """The write loop: whole trace chunks through ``write_batch``.

    Chunks are cut so that every interval-triggered side effect — abort
    polls, checkpoint saves, interval samples, heartbeats, and wear-leveler
    gap movements — lands exactly where a run of one-write chunks puts it:

    * sample/heartbeat/checkpoint intervals fire *after* the write at each
      multiple, so a chunk never crosses a multiple (it ends on one);
    * abort polls happen *before* the write at each multiple, so a chunk
      never contains one (the poll runs at the top of the next chunk);
    * a Start-Gap/Security-Refresh event fires at most once per chunk, as
      its final write, keeping the HWL rotation constant across the chunk
      (each write's rotation is computed before the leveler is notified,
      so the triggering write itself still uses the old rotation).

    The wear leveler knows a line by its rank in the sorted working set
    ``line_addresses``, modulo the leveler's ``region``.

    Everything else (epoch resets, pad-cache traffic, flip accounting) is
    handled inside ``write_batch`` bit-identically to one ``write()`` per
    write.  Timers use ``observe_many`` so their counts are per write;
    when tracing is live, one span per chunk is emitted, its ``n`` field
    the chunk's write count.
    """
    line_bits = 8 * config.line_bytes
    addresses_arr, data_arr = trace.write_arrays()
    n_records = int(addresses_arr.shape[0])
    chunk_size = config.chunk_size
    no_rotation = isinstance(leveler, NoWearLeveler)
    enabled = obs.enabled
    metrics = obs.metrics
    tracer = obs.tracer
    tracing = tracer.enabled
    profile = obs.profile
    perf = time.perf_counter

    t_write = t_rotate = t_pcm = None
    if enabled:
        t_write = metrics.timer("scheme.write_s")
        t_rotate = metrics.timer("wear.rotation_s")
        t_pcm = metrics.timer("pcm.apply_s")
    sampler = None
    sample_every = 0
    if enabled and obs.sample_interval > 0:
        sampler = IntervalSampler(obs.sample_interval, result, pcm, pad_cache)
        sample_every = obs.sample_interval
    heartbeat = obs.heartbeat if enabled else None
    hb_every = 0
    if heartbeat is not None:
        hb_every = obs.heartbeat_every or max(1, n_records // 10)
    abort = obs.abort if enabled else None
    abort_every = 0
    if abort is not None:
        abort_every = obs.abort_every or max(1, min(512, n_records // 10))

    loop_t0 = perf()
    i = start
    while i < n_records:
        if abort is not None and (i + 1) % abort_every == 0 and abort():
            raise RunAborted(
                f"run aborted before write {i + 1}/{n_records} "
                f"({config.workload}/{config.scheme})",
                writes_done=i,
            )
        end = min(i + chunk_size, n_records)
        if sample_every:
            end = min(end, _next_multiple(i, sample_every))
        if hb_every:
            end = min(end, _next_multiple(i, hb_every))
        if checkpointer is not None:
            end = min(end, _next_multiple(i, checkpointer.every))
        if abort_every:
            end = min(end, _next_multiple(i + 1, abort_every) - 1)
        if vwl is not None:
            end = min(end, i + vwl.writes_until_event)
        if tracker is not None and tracker.next_end is not None:
            # End chunks on phase boundaries so the cumulative snapshot
            # lands exactly on the boundary write.
            end = min(end, tracker.next_end)
        k = end - i

        t0 = perf()
        batch = write_batch(addresses_arr[i:end], data_arr[i:end])
        t1 = perf()
        if no_rotation:
            rotations = None
        else:
            uniq, inv = np.unique(batch.addresses, return_inverse=True)
            line_ids = np.searchsorted(line_addresses, uniq) % region
            per_line = np.fromiter(
                (leveler.rotation(line) for line in line_ids.tolist()),
                dtype=np.int64,
                count=uniq.size,
            )
            rotations = per_line[inv]
        t2 = perf()
        if batch.data_diff is not None:
            pcm.apply_batch_diffs(
                batch.addresses,
                batch.data_diff,
                batch.meta_diff,
                rotations=rotations,
            )
        else:
            pcm.apply_batch(
                batch.addresses,
                batch.data_positions,
                batch.data_rows,
                batch.meta_positions,
                batch.meta_rows,
                rotations=rotations,
            )
        t3 = perf()
        if vwl is not None:
            vwl.advance(k)
        _accumulate_batch(result, batch, line_bits)
        i = end
        if tracker is not None:
            tracker.note(i)

        if profile is not None:
            # Reuses the t0..t3 stamps the loop already takes; the only
            # extra clock read covers the scatter-add accumulate phase.
            t4 = perf()
            profile.add("scheme.write", t1 - t0, k)
            profile.add("wear.rotation", t2 - t1, k)
            profile.add("pcm.apply", t3 - t2, k)
            profile.add("accumulate", t4 - t3, k)
        if enabled:
            t_write.observe_many(t1 - t0, k)
            t_rotate.observe_many(t2 - t1, k)
            t_pcm.observe_many(t3 - t2, k)
            if tracing:
                tracer.span_event(
                    "scheme.write", t0, t1 - t0, write=i, n=k,
                    flips=int(batch.data_flips.sum() + batch.meta_flips.sum()),
                )
                tracer.span_event("wear.rotation", t1, t2 - t1, write=i, n=k)
                tracer.span_event("pcm.apply", t2, t3 - t2, write=i, n=k)
        if checkpointer is not None:
            if profile is not None:
                tc0 = perf()
                checkpointer.maybe(i)
                profile.add("checkpoint", perf() - tc0)
            else:
                checkpointer.maybe(i)
        if sample_every and i % sample_every == 0:
            sampler.record(i)
        if hb_every and i % hb_every == 0:
            heartbeat(i, n_records)

    if enabled:
        metrics.gauge("run.write_loop_s").set(perf() - loop_t0)
        metrics.counter("run.writes").inc(result.n_writes)
        metrics.counter("run.flips").inc(result.total_flips)
        metrics.counter("run.slots").inc(result.total_slots)
        metrics.counter("run.epoch_resets").inc(result.epoch_resets)
        metrics.counter("run.mode_switches").inc(result.mode_switches)
        metrics.counter("run.full_reencryptions").inc(
            result.full_reencryptions
        )
        if pad_cache is not None:
            metrics.counter("pad.cache_hits").inc(pad_cache.hits)
            metrics.counter("pad.cache_misses").inc(pad_cache.misses)
        if sampler is not None:
            result.series = sampler.finalize(n_records)


def run_suite(
    configs: list[SimConfig], trace: Trace | None = None
) -> list[RunResult]:
    """Run several configurations (sharing cached traces per workload)."""
    return [run(config, trace=trace) for config in configs]


def _build_leveler(config: SimConfig, n_lines: int, bits_per_line: int):
    return registry.WEAR_LEVELERS.create(
        config.wear_leveling, config, n_lines, bits_per_line
    )
