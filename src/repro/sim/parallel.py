"""Parallel sweep engine: fan experiment cells out over worker processes.

Every paper exhibit reduces to a grid of independent (workload, scheme,
config) cells, each streaming thousands of writebacks through
:func:`repro.sim.runner.run`.  Cells share nothing but read-only inputs, so
the sweep is embarrassingly parallel: this module distributes
:class:`~repro.sim.config.SimConfig` cells (frozen dataclasses, hence
picklable) over a ``ProcessPoolExecutor``.

Guarantees:

* **Determinism** — results come back in submission order and each cell is
  a pure function of its config, so a parallel sweep returns bit-identical
  :class:`~repro.sim.results.RunResult`s to a serial one (there is a test
  for this).  Progress streaming never changes results: worker-side
  instrumentation is read-only.
* **Shared-memory traces** — the pool path materializes each unique
  workload trace once in the parent and publishes it into
  ``multiprocessing.shared_memory`` segments
  (:class:`~repro.sim.shm.TracePublisher`); workers receive only a tiny
  :class:`~repro.sim.shm.TraceShmSpec` and attach zero-copy
  :class:`~repro.workloads.trace.Trace` views, so no trace bytes are
  pickled to workers and no worker regenerates a trace.  If publishing or
  attaching fails (e.g. an exhausted ``/dev/shm``) the affected cells fall
  back to the per-process ``lru_cache`` of
  :func:`repro.sim.runner.cached_trace` — shared memory is an
  optimization, never a correctness dependency.
* **Serial fallback** — an effective worker count of 1 (or a single-cell
  sweep) runs inline in the calling process with no pool overhead, so
  callers can thread one knob through unconditionally.
* **Live progress** — pass ``progress=`` a callable (e.g. a
  :class:`~repro.obs.progress.ProgressRenderer`) and workers stream
  ``start``/``heartbeat``/``done`` :class:`~repro.obs.progress.ProgressEvent`
  records over a ``multiprocessing`` queue as each cell advances.
* **Fault tolerance** — ``retries`` grants each cell a retry budget spent
  under capped exponential backoff; a worker crash hard enough to break
  the process pool (SIGKILL, segfault, OOM kill) is detected, the pool is
  rebuilt, and the lost in-flight cells are requeued against the same
  budget.  A cell that exhausts its budget raises :class:`SweepCellFailed`
  carrying the partial results.
* **Durable progress** — pass ``checkpoint=`` a
  :class:`~repro.sim.checkpoint.SweepCheckpoint` (or its directory) and
  every completed cell is fsynced to ``cells.jsonl`` the moment it
  finishes; a re-run with the same checkpoint restores finished cells by
  config signature and runs only the missing ones.  Ledger recording
  (``ledger=``) is likewise incremental, in completion order, so a crashed
  sweep leaves every finished cell recorded.

Worker-count conventions (unified for the CLI and the API): ``None`` *or*
``0`` auto-sizes to the machine (capped at :data:`MAX_AUTO_WORKERS`), ``1``
forces the serial fallback, any larger value is honoured but never exceeds
the number of cells still to run.  Negative values are an error.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import queue as queue_mod
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.obs.context import TraceContext
from repro.obs.instruments import Instruments, RunAborted
from repro.obs.progress import DONE, HEARTBEAT, START, ProgressEvent
from repro.obs.tracing import NULL_TRACER, JsonlSink, NullTracer, Tracer
from repro.sim.checkpoint import SweepCheckpoint, config_signature
from repro.sim.config import SimConfig
from repro.sim.results import RunResult
from repro.sim.shm import TracePublisher, TraceShmSpec, attach_trace

#: Upper bound on auto-selected workers; grids rarely have more useful
#: parallelism and oversubscribing a small container only adds overhead.
MAX_AUTO_WORKERS = 8

#: Seconds between future polls while forwarding progress events.
_POLL_S = 0.1

#: Ceiling on the exponential retry backoff, whatever the attempt count.
_BACKOFF_CAP_S = 30.0


class SweepCancelled(RuntimeError):
    """A sweep stopped cooperatively because ``should_stop`` went true.

    In the serial path the in-flight cell aborts mid-trace (via
    :class:`~repro.obs.instruments.RunAborted`); in the pool path cells not
    yet started are cancelled and already-running cells complete before the
    pool shuts down, so no worker process is ever orphaned.  ``results``
    holds the finished cells' :class:`RunResult`\\ s (submission order,
    ``None`` for unfinished cells).
    """

    def __init__(
        self, message: str, results: list[RunResult | None] | None = None
    ) -> None:
        super().__init__(message)
        self.results = results if results is not None else []


class SweepCellFailed(RuntimeError):
    """A sweep cell failed on every attempt its retry budget allowed.

    Completed cells were already recorded to the ledger/checkpoint before
    this raised, so ``--resume`` re-runs only the failed and not-yet-run
    cells.  ``results`` holds the partial results (submission order,
    ``None`` for unfinished cells); ``index``/``config``/``attempts``
    identify the failing cell.  The final per-attempt error is chained as
    ``__cause__``.
    """

    def __init__(
        self,
        message: str,
        *,
        index: int,
        config: SimConfig,
        attempts: int,
        results: list[RunResult | None] | None = None,
    ) -> None:
        super().__init__(message)
        self.index = index
        self.config = config
        self.attempts = attempts
        self.results = results if results is not None else []


@dataclass
class SweepTracing:
    """Correlated-tracing hookup for one sweep.

    ``context`` is the sweep lane's :class:`TraceContext`; every worker
    cell becomes a *child* lane written to ``dir / cell-<i>.jsonl`` with
    its own re-anchored clock, so offline tools
    (:mod:`repro.obs.traceexport`) can merge all lanes onto one
    wall-clock axis and parent every worker span under the sweep span.
    ``tracer`` is the parent-process sweep lane (``cell.submit`` /
    ``cell.done`` scheduling events); it is never pickled — workers only
    receive the tiny dict from :meth:`cell_payload`.
    """

    dir: Path
    context: TraceContext
    tracer: Tracer | NullTracer = field(default=NULL_TRACER, repr=False)

    def cell_payload(self, index: int) -> dict:
        """Picklable per-cell payload riding in the worker submission."""
        return {
            "dir": str(self.dir),
            "ctx": self.context.to_dict(),
            "cell": index,
        }


def _cell_tracer(cell_trace: dict | None):
    """Build the worker-side lane tracer; ``(None, None)`` when untraced.

    Tracing must never fail a cell: any error opening the lane file
    degrades to an untraced run.
    """
    if not cell_trace:
        return None, None
    try:
        ctx = TraceContext.from_dict(cell_trace["ctx"]).child()
        name = f"cell-{cell_trace['cell']}"
        path = Path(cell_trace["dir"]) / f"{name}.jsonl"
        sink = JsonlSink(
            path,
            meta={**ctx.to_dict(), "lane": name, "cell": cell_trace["cell"]},
        )
        return Tracer(sink), ctx
    except Exception:
        return None, None


def resolve_workers(max_workers: int | None, n_cells: int) -> int:
    """Effective worker count for a sweep of ``n_cells`` cells.

    Accepts both historical conventions: ``None`` (the API's "pick for me")
    and ``0`` (the CLI's "auto") both auto-size to the machine, capped at
    :data:`MAX_AUTO_WORKERS`; ``1`` means serial; explicit counts are
    honoured but never exceed the number of cells.
    """
    if max_workers is None or max_workers == 0:
        max_workers = min(os.cpu_count() or 1, MAX_AUTO_WORKERS)
    if max_workers < 0:
        raise ValueError(f"max_workers must be >= 0 or None, got {max_workers}")
    return max(1, min(max_workers, n_cells))


def _backoff_delay(attempt: int, base_s: float) -> float:
    """Capped exponential backoff before retry ``attempt`` (1-based)."""
    return min(_BACKOFF_CAP_S, base_s * (2 ** (attempt - 1)))


class RetryBudget:
    """Per-cell retry accounting with capped exponential backoff.

    One mechanism shared by the local pool scheduler and the fleet
    coordinator (:mod:`repro.service.coordinator`): a failed attempt —
    a cell exception, a crashed pool worker, or a dead fleet endpoint —
    is *charged* against the cell's budget and either earns a backoff
    delay before requeue or raises :class:`SweepCellFailed` carrying the
    partial results, so both executors fail and resume identically.
    """

    def __init__(
        self,
        configs: Sequence[SimConfig],
        indices: Iterable[int],
        retries: int,
        backoff_s: float,
    ) -> None:
        self.configs = configs
        self.retries = retries
        self.backoff_s = backoff_s
        self.attempts: dict[int, int] = dict.fromkeys(indices, 0)

    def charge(
        self,
        index: int,
        exc: BaseException,
        *,
        results: "list[RunResult | None]",
    ) -> float:
        """Spend one retry; return the backoff delay or fail the sweep."""
        attempts = self.attempts[index] = self.attempts.get(index, 0) + 1
        if attempts > self.retries:
            config = self.configs[index]
            raise SweepCellFailed(
                f"cell {index}/{len(self.configs)} "
                f"({config.workload}/{config.scheme}) "
                f"failed after {attempts} attempt(s): {exc}",
                index=index,
                config=config,
                attempts=attempts,
                results=list(results),
            ) from exc
        return _backoff_delay(attempts, self.backoff_s)


def _worker_trace(spec: TraceShmSpec | None):
    """Attach a published trace, or ``None`` to regenerate locally.

    Attach failures (the parent's segment vanished, a platform without
    POSIX shared memory) degrade to the pre-shared-memory behaviour:
    ``run(config)`` falls back to its per-process ``cached_trace``.
    """
    if spec is None:
        return None
    try:
        return attach_trace(spec)
    except Exception:
        return None


def _run_cell(
    config: SimConfig,
    trace_spec: TraceShmSpec | None = None,
    cell_trace: dict | None = None,
) -> RunResult:
    """Worker entry point: one simulation cell (module-level for pickling)."""
    from repro.sim.runner import run

    tracer, _ctx = _cell_tracer(cell_trace)
    if tracer is None:
        return run(config, trace=_worker_trace(trace_spec))
    try:
        instruments = Instruments(tracer=tracer)
        with tracer.span(
            "cell.run",
            cell=cell_trace["cell"],
            workload=config.workload,
            scheme=config.scheme,
        ):
            return run(
                config,
                trace=_worker_trace(trace_spec),
                instruments=instruments,
            )
    finally:
        tracer.close()


def _run_cell_observed(
    index: int,
    config: SimConfig,
    n_cells: int,
    events,
    heartbeat_every: int,
    trace_spec: TraceShmSpec | None = None,
    cell_trace: dict | None = None,
) -> RunResult:
    """Worker entry point streaming progress events for one cell."""
    from repro.sim.runner import run

    def _event(kind: str, writes_done: int) -> ProgressEvent:
        return ProgressEvent(
            kind=kind,
            cell=index,
            n_cells=n_cells,
            writes_done=writes_done,
            n_writes=config.n_writes,
            workload=config.workload,
            scheme=config.scheme,
        )

    events.put(_event(START, 0))
    tracer, _ctx = _cell_tracer(cell_trace)
    instruments = Instruments(
        heartbeat=lambda done, total: events.put(_event(HEARTBEAT, done)),
        heartbeat_every=heartbeat_every,
        tracer=tracer if tracer is not None else NULL_TRACER,
    )
    try:
        if tracer is None:
            result = run(
                config, trace=_worker_trace(trace_spec),
                instruments=instruments,
            )
        else:
            with tracer.span(
                "cell.run",
                cell=index,
                workload=config.workload,
                scheme=config.scheme,
            ):
                result = run(
                    config, trace=_worker_trace(trace_spec),
                    instruments=instruments,
                )
    finally:
        if tracer is not None:
            tracer.close()
    events.put(_event(DONE, config.n_writes))
    return result


def _drain(events, progress: Callable[[ProgressEvent], None]) -> None:
    while True:
        try:
            progress(events.get_nowait())
        except queue_mod.Empty:
            return


def run_suite_parallel(
    configs: Sequence[SimConfig],
    max_workers: int | None = None,
    progress: Callable[[ProgressEvent], None] | None = None,
    heartbeat_every: int = 0,
    ledger=None,
    ledger_label: str = "",
    should_stop: Callable[[], bool] | None = None,
    *,
    retries: int = 0,
    retry_backoff_s: float = 0.5,
    checkpoint: "SweepCheckpoint | str | None" = None,
    tracing: SweepTracing | None = None,
) -> list[RunResult]:
    """Run a batch of configs, fanned out over worker processes.

    Results are returned in the order of ``configs`` regardless of which
    worker finished first, and are bit-identical to
    :func:`repro.sim.runner.run_suite` on the same inputs.

    Parameters
    ----------
    configs:
        The experiment cells to run.
    max_workers:
        Process count; ``None`` or ``0`` auto-sizes to the machine, ``1``
        forces the serial fallback (see :func:`resolve_workers`).
    progress:
        Optional callable receiving :class:`ProgressEvent` records as cells
        start, advance, and finish — live even while workers are mid-cell.
        Works in the serial fallback too (events arrive synchronously).
    heartbeat_every:
        Writes between per-cell heartbeat events; ``0`` auto-sizes to ~10
        heartbeats per cell.  Ignored when ``progress`` is ``None``.
    ledger:
        Optional :class:`~repro.obs.ledger.RunLedger`; when given, every
        cell's result is recorded as a ``kind="sweep-cell"`` manifest
        (labelled ``ledger_label``) the moment the cell completes, so a
        crashed or cancelled sweep leaves all finished cells recorded.
        Recording happens in the parent process on the collected results,
        so it never affects worker execution or result identity.
    ledger_label:
        The ``label`` stamped on recorded sweep-cell manifests (typically
        the experiment id).
    should_stop:
        Optional ``() -> bool`` polled between cells (and, serially, every
        few hundred writes *within* a cell); when it goes true the sweep
        raises :class:`SweepCancelled` after letting in-flight worker cells
        finish, so no process is orphaned.  Job cancellation and per-job
        deadlines in :mod:`repro.service` are built on this hook.
    retries:
        Retry budget per cell.  A cell whose attempt raises (including
        being lost to a crashed worker) is requeued after capped
        exponential backoff until the budget is spent, then the sweep
        raises :class:`SweepCellFailed`.  ``0`` (the default) fails fast.
    retry_backoff_s:
        Base backoff: retry ``k`` waits ``min(30, retry_backoff_s * 2**(k-1))``
        seconds.
    checkpoint:
        Optional :class:`~repro.sim.checkpoint.SweepCheckpoint` (or the
        directory to hold one).  Completed cells are durably appended as
        they finish; on entry, cells whose config signature is already
        recorded are restored from the checkpoint instead of re-run.
        Restored results are exact for every simulation aggregate but
        carry no raw wear/lifetime/series detail (the headline
        ``lifetime_norm`` survives via the stored summary).
    tracing:
        Optional :class:`SweepTracing`: each worker cell writes a child
        trace lane (``cell-<i>.jsonl``) under ``tracing.dir`` and the
        parent lane records ``cell.submit``/``cell.done`` scheduling
        events, so the whole sweep exports as one correlated trace.
        Tracing is read-only and best-effort; results are unchanged.
    """
    configs = list(configs)
    if not configs:
        return []
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if checkpoint is not None and not isinstance(checkpoint, SweepCheckpoint):
        checkpoint = SweepCheckpoint(checkpoint)

    n = len(configs)
    results: list[RunResult | None] = [None] * n
    if checkpoint is not None:
        restored = checkpoint.restore()
        for i, config in enumerate(configs):
            hit = restored.get(config_signature(config))
            if hit is not None:
                results[i] = hit
    todo = [i for i in range(n) if results[i] is None]
    if not todo:
        return results  # type: ignore[return-value]

    def on_complete(index: int, result: RunResult) -> None:
        """Record one finished cell durably, the moment it finishes."""
        config = configs[index]
        if tracing is not None:
            tracing.tracer.event(
                "cell.done", cell=index, workload=config.workload,
                scheme=config.scheme,
            )
        if ledger is not None:
            result.manifest = ledger.record_result(
                result, config, kind="sweep-cell", label=ledger_label
            )
        if checkpoint is not None:
            run_id = result.manifest.run_id if result.manifest else ""
            checkpoint.record(index, config, result, run_id=run_id)

    if tracing is not None:
        Path(tracing.dir).mkdir(parents=True, exist_ok=True)
    workers = resolve_workers(max_workers, len(todo))
    if workers <= 1:
        _run_serial(
            configs, todo, results, progress, heartbeat_every,
            should_stop, retries, retry_backoff_s, on_complete, tracing,
        )
    else:
        # Publish each unique trace into shared memory once; workers get a
        # tiny spec per cell and attach zero-copy instead of regenerating.
        # The publisher outlives the pool (workers hold live mappings) and
        # unlinks every segment on the way out, success or failure.
        with TracePublisher() as publisher:
            todo_set = set(todo)
            specs = [
                publisher.publish(configs[i]) if i in todo_set else None
                for i in range(n)
            ]
            _run_pool(
                configs, specs, todo, results, workers, progress,
                heartbeat_every, should_stop, retries, retry_backoff_s,
                on_complete, tracing,
            )
    return results  # type: ignore[return-value]


def _run_serial(
    configs: list[SimConfig],
    todo: list[int],
    results: list[RunResult | None],
    progress: Callable[[ProgressEvent], None] | None,
    heartbeat_every: int,
    should_stop: Callable[[], bool] | None,
    retries: int,
    backoff_s: float,
    on_complete: Callable[[int, RunResult], None],
    tracing: SweepTracing | None = None,
) -> None:
    """Serial fallback: same retry, progress, and cancellation semantics."""
    from repro.sim.runner import run

    n = len(configs)
    for i in todo:
        config = configs[i]
        if should_stop is not None and should_stop():
            raise SweepCancelled(
                f"sweep cancelled before cell {i}/{n}", list(results)
            )
        if tracing is not None:
            tracing.tracer.event(
                "cell.submit", cell=i, workload=config.workload,
                scheme=config.scheme,
            )

        def _event(kind: str, writes_done: int, c=config, i=i) -> ProgressEvent:
            return ProgressEvent(
                kind=kind,
                cell=i,
                n_cells=n,
                writes_done=writes_done,
                n_writes=c.n_writes,
                workload=c.workload,
                scheme=c.scheme,
            )

        attempt = 0
        while True:
            instruments = None
            cell_tracer = None
            if tracing is not None:
                cell_tracer, _ctx = _cell_tracer(tracing.cell_payload(i))
            if (
                progress is not None
                or should_stop is not None
                or cell_tracer is not None
            ):
                heartbeat = None
                if progress is not None:
                    progress(_event(START, 0))
                    heartbeat = lambda done, total, _e=_event: progress(
                        _e(HEARTBEAT, done)
                    )
                instruments = Instruments(
                    heartbeat=heartbeat,
                    heartbeat_every=heartbeat_every,
                    abort=should_stop,
                    tracer=(
                        cell_tracer if cell_tracer is not None else NULL_TRACER
                    ),
                )
            try:
                if cell_tracer is not None:
                    with cell_tracer.span(
                        "cell.run", cell=i, workload=config.workload,
                        scheme=config.scheme,
                    ):
                        result = run(config, instruments=instruments)
                else:
                    result = run(config, instruments=instruments)
            except RunAborted as exc:
                raise SweepCancelled(
                    f"sweep cancelled in cell {i}/{n}: {exc}", list(results)
                ) from exc
            except Exception as exc:
                attempt += 1
                if attempt > retries:
                    raise SweepCellFailed(
                        f"cell {i}/{n} ({config.workload}/{config.scheme}) "
                        f"failed after {attempt} attempt(s): {exc}",
                        index=i,
                        config=config,
                        attempts=attempt,
                        results=list(results),
                    ) from exc
                time.sleep(_backoff_delay(attempt, backoff_s))
                continue
            finally:
                if cell_tracer is not None:
                    cell_tracer.close()
            break
        results[i] = result
        on_complete(i, result)
        if progress is not None:
            progress(_event(DONE, config.n_writes))


def _run_pool(
    configs: list[SimConfig],
    specs: list["TraceShmSpec | None"],
    todo: list[int],
    results: list[RunResult | None],
    workers: int,
    progress: Callable[[ProgressEvent], None] | None,
    heartbeat_every: int,
    should_stop: Callable[[], bool] | None,
    retries: int,
    backoff_s: float,
    on_complete: Callable[[int, RunResult], None],
    tracing: SweepTracing | None = None,
) -> None:
    """Pool front-end: sets up the event queue iff progress is wanted."""
    if progress is None:
        _run_pool_scheduler(
            configs, specs, todo, results, workers, None, None,
            heartbeat_every, should_stop, retries, backoff_s, on_complete,
            tracing,
        )
        return
    # A manager queue carries events from workers; the main process
    # forwards them between future polls.  Results are still collected by
    # submission index, so ordering is unchanged.
    with multiprocessing.Manager() as manager:
        events = manager.Queue()
        _run_pool_scheduler(
            configs, specs, todo, results, workers, events, progress,
            heartbeat_every, should_stop, retries, backoff_s, on_complete,
            tracing,
        )


def _run_pool_scheduler(
    configs: list[SimConfig],
    specs: list["TraceShmSpec | None"],
    todo: list[int],
    results: list[RunResult | None],
    workers: int,
    events,
    progress: Callable[[ProgressEvent], None] | None,
    heartbeat_every: int,
    should_stop: Callable[[], bool] | None,
    retries: int,
    backoff_s: float,
    on_complete: Callable[[int, RunResult], None],
    tracing: SweepTracing | None = None,
) -> None:
    """The fault-tolerant scheduler shared by all pool paths.

    Cells move between three places: ``ready`` (submit at the next
    opportunity), ``delayed`` (a backoff heap of ``(ready_at, index)``),
    and ``futures`` (in flight).  A cell whose attempt raises is charged
    one attempt and pushed onto the backoff heap; a
    :class:`BrokenProcessPool` kills every in-flight future, so the pool
    is rebuilt and all lost cells are charged and requeued together (the
    executor cannot say which cell crashed the worker).
    """
    n = len(configs)
    ready: deque[int] = deque(todo)
    delayed: list[tuple[float, int]] = []
    futures: dict = {}
    budget = RetryBudget(configs, todo, retries, backoff_s)
    pool = ProcessPoolExecutor(max_workers=workers)

    def submit(index: int) -> None:
        config = configs[index]
        spec = specs[index]
        cell_trace = (
            tracing.cell_payload(index) if tracing is not None else None
        )
        if tracing is not None:
            tracing.tracer.event(
                "cell.submit", cell=index, workload=config.workload,
                scheme=config.scheme,
            )
        if events is not None:
            future = pool.submit(
                _run_cell_observed, index, config, n, events,
                heartbeat_every, spec, cell_trace,
            )
        else:
            future = pool.submit(_run_cell, config, spec, cell_trace)
        futures[future] = index

    def charge(index: int, exc: BaseException) -> float:
        return budget.charge(index, exc, results=results)

    try:
        while ready or delayed or futures:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                ready.append(heapq.heappop(delayed)[1])

            broken: BaseException | None = None
            lost: list[int] = []  # submitted cells whose worker crashed
            while ready and broken is None:
                index = ready.popleft()
                try:
                    submit(index)
                except BrokenProcessPool as exc:
                    # Never submitted: back in line, no attempt charged.
                    broken = exc
                    ready.appendleft(index)

            if broken is None and futures:
                done, _ = wait(
                    set(futures), timeout=_POLL_S, return_when=FIRST_COMPLETED
                )
                if progress is not None:
                    _drain(events, progress)
                for future in done:
                    index = futures.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool as exc:
                        broken = exc
                        lost.append(index)
                    except Exception as exc:
                        delay = charge(index, exc)
                        heapq.heappush(
                            delayed, (time.monotonic() + delay, index)
                        )
                    else:
                        results[index] = result
                        on_complete(index, result)
            elif broken is None and delayed:
                # Everything left is waiting out a backoff.
                pause = delayed[0][0] - time.monotonic()
                time.sleep(max(0.0, min(_POLL_S, pause)))

            if broken is not None:
                # A worker died hard (SIGKILL/segfault/OOM): the pool is
                # unusable and every in-flight future is lost.  Rebuild the
                # pool and requeue the lost cells against their budgets.
                lost.extend(futures.values())
                futures.clear()
                pool.shutdown(wait=False)
                pool = ProcessPoolExecutor(max_workers=workers)
                base = time.monotonic()
                for index in lost:
                    heapq.heappush(
                        delayed, (base + charge(index, broken), index)
                    )

            if (
                (ready or delayed or futures)
                and should_stop is not None
                and should_stop()
            ):
                # Cooperative drain: unstarted cells are cancelled outright,
                # running cells finish (their results are kept and recorded)
                # — the pool always shuts down with zero orphaned workers.
                for future in futures:
                    future.cancel()
                finished, _ = wait(set(futures))
                for future in finished:
                    if future.cancelled():
                        continue
                    index = futures[future]
                    try:
                        results[index] = future.result()
                    except Exception:
                        continue  # cancelling anyway; drop the attempt
                    on_complete(index, results[index])
                if progress is not None:
                    _drain(events, progress)
                n_done = sum(r is not None for r in results)
                raise SweepCancelled(
                    f"sweep cancelled with {n_done}/{len(results)} cells "
                    "finished",
                    list(results),
                )
    finally:
        pool.shutdown(wait=True)
        if progress is not None:
            # Workers enqueue their final event before returning, so one
            # last drain after the pool closes delivers everything.
            _drain(events, progress)
