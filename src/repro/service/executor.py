"""Supervised worker processes: the batch pool and the front door's shards.

CPython's GIL serializes CPU-bound work across threads, and an exact
enumeration is exponential in the worst case, so a process boundary is
the only way to both use several cores and preempt a runaway query.
:class:`Worker` is the one supervisor of such processes in
:mod:`repro.service`: :class:`ProcessPoolExecutor` (the batch pool) and
:class:`~repro.service.sharding.ShardClient` (one front-door shard) both
hold workers and differ only in the loop they run and how they dispatch.

Design notes:

* **One start method.** Every worker starts from one context that
  prefers ``fork``, so algorithms and cost models registered in the
  parent are visible to workers whatever ``set_start_method`` says;
  platforms without ``fork`` use their default and only see built-ins.
* **One pipe per worker.** A private duplex :func:`multiprocessing.Pipe`,
  no shared queues: killing a worker mid-task can only corrupt its own
  pipe (discarded with it), never a sibling's channel.
* **One loop.** :func:`serve_pipe` is the worker side of both protocols:
  receive a message, handle it, send the reply, until the ``None``
  sentinel or a closed pipe.
* **One stop.** :meth:`Worker.stop` escalates sentinel → join →
  terminate → kill and closes the pipe; :meth:`Worker.restart` is a
  stop followed by a fresh spawn.  Workers shed inherited signal
  plumbing at start, so ``terminate`` always works and an interrupt in
  the terminal is left to the supervisor.
* **One cooperative-deadline rule.** :func:`stamp_deadline` ships
  ``min(own, remaining)`` to the engine as its cooperative budget, and
  :func:`hard_deadline` reaps the worker only ``_COOPERATIVE_GRACE``
  seconds after that — the engine salvages a partial-memo plan at its
  deadline, so hard kills are the exception (uncooperative engines,
  wedged workers), not the enforcement mechanism.

The batch pool on top of that:

* A worker that exceeds its deadline is **terminated and restarted**;
  the batch keeps draining on the remaining workers.  A worker that dies
  on its own (OOM kill, segfault) is detected via EOF and likewise
  restarted.  Either way the batch finishes.
* **Transient failures are retried**: with a :class:`~repro.service.resilience.RetryPolicy`
  installed, a crash, pipe EOF, or corrupted payload re-queues the item
  with exponential backoff + deterministic jitter, up to the policy's
  attempt cap and the batch-wide :class:`~repro.service.resilience.RetryBudget`.
  Deadline timeouts are *not* retried — the time budget is already
  spent; the service's degradation ladder owns that case.
* A **corrupted payload** — a message that is not the protocol's
  ``(index, ("ok"|"error", ...))`` shape, or that names the wrong job —
  is isolated to its item: the worker is recycled (its pipe can no
  longer be trusted) and the item resolves or retries on its own,
  leaving its batch siblings untouched.
* Deterministic **fault injection** for chaos tests: the parent resolves
  a :class:`~repro.service.faults.FaultInjector` directive per
  ``(tag, attempt)`` and ships it with the job message; the worker
  executes it (crash/hang/corrupt/slow) before touching the optimizer.
  With no injector configured the wire field is ``None`` and workers
  skip the machinery.
* Workers run :func:`repro.optimizer.api.optimize_request` directly —
  plan caching, metrics, and heuristic fallbacks stay in the parent
  (:mod:`repro.service.core`), which is what keeps cache behaviour
  identical across the serial/thread/process executors.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import OptimizationError

__all__ = [
    "EXECUTORS",
    "JobOutcome",
    "ProcessPoolExecutor",
    "Worker",
    "annotate_enumerate",
    "hard_deadline",
    "serve_pipe",
    "stamp_deadline",
]

#: Recognised ``executor=`` names for ``OptimizerService.optimize_batch``.
EXECUTORS = ("serial", "thread", "process")

#: The one start method of every worker: ``fork`` where the platform has
#: it (parent-registered plugins carry over), its default elsewhere.
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)

#: How long (seconds) a worker sent the shutdown sentinel gets to return
#: from its loop before :meth:`Worker.stop` escalates to terminate.
_STOP_GRACE = 2.0

#: How long (seconds) to wait for a terminated (then killed) worker to
#: be reaped.
_JOIN_GRACE = 5.0

#: Extra wall-clock (seconds) granted past the deadline to a job that
#: carries a cooperative ``deadline_seconds`` — the engine stops itself
#: at the deadline; the grace only covers salvage and serialization
#: before the supervisor assumes the worker is hung.
_COOPERATIVE_GRACE = 1.0


def stamp_deadline(document: Dict[str, Any], remaining: float) -> Dict[str, Any]:
    """Copy of a request ``document`` with cooperative budget ``min(own, remaining)``.

    The engine in the worker then stops itself at the deadline and
    salvages a partial-memo plan instead of being killed mid-enumeration.
    """
    own = document.get("deadline_seconds")
    return dict(
        document,
        deadline_seconds=remaining if own is None else min(float(own), remaining),
    )


def hard_deadline(document: Any, remaining: float) -> float:
    """Seconds after which a worker running ``document`` is reaped.

    A request document carrying a cooperative ``deadline_seconds`` gets
    ``_COOPERATIVE_GRACE`` on top of ``remaining``: its engine stops
    itself, so missing the grace too means the worker is hung (or the
    engine ignored its budget).  Anything else is reaped at ``remaining``.
    """
    if isinstance(document, dict) and document.get("deadline_seconds") is not None:
        return remaining + _COOPERATIVE_GRACE
    return remaining


@dataclass
class JobOutcome:
    """What happened to one dispatched job.

    Exactly one of the states holds:

    * ``status == "ok"`` — ``document`` is the serialized
      :class:`~repro.optimizer.api.OptimizationResult` and ``spans``
      (when the job carried trace context) holds the worker's serialized
      trace spans (:func:`repro.service.tracing.span_to_dict` wire
      dicts) for the parent to graft into the request's trace;
    * ``status == "error"`` — the worker raised; ``error`` is
      ``"ExcType: message"`` and ``spans`` is filled as for ``"ok"``;
    * ``status == "timeout"`` — the deadline expired and the worker was
      recycled;
    * ``status == "crashed"`` — the worker process died without
      reporting (killed, segfault) or returned a corrupted payload, and
      every allowed retry did the same; treated like an error by the
      caller.

    ``elapsed_seconds`` is wall-clock for the **final attempt** as seen
    by the parent; ``retries`` is how many extra attempts the job
    consumed before resolving (0 = first try).
    """

    status: str
    elapsed_seconds: float
    document: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    retries: int = 0
    spans: Optional[List[Dict[str, Any]]] = None


def annotate_enumerate(span, result, **attributes: Any) -> None:
    """Stamp an engine result on its ``enumerate`` span.

    The one definition of that span's attributes: the service's
    in-thread engine stage and the process worker both build it here,
    so a trace reads the same whichever executor ran the engine.
    """
    span.annotate(
        algorithm=result.algorithm,
        memo_entries=result.memo_entries,
        cost_evaluations=result.cost_evaluations,
        cardinality_estimations=result.cardinality_estimations,
        **attributes,
        **result.details,
    )


def serve_pipe(connection, handle: Callable[[Any], Any]) -> None:
    """The worker loop: send ``handle(message)`` for each message received.

    Returns on the ``None`` shutdown sentinel or a closed pipe.
    ``handle`` reports its own failures in the reply; an exception that
    escapes it ends the worker, which the supervisor sees as a crash.
    """
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        reply = handle(message)
        try:
            connection.send(reply)
        except (BrokenPipeError, OSError):
            return


def _process_worker_main(connection) -> None:
    """Batch worker: answer ``(index, document, fault)`` with ``(index, payload)``.

    All failures — including deserialization errors — are reported back
    as ``("error", type_name, message)`` payloads so the parent can
    isolate them per item.  A job carrying trace context gets its
    serialized ``enumerate`` span appended to either payload.  ``fault``
    is an injected chaos directive (or ``None``): executed *before* the
    optimizer so it models an infrastructure fault, not an algorithm bug.
    """
    # Imported here so the module import itself stays cheap in the
    # parent and works under the ``spawn`` start method.
    from repro.optimizer.api import optimize_request
    from repro.serialize import request_from_dict, result_to_dict
    from repro.service.faults import apply_fault
    from repro.service.tracing import Span, span_to_dict

    def handle(item) -> Tuple:
        index, document, fault = item
        # Trace context rides inside the job document (so the wire
        # protocol shape is unchanged); strip it before deserializing.
        trace_context = (
            document.pop("trace", None) if isinstance(document, dict) else None
        )
        if fault is not None:
            poison = apply_fault(fault)
            if poison is not None:
                return (index, poison)
        span = Span("enumerate") if trace_context is not None else None
        try:
            result = optimize_request(request_from_dict(document))
            if span is not None:
                span.finish()
                annotate_enumerate(span, result, worker_pid=os.getpid())
            payload: Tuple = ("ok", result_to_dict(result))
        except BaseException as exc:
            if span is not None:
                span.finish()
                span.set("error", f"{type(exc).__name__}: {exc}")
            payload = ("error", type(exc).__name__, str(exc))
        if span is not None:
            payload += ([span_to_dict(span, origin_s=span.start_s)],)
        return (index, payload)

    serve_pipe(connection, handle)


def _worker_bootstrap(connection, target: Callable, args: Tuple) -> None:
    """Child-side entry of every worker: reset signals, then run ``target``.

    A worker forked from the asyncio front door inherits the event
    loop's signal handlers (which ignore ``SIGTERM``) and its wakeup fd
    (the parent loop's self-pipe — a signal delivered to the worker
    would wake the *parent* as if it had been signalled).  Dropping both
    makes ``terminate`` kill the worker; ignoring ``SIGINT`` leaves a
    terminal interrupt to the supervisor, which stops its workers itself.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    target(connection, *args)


class Worker:
    """One supervised worker process plus its private duplex pipe.

    The process runs ``target(connection, *args)`` — a loop built on
    :func:`serve_pipe`.  The ``busy_*`` slots are the batch pool's
    record of the job in flight; shards leave them empty.
    """

    __slots__ = (
        "target",
        "args",
        "name",
        "connection",
        "process",
        "busy_index",
        "busy_document",
        "busy_attempt",
        "started_at",
    )

    def __init__(
        self,
        target: Callable = _process_worker_main,
        args: Tuple = (),
        name: str = "repro-optimizer-worker",
    ):
        self.target = target
        self.args = args
        self.name = name
        self.release()
        self._spawn()

    def _spawn(self) -> None:
        self.connection, child_connection = _CONTEXT.Pipe(duplex=True)
        self.process = _CONTEXT.Process(
            target=_worker_bootstrap,
            args=(child_connection, self.target, self.args),
            daemon=True,
            name=self.name,
        )
        self.process.start()
        child_connection.close()

    def assign(
        self,
        index: int,
        document: Dict[str, Any],
        attempt: int,
        fault: Optional[Dict[str, Any]],
    ) -> None:
        self.busy_index = index
        self.busy_document = document
        self.busy_attempt = attempt
        self.started_at = time.monotonic()
        self.connection.send((index, document, fault))

    def release(self) -> None:
        self.busy_index = None
        self.busy_document = None
        self.busy_attempt = 0
        self.started_at = None

    def elapsed(self) -> float:
        return 0.0 if self.started_at is None else time.monotonic() - self.started_at

    def stop(self, graceful: bool = True) -> None:
        """Shut the worker down; escalate if it will not die.

        Graceful: send the ``None`` sentinel and give the loop
        ``_STOP_GRACE`` seconds to return.  Then terminate, then kill,
        and close the pipe whatever happened.
        """
        try:
            if graceful and self.process.is_alive():
                try:
                    self.connection.send(None)
                except (BrokenPipeError, OSError):
                    pass
                self.process.join(timeout=_STOP_GRACE)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=_JOIN_GRACE)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=_JOIN_GRACE)
        finally:
            try:
                self.connection.close()
            except OSError:
                pass

    def restart(self, args: Optional[Tuple] = None) -> None:
        """Stop the process (ungracefully) and spawn a fresh one.

        ``args`` replaces the target's arguments for the new process.
        """
        self.stop(graceful=False)
        if args is not None:
            self.args = args
        self.release()
        self._spawn()


class ProcessPoolExecutor:
    """Run serialized optimization jobs on worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes (capped by the job count at run time).
    deadline_seconds:
        Per-item wall-clock budget measured from dispatch.  ``None``
        disables enforcement.  An expired item's worker is restarted;
        the item resolves to a ``"timeout"`` outcome.  Jobs whose
        request document carries its own ``deadline_seconds`` (a
        cooperative engine budget, see :func:`stamp_deadline`) stop
        themselves and return a salvaged result, so they are reaped only
        at :func:`hard_deadline`.
    retry_policy:
        :class:`~repro.service.resilience.RetryPolicy` governing retries
        of transient worker failures (crash, EOF, corrupted payload).
        ``None`` disables retry (legacy behaviour).
    retry_budget:
        Optional :class:`~repro.service.resilience.RetryBudget` shared
        across the batch; once exhausted, further failures resolve
        immediately.
    fault_injector:
        Optional :class:`~repro.service.faults.FaultInjector` whose
        directives are shipped to workers per ``(tag, attempt)`` — chaos
        testing only.

    The pool is created per :meth:`run` call and torn down afterwards,
    so no state leaks between batches.
    """

    def __init__(
        self,
        workers: int,
        deadline_seconds: Optional[float] = None,
        retry_policy=None,
        retry_budget=None,
        fault_injector=None,
    ):
        if workers < 1:
            raise OptimizationError(
                f"process executor needs >= 1 worker, got {workers}"
            )
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise OptimizationError(
                f"deadline_seconds must be positive, got {deadline_seconds}"
            )
        self.workers = workers
        self.deadline_seconds = deadline_seconds
        self.retry_policy = retry_policy
        self.retry_budget = retry_budget
        self.fault_injector = fault_injector

    # ------------------------------------------------------------------

    def run(
        self, jobs: Sequence[Tuple[int, Dict[str, Any]]]
    ) -> Dict[int, JobOutcome]:
        """Execute ``(index, request_document)`` jobs; return outcomes by index.

        Dispatch order follows the given sequence; resolution order is
        whatever the workers produce.  The call returns only when every
        job has an outcome — a hung worker is reaped at its deadline, so
        with a deadline set the batch provably terminates (retried items
        restart their deadline clock per attempt).
        """
        if not jobs:
            return {}
        outcomes: Dict[int, JobOutcome] = {}
        # Each pending entry is (index, document, attempt, ready_at):
        # fresh jobs are ready immediately, retries carry a backoff
        # timestamp and wait in the queue until it passes.
        pending: Deque[Tuple[int, Dict[str, Any], int, float]] = deque(
            (index, document, 0, 0.0) for index, document in jobs
        )
        pool: List[Worker] = [
            Worker() for _ in range(min(self.workers, len(jobs)))
        ]
        idle: List[Worker] = list(pool)
        busy: List[Worker] = []
        try:
            while pending or busy:
                now = time.monotonic()
                while idle and pending:
                    slot = next(
                        (
                            position
                            for position, entry in enumerate(pending)
                            if entry[3] <= now
                        ),
                        None,
                    )
                    if slot is None:
                        break  # every queued job is still backing off
                    index, document, attempt, _ = pending[slot]
                    del pending[slot]
                    worker = idle.pop()
                    fault = self._fault_for(document, attempt)
                    try:
                        worker.assign(index, document, attempt, fault)
                    except (BrokenPipeError, OSError):
                        # Worker died before it could accept work; this
                        # is the pool's fault, not the job's — requeue
                        # at the same attempt and restart the worker.
                        pending.appendleft((index, document, attempt, 0.0))
                        worker.restart()
                        idle.append(worker)
                        continue
                    busy.append(worker)
                ready = _connection_wait(
                    [worker.connection for worker in busy],
                    timeout=self._poll_timeout(busy, pending),
                )
                for connection in ready:
                    worker = next(
                        w for w in busy if w.connection is connection
                    )
                    try:
                        message = worker.connection.recv()
                    except (EOFError, OSError):
                        self._resolve_failure(
                            worker,
                            "crashed",
                            "worker process died unexpectedly "
                            f"(exit code {worker.process.exitcode})",
                            outcomes,
                            pending,
                        )
                        self._recycle(worker, pool, busy, idle, bool(pending))
                        continue
                    payload = self._validate_message(worker, message)
                    if payload is None:
                        # Corrupted payload: the pipe framing survived
                        # but the content is garbage — the worker can no
                        # longer be trusted, so recycle it; the *item*
                        # retries or fails alone, siblings are unharmed.
                        self._resolve_failure(
                            worker,
                            "crashed",
                            "worker returned a corrupted payload",
                            outcomes,
                            pending,
                        )
                        self._recycle(worker, pool, busy, idle, bool(pending))
                        continue
                    index = worker.busy_index
                    if payload[0] == "ok":
                        outcomes[index] = JobOutcome(
                            status="ok",
                            elapsed_seconds=worker.elapsed(),
                            document=payload[1],
                            retries=worker.busy_attempt,
                            spans=payload[2] if len(payload) == 3 else None,
                        )
                    else:
                        outcomes[index] = JobOutcome(
                            status="error",
                            elapsed_seconds=worker.elapsed(),
                            error=f"{payload[1]}: {payload[2]}",
                            retries=worker.busy_attempt,
                            spans=payload[3] if len(payload) == 4 else None,
                        )
                    worker.release()
                    busy.remove(worker)
                    idle.append(worker)
                if self.deadline_seconds is not None:
                    for worker in list(busy):
                        if worker.elapsed() >= self._hard_deadline(worker):
                            outcomes[worker.busy_index] = JobOutcome(
                                status="timeout",
                                elapsed_seconds=worker.elapsed(),
                                retries=worker.busy_attempt,
                            )
                            self._recycle(
                                worker, pool, busy, idle, bool(pending)
                            )
        finally:
            for worker in pool:
                worker.stop(graceful=worker.busy_index is None)
        return outcomes

    # ------------------------------------------------------------------

    def _hard_deadline(self, worker: Worker) -> float:
        """Wall-clock bound after which this worker's job is forcibly reaped."""
        return hard_deadline(worker.busy_document, self.deadline_seconds)

    def _fault_for(
        self, document: Dict[str, Any], attempt: int
    ) -> Optional[Dict[str, Any]]:
        """Resolve the chaos directive shipped with this dispatch."""
        if not self.fault_injector:
            return None
        spec = self.fault_injector.fault_for(document.get("tag"), attempt)
        return spec.to_dict() if spec is not None else None

    def _validate_message(self, worker: Worker, message) -> Optional[Tuple]:
        """Return the payload of a protocol-conforming message, else None.

        The index inside the message must name the job this worker was
        actually assigned — a corrupted worker must not be able to
        overwrite a sibling item's outcome.
        """
        if not isinstance(message, tuple) or len(message) != 2:
            return None
        index, payload = message
        if index != worker.busy_index:
            return None
        if not isinstance(payload, tuple) or not payload:
            return None
        # ("ok", result_doc) or ("error", type_name, message), each
        # followed by a list of span dicts when the job carried trace
        # context.
        if payload[0] == "ok":
            size = 2
            if len(payload) < 2 or not isinstance(payload[1], dict):
                return None
        elif payload[0] == "error":
            size = 3
        else:
            return None
        if len(payload) == size:
            return payload
        if len(payload) == size + 1 and isinstance(payload[size], list):
            return payload
        return None

    def _resolve_failure(
        self,
        worker: Worker,
        status: str,
        error: str,
        outcomes: Dict[int, JobOutcome],
        pending: Deque[Tuple[int, Dict[str, Any], int, float]],
    ) -> None:
        """Retry a transient worker failure, or record its final outcome."""
        index = worker.busy_index
        document = worker.busy_document
        attempt = worker.busy_attempt
        if self.retry_policy is not None and attempt < self.retry_policy.max_retries:
            if self.retry_budget is None or self.retry_budget.try_acquire():
                token = document.get("tag") or f"#{index}"
                delay = self.retry_policy.delay(attempt, token)
                pending.append(
                    (index, document, attempt + 1, time.monotonic() + delay)
                )
                return
            error = f"{error} [RetryExhaustedError: batch retry budget spent]"
        elif self.retry_policy is not None and attempt > 0:
            error = (
                f"{error} [RetryExhaustedError: failed on all "
                f"{attempt + 1} attempts]"
            )
        outcomes[index] = JobOutcome(
            status=status,
            elapsed_seconds=worker.elapsed(),
            error=error,
            retries=attempt,
        )

    def _poll_timeout(
        self,
        busy: Sequence[Worker],
        pending: Sequence[Tuple[int, Dict[str, Any], int, float]],
    ) -> Optional[float]:
        """Sleep until the next result, deadline expiry, or retry ready-time."""
        candidates: List[float] = []
        if self.deadline_seconds is not None and busy:
            candidates.append(
                min(
                    self._hard_deadline(worker) - worker.elapsed()
                    for worker in busy
                )
            )
        if pending and not any(entry[3] == 0.0 for entry in pending):
            now = time.monotonic()
            candidates.append(min(entry[3] for entry in pending) - now)
        if not candidates:
            # No deadline and no backoff to wake for: block until a
            # worker reports (there is always at least one busy worker
            # here, otherwise pending would have been dispatchable).
            return None if busy else 0.01
        # A small floor keeps the loop from busy-spinning when a
        # deadline is imminent; expiry is re-checked right after.
        return max(0.01, min(candidates))

    def _recycle(
        self,
        worker: Worker,
        pool: List[Worker],
        busy: List[Worker],
        idle: List[Worker],
        need_replacement: bool,
    ) -> None:
        """Restart a worker if jobs are still queued, else stop it."""
        busy.remove(worker)
        if need_replacement:
            worker.restart()
            idle.append(worker)
        else:
            pool.remove(worker)
            worker.stop(graceful=False)
