"""Supervised worker processes: the batch pool and the front door's shards.

CPython's GIL serializes CPU-bound work across threads, and an exact
enumeration is exponential in the worst case, so a process boundary is
the only way to both use several cores and preempt a runaway query.
:class:`Worker` is the one supervisor of such processes in
:mod:`repro.service`: :class:`ProcessPoolExecutor` (the batch pool) and
:class:`~repro.service.sharding.ShardClient` (one front-door shard) both
hold workers and send them jobs through one round trip; they differ in
what they queue and how they type a failure for their callers.

Design notes:

* **One start method.** Every worker starts from one context that
  prefers ``fork``, so algorithms registered and cost-model classes
  defined in the parent are visible to workers whatever
  ``set_start_method`` says (a cost model crosses by class name, see
  :func:`repro.serialize.cost_model_to_dict`); platforms without
  ``fork`` use their default and only see built-ins.
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
* **One round trip.** :meth:`Worker.roundtrip` is the only place a
  worker pipe is waited on: send, wait on the event loop until the pipe
  is readable or a hard timeout passes, receive.  A timeout, a broken
  pipe or a failed respawn restarts the worker and comes back as one
  typed failure, ``"timeout"`` or ``"crashed"``.
* **One deadline rule.** :func:`check_deadline` accepts a batch
  deadline only when it is finite and positive; :func:`stamp_deadline`
  ships ``min(own, remaining)`` to the engine as its cooperative
  budget, and :func:`hard_deadline` reaps the worker only
  ``_COOPERATIVE_GRACE`` seconds after that — the engine salvages a
  partial-memo plan at its deadline, so hard kills are the exception
  (uncooperative engines, wedged workers), not the enforcement
  mechanism.

The batch pool on top of that:

* One **drain coroutine per worker** takes jobs from one shared queue
  on a private event loop.  A worker that exceeds its deadline is
  **terminated and restarted** by the round trip while the other drains
  keep going; a worker that dies on its own (OOM kill, segfault) is
  detected via EOF and likewise restarted.  Either way the batch
  finishes.
* **Transient failures are retried**: with a :class:`~repro.service.resilience.RetryPolicy`
  installed, a crash, pipe EOF, or corrupted payload re-queues the item
  with exponential backoff + deterministic jitter, up to the policy's
  attempt cap and the batch-wide :class:`~repro.service.resilience.RetryBudget`.
  A job that is backing off waits on a timer, not on a worker.
  Deadline timeouts are *not* retried — the time budget is already
  spent; the service's degradation ladder owns that case.
* A **corrupted payload** — a message that is not the protocol's
  ``(index, ("ok"|"error", ...))`` shape, or that names the wrong job —
  is isolated to its item: the worker is stopped (its pipe can no
  longer be trusted; the next round trip respawns it) and the item
  resolves or retries on its own, leaving its batch siblings untouched.
* Deterministic **fault injection** for chaos tests: the parent resolves
  a :class:`~repro.service.faults.FaultInjector` directive per
  ``(tag, attempt)`` and ships it with the job message; the worker
  executes it (crash/hang/corrupt/slow) before touching the optimizer.
  With no injector configured the wire field is ``None`` and workers
  skip the machinery.
* Workers run :func:`repro.optimizer.api.optimize_request` directly —
  plan caching, metrics, and heuristic fallbacks stay in the parent
  (:mod:`repro.service.core`), which is what keeps cache behaviour
  identical across the serial and process executors.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import os
import signal
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import OptimizationError

__all__ = [
    "EXECUTORS",
    "JobOutcome",
    "ProcessPoolExecutor",
    "Worker",
    "annotate_enumerate",
    "check_deadline",
    "hard_deadline",
    "serve_pipe",
    "stamp_deadline",
]

#: Recognised ``executor=`` names for ``OptimizerService.optimize_batch``.
EXECUTORS = ("serial", "process")

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


def check_deadline(deadline_seconds: Optional[float]) -> None:
    """Reject a batch deadline unless it is ``None`` or finite and > 0.

    ``nan`` passes every ``<=`` comparison, and neither it nor ``inf``
    means anything as a budget.
    """
    if deadline_seconds is None:
        return
    try:
        valid = math.isfinite(deadline_seconds) and deadline_seconds > 0
    except (TypeError, OverflowError):
        valid = False
    if not valid:
        raise OptimizationError(
            f"deadline_seconds must be finite and > 0, got {deadline_seconds!r}"
        )


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
    in-process engine stage and the process worker both build it here,
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
    :func:`serve_pipe` — and :meth:`roundtrip` is how its supervisor
    talks to it.
    """

    __slots__ = ("target", "args", "name", "connection", "process")

    def __init__(
        self,
        target: Callable = _process_worker_main,
        args: Tuple = (),
        name: str = "repro-optimizer-worker",
    ):
        self.target = target
        self.args = args
        self.name = name
        self._spawn()

    def _spawn(self) -> None:
        self.connection, child_connection = _CONTEXT.Pipe(duplex=True)
        try:
            self.process = _CONTEXT.Process(
                target=_worker_bootstrap,
                args=(child_connection, self.target, self.args),
                daemon=True,
                name=self.name,
            )
            self.process.start()
        except BaseException:
            # No process to answer: leave the pipe closed, so the next
            # round trip respawns instead of waiting on it.
            self.connection.close()
            raise
        finally:
            child_connection.close()

    async def roundtrip(
        self,
        loop: asyncio.AbstractEventLoop,
        message: Any,
        timeout: Optional[float] = None,
        restart: Optional[Callable[[], None]] = None,
    ) -> Tuple[str, Any]:
        """Send ``message`` and await the reply for at most ``timeout`` seconds.

        Returns ``("ok", reply)``.  When the wait times out, the pipe
        breaks (EOF, ``OSError``) or a respawn fails, the worker is
        restarted with ``restart`` (default :meth:`restart`) and the
        result is ``("timeout" | "crashed", exit_code)`` — the exit code
        of the process that was reaped.  A respawn that fails leaves the
        pipe closed, and a closed pipe is respawned before the next send.
        """
        restart = restart or self.restart
        try:
            if self.connection.closed:
                restart()
            self.connection.send(message)
            readable = loop.create_future()
            fd = self.connection.fileno()
            loop.add_reader(fd, _resolve_once, readable)
            try:
                await asyncio.wait_for(readable, timeout)
            finally:
                # Before any restart closes the pipe under the reader.
                loop.remove_reader(fd)
            return "ok", self.connection.recv()
        except asyncio.TimeoutError:
            status = "timeout"
        except (EOFError, OSError):
            status = "crashed"
        reaped = self.process
        try:
            restart()
        except OSError:
            pass  # the pipe stays closed; the next round trip respawns
        return status, reaped.exitcode

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
        self._spawn()


def _resolve_once(future) -> None:
    """Reader callback: mark a worker's pipe readable (reply or EOF)."""
    if not future.done():
        future.set_result(None)


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
        check_deadline(deadline_seconds)
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
        restart their deadline clock per attempt).  No worker outlives
        the call, whatever it raises.
        """
        if not jobs:
            return {}
        outcomes: Dict[int, JobOutcome] = {}
        pool: List[Worker] = []
        # The drains run on a private loop on the calling thread.  A
        # caller inside a coroutine blocks on the batch as on any
        # synchronous call; its loop is set aside meanwhile, never
        # replaced or closed.
        outer = asyncio.events._get_running_loop()
        loop = asyncio.new_event_loop()
        asyncio.events._set_running_loop(None)
        finished = False
        try:
            for _ in range(min(self.workers, len(jobs))):
                pool.append(Worker())
            loop.run_until_complete(self._drain_all(loop, pool, jobs, outcomes))
            finished = True
        finally:
            asyncio.events._set_running_loop(outer)
            for worker in pool:
                worker.stop(graceful=finished)
            loop.close()
        return outcomes

    # ------------------------------------------------------------------

    async def _drain_all(
        self,
        loop: asyncio.AbstractEventLoop,
        pool: List[Worker],
        jobs: Sequence[Tuple[int, Dict[str, Any]]],
        outcomes: Dict[int, JobOutcome],
    ) -> None:
        """One drain per worker on one shared queue, until every job resolves.

        A retry re-enters the queue when its backoff timer fires; the
        drain that records the last outcome wakes every drain to return.
        """
        queue: asyncio.Queue = asyncio.Queue()
        for index, document in jobs:
            queue.put_nowait((index, document, 0))
        unresolved = len(jobs)

        async def drain(worker: Worker) -> None:
            nonlocal unresolved
            while True:
                entry = await queue.get()
                if entry is None:
                    return
                outcome = await self._attempt(loop, worker, *entry)
                if outcome.status == "crashed":
                    outcome = self._retry_or_resolve(loop, queue, *entry, outcome)
                    if outcome is None:
                        continue
                outcomes[entry[0]] = outcome
                unresolved -= 1
                if not unresolved:
                    for _ in pool:
                        queue.put_nowait(None)

        await asyncio.gather(*(drain(worker) for worker in pool))

    async def _attempt(
        self,
        loop: asyncio.AbstractEventLoop,
        worker: Worker,
        index: int,
        document: Dict[str, Any],
        attempt: int,
    ) -> JobOutcome:
        """Run one attempt of one job on ``worker`` and type its outcome."""
        timeout = None
        if self.deadline_seconds is not None:
            timeout = hard_deadline(document, self.deadline_seconds)
        started = loop.time()
        status, reply = await worker.roundtrip(
            loop, (index, document, self._fault_for(document, attempt)), timeout
        )
        elapsed = loop.time() - started
        if status == "timeout":
            return JobOutcome("timeout", elapsed, retries=attempt)
        if status == "crashed":
            return JobOutcome(
                "crashed",
                elapsed,
                error=f"worker process died unexpectedly (exit code {reply})",
                retries=attempt,
            )
        payload = self._validate_message(index, reply)
        if payload is None:
            # Corrupted payload: the pipe framing survived but the
            # content is garbage — the worker can no longer be trusted,
            # so stop it (the next round trip respawns it); the *item*
            # retries or fails alone, siblings are unharmed.
            worker.stop(graceful=False)
            return JobOutcome(
                "crashed",
                elapsed,
                error="worker returned a corrupted payload",
                retries=attempt,
            )
        if payload[0] == "ok":
            return JobOutcome(
                "ok",
                elapsed,
                document=payload[1],
                retries=attempt,
                spans=payload[2] if len(payload) == 3 else None,
            )
        return JobOutcome(
            "error",
            elapsed,
            error=f"{payload[1]}: {payload[2]}",
            retries=attempt,
            spans=payload[3] if len(payload) == 4 else None,
        )

    def _fault_for(
        self, document: Dict[str, Any], attempt: int
    ) -> Optional[Dict[str, Any]]:
        """Resolve the chaos directive shipped with this dispatch."""
        if not self.fault_injector:
            return None
        spec = self.fault_injector.fault_for(document.get("tag"), attempt)
        return spec.to_dict() if spec is not None else None

    def _validate_message(self, index: int, message) -> Optional[Tuple]:
        """Return the payload of a protocol-conforming message, else None.

        The index inside the message must name the job this worker was
        actually sent — a corrupted worker must not be able to
        overwrite a sibling item's outcome.
        """
        if not isinstance(message, tuple) or len(message) != 2:
            return None
        if message[0] != index:
            return None
        payload = message[1]
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

    def _retry_or_resolve(
        self,
        loop: asyncio.AbstractEventLoop,
        queue: asyncio.Queue,
        index: int,
        document: Dict[str, Any],
        attempt: int,
        outcome: JobOutcome,
    ) -> Optional[JobOutcome]:
        """Requeue a crashed attempt after its backoff (``None``), or
        return its final outcome."""
        if self.retry_policy is not None and attempt < self.retry_policy.max_retries:
            if self.retry_budget is None or self.retry_budget.try_acquire():
                token = document.get("tag") or f"#{index}"
                loop.call_later(
                    self.retry_policy.delay(attempt, token),
                    queue.put_nowait,
                    (index, document, attempt + 1),
                )
                return None
            outcome.error += " [RetryExhaustedError: batch retry budget spent]"
        elif self.retry_policy is not None and attempt > 0:
            outcome.error += (
                f" [RetryExhaustedError: failed on all {attempt + 1} attempts]"
            )
        return outcome
