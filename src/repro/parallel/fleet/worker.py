"""The fleet worker agent: lease, run, heartbeat, survive the master.

One agent is one registered worker.  It keeps a local FIFO of leased
jobs and runs them one at a time in a thread
(:func:`asyncio.to_thread`), so heartbeats and revokes keep flowing
while a job computes.  Self-measured busy seconds ride along on every
``result`` frame — the master's lease-sizing cost model is fitted from
them.

Failure behaviour, matching the protocol's recovery story:

- **Connection lost** (master killed, partition): the agent keeps its
  queue *and* the running job, finishes it, stashes any unsendable
  results, and retries the connection for up to ``reconnect_seconds``.
  On reconnect it re-registers with the ``held`` job-id list (so a
  restarted master adopts the jobs instead of re-running them) and
  resends the stashed results (the master dedupes by first-commit-wins).
- **Revoke** (a peer stole from our backlog, or our straggler result
  lost the commit race): the ids vanish from the local queue; a job
  already running just finishes and lets the master drop the duplicate.
- **Drain**: no more work will ever come — finish the queue and exit.
"""

from __future__ import annotations

import asyncio
import os
import socket
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .messages import decode_line, encode_frame

__all__ = ["FleetWorkerStats", "run_fleet_worker", "run_sweep_worker"]


@dataclass
class FleetWorkerStats:
    """What one agent did over its lifetime (all reconnects included)."""

    worker_id: str
    jobs_done: int = 0
    busy_seconds: float = 0.0
    reconnects: int = 0
    revoked: int = 0
    results_resent: int = 0
    gave_up: bool = False
    job_ids: List[str] = field(default_factory=list)


def default_worker_id() -> str:
    """Host + pid + random tail: unique across the fleet, readable in logs."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class _Agent:
    def __init__(
        self,
        host: str,
        port: int,
        run_job: Callable[[dict], dict],
        *,
        worker_id: Optional[str],
        heartbeat_interval: float,
        reconnect_seconds: float,
        reconnect_delay: float,
    ):
        self.host, self.port = host, port
        self.run_job = run_job
        self.stats = FleetWorkerStats(worker_id=worker_id or default_worker_id())
        self.heartbeat_interval = heartbeat_interval
        self.reconnect_seconds = reconnect_seconds
        self.reconnect_delay = reconnect_delay
        self.queue: deque = deque()
        self.running_id: Optional[str] = None
        self.drained = False
        self.stopping = False
        self.writer: Optional[asyncio.StreamWriter] = None
        self.unsent: List[dict] = []
        self.wake = asyncio.Event()

    # -- frame plumbing ------------------------------------------------
    def _held(self) -> List[str]:
        held = [p["job_id"] for p in self.queue]
        if self.running_id is not None:
            held.insert(0, self.running_id)
        return held

    async def _send(self, message: dict) -> bool:
        if self.writer is None:
            return False
        try:
            self.writer.write(encode_frame(message))
            await self.writer.drain()
            return True
        except (ConnectionError, RuntimeError, OSError):
            return False

    async def _send_result(self, message: dict) -> None:
        if not await self._send(message):
            # connection is down: keep the result and resend after the
            # next registration — the master dedupes, so this can only
            # save work, never double-commit
            self.unsent.append(message)

    # -- tasks ---------------------------------------------------------
    async def runner(self) -> None:
        """FIFO job loop; exits when drained and empty (or told to stop)."""
        while True:
            if self.stopping:
                return
            if self.queue:
                payload = self.queue.popleft()
                self.running_id = payload["job_id"]
                t0 = time.perf_counter()
                record = await asyncio.to_thread(self.run_job, payload)
                seconds = time.perf_counter() - t0
                self.running_id = None
                self.stats.jobs_done += 1
                self.stats.busy_seconds += seconds
                self.stats.job_ids.append(payload["job_id"])
                await self._send_result(
                    {
                        "type": "result",
                        "worker": self.stats.worker_id,
                        "job_id": payload["job_id"],
                        "record": record,
                        "seconds": seconds,
                    }
                )
            elif self.drained:
                return
            else:
                self.wake.clear()
                await self.wake.wait()

    async def heartbeater(self) -> None:
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            await self._send(
                {
                    "type": "heartbeat",
                    "worker": self.stats.worker_id,
                    "held": self._held(),
                }
            )

    def _on_message(self, message: dict) -> None:
        kind = message.get("type")
        if kind == "lease":
            held = set(self._held())
            for payload in message.get("jobs", ()):
                if payload.get("job_id") not in held:
                    self.queue.append(payload)
            self.wake.set()
        elif kind == "revoke":
            drop = set(message.get("job_ids", ()))
            before = len(self.queue)
            self.queue = deque(
                p for p in self.queue if p["job_id"] not in drop
            )
            self.stats.revoked += before - len(self.queue)
        elif kind == "drain":
            self.drained = True
            self.wake.set()
        elif kind == "welcome" and message.get("reregister"):
            # the master expired us while the channel stayed up: it
            # wants a fresh hello to rebuild its lease view
            asyncio.ensure_future(self._register())

    async def _register(self) -> None:
        await self._send(
            {
                "type": "hello",
                "worker": self.stats.worker_id,
                "slots": 1,
                "held": self._held(),
            }
        )
        if self.unsent:
            stashed, self.unsent = self.unsent, []
            for message in stashed:
                self.stats.results_resent += 1
                await self._send_result(message)

    async def connection_loop(self) -> None:
        """Connect, register, read frames; reconnect on loss until the
        runner is done or the reconnect budget runs out."""
        last_alive = time.monotonic()
        first = True
        while not (self.drained and not self.queue and self.running_id is None):
            try:
                reader, self.writer = await asyncio.open_connection(
                    self.host, self.port
                )
            except OSError:
                self.writer = None
                if time.monotonic() - last_alive > self.reconnect_seconds:
                    self.stats.gave_up = True
                    self.stopping = True
                    self.wake.set()
                    return
                await asyncio.sleep(self.reconnect_delay)
                continue
            if not first:
                self.stats.reconnects += 1
            first = False
            last_alive = time.monotonic()
            await self._register()
            beat = asyncio.create_task(self.heartbeater())
            try:
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    last_alive = time.monotonic()
                    message = decode_line(line)
                    if message is not None:
                        self._on_message(message)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                pass
            finally:
                beat.cancel()
                try:
                    await beat
                except asyncio.CancelledError:
                    pass
                if self.writer is not None:
                    try:
                        self.writer.close()
                    except RuntimeError:
                        pass
                    self.writer = None


async def run_fleet_worker(
    host: str,
    port: int,
    run_job: Callable[[dict], dict],
    *,
    worker_id: Optional[str] = None,
    heartbeat_interval: float = 1.0,
    reconnect_seconds: float = 10.0,
    reconnect_delay: float = 0.25,
) -> FleetWorkerStats:
    """Run one worker agent until the fleet drains (or the master stays
    unreachable past the reconnect budget; see ``stats.gave_up``)."""
    agent = _Agent(
        host,
        port,
        run_job,
        worker_id=worker_id,
        heartbeat_interval=heartbeat_interval,
        reconnect_seconds=reconnect_seconds,
        reconnect_delay=reconnect_delay,
    )
    conn = asyncio.create_task(agent.connection_loop())
    await agent.runner()
    # best-effort goodbye so the master requeues nothing on our exit
    await agent._send({"type": "goodbye", "worker": agent.stats.worker_id})
    conn.cancel()
    try:
        await conn
    except asyncio.CancelledError:
        pass
    if agent.writer is not None:
        try:
            agent.writer.close()
        except RuntimeError:
            pass
    return agent.stats


def _sweep_job_runner(payload: dict) -> dict:
    """Run one sweep job payload (the ``job`` sub-dict is a JobSpec)."""
    from ...sweep.engine import _run_job_timed

    return _run_job_timed(payload["job"])


def run_sweep_worker(
    host: str,
    port: int,
    *,
    worker_id: Optional[str] = None,
    heartbeat_interval: float = 1.0,
    reconnect_seconds: float = 10.0,
    reconnect_delay: float = 0.25,
) -> FleetWorkerStats:
    """Synchronous sweep-worker entry point (the CLI's ``--fleet worker``)."""
    return asyncio.run(
        run_fleet_worker(
            host,
            port,
            _sweep_job_runner,
            worker_id=worker_id,
            heartbeat_interval=heartbeat_interval,
            reconnect_seconds=reconnect_seconds,
            reconnect_delay=reconnect_delay,
        )
    )
