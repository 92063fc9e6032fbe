"""The batching solve service: concurrent queries, stacked fronts.

An asyncio TCP front-end over the artifact cache (:mod:`repro.artifacts`)
speaking the fleet's wire format — newline-delimited JSON frames, one
message per line, torn lines skipped at the next parse boundary
(:mod:`repro.parallel.fleet.messages`).  Queries that arrive within one
*batching window* are grouped by structure fingerprint; each Pieri group
is tracked as **one** :class:`~repro.tracker.stacked.StackedHomotopy`
front (the fused :class:`~repro.schubert.parameter.PieriParameterStack`,
``B x d(m, p, q)`` paths in a single structure-of-arrays sweep), so B
concurrent clients share every vectorized tracker dispatch.

The cache-or-solve contract matches the library entry points it wraps:

- a *warm* group continues the stored solved generic instance to every
  query in the group — ``d(m, p, q)`` paths per query, no tree;
- a *cold* group solves its first query ab initio (populating the store
  through ``PieriSolver.solve(cache=...)``), then continues that fresh
  solution to the rest of the group in one stack;
- any query whose continuation drops a path falls back to its own
  ab-initio solve — the cache steers the route, never the answer.

Polynomial-system queries route through
:func:`repro.homotopy.solve` with the shared store (coefficient-
parameter continuation on warm support structures).

Counters land on the ambient :class:`~repro.telemetry.Telemetry`
(``serve.query`` / ``serve.group`` / ``serve.stack_paths`` /
``serve.fallback``) and on :attr:`SolveService.stats`; per-group records
accumulate in :attr:`SolveService.group_log` so tests and the ``--demo``
smoke can assert "N concurrent same-shape queries became one front".
"""

from __future__ import annotations

import asyncio
import contextvars
import json
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..artifacts import (
    ArtifactStore,
    load_pieri_generic,
    pieri_fingerprint,
    resolve_store,
)
from ..telemetry import current_telemetry
from ..tracker import TrackerOptions

__all__ = [
    "SERVE_MESSAGE_TYPES",
    "SolveService",
    "encode_serve_frame",
    "decode_serve_line",
    "complex_to_json",
    "complex_from_json",
    "request_many",
]

#: Frame vocabulary (the fleet idiom with a serve-specific alphabet).
SERVE_MESSAGE_TYPES = ("query", "result", "error", "stats", "stats_reply")


def encode_serve_frame(message: dict) -> bytes:
    """One message -> one newline-terminated JSON line (UTF-8 bytes)."""
    if message.get("type") not in SERVE_MESSAGE_TYPES:
        raise ValueError(f"unknown serve message type {message.get('type')!r}")
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode_serve_line(line: bytes) -> Optional[dict]:
    """Tolerant decode: ``None`` for blank, torn, or foreign lines."""
    line = line.strip()
    if not line:
        return None
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(message, dict):
        return None
    if message.get("type") not in SERVE_MESSAGE_TYPES:
        return None
    return message


def complex_to_json(array) -> dict:
    """A complex ndarray as a JSON-able ``{shape, re, im}`` triple."""
    array = np.asarray(array, dtype=complex)
    return {
        "shape": list(array.shape),
        "re": array.real.ravel().tolist(),
        "im": array.imag.ravel().tolist(),
    }


def complex_from_json(payload: dict) -> np.ndarray:
    """Inverse of :func:`complex_to_json`."""
    shape = tuple(int(s) for s in payload["shape"])
    re = np.asarray(payload["re"], dtype=float)
    im = np.asarray(payload["im"], dtype=float)
    return (re + 1j * im).reshape(shape)


def _pieri_instance_from_query(query: dict):
    """Materialize the query's :class:`~repro.schubert.PieriInstance`.

    Either explicit data (``planes`` + ``points`` complex payloads) or a
    ``seed`` for a reproducible general-position instance.
    """
    from ..schubert import PieriInstance, PieriProblem

    m, p, q = int(query["m"]), int(query["p"]), int(query.get("q", 0))
    if "planes" in query:
        planes = [complex_from_json(k) for k in query["planes"]]
        points = [complex(c[0], c[1]) for c in query["points"]]
        return PieriInstance(PieriProblem(m, p, q), planes, points)
    seed = int(query.get("seed", 0))
    return PieriInstance.random(m, p, q, np.random.default_rng(seed))


def _build_named_system(query: dict):
    from ..sweep.engine import _build_system

    kind = query["system"]
    rng = np.random.default_rng(int(query.get("seed", 0)))
    return _build_system(kind, {"n": int(query["n"])}, rng)


class SolveService:
    """Long-running solve front: group, stack, continue, reply.

    Parameters
    ----------
    store:
        Anything :func:`repro.artifacts.resolve_store` accepts; ``True``
        (default) means the ``$REPRO_ARTIFACT_STORE`` store.  ``None``
        disables caching — every query solves ab initio, ungrouped
        continuation-wise but still batched per window.
    batch_window:
        Seconds the batcher waits after the first query of a round so
        concurrent clients land in the same group.
    seed:
        Base seed for the service's continuation rng streams.
    """

    def __init__(
        self,
        store=True,
        batch_window: float = 0.05,
        options: TrackerOptions | None = None,
        seed: int = 0,
    ) -> None:
        self.store: Optional[ArtifactStore] = resolve_store(store)
        self.batch_window = float(batch_window)
        self.options = options
        self.seed = int(seed)
        self.stats = {
            "queries": 0,
            "groups": 0,
            "grouped_queries": 0,
            "warm_queries": 0,
            "cold_queries": 0,
            "fallbacks": 0,
            "errors": 0,
        }
        #: one record per processed group: key, size, route, stack paths
        self.group_log: List[dict] = []
        self._pending: List[tuple] = []  # (query, future)
        self._wake: Optional[asyncio.Event] = None
        self._batcher: Optional[asyncio.Task] = None
        self._rounds = 0

    # ------------------------------------------------------------- wire
    async def start(self, host: str = "127.0.0.1", port: int = 0):
        """Bind and serve; returns the ``asyncio.Server`` (port via
        ``server.sockets[0].getsockname()[1]``)."""
        self._wake = asyncio.Event()
        self._batcher = asyncio.get_running_loop().create_task(
            self._batch_loop()
        )
        return await asyncio.start_server(self._client_loop, host, port)

    async def aclose(self) -> None:
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None

    async def _client_loop(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                message = decode_serve_line(line)
                if message is None:
                    continue
                if message["type"] == "stats":
                    reply = {
                        "type": "stats_reply",
                        "stats": dict(self.stats),
                        "groups": list(self.group_log),
                    }
                    writer.write(encode_serve_frame(reply))
                    await writer.drain()
                    continue
                if message["type"] != "query":
                    continue
                future = asyncio.get_running_loop().create_future()
                self._pending.append((message, future))
                self.stats["queries"] += 1
                tel = current_telemetry()
                if tel is not None:
                    tel.count("serve.query")
                self._wake.set()
                response = await future
                writer.write(encode_serve_frame(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _batch_loop(self) -> None:
        while True:
            await self._wake.wait()
            # the window: let concurrent clients join this round
            await asyncio.sleep(self.batch_window)
            self._wake.clear()
            batch, self._pending = self._pending, []
            if not batch:
                continue
            self._rounds += 1
            groups = self._group(batch)
            for key, items in groups:
                queries = [q for q, _ in items]
                futures = [f for _, f in items]
                # run_in_executor does not propagate contextvars to the
                # worker thread — copy so the ambient Telemetry is seen
                ctx = contextvars.copy_context()
                responses = await asyncio.get_running_loop().run_in_executor(
                    None, ctx.run, self._solve_group, key, queries
                )
                for future, response in zip(futures, responses):
                    if not future.done():
                        future.set_result(response)

    # ---------------------------------------------------------- routing
    def _group(self, batch: Sequence[tuple]) -> List[tuple]:
        """Partition one round's queries by structure fingerprint."""
        groups: Dict[str, List[tuple]] = {}
        order: List[str] = []
        for query, future in batch:
            try:
                kind = query.get("kind")
                if kind == "pieri":
                    key = pieri_fingerprint(
                        int(query["m"]), int(query["p"]),
                        int(query.get("q", 0)),
                    )
                elif kind == "system":
                    key = f"system-{query['system']}-{int(query['n'])}"
                else:
                    key = "malformed"
            except (KeyError, TypeError, ValueError):
                key = "malformed"
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append((query, future))
        return [(key, groups[key]) for key in order]

    def _solve_group(self, key: str, queries: List[dict]) -> List[dict]:
        tel = current_telemetry()
        self.stats["groups"] += 1
        self.stats["grouped_queries"] += len(queries)
        if tel is not None:
            tel.count("serve.group")
        if key == "malformed":
            self.stats["errors"] += len(queries)
            return [
                {
                    "type": "error",
                    "id": q.get("id"),
                    "error": "malformed query: need kind='pieri' "
                    "(m, p, q[, seed|planes+points]) or kind='system' "
                    "(system, n)",
                }
                for q in queries
            ]
        try:
            if queries[0]["kind"] == "pieri":
                return self._solve_pieri_group(key, queries)
            return self._solve_system_group(key, queries)
        except Exception as exc:  # noqa: BLE001 - the service must answer
            self.stats["errors"] += len(queries)
            return [
                {"type": "error", "id": q.get("id"), "error": repr(exc)}
                for q in queries
            ]

    # ------------------------------------------------------------ pieri
    def _solve_pieri_group(self, key: str, queries: List[dict]) -> List[dict]:
        from ..schubert import (
            PieriSolver,
            continue_to_instances,
            pieri_root_count,
        )

        tel = current_telemetry()
        instances = [_pieri_instance_from_query(q) for q in queries]
        problem = instances[0].problem
        d = pieri_root_count(problem.m, problem.p, problem.q)
        responses: List[Optional[dict]] = [None] * len(queries)

        generic = generic_solutions = None
        if self.store is not None:
            loaded = load_pieri_generic(
                self.store, problem.m, problem.p, problem.q
            )
            if loaded is not None:
                generic, generic_solutions, _ = loaded
        route = "warm"
        continued = list(range(len(queries)))
        if generic is None:
            # cold group: the first query pays the ab-initio tree (and
            # populates the store); its fresh solution set is the
            # generic instance the rest of the group continues from
            route = "cold"
            report = PieriSolver(instances[0], seed=self.seed).solve(
                cache=self.store
            )
            responses[0] = self._pieri_response(
                queries[0], report.solutions, report.cache
            )
            self.stats["cold_queries"] += 1
            if report.failures or not report.solutions:
                # give every remaining query its own ab-initio solve
                # rather than continuing from an incomplete root set
                for k in range(1, len(queries)):
                    responses[k] = self._pieri_fallback(queries[k], instances[k])
                self._log_group(key, len(queries), 0, "cold")
                return responses
            generic, generic_solutions = instances[0], report.solutions
            continued = list(range(1, len(queries)))

        stack_paths = 0
        if continued:
            rng = np.random.default_rng(
                [self.seed, self._rounds, len(self.group_log)]
            )
            targets = [instances[k] for k in continued]
            stack_paths = len(targets) * d
            if tel is not None:
                tel.count("serve.stack_paths", stack_paths)
            pairs = continue_to_instances(
                generic, generic_solutions, targets,
                options=self.options, rng=rng,
            )
            for k, (solutions, results) in zip(continued, pairs):
                if len(solutions) == d and all(r.success for r in results):
                    cache_note = {"status": "warm", "key": key, "n_paths": d}
                    responses[k] = self._pieri_response(
                        queries[k], solutions, cache_note
                    )
                    self.stats["warm_queries"] += 1
                else:
                    responses[k] = self._pieri_fallback(queries[k], instances[k])
        self._log_group(key, len(queries), stack_paths, route)
        return responses

    def _pieri_fallback(self, query: dict, instance) -> dict:
        from ..schubert import PieriSolver

        tel = current_telemetry()
        self.stats["fallbacks"] += 1
        self.stats["cold_queries"] += 1
        if tel is not None:
            tel.count("serve.fallback")
        report = PieriSolver(instance, seed=self.seed).solve()
        note = dict(report.cache or {})
        note["fallback"] = True
        return self._pieri_response(query, report.solutions, note)

    def _pieri_response(self, query, solutions, cache_note) -> dict:
        return {
            "type": "result",
            "id": query.get("id"),
            "ok": True,
            "n_solutions": len(solutions),
            "solutions": [complex_to_json(s) for s in solutions],
            "cache": cache_note,
        }

    # ----------------------------------------------------------- system
    def _solve_system_group(self, key: str, queries: List[dict]) -> List[dict]:
        from ..homotopy import solve

        responses = []
        warm = cold = 0
        for query in queries:
            system = _build_named_system(query)
            report = solve(
                system,
                start=query.get("start", "polyhedral"),
                rng=np.random.default_rng(
                    [self.seed, int(query.get("seed", 0))]
                ),
                cache=self.store,
            )
            note = report.summary.get("cache")
            if note and note.get("status") == "warm":
                warm += 1
                self.stats["warm_queries"] += 1
            else:
                cold += 1
                self.stats["cold_queries"] += 1
            responses.append(
                {
                    "type": "result",
                    "id": query.get("id"),
                    "ok": True,
                    "n_solutions": len(report.solutions),
                    "solutions": [
                        complex_to_json(s) for s in report.solutions
                    ],
                    "cache": note,
                    "summary": {
                        k: report.summary.get(k)
                        for k in ("success", "mixed_volume", "n_paths")
                        if k in report.summary
                    },
                }
            )
        self._log_group(
            key, len(queries), 0, "warm" if cold == 0 else "cold"
        )
        return responses

    def _log_group(self, key, size, stack_paths, route) -> None:
        self.group_log.append(
            {
                "key": key,
                "size": int(size),
                "stack_paths": int(stack_paths),
                "route": route,
            }
        )


async def _request(host: str, port: int, query: dict) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode_serve_frame(query))
        await writer.drain()
        while True:
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed before replying")
            message = decode_serve_line(line)
            if message is not None:
                return message
    finally:
        writer.close()


async def request_many(host: str, port: int, queries: Sequence[dict]) -> List[dict]:
    """Fire queries concurrently (one connection each); ordered replies.

    This is what makes the batching observable from the outside: all
    queries hit the server inside one window, so same-structure ones
    land in one group and one stacked front.
    """
    return list(
        await asyncio.gather(
            *(_request(host, port, dict(q)) for q in queries)
        )
    )
