"""Blackbox sequential solver: start system + homotopy + tracker.

``solve`` is the one-call driver matching PHCpack's blackbox mode for the
systems in this reproduction: build a start system with known roots, form
the gamma-trick homotopy, track every path, and return classified results
plus the list of distinct finite solutions.

>>> import numpy as np
>>> from repro.systems import katsura_system
>>> report = solve(katsura_system(2), rng=np.random.default_rng(0))
>>> report.n_paths, report.n_solutions
(4, 4)
"""

from __future__ import annotations

import dataclasses

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, List, Literal, Optional

import numpy as np

from ..endgame import make_endgame
from ..kernels import kernel_cache_info
from ..polyhedral import PolyhedralStart
from ..polynomials import PolynomialSystem
from ..telemetry import Telemetry, current_telemetry, maybe_span, use_telemetry
from ..tracker import (
    BatchTracker,
    Ladder,
    PathResult,
    PathStatus,
    TrackerOptions,
    greedy_cluster_indices,
    make_predictor,
    refine_solutions,
    rescue_diverged,
    retrack_duplicate_clusters,
    summarize_results,
)
from .convex import ConvexHomotopy
from .start import (
    LinearProductStart,
    total_degree_start_solutions,
    total_degree_start_system,
)

__all__ = [
    "SolveReport",
    "solve",
    "make_homotopy_and_starts",
    "distinct_solutions",
    "multiplicity_clusters",
]

#: The main pass of a warm polyhedral query (``solve(start="polyhedral",
#: cache=...)`` served from the store) when the caller passes neither
#: ``options`` nor ``predictor``: the Hermite cubic as a guess on the
#: seed's step control.  Every warm path starts at a regular root of a
#: generic instance, and Euler at ``corrector_tol = 1e-9`` takes about
#: three Newton updates a step there, so its streak rule never grows a
#: halved step back and the slowest path takes 5-6x the median's steps
#: (``docs/tracking.md``).  The cold route, the closed-form starts and
#: anything the caller passes keep their own options.
WARM_OPTIONS = TrackerOptions(predictor="cubic")


@dataclass
class SolveReport:
    """Everything the blackbox solver learned about a system.

    Attributes
    ----------
    results:
        One :class:`~repro.tracker.PathResult` per tracked path, ordered
        by path id, carrying status, endpoint and effort counters.
    solutions:
        The distinct finite solutions clustered from the SUCCESS
        endpoints (see :func:`distinct_solutions`).
    summary:
        Aggregate counts/effort from
        :func:`~repro.tracker.summarize_results` — keys ``total``,
        ``success``, ``diverged``, ``failed``, ``singular`` plus
        timing/step statistics.
    """

    results: List[PathResult]
    solutions: List[np.ndarray] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    #: distinct *singular* roots recovered by the endgame (endpoint
    #: representatives, one per multiplicity cluster); empty with the
    #: default refine endgame
    singular_solutions: List[np.ndarray] = field(default_factory=list)
    #: :meth:`~repro.telemetry.Telemetry.summary` of the run — per-layer
    #: span calls/seconds, counters, histograms; ``None`` when no
    #: telemetry context was active and ``trace_paths`` was off
    telemetry: Optional[dict] = None
    #: the live :class:`~repro.telemetry.Telemetry` object when
    #: ``trace_paths=True`` — call ``report.trace.write_trace(path)`` to
    #: export the Perfetto-openable event trace
    trace: Optional[Telemetry] = None

    @property
    def n_paths(self) -> int:
        return len(self.results)

    @property
    def n_solutions(self) -> int:
        return len(self.solutions)

    @property
    def multiplicity_histogram(self) -> dict:
        """``{multiplicity: number of distinct roots}`` over all roots.

        Regular roots count at multiplicity 1; endgame-recovered
        singular roots at their cluster multiplicity.  Empty dict when
        nothing was solved.
        """
        return self.summary.get(
            "multiplicity_histogram",
            {1: len(self.solutions)} if self.solutions else {},
        )


def distinct_solutions(
    results: Iterable[PathResult], tol: float = 1e-6
) -> List[np.ndarray]:
    """Cluster SUCCESS endpoints into distinct solutions (max-norm ``tol``).

    Parameters
    ----------
    results:
        Path results to cluster; non-SUCCESS paths are ignored.
    tol:
        Two endpoints within ``tol`` in the max norm count as the same
        solution; the first representative is kept.

    Returns
    -------
    The distinct endpoints, in first-seen order.

    >>> import numpy as np
    >>> from repro.tracker import PathResult, PathStatus
    >>> def ok(x):
    ...     x = np.asarray(x, dtype=complex)
    ...     return PathResult(PathStatus.SUCCESS, x, x, 0.0)
    >>> len(distinct_solutions([ok([1.0]), ok([1.0 + 1e-9]), ok([2.0])]))
    2
    """
    sols = [r.solution for r in results if r.success]
    return [sols[c[0]] for c in greedy_cluster_indices(sols, tol)]


def multiplicity_clusters(
    results: Iterable[PathResult],
    tol: float = 1e-6,
    singular_tol: float = 1e-3,
) -> List[dict]:
    """Cluster finite endpoints — regular *and* recovered singular —
    into distinct roots with multiplicities.

    A cluster groups every SUCCESS endpoint and every endgame-classified
    SINGULAR endpoint (one with a measured winding number) within
    ``tol`` in the max norm.  A second pass lets singular clusters
    *absorb* plain-success clusters within ``singular_tol``: near a
    multiplicity-``w`` root, Newton "successes" land anywhere within
    ``~residual^(1/w)`` of the root (and a path that jumped off a
    diverging trajectory can park there too), so a sloppy success next
    to a measured singularity is the same root, not a neighbor.

    The multiplicity of a cluster is the members' largest measured
    winding number when any exists — the monodromy-certified cycle
    length outranks path counting, which jumps can corrupt — and the
    cluster size otherwise (``m`` paths of a proper homotopy sharing an
    endpoint witness a multiplicity-``m`` root).  Each member's
    :attr:`~repro.tracker.PathResult.multiplicity` is raised to the
    cluster value.

    Returns one record per distinct root, in first-seen order:
    ``{"solution", "path_ids", "multiplicity", "singular"}``.

    >>> import numpy as np
    >>> from repro.tracker import PathResult, PathStatus
    >>> def path(x, status=PathStatus.SUCCESS, w=None):
    ...     x = np.asarray(x, dtype=complex)
    ...     return PathResult(status, x, x, 0.0, winding_number=w,
    ...                       multiplicity=w)
    >>> recs = multiplicity_clusters([
    ...     path([1.0]),
    ...     path([0.0], PathStatus.SINGULAR, w=2),
    ...     path([0.0 + 1e-9], PathStatus.SINGULAR, w=2),
    ... ])
    >>> [(int(r["multiplicity"]), r["singular"]) for r in recs]
    [(1, False), (2, True)]
    """
    finite = [
        r for r in results
        if r.success or (
            r.status is PathStatus.SINGULAR and r.winding_number is not None
        )
    ]
    idx = greedy_cluster_indices([r.solution for r in finite], tol)
    reps: List[np.ndarray] = [finite[c[0]].solution for c in idx]
    clusters: List[List[PathResult]] = [[finite[i] for i in c] for c in idx]
    # absorption pass: singular clusters swallow nearby success clusters
    is_singular = [
        any(m.status is PathStatus.SINGULAR for m in members)
        for members in clusters
    ]
    absorbed = [False] * len(clusters)
    for k, members in enumerate(clusters):
        if not is_singular[k]:
            continue
        for j in range(len(clusters)):
            if j == k or is_singular[j] or absorbed[j]:
                continue
            if np.max(np.abs(reps[j] - reps[k])) < singular_tol:
                members.extend(clusters[j])
                absorbed[j] = True
    out: List[dict] = []
    for k, (rep, members) in enumerate(zip(reps, clusters)):
        if absorbed[k]:
            continue
        windings = [m.winding_number for m in members if m.winding_number]
        mult = max(windings) if windings else len(members)
        for m in members:
            m.multiplicity = max(m.multiplicity or 1, mult)
        out.append(
            {
                "solution": rep,
                "path_ids": [m.path_id for m in members],
                "multiplicity": mult,
                "singular": is_singular[k],
            }
        )
    return out


def make_homotopy_and_starts(
    target: PolynomialSystem,
    start_kind: Literal["total_degree", "linear_product", "polyhedral"] = "total_degree",
    rng: np.random.Generator | None = None,
    gamma: complex | None = None,
    options: TrackerOptions | None = None,
    kernel: str | None = None,
):
    """Build the gamma-trick homotopy plus the list of start solutions.

    Parameters
    ----------
    target:
        The square polynomial system to solve.
    start_kind:
        ``"total_degree"`` (one start root per Bezout path),
        ``"linear_product"`` (a tighter product start system), or
        ``"polyhedral"`` (one start root per unit of mixed volume — the
        BKK count; the toric roots are produced by tracking the per-cell
        polyhedral homotopies of :class:`~repro.polyhedral.
        PolyhedralStart` first, so this choice does real work).
    rng:
        Source of the random start-system constants and the gamma twist;
        pass a seeded generator for reproducible homotopies.
    gamma:
        Fix the gamma constant instead of drawing it from ``rng``.
    options:
        Tracker options for the polyhedral phase-1 tracking (ignored by
        the closed-form start kinds).
    kernel:
        Evaluation backend for the homotopy (``None`` for the seed
        path, ``"naive"`` or ``"slp"`` — see :mod:`repro.kernels`).

    Returns
    -------
    ``(homotopy, starts)`` — a :class:`ConvexHomotopy` and the list of
    start vectors, one per path.

    >>> import numpy as np
    >>> from repro.systems import katsura_system
    >>> homotopy, starts = make_homotopy_and_starts(
    ...     katsura_system(2), rng=np.random.default_rng(0))
    >>> len(starts)       # total degree of katsura-2: 2 * 2 * 1
    4
    """
    rng = np.random.default_rng() if rng is None else rng
    if start_kind == "total_degree":
        start_sys, consts = total_degree_start_system(target, rng)
        starts = list(total_degree_start_solutions(target.degrees(), consts))
    elif start_kind == "linear_product":
        lp = LinearProductStart(target, rng)
        start_sys = lp.system()
        starts = list(lp.solutions())
    elif start_kind == "polyhedral":
        poly_start, starts = _polyhedral_start(
            target, rng, options, kernel=kernel
        )
        start_sys = poly_start.generic_system
    else:
        raise ValueError(f"unknown start system kind {start_kind!r}")
    homotopy = ConvexHomotopy(
        start_sys, target, gamma=gamma, rng=rng, kernel=kernel
    )
    return homotopy, starts


def _polyhedral_start(
    target: PolynomialSystem,
    rng: np.random.Generator,
    options: TrackerOptions | None,
    endgame=None,
    kernel: str | None = None,
):
    """Phase 1 of the polyhedral route, shared by ``solve`` and
    :func:`make_homotopy_and_starts`: mixed cells, generic system, and
    the tracked toric starts."""
    poly_start = PolyhedralStart(target, rng, kernel=kernel)
    toric, _ = poly_start.track_starts(options, endgame=endgame)
    return poly_start, list(toric)


def _warm_polyhedral_start(store, target, rng, tel, kernel):
    """Try the artifact store for a same-supports warm start.

    On a hit, returns ``(CoefficientHomotopy, starts, meta)`` — the
    cached solved generic instance deformed to ``target`` along a
    convex coefficient blend, skipping cell enumeration and phase 1
    entirely.  Any inconsistency (structure mismatch inside a
    fingerprint bucket, endpoints that no longer solve the stored
    generic system) degrades to ``(None, None, None)``: the cache
    steers the route, never the answer.
    """
    from ..artifacts import load_polyhedral_start
    from .coefficient import CoefficientHomotopy

    bundle = load_polyhedral_start(store, target)
    if bundle is None:
        return None, None, None
    with maybe_span(tel, "start_system", "solve"):
        try:
            homotopy = CoefficientHomotopy(
                bundle["supports"], bundle["coefficients"], target,
                rng=rng, kernel=kernel,
            )
        except ValueError:
            return None, None, None
        starts = [np.asarray(s, dtype=complex) for s in bundle["starts"]]
        # paranoia against bit-rot the shape checks cannot see: the
        # cached endpoints must actually solve the cached generic system
        residual = homotopy.evaluate_batch(
            np.asarray(starts), np.zeros(len(starts))
        )
        if not np.all(np.isfinite(residual)) or np.max(np.abs(residual)) > 1e-4:
            store.note_corrupt()
            return None, None, None
    return homotopy, starts, bundle["meta"]


def solve(
    target: PolynomialSystem,
    start: Literal["total_degree", "linear_product", "polyhedral"] = "total_degree",
    options: TrackerOptions | None = None,
    rng: np.random.Generator | None = None,
    mode: Literal["batch"] = "batch",
    endgame="refine",
    rescue: bool = False,
    kernel: str | None = None,
    predictor: object | None = None,
    trace_paths: bool = False,
    cache=None,
) -> SolveReport:
    """Track all paths of a homotopy to ``target`` and classify endpoints.

    Paths whose endpoints collide — the signature of a predictor jumping
    between close paths — are re-tracked with conservatively small
    steps, PHCpack-style, and every SUCCESS endpoint is Newton-refined
    against ``target``.

    Every path travels in one structure-of-arrays front of the one
    tracker loop (:class:`BatchTracker`); duplicate re-runs and the
    other re-track rungs travel as one front per rung.

    ``start="polyhedral"`` routes through the polyhedral subsystem: the
    number of tracked paths is the *mixed volume* (BKK bound) instead of
    the Bezout number — 924 instead of 5040 paths on cyclic-7 — at the
    cost of a phase-1 pass tracking the per-cell homotopies to a generic
    system first.  The report's summary then carries ``mixed_volume``,
    ``n_cells`` and ``phase1_failures``.

    Parameters
    ----------
    target:
        Square polynomial system to solve.
    start, rng:
        Passed to :func:`make_homotopy_and_starts`; seed ``rng`` for a
        reproducible run.
    options:
        :class:`~repro.tracker.TrackerOptions` for the main tracking
        pass.  ``None`` (default) means the route's default: PHCpack-
        flavoured :class:`~repro.tracker.TrackerOptions`, or
        :data:`WARM_OPTIONS` (the ``"cubic"`` guess) on a warm
        polyhedral hit when ``predictor`` is ``None`` too.
    mode:
        Only ``"batch"`` (every path in one front); anything else
        raises ``ValueError`` before any start-system work.
    endgame:
        Terminal-phase strategy: ``"refine"`` (default — the seed
        Newton sharpen, endpoint statuses and solutions bit-identical
        to the pre-endgame solver), ``"cauchy"`` (winding-number loops
        recover singular endpoints with ``multiplicity`` annotations,
        reported in ``report.singular_solutions`` and the summary's
        ``multiplicity_histogram``), or any
        :class:`~repro.endgame.EndgameStrategy` instance.
    rescue:
        Re-patch DIVERGED paths through the tracker-level rescue
        pipeline: plain polynomial homotopies resume in projective
        patch coordinates, so escaping paths come back classified
        AT_INFINITY (or occasionally as finite solutions the affine
        chart lost).  Off by default.
    kernel:
        Evaluation backend (see :mod:`repro.kernels`).  ``None``
        (default) keeps the seed evaluation path untouched;
        ``"naive"`` wraps it with effort accounting; ``"slp"`` runs
        residuals and Jacobians through the compiled
        straight-line-program kernels (taped once per structure,
        memoized process-wide).  When a backend is selected the
        summary carries a ``"kernel"`` dict — backend name, number of
        bound kernels, total tape ops, taping seconds, and this run's
        call/evaluation counts.
    predictor:
        Prediction strategy for the main tracking pass (see
        :mod:`repro.tracker.predictor`).  ``None`` (default) means the
        route's default: whatever ``options`` says, and without
        ``options`` ``"euler"`` (the seed arithmetic), except on a warm
        polyhedral hit, which guesses with ``"cubic"``.  Any
        ``predictor`` or ``options`` the caller passes wins over that.
        ``"hermite"`` switches on the
        higher-order predictor pipeline — cubic Hermite prediction,
        error-model step control, and Jacobian-recycled tangent
        solves.  The summary always carries a ``"predictor"`` entry
        with the resolved name, and the effort totals
        (``newton_total``, ``jacobian_evaluations``,
        ``tangents_recycled``) quantify what the pipeline saved.
    trace_paths:
        Record the run into a :class:`~repro.telemetry.Telemetry`
        context: per-path step events (accept/reject, Newton counts,
        endgame handoffs), predictor/corrector/endgame/kernel spans, and
        a Chrome-trace event stream exported via
        ``report.trace.write_trace(path)`` and summarized by
        ``python -m repro.telemetry report``.  Never changes tracking
        decisions; off by default so the hot path stays allocation-free.
        (An ambient ``use_telemetry`` context is honoured either way —
        span aggregates land on ``report.telemetry`` whenever one is
        active.)
    cache:
        Structure-keyed artifact store for the polyhedral route (see
        :mod:`repro.artifacts`).  ``None`` (default) keeps solves
        ab-initio.  Pass an :class:`~repro.artifacts.ArtifactStore`, a
        directory path, or ``True`` for the ``$REPRO_ARTIFACT_STORE``
        default.  A warm hit on the target's Newton-polytope supports
        replaces cell enumeration + phase 1 with coefficient-parameter
        continuation from the cached solved generic instance
        (mixed-volume-many paths); a cold solve with a clean phase 1
        populates the store.  The summary's ``cache`` dict records the
        route taken.  A warm path starts at a regular root of a generic
        instance, so a FAILED row of a warm hit is a lost root: it
        climbs the re-track ladder under any predictor.

    Returns
    -------
    A :class:`SolveReport` with per-path results, the distinct finite
    solutions, and a status summary.

    >>> import numpy as np
    >>> from repro.systems import katsura_system
    >>> report = solve(katsura_system(2), mode="batch",
    ...                rng=np.random.default_rng(0))
    >>> report.summary["success"]
    4
    >>> sorted(r.success for r in report.results)
    [True, True, True, True]

    The Griewank-Osborne system has one triple root at the origin that
    plain refinement cannot classify; the Cauchy endgame measures it:

    >>> from repro.systems import griewank_osborne_system
    >>> report = solve(griewank_osborne_system(), endgame="cauchy",
    ...                rng=np.random.default_rng(0))
    >>> report.summary["multiplicity_histogram"]
    {3: 1}
    >>> len(report.singular_solutions)
    1
    """
    if mode != "batch":
        raise ValueError(f"unknown tracking mode {mode!r}")
    tel = current_telemetry()
    own = trace_paths and tel is None
    if own:
        tel = Telemetry(name="solve")
    with use_telemetry(tel) if own else nullcontext():
        report = _solve(
            target, start, options, rng, endgame, rescue, kernel,
            predictor, trace_paths, tel, cache,
        )
    if tel is not None:
        report.telemetry = tel.summary()
        if trace_paths:
            report.trace = tel
    return report


def _solve(
    target, start, options, rng, endgame, rescue, kernel,
    predictor, trace_paths, tel, cache,
) -> SolveReport:
    base_options = options or TrackerOptions()
    if predictor is not None:
        base_options = dataclasses.replace(base_options, predictor=predictor)
    strategy = make_endgame(endgame)
    poly_start = None
    cache_info = None
    warm_meta = None
    # with trace_paths (and so a context) the whole pipeline records
    # events: phase 1, every tracker front, refinement and clustering
    tracing = tel.trace() if trace_paths else nullcontext()
    with tracing, maybe_span(tel, "solve", "solve"):
        if start == "polyhedral":
            rng = np.random.default_rng() if rng is None else rng
            store = None
            if cache is not None:
                from ..artifacts import resolve_store

                store = resolve_store(cache)
            homotopy = starts = None
            if store is not None:
                homotopy, starts, warm_meta = _warm_polyhedral_start(
                    store, target, rng, tel, kernel
                )
            if homotopy is None:
                with maybe_span(tel, "start_system", "solve"):
                    poly_start, starts = _polyhedral_start(
                        target, rng, base_options,
                        endgame=strategy, kernel=kernel,
                    )
                    homotopy = ConvexHomotopy(
                        poly_start.generic_system, target,
                        rng=rng, kernel=kernel,
                    )
                if store is not None:
                    from ..artifacts import polyhedral_key, store_polyhedral_start

                    # the store declines a start set with a failed or
                    # doubled-up path (a root lost to every warm query)
                    stored = store_polyhedral_start(
                        store, target, poly_start, starts
                    ) is not None
                    cache_info = {
                        "status": "cold",
                        "key": polyhedral_key(target),
                        "n_paths": len(starts),
                        "stored": stored,
                    }
            else:
                from ..artifacts import polyhedral_key

                if options is None and predictor is None:
                    base_options = WARM_OPTIONS
                cache_info = {
                    "status": "warm",
                    "key": polyhedral_key(target),
                    "n_paths": len(starts),
                }
        else:
            with maybe_span(tel, "start_system", "solve"):
                homotopy, starts = make_homotopy_and_starts(
                    target, start, rng, kernel=kernel
                )
        if tel is not None:
            tel.count("solve.paths", len(starts))
        starts_arr = np.asarray(starts, dtype=complex)
        tracker = BatchTracker(base_options, endgame=strategy)
        # an error-model predictor trades per-step robustness for speed:
        # its larger steps can strand a hard path in a step underflow the
        # seed Euler settings walk through, so its FAILED rows ride the
        # ladder with the collisions.  A warm path starts at a regular
        # root of a generic instance, so a FAILED row of a warm hit is a
        # lost root under any guess, never an endpoint at infinity.  Off
        # the warm route, Euler's and the cubic's failures are final.
        retry_failed = (
            make_predictor(base_options.predictor).error_model
            or warm_meta is not None
        )
        ladder = Ladder(base_options, retry_failed=retry_failed)
        with maybe_span(tel, "track", "solve"):
            results = tracker.track_batch(homotopy, starts_arr, ladder=ladder)
        failed = []
        if retry_failed:
            failed = [r.path_id for r in results if r.status is PathStatus.FAILED]
        with maybe_span(tel, "retrack_duplicates", "solve"):
            retrack_duplicate_clusters(
                results,
                lambda pids, opts: BatchTracker(
                    opts, endgame=strategy
                ).track_batch(homotopy, starts_arr[pids], path_ids=pids),
                ladder,
                failed=failed,
            )
        n_fallback = sum(results[pid].success for pid in ladder.failures)
        if tel is not None and n_fallback:
            tel.count("solve.fallback_retracked", n_fallback)
        n_rescued = 0
        if rescue:
            with maybe_span(tel, "rescue", "solve"):
                results, n_rescued = rescue_diverged(
                    tracker, homotopy, results
                )
        with maybe_span(tel, "refine", "solve"):
            refine_solutions(target, results)
        clusters = multiplicity_clusters(results)
    # the non-singular cluster representatives ARE the distinct finite
    # solutions (same tolerance, same first-seen order as
    # distinct_solutions); successes folded into a singular cluster are
    # that root, not an extra finite solution
    sols = [c["solution"] for c in clusters if not c["singular"]]
    summary = summarize_results(results)
    summary["start"] = start
    summary["endgame"] = strategy.name
    summary["predictor"] = make_predictor(base_options.predictor).name
    # what the main pass ran with: no field resolves later, so this is it
    summary["options"] = base_options.echo()
    if n_fallback:
        summary["fallback_retracked"] = n_fallback
    usage = homotopy.kernel_usage
    if poly_start is not None:
        usage.merge(poly_start.kernel_usage)
    kernel_report = usage.report()
    if kernel_report is not None:
        # process-wide cache counters (hits/misses/sizes): cumulative
        # across solves in this process, unlike the per-run deltas above
        kernel_report["cache"] = kernel_cache_info()
        summary["kernel"] = kernel_report
    if rescue:
        summary["rescued"] = n_rescued
    histogram: dict = {}
    for c in clusters:
        histogram[c["multiplicity"]] = histogram.get(c["multiplicity"], 0) + 1
    summary["multiplicity_histogram"] = histogram
    singular_sols = [c["solution"] for c in clusters if c["singular"]]
    if poly_start is not None:
        summary["mixed_volume"] = poly_start.mixed_volume
        summary["n_cells"] = len(poly_start.cells)
        summary["phase1_failures"] = poly_start.phase1_failures
        # journal the lifting draw so DegenerateLiftingError retries are
        # reproducible and cached cells can be validated against it
        summary["lifting_seed"] = poly_start.lifting_seed
        summary["relifts"] = poly_start.relifts
    elif warm_meta is not None:
        summary["mixed_volume"] = int(warm_meta["mixed_volume"])
        summary["n_cells"] = int(warm_meta["n_cells"])
        summary["phase1_failures"] = 0  # only clean phase-1 runs are cached
        summary["lifting_seed"] = warm_meta.get("lifting_seed")
        summary["relifts"] = int(warm_meta.get("relifts", 0))
    if cache_info is not None:
        summary["cache"] = cache_info
    return SolveReport(
        results=results,
        solutions=sols,
        summary=summary,
        singular_solutions=singular_sols,
    )
