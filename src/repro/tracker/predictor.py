"""Pluggable path predictors: Euler tangent, cubic Hermite, bare cubic.

The predictor is the half of the increment-and-fix loop that guesses
where a path goes next; the corrector (Newton) pays for every digit the
guess is short.  The tracker loop (:class:`~repro.tracker.batch.
BatchTracker`) delegates the guess to a :class:`Predictor`:

- :class:`EulerPredictor` (``"euler"``, the default) — first-order
  tangent prediction ``x + dt * dx/dt`` with a secant fallback when the
  tangent solve fails.  This is bit-identical to the seed arithmetic:
  the batch form below *is* the seed code.
- :class:`HermitePredictor` (``"hermite"``) — each path remembers its
  last accepted ``(t, x, dx/dt)``; together with the current point and
  tangent that determines a cubic, evaluated past the current time
  (``s > 1`` extrapolation).  Local error is O(dt^4) against Euler's
  O(dt^2), so steps grow much faster under error-model step control,
  and the corrector starts closer — fewer Newton sweeps per step.
- :class:`CubicPredictor` (``"cubic"``) — the same cubic on the *seed's*
  streak step control (``error_model = False``): nothing but the guess
  changes, so streak steps stay quantised and a front stays in lockstep.
  Newton lands in two updates instead of three on most steps, which is
  what lets the streak rule grow the step at all on Pieri edges
  (``PieriSolver.DEFAULT_OPTIONS``) and on warm polyhedral queries
  (``homotopy.solve.WARM_OPTIONS``; the 2x2 in ``docs/tracking.md``).

Predictors operate on *row batches*: ``predict`` takes ``(k, dim)``
arrays for the active front, all arithmetic elementwise per row, so a
path's predictions do not depend on how many rows travel with it.

Per-path history lives in a :class:`PredictorState` created per
``track``/``track_batch`` call — a resumed path (chart switch, retry,
rescue) therefore starts with *empty* history and cannot Hermite-
extrapolate across coordinates it no longer tracks in.

>>> import numpy as np
>>> pred = make_predictor("hermite")
>>> (pred.name, pred.order, pred.error_model)
('hermite', 4, True)
>>> state = pred.make_state(np.zeros((1, 1), complex), np.zeros(1))
>>> rows = np.arange(1)
>>> # no history yet: the first step falls back to plain Euler
>>> x = np.array([[1.0 + 0j]]); m = np.array([[2.0 + 0j]])
>>> pred.predict(state, rows, x, np.zeros(1), np.full(1, 0.1), m,
...              np.ones(1, bool))
array([[1.2+0.j]])
>>> # after an accepted step the cubic reproduces smooth paths closely:
>>> # x(t) = exp(2t) has x'(t) = 2 x(t)
>>> pred.accepted(state, rows, x, np.zeros(1), m, np.ones(1, bool))
>>> x1 = np.exp(np.array([[0.2 + 0j]]))
>>> guess = pred.predict(state, rows, x1, np.full(1, 0.1),
...                      np.full(1, 0.1), 2 * x1, np.ones(1, bool))
>>> bool(abs(guess[0, 0] - np.exp(0.4)) < 5e-4)  # Euler is ~3e-2 off here
True
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PREDICTORS",
    "Predictor",
    "PredictorState",
    "EulerPredictor",
    "HermitePredictor",
    "CubicPredictor",
    "make_predictor",
]

#: Registered predictor names (the choices ``TrackerOptions.predictor``
#: and ``solve(predictor=)`` accept).
PREDICTORS = ("euler", "hermite", "cubic")


@dataclass
class PredictorState:
    """Per-path prediction history for one ``track``/``track_batch`` call.

    ``x_prev``/``t_prev`` hold the previously accepted point (seeded
    with the start point, so a path with no accepted step yet has
    ``t == t_prev`` and the secant fallback stays disabled — the seed
    behavior).  ``m_prev``/``has_tangent`` additionally remember the
    tangent used into the last accepted step; only the Hermite predictor
    reads them.
    """

    x_prev: np.ndarray        # (npaths, dim) last accepted point
    t_prev: np.ndarray        # (npaths,)
    m_prev: np.ndarray        # (npaths, dim) tangent at (x_prev, t_prev)
    has_tangent: np.ndarray   # (npaths,) bool — m_prev row is usable


class Predictor(abc.ABC):
    """Strategy protocol for the prediction half of the tracker loop.

    Concrete predictors are stateless; all per-path memory lives in the
    :class:`PredictorState` the tracker threads through, so one
    predictor instance can serve any number of concurrent tracks.
    """

    #: registry/reporting name
    name: str
    #: asymptotic order p of the local error model ``err ~ C dt^p``
    #: (the exponent error-model step control inverts)
    order: int
    #: True switches the whole error-model pipeline on for the front;
    #: False leaves the seed loop untouched to the bit (streak-heuristic
    #: steps, two fused evaluations a step, exhaustive corrector sweeps).
    #: The pipeline, all read by ``BatchTracker._track_batch``:
    #:
    #: - step control from the measured predictor error (constants below);
    #: - the corrector's final ``J_x`` is recycled into the next tangent
    #:   solve, so an accepted step costs one fused evaluation, not two;
    #: - update-size acceptance (PHCpack's criterion): Newton converges
    #:   quadratically inside its basin, so once ``|dx| <=
    #:   sqrt(corrector_tol)`` the *next* residual is already below
    #:   tolerance and the verification sweep is redundant;
    #: - contraction-gated loose acceptance: updates up to
    #:   ``corrector_tol ** (1/3)`` are accepted only when they also
    #:   contracted to at most ``newton.CONTRACTION`` times the previous
    #:   one — an ungated loose exit accepts the barely-shrinking updates
    #:   of near-singular stretches and strands those paths a step later;
    #: - fail-fast: a Newton update that *grows* missed the basin, and
    #:   burning the remaining sweeps to confirm that is the largest
    #:   per-rejection cost in the loop.
    error_model: bool

    # Constants of the pipeline (override by subclass).  After an accepted
    # step with measured predictor error err the next step is
    #   dt * min(max_growth, safety * (target_error / err) ** (1 / order))
    # clipped into [min_step, max_step].  The target is a *prediction*
    # error the corrector must absorb, not a solution accuracy: 0.03 keeps
    # predictions inside Newton's basin (and off neighbouring paths —
    # looser targets measurably raise endpoint collisions) while letting
    # steps grow to what the corrector actually tolerates.
    target_error = 0.03
    safety = 0.8
    max_growth = 2.0
    #: A *converged* step whose predictor error exceeds ``jump_factor *
    #: target_error`` is rejected: Newton converged, but so far from the
    #: prediction that it is almost certainly a neighbouring path's basin.
    #: One retry at a smaller step is far cheaper than the
    #: endpoint-collision re-tracking rung the jump would trigger.
    jump_factor = 10.0

    def make_state(self, X: np.ndarray, T: np.ndarray) -> PredictorState:
        """Fresh history seeded with the (uncorrected) start points."""
        X = np.asarray(X, dtype=complex)
        T = np.asarray(T, dtype=float)
        return PredictorState(
            x_prev=X.copy(),
            t_prev=T.copy(),
            m_prev=np.zeros_like(X),
            has_tangent=np.zeros(X.shape[0], dtype=bool),
        )

    @abc.abstractmethod
    def predict(
        self,
        state: PredictorState,
        rows: np.ndarray,
        X: np.ndarray,
        T: np.ndarray,
        dt: np.ndarray,
        tangent: np.ndarray,
        ok: np.ndarray,
    ) -> np.ndarray:
        """Predicted points at ``T + dt`` for the active rows.

        ``rows`` are global indices into ``state``; ``X``/``T``/``dt``/
        ``tangent``/``ok`` are the corresponding row slices.  Rows with
        ``ok`` False carry no usable tangent (the solve was singular)
        and must fall back to secant/identity prediction.
        """

    def accepted(
        self,
        state: PredictorState,
        rows: np.ndarray,
        x_old: np.ndarray,
        t_old: np.ndarray,
        tangent: np.ndarray,
        ok: np.ndarray,
    ) -> None:
        """Record an accepted step: the pre-step point becomes history."""
        state.x_prev[rows] = x_old
        state.t_prev[rows] = t_old
        state.m_prev[rows] = tangent
        state.has_tangent[rows] = ok


def _euler_predict(state, rows, X, T, dt, tangent, ok):
    """The seed prediction arithmetic, shared by both predictors.

    Tangent rows step ``x + dt * dx/dt``; rows whose tangent solve
    failed fall back to the secant through the last accepted point, or
    stay put when there is no history yet.  Bit-identical to the seed
    tracker loop.
    """
    x_pred = X + dt[:, None] * tangent
    if not np.all(ok):
        fb = ~ok
        t_prev = state.t_prev[rows]
        have_hist = fb & (T > t_prev)
        ratio = np.zeros(rows.size)
        span = T - t_prev
        ratio[have_hist] = dt[have_hist] / span[have_hist]
        secant = X + (X - state.x_prev[rows]) * ratio[:, None]
        x_pred[fb] = np.where(have_hist[fb, None], secant[fb], X[fb])
    return x_pred


class EulerPredictor(Predictor):
    """First-order tangent prediction with secant fallback (the seed)."""

    name = "euler"
    order = 2
    error_model = False

    def predict(self, state, rows, X, T, dt, tangent, ok):
        return _euler_predict(state, rows, X, T, dt, tangent, ok)


class HermitePredictor(Predictor):
    """Cubic Hermite prediction through the last two accepted points.

    With ``(x0, m0)`` at ``t0`` (history) and ``(x1, m1)`` at ``t1``
    (current), the unique cubic matching both values and tangents is
    evaluated at ``s = (t1 + dt - t0) / (t1 - t0) > 1``.  Rows lacking
    history — the first step, or any resumed/requeued path — use the
    Euler arithmetic unchanged, as do rows whose current tangent solve
    failed (a cubic without the endpoint tangent is not Hermite).
    """

    name = "hermite"
    order = 4
    error_model = True

    def predict(self, state, rows, X, T, dt, tangent, ok):
        x_pred = _euler_predict(state, rows, X, T, dt, tangent, ok)
        h = T - state.t_prev[rows]
        use = ok & state.has_tangent[rows] & (h > 0.0)
        if use.any():
            # every row is Hermite in the steady state: views, no gathers
            u = slice(None) if use.all() else np.flatnonzero(use)
            hu = h[u][:, None]
            s = ((dt[u] + h[u]) / h[u])[:, None]
            s2 = s * s
            s3 = s2 * s
            h00 = 2.0 * s3 - 3.0 * s2 + 1.0
            h10 = s3 - 2.0 * s2 + s
            h01 = -2.0 * s3 + 3.0 * s2
            h11 = s3 - s2
            x_pred[u] = (
                h00 * state.x_prev[rows[u]]
                + h10 * hu * state.m_prev[rows[u]]
                + h01 * X[u]
                + h11 * hu * tangent[u]
            )
        return x_pred


class CubicPredictor(HermitePredictor):
    """The Hermite cubic as a guess only: step control stays the seed's.

    ``predict`` is inherited, not restated — ``perfbench`` wraps
    ``HermitePredictor.predict`` by name, and an override here would
    drop out of ``tracker.predict_self_s``.
    """

    name = "cubic"
    error_model = False


_REGISTRY = {
    "euler": EulerPredictor,
    "hermite": HermitePredictor,
    "cubic": CubicPredictor,
}


def make_predictor(predictor) -> Predictor:
    """Resolve a predictor name (or pass an instance through).

    >>> make_predictor(None).name
    'euler'
    >>> make_predictor("hermite").name
    'hermite'
    >>> make_predictor(make_predictor("euler")).name
    'euler'
    """
    if predictor is None:
        return EulerPredictor()
    if isinstance(predictor, Predictor):
        return predictor
    try:
        cls = _REGISTRY[predictor]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown predictor {predictor!r}; expected one of "
            f"{sorted(_REGISTRY)} or a Predictor instance"
        ) from None
    return cls()
