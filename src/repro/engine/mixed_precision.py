"""The precision tier: a float32 screen-then-verify decision backend.

:class:`~repro.pointlocation.sharded.ShardedLocator` proved that a cheap
*propose* pass stays exact as long as an exact *verify* pass re-checks every
proposal that could be wrong.  This module applies the same trick to
precision instead of space: two decision queries, the reception check of a
given station (``received_mask_at``) and the nearest received station
(``nearest_received``), are screened in float32 — the float64 kernels'
own in-place distance and energy pass, run on float32 arrays at half the
memory traffic — together with a certified decision margin per point.
Points whose float32 margin is too small to rule out a float64
disagreement are re-routed through the exact ``numpy`` backend, so the
combined answer is bit-identical to ``reference`` *by construction*: the
screen only ever keeps decisions it can certify.  The float64 kernels
override their rare columns (a non-finite energy total) in place; the
screen never needs to, because it sends those columns to the exact
backend whole.

``heard_station`` and the value query ``sinr_matrix`` delegate wholly to
the exact backend.  The numpy kernel answers ``heard_station`` in one
in-place pass, behind its own margin-free silence certificate, that a
float32 screen around it did not beat, and ``sinr_matrix`` returns floats
rather than decisions, so there is no margin to certify.

Margin semantics
----------------

* Reception tests certify ``SINR >= beta`` only when the float32 SINR is
  relatively far from ``beta``: a point is uncertain iff
  ``|SINR32 - beta| <= tol * (SINR32 + beta)``.
* ``nearest_received`` certifies its candidate, the float32 nearest
  station, only when it is separated from the runner-up on squared
  distances: ``(d2**2 - d1**2) > tol * (d1**2 + d2**2)``.  With non-uniform
  powers or ``beta <= 1`` the float32 nearest must be the float64 nearest
  before its SINR can stand in for it.  Outside the geometry guard, float32
  coordinate rounding moves a squared distance by a relative
  ``~(2 * sqrt(2) / GEOMETRY_MARGIN + 2) * eps32``, below the tolerance's
  geometry bound, so a separated pair has the same strict order in float64
  (no tie for its lowest-index rule to break).  The candidate's reception
  is then certified like ``received_mask_at``'s.  A one-station network
  has no runner-up.
* A per-point geometry guard flags points within :data:`GEOMETRY_MARGIN`
  (relative to the coordinate scale) of a station, where coordinate rounding
  amplifies without bound.  Both screens turn squared distances into
  energies in place and flag a column whose energy total is not finite or
  underflows.  An infinite energy makes the total infinite, which covers
  every coincident-station column (a float64 coincidence forces a float32
  zero distance, hence an infinite energy).

``tol`` is derived, not configured: the larger of two error bounds in
float32 epsilon, one for coordinate rounding at the geometry guard (from
``alpha``) and one for interference cancellation (from the station count
and ``beta``); see :meth:`Float32ScreenBackend._tolerance`.

The exact backend is resolved by the name ``"numpy"`` on **every** call,
exactly like the registry's name-based selections, so
``register_backend("numpy", ...)`` overwrites take effect on the verify path
and on the delegated queries immediately.

Both screened queries run one screen-then-verify pass
(:meth:`Float32ScreenBackend._decide`), which casts the station arrays to
float32 once per call.  :mod:`repro.engine.batch` hands every call a point
chunk sized for the float64 kernels' temporaries under its fixed byte
budget (:data:`~repro.engine.batch.CHUNK_BYTES`), so the screen's float32
ones fit too.
"""

from __future__ import annotations

import numpy as np

from .backend import QueryBackend, get_backend, register_backend
from .kernels import _energies_in_place, pairwise_squared_distances

__all__ = [
    "GEOMETRY_MARGIN",
    "Float32ScreenBackend",
    "ScreenStats",
]

#: Station-proximity guard (relative to the coordinate scale) below which
#: coordinate rounding error is considered unbounded.
GEOMETRY_MARGIN = 1e-3

#: The registered backend that verifies uncertain points and answers the
#: delegated queries, resolved by name on every call.
_EXACT_BACKEND = "numpy"

_EPS32 = float(np.finfo(np.float32).eps)
_TINY32 = float(np.finfo(np.float32).tiny)


class ScreenStats:
    """Counters of screen effectiveness (informational, per backend instance).

    ``screened`` counts every point a screened query (``received_mask_at``,
    ``nearest_received``) saw; ``verified`` the subset whose margin was too
    small, re-routed through the exact backend.  Delegated queries
    (``heard_station``, ``sinr_matrix``) count nothing.  Updated without
    locking — exact totals under concurrency are not guaranteed, only the
    answers are.
    """

    __slots__ = ("screened", "verified")

    def __init__(self) -> None:
        self.screened = 0
        self.verified = 0

    def reset(self) -> None:
        self.screened = 0
        self.verified = 0

    def verify_fraction(self) -> float:
        """Fraction of screened points that needed exact verification."""
        return self.verified / self.screened if self.screened else 0.0

    def metrics_sample(self) -> "dict[str, float]":
        """The counters as one flat numeric sample
        (:class:`~repro.runtime.StatsSource` protocol)."""
        return {
            "screened": float(self.screened),
            "verified": float(self.verified),
            "verify_fraction": float(self.verify_fraction()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScreenStats(screened={self.screened}, verified={self.verified}, "
            f"verify_fraction={self.verify_fraction():.4f})"
        )


def _screen_total(energies):
    """Column totals ``(c,)`` and the columns they flag as uncertain.

    A column is flagged when its total is not finite — an infinite energy
    (coincident or overflow-close station) makes it ``+inf``, a NaN energy
    makes it NaN, and so may an overflowing sum — or when it underflows.
    Flagged columns go to the exact path, so the screens never need the
    kernels' coincidence and overflow overrides.
    """
    total = energies.sum(axis=0)
    return total, ~((total >= np.float32(_TINY32)) & (total < np.inf))


def _near_beta(ratio, beta32, tol32):
    """``|SINR32 - beta| <= tol * (SINR32 + beta)``, elementwise."""
    return np.abs(ratio - beta32) <= tol32 * (ratio + beta32)


def _row_sinr(energies, total, indices, noise):
    """Float32 SINR ``(c,)`` of station ``indices[j]`` at point ``j``."""
    row = energies[indices, np.arange(energies.shape[1])]
    return row / (total - row + np.float32(noise))


def _screen_row(
    coords32, powers32, pts32, indices, noise, beta32, tol32, alpha
):
    """The gathered reception screen: ``(mask (c,), uncertain, sq_min)``."""
    squared = pairwise_squared_distances(coords32, pts32)
    sq_min = squared.min(axis=0)
    energies = _energies_in_place(squared, powers32, alpha)
    total, flagged = _screen_total(energies)
    ratio = _row_sinr(energies, total, indices, noise)
    return ratio >= beta32, _near_beta(ratio, beta32, tol32) | flagged, sq_min


def _screen_nearest(
    coords32, powers32, pts32, noise, beta32, tol32, alpha, no_reception
):
    """The nearest-received screen: ``(labels, uncertain, sq_min)``.

    The float32 nearest station and its reception, from one pass: squared
    distances give the nearest and the runner-up, then turn into energies
    in place for the column total and the nearest station's SINR.  A point
    is uncertain unless the nearest is separated from the runner-up,
    ``(d2 - d1) > tol * (d1 + d2)`` on squared distances, and its SINR is
    clear of ``beta`` as in :func:`_screen_row`.  A one-station network has
    no runner-up.
    """
    squared = pairwise_squared_distances(coords32, pts32)
    cols = np.arange(pts32.shape[0])
    nearest = np.argmin(squared, axis=0)
    d1 = squared[nearest, cols]
    if len(squared) > 1:
        squared[nearest, cols] = np.inf
        d2 = squared.min(axis=0)
        squared[nearest, cols] = d1
        uncertain = ~((d2 - d1) > tol32 * (d1 + d2))
    else:
        uncertain = np.zeros(len(cols), dtype=bool)
    energies = _energies_in_place(squared, powers32, alpha)
    total, flagged = _screen_total(energies)
    ratio = _row_sinr(energies, total, nearest, noise)
    uncertain |= _near_beta(ratio, beta32, tol32) | flagged
    return np.where(ratio >= beta32, nearest, no_reception), uncertain, d1


class Float32ScreenBackend:
    """Exact decision backend with a float32 fast path (``"float32-screen"``).

    Implements the :class:`~repro.engine.backend.QueryBackend` protocol.
    ``received_mask_at`` and ``nearest_received`` run the float32 screen and
    re-route margin-close points through the registered ``"numpy"`` backend;
    ``heard_station`` and ``sinr_matrix`` delegate wholly to it.  It takes no
    options: the tolerance is derived per call (:meth:`_tolerance`).  See
    the module docstring for the margin scheme.
    """

    name = "float32-screen"

    def __init__(self) -> None:
        self.stats = ScreenStats()

    def _exact(self) -> QueryBackend:
        """Resolve the exact backend *now* (by name, on every call)."""
        return get_backend(_EXACT_BACKEND)

    # -- delegated queries: answered by the exact backend alone ----------

    def sinr_matrix(self, coords, powers, points, noise, alpha):
        return self._exact().sinr_matrix(coords, powers, points, noise, alpha)

    def heard_station(self, coords, powers, points, noise, beta, alpha, no_reception):
        return self._exact().heard_station(
            coords, powers, points, noise, beta, alpha, no_reception
        )

    # -- the screen-then-verify loop ------------------------------------

    @staticmethod
    def _tolerance(n_stations: int, beta: float, alpha: float) -> np.float32:
        """The relative tolerance, derived from float32 error bounds.

        It covers coordinate-rounding amplification at the geometry guard
        (``~alpha * eps32 / GEOMETRY_MARGIN``, which also bounds the
        squared-distance error of ``nearest_received``'s separation test)
        and the interference cancellation of near-threshold SINR columns
        (``~beta * n * eps32``), each with generous slack.
        """
        return np.float32(max(
            4.0 * max(2.0, abs(alpha)) * _EPS32 / GEOMETRY_MARGIN,
            8.0 * (abs(beta) + 1.0) * (n_stations + 64.0) * _EPS32,
        ))

    @staticmethod
    def _geometry_guard(coords, pts) -> np.ndarray:
        """Per-point float64 squared distance ``(GEOMETRY_MARGIN * scale)**2``.

        A point whose float32 distance to some station squares to at most
        this is within :data:`GEOMETRY_MARGIN` of it; ``scale`` is the
        largest of 1 and the station and point coordinate magnitudes.
        """
        coord_scale = max(1.0, float(np.abs(coords).max(initial=0.0)))
        scale = np.maximum(np.abs(pts[:, 0]), np.abs(pts[:, 1]))
        np.maximum(scale, coord_scale, out=scale)
        # A huge scale squares to inf: the guard then flags the point, and
        # the exact path answers it.
        with np.errstate(over="ignore"):
            scale *= GEOMETRY_MARGIN
            return np.square(scale, out=scale)

    def _screenable(self, noise: float, beta: float, alpha: float) -> bool:
        """Whether the float32 screen's assumptions hold for these parameters."""
        limit = float(np.finfo(np.float32).max)
        return (
            np.isfinite(noise)
            and np.isfinite(beta)
            and np.isfinite(alpha)
            and abs(noise) < limit
            and 1e-30 < beta < limit
        )

    def _decide(self, coords, powers, points, beta, alpha, screen, exact):
        """Screen every point in float32, then verify the uncertain ones.

        ``screen(coords32, powers32, pts32, tol32)`` returns ``(answers,
        uncertain, sq_min)`` with points on the last axis of ``answers``;
        ``exact(pts, selector)`` answers ``pts[selector]`` through the
        exact backend.  :mod:`repro.engine.batch` already hands every call
        a budget-sized point chunk, so one pass serves the call.
        """
        pts = np.asarray(points, dtype=float)
        coords32 = np.ascontiguousarray(coords, dtype=np.float32)
        powers32 = np.ascontiguousarray(powers, dtype=np.float32)
        # Points beyond float32 range cast to inf; the screen marks their
        # columns uncertain and the exact path answers them.  Column-major,
        # so each coordinate broadcasts against the stations contiguously.
        with np.errstate(over="ignore"):
            pts32 = np.asfortranarray(pts, dtype=np.float32)
        tol32 = self._tolerance(len(coords), beta, alpha)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out, uncertain, sq_min = screen(coords32, powers32, pts32, tol32)
        uncertain |= sq_min <= self._geometry_guard(coords, pts)
        verified = int(np.count_nonzero(uncertain))
        if verified:
            out[..., uncertain] = exact(pts, uncertain)
        self.stats.screened += len(pts)
        self.stats.verified += verified
        return out

    # -- screened decision queries -------------------------------------

    def received_mask_at(self, coords, powers, points, indices, noise, beta, alpha):
        indices = np.asarray(indices, dtype=np.intp)
        if not self._screenable(noise, beta, alpha):
            return self._exact().received_mask_at(
                coords, powers, points, indices, noise, beta, alpha
            )
        beta32 = np.float32(beta)
        return self._decide(
            coords, powers, points, beta, alpha,
            lambda c32, p32, pts32, tol32: _screen_row(
                c32, p32, pts32, indices, noise, beta32, tol32, alpha
            ),
            lambda pts, sel: self._exact().received_mask_at(
                coords, powers, pts[sel], indices[sel], noise, beta, alpha
            ),
        )

    def nearest_received(
        self, coords, powers, points, noise, beta, alpha, no_reception
    ):
        if not self._screenable(noise, beta, alpha):
            return self._exact().nearest_received(
                coords, powers, points, noise, beta, alpha, no_reception
            )
        beta32 = np.float32(beta)
        return self._decide(
            coords, powers, points, beta, alpha,
            lambda c32, p32, pts32, tol32: _screen_nearest(
                c32, p32, pts32, noise, beta32, tol32, alpha, no_reception
            ),
            lambda pts, sel: self._exact().nearest_received(
                coords, powers, pts[sel], noise, beta, alpha, no_reception
            ),
        )


register_backend("float32-screen", Float32ScreenBackend())
