"""The precision tier: float32 screen-then-verify decision backends.

:class:`~repro.pointlocation.sharded.ShardedLocator` proved that a cheap
*propose* pass stays exact as long as an exact *verify* pass re-checks every
proposal that could be wrong.  This module applies the same trick to
precision instead of space: decision queries (strongest station, reception
masks, heard station) are screened in float32 — half the memory traffic of
the float64 kernels, and free of their coincidence-matrix passes — together
with a certified decision margin per point.  Points whose float32 margin is
too small to rule out a float64 disagreement are re-routed through an exact
inner backend, so the combined answer is bit-identical to ``reference`` *by
construction*: the screen only ever keeps decisions it can certify.

Margin semantics
----------------

* Reception tests certify ``SINR >= beta`` only when the float32 SINR is
  relatively far from ``beta``: a column is uncertain iff some entry has
  ``|SINR32 - beta| <= tol * (SINR32 + beta)``.
* Strongest-station (and the masked argmax of ``heard_station``) certify the
  winner only when top-1 and top-2 are relatively separated:
  ``(v1 - v2) > tol * (v1 + v2)``; ties are always uncertain.
* A per-point geometry guard flags points within ``geometry_margin`` (relative
  to the coordinate scale) of a station, where coordinate rounding amplifies
  without bound; any non-finite or underflowed float32 value is uncertain as
  well, which also covers every coincident-station column (a float64
  coincidence forces a float32 zero distance, hence an infinite energy).

``tol`` is the maximum of the configured ``decision_margin`` and a floor
derived from the station count, ``beta``, ``alpha`` and float32 epsilon, so
shrinking the margin can grow the verified fraction but never break
exactness.  *Value* queries (``energy_matrix`` / ``sinr_matrix``) return
floats rather than decisions — there is no margin to certify — so they
delegate wholly to the exact inner backend.

The inner backend is late-bound exactly like the registry's name-based
selections: a name is re-resolved on **every** call, so ``register_backend``
overwrites take effect on the verify path immediately.

All four decision queries run one screen-then-verify loop
(:meth:`Float32ScreenBackend._decide`) over cache-friendly float32 chunks
under the same ``REPRO_ENGINE_CHUNK_BYTES`` budget as :mod:`repro.engine.batch`.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ReproError
from .backend import QueryBackend, get_backend, register_backend
from .batch import chunk_byte_budget

__all__ = [
    "DEFAULT_DECISION_MARGIN",
    "DEFAULT_GEOMETRY_MARGIN",
    "Float32ScreenBackend",
    "ScreenStats",
]

#: Default relative decision margin of the screen; see ``decision_margin``.
DEFAULT_DECISION_MARGIN = 1e-3

#: Default station-proximity guard (relative to the coordinate scale) below
#: which coordinate rounding error is considered unbounded.
DEFAULT_GEOMETRY_MARGIN = 1e-3

_EPS32 = float(np.finfo(np.float32).eps)
_TINY32 = float(np.finfo(np.float32).tiny)

#: Concurrent float32 ``(n, chunk)`` temporaries of one screen pass; the
#: screen chunks points so all of them fit the shared chunk byte budget.
_SCREEN_TEMPS = 10


class ScreenStats:
    """Counters of screen effectiveness (informational, per backend instance).

    ``screened`` counts every point a decision query saw; ``verified`` the
    subset whose margin was too small, re-routed through the exact inner
    backend.  Updated without locking — exact totals under concurrency are
    not guaranteed, only the answers are.
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


def _screen_energies(coords32, powers32, pts32, alpha):
    """Float32 energies ``(n, c)`` plus the per-point min squared distance.

    No coincidence matrix: a zero float32 distance yields an infinite energy,
    and every non-finite value routes its column to the exact path anyway.
    """
    dx = coords32[:, 0:1] - pts32[:, 0][None, :]
    dy = coords32[:, 1:2] - pts32[:, 1][None, :]
    sq = dx * dx
    sq += dy * dy
    sq_min = sq.min(axis=0)
    if alpha == 2.0:
        energies = powers32[:, None] / sq
    else:
        energies = powers32[:, None] * sq ** np.float32(-alpha / 2.0)
    return energies, sq_min


def _screen_strongest(coords32, powers32, pts32, alpha, tol32):
    """One strongest-station screen chunk: ``(idx, uncertain, sq_min)``.

    ``idx`` is the float32 energy argmax; a point is uncertain unless top-1
    is finite, clear of the underflow floor, and relatively separated from
    top-2 by more than ``tol32``.
    """
    energies, sq_min = _screen_energies(coords32, powers32, pts32, alpha)
    idx = np.argmax(energies, axis=0)
    cols = np.arange(pts32.shape[0])
    top1 = energies[idx, cols]
    energies[idx, cols] = -np.inf
    top2 = energies.max(axis=0)
    # Below the floor, float32 zeros may hide larger true energies (underflow
    # or squared-distance overflow), so a "winner" there proves nothing.
    floor = np.float32(max(_TINY32, float(powers32.max()) * 1e-35))
    uncertain = (
        ~np.isfinite(top1)
        | (top1 <= floor)
        | ~((top1 - top2) > tol32 * (top1 + top2))
    )
    return idx, uncertain, sq_min


def _screen_sinr(coords32, powers32, pts32, noise, beta32, tol32, alpha):
    """One reception screen chunk: ``(ratio, mask, uncertain, sq_min)``.

    ``ratio`` and ``mask`` are the float32 SINR ``(n, c)`` and its
    ``>= beta`` test.  A column is uncertain when some entry is
    margin-close to ``beta``, when it contains any infinite energy —
    coincident or overflow-close stations — or when its total signal
    underflows; the caller routes uncertain columns to the exact path, so
    the simplified arithmetic here (no coincidence/overflow overrides) is
    safe.
    """
    energies, sq_min = _screen_energies(coords32, powers32, pts32, alpha)
    inf_energy = ~np.isfinite(energies)
    flagged = inf_energy.any(axis=0)
    finite = np.where(inf_energy, np.float32(0.0), energies)
    total = finite.sum(axis=0)
    flagged = flagged | (total < np.float32(_TINY32))
    denominator = total[None, :] - finite + np.float32(noise)
    ratio = np.where(
        denominator > 0, finite / denominator, np.float32(np.inf)
    )
    near = np.abs(ratio - beta32) <= tol32 * (ratio + beta32)
    return ratio, ratio >= beta32, near.any(axis=0) | flagged, sq_min


def _screen_heard(
    coords32, powers32, pts32, noise, beta32, tol32, alpha, no_reception
):
    """One heard-station screen chunk: ``(labels, uncertain, sq_min)``.

    Uncertain when :func:`_screen_sinr` says so (the mask could differ) or
    when the masked top-1/top-2 separation fails (the ``beta < 1``
    tie-break could differ).
    """
    ratio, mask, uncertain, sq_min = _screen_sinr(
        coords32, powers32, pts32, noise, beta32, tol32, alpha
    )
    masked = np.where(mask, ratio, np.float32(-np.inf))
    best = np.argmax(masked, axis=0)
    cols = np.arange(pts32.shape[0])
    top1 = masked[best, cols]
    any_received = top1 > -np.inf
    masked[best, cols] = -np.inf
    top2 = masked.max(axis=0)
    contested = top2 > -np.inf
    uncertain = uncertain | (
        contested & ~((top1 - top2) > tol32 * (top1 + top2))
    )
    return np.where(any_received, best, no_reception), uncertain, sq_min


def _screen_row(
    coords32, powers32, pts32, indices, noise, beta32, tol32, alpha
):
    """One gathered reception screen chunk: ``(mask (c,), uncertain, sq_min)``."""
    energies, sq_min = _screen_energies(coords32, powers32, pts32, alpha)
    inf_energy = ~np.isfinite(energies)
    flagged = inf_energy.any(axis=0)
    finite = np.where(inf_energy, np.float32(0.0), energies)
    total = finite.sum(axis=0)
    flagged = flagged | (total < np.float32(_TINY32))
    cols = np.arange(pts32.shape[0])
    row = finite[indices, cols]
    denominator = total - row + np.float32(noise)
    ratio = np.where(denominator > 0, row / denominator, np.float32(np.inf))
    near = np.abs(ratio - beta32) <= tol32 * (ratio + beta32)
    return ratio >= beta32, near | flagged, sq_min


class Float32ScreenBackend:
    """Exact decision backend with a float32 fast path (``"float32-screen"``).

    Implements the :class:`~repro.engine.backend.QueryBackend` protocol.
    Decision queries run the float32 screen and re-route margin-close points
    through the exact inner backend; value queries delegate wholly to it.
    See the module docstring for the margin scheme.

    Args:
        inner: the exact backend used for verification and value queries —
            a registered name (re-resolved on every call, so later
            ``register_backend`` overwrites apply) or a backend object.
        decision_margin: relative margin below which a float32 decision is
            re-verified.  Widening it is always safe (more verification);
            the effective tolerance never drops below an error-bound floor,
            so narrowing it cannot break exactness either.
        geometry_margin: station-proximity guard relative to the coordinate
            scale; points closer than this to some station are always
            verified exactly.
    """

    name = "float32-screen"

    #: Opt-in marker for :mod:`repro.engine.batch`: pass the network's cached
    #: ``coords32`` / ``powers32`` views so the screen never re-casts.
    accepts_float32_arrays = True

    def __init__(
        self,
        inner: "str | QueryBackend" = "numpy",
        *,
        decision_margin: float = DEFAULT_DECISION_MARGIN,
        geometry_margin: float = DEFAULT_GEOMETRY_MARGIN,
    ) -> None:
        if inner is None:
            raise ReproError("inner must name or be an exact backend")
        if decision_margin <= 0.0:
            raise ReproError("decision_margin must be positive")
        if geometry_margin <= 0.0:
            raise ReproError("geometry_margin must be positive")
        self._inner_selection = inner
        self.decision_margin = float(decision_margin)
        self.geometry_margin = float(geometry_margin)
        self.stats = ScreenStats()

    def _inner(self) -> QueryBackend:
        """Resolve the exact inner backend *now* (late binding, every call)."""
        return get_backend(self._inner_selection)

    # -- value queries: no decision to screen, delegate exactly --------

    def energy_matrix(
        self, coords, powers, points, alpha, coords32=None, powers32=None
    ):
        return self._inner().energy_matrix(coords, powers, points, alpha)

    def sinr_matrix(
        self, coords, powers, points, noise, alpha, coords32=None, powers32=None
    ):
        return self._inner().sinr_matrix(coords, powers, points, noise, alpha)

    # -- the screen-then-verify loop ------------------------------------

    def _tolerance(self, n_stations: int, beta: float, alpha: float) -> np.float32:
        """Effective relative tolerance: the margin, floored by error bounds.

        The floor covers coordinate-rounding amplification at the geometry
        guard (``~alpha * eps32 / geometry_margin``) and the interference
        cancellation of near-threshold SINR columns
        (``~beta * n * eps32``), each with generous slack.
        """
        floor = max(
            4.0 * max(2.0, abs(alpha)) * _EPS32 / self.geometry_margin,
            8.0 * (abs(beta) + 1.0) * (n_stations + 64.0) * _EPS32,
        )
        return np.float32(max(self.decision_margin, floor))

    def _geometry_flags(self, coords, pts_chunk, sq_min) -> np.ndarray:
        """Points within ``geometry_margin`` of a station (float64 check)."""
        coord_scale = max(1.0, float(np.abs(coords).max(initial=0.0)))
        scale = np.maximum(
            np.abs(np.asarray(pts_chunk, dtype=float)).max(axis=1), coord_scale
        )
        threshold = (self.geometry_margin * scale) ** 2
        return np.asarray(sq_min, dtype=float) <= threshold

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

    def _decide(
        self, coords, powers, points, coords32, powers32, beta, alpha,
        out, screen, exact,
    ):
        """Screen every point in float32, then verify the uncertain ones.

        ``out`` is the empty answer array, with points on its last axis.
        ``screen(c32, p32, pts32, sl, tol32)`` answers the point chunk
        ``sl`` and returns ``(answers, uncertain, sq_min)``; ``exact(pts,
        selector)`` answers ``pts[selector]`` through the inner backend.
        """
        pts = np.asarray(points, dtype=float)
        m = len(pts)
        if coords32 is None:
            coords32 = np.ascontiguousarray(coords, dtype=np.float32)
        if powers32 is None:
            powers32 = np.ascontiguousarray(powers, dtype=np.float32)
        pts32 = np.ascontiguousarray(pts, dtype=np.float32)
        tol32 = self._tolerance(len(coords), beta, alpha)
        uncertain = np.empty(m, dtype=bool)
        per_point = max(1, len(coords)) * 4 * _SCREEN_TEMPS
        step = max(1, chunk_byte_budget() // per_point)
        for start in range(0, m, step):
            sl = slice(start, min(start + step, m))
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                answers, unc, sq_min = screen(
                    coords32, powers32, pts32[sl], sl, tol32
                )
            out[..., sl] = answers
            uncertain[sl] = unc | self._geometry_flags(coords, pts[sl], sq_min)
        verified = int(np.count_nonzero(uncertain))
        if verified:
            out[..., uncertain] = exact(pts, uncertain)
        self.stats.screened += m
        self.stats.verified += verified
        return out

    # -- screened decision queries -------------------------------------

    def strongest_station(
        self, coords, powers, points, alpha, coords32=None, powers32=None
    ):
        return self._decide(
            coords, powers, points, coords32, powers32, 1.0, alpha,
            np.empty(len(points), dtype=np.intp),
            lambda c32, p32, chunk, sl, tol32: _screen_strongest(
                c32, p32, chunk, alpha, tol32
            ),
            lambda pts, sel: self._inner().strongest_station(
                coords, powers, pts[sel], alpha
            ),
        )

    def received_mask_matrix(
        self, coords, powers, points, noise, beta, alpha,
        coords32=None, powers32=None,
    ):
        if not self._screenable(noise, beta, alpha):
            return self._inner().received_mask_matrix(
                coords, powers, points, noise, beta, alpha
            )
        beta32 = np.float32(beta)
        return self._decide(
            coords, powers, points, coords32, powers32, beta, alpha,
            np.empty((len(coords), len(points)), dtype=bool),
            lambda c32, p32, chunk, sl, tol32: _screen_sinr(
                c32, p32, chunk, noise, beta32, tol32, alpha
            )[1:],
            lambda pts, sel: self._inner().received_mask_matrix(
                coords, powers, pts[sel], noise, beta, alpha
            ),
        )

    def received_mask_at(
        self, coords, powers, points, indices, noise, beta, alpha,
        coords32=None, powers32=None,
    ):
        indices = np.asarray(indices, dtype=np.intp)
        if not self._screenable(noise, beta, alpha):
            return self._inner().received_mask_at(
                coords, powers, points, indices, noise, beta, alpha
            )
        beta32 = np.float32(beta)
        return self._decide(
            coords, powers, points, coords32, powers32, beta, alpha,
            np.empty(len(points), dtype=bool),
            lambda c32, p32, chunk, sl, tol32: _screen_row(
                c32, p32, chunk, indices[sl], noise, beta32, tol32, alpha
            ),
            lambda pts, sel: self._inner().received_mask_at(
                coords, powers, pts[sel], indices[sel], noise, beta, alpha
            ),
        )

    def heard_station(
        self, coords, powers, points, noise, beta, alpha, no_reception,
        coords32=None, powers32=None,
    ):
        if not self._screenable(noise, beta, alpha):
            return self._inner().heard_station(
                coords, powers, points, noise, beta, alpha, no_reception
            )
        beta32 = np.float32(beta)
        return self._decide(
            coords, powers, points, coords32, powers32, beta, alpha,
            np.empty(len(points), dtype=np.intp),
            lambda c32, p32, chunk, sl, tol32: _screen_heard(
                c32, p32, chunk, noise, beta32, tol32, alpha, no_reception
            ),
            lambda pts, sel: self._inner().heard_station(
                coords, powers, pts[sel], noise, beta, alpha, no_reception
            ),
        )


register_backend("float32-screen", Float32ScreenBackend())
