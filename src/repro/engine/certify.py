"""How far rounding can move an SINR decision or a certified radius.

The library stays exact by proposing cheaply, certifying, and verifying
exactly only what the certificate cannot decide.  Every certificate rests
on a bound on the rounding behind it, and this module derives them all:
the float64 margin behind every Theorem 4.1 routing and invalidation box
(:func:`reach_margin`), the float32 screen's tolerance and geometry guard
(:func:`screen_tolerance`, :func:`geometry_guard`), and the probe constants
of the radius bounds (:func:`probe_tolerance`, :data:`MEASURED_PAD`,
:data:`PROBE_BRACKET`).

The epsilons are written as powers of two, so nothing here computes in
reduced precision: the screen casts :func:`screen_tolerance` itself.  The
numpy kernel's silence certificate needs no margin and derives none.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EPS32",
    "EPS64",
    "GEOMETRY_MARGIN",
    "MEASURED_PAD",
    "PROBE_BRACKET",
    "PROBE_TOLERANCE",
    "geometry_guard",
    "probe_tolerance",
    "reach_margin",
    "screen_tolerance",
]

#: float64 machine epsilon, ``2u`` in :func:`reach_margin`.
EPS64 = 2.0 ** -52

#: float32 machine epsilon, the unit of :func:`screen_tolerance`.
EPS32 = 2.0 ** -23

#: Station-proximity guard (relative to the coordinate scale) below which
#: float32 coordinate rounding error is considered unbounded.
GEOMETRY_MARGIN = 1e-3

#: The boundary probe's stopping gap, relative to the radius it probes
#: (see :func:`probe_tolerance`).
PROBE_TOLERANCE = 1e-9

#: Relative pad of :func:`repro.pointlocation.bounds.measured_radius_bounds`
#: against the probe's gap and the slop of its polygon geometry.
MEASURED_PAD = 1e-3

#: Factor on a certified ``Delta_upper`` that starts the probe's bisection.
#: Theorem 4.1's bound is attained for two noiseless stations, so a probe
#: started at the bound itself can begin on the boundary.
PROBE_BRACKET = 1.0000001


def reach_margin(n_stations: int, beta: float) -> float:
    """Relative widening of a Theorem 4.1 reach that covers float64 rounding.

    :func:`~repro.pointlocation.bounds.station_reaches` multiplies every
    reach by ``1 + margin`` so that every point the float64 kernels of
    :mod:`repro.engine.kernels` find received lies inside it.  With
    ``u = 2**-53``, ``c = sqrt(beta) / (sqrt(beta) - 1)`` and ``n``
    stations, to first order (``alpha = 2``, the Theorem 4.1 regime):

    * The kernels' SINR at a point outside the exact zone is off by a
      relative ``e <= (n + 12 + (n - 1) * beta) * u``: each energy by
      ``5u``, the total of ``n`` energies by ``(n - 1) u`` of itself (which
      ``total - signal`` turns into up to ``(n - 1) (beta + 1) u`` of the
      interference plus noise, the signal being at most ``beta`` times it),
      and the subtraction, the noise and the division by ``3u``.  A point
      judged received therefore has an exact SINR of at least
      ``beta / (1 + e)``.
    * Lowering the threshold from ``beta`` to ``beta / (1 + e)`` grows the
      bound by a factor of at most ``1 + c * e / (2 * (1 - t))`` with
      ``t = e / (2 * (sqrt(beta) - 1))``, and ``t <= 1/2`` while the margin
      is below 1.
    * Evaluating the bound in float64 (``kappa**2`` from rounded
      differences, the radicand and its square root, ``- 1``, the
      division) loses at most ``9.5 * c * u``; the overflow-safe form
      (``bounds._far_bound``) less.

    The sum is at most ``(n + 31) * (beta + 1) * c * u``.  The margin is
    twice that, which covers the second-order terms and its own rounding.
    A margin of 1 or more (``beta`` within rounding of 1, or so large that
    the cancellation in ``total - signal`` swamps the interference) makes
    every reach infinite.
    """
    root = math.sqrt(beta)
    if root <= 1.0:
        return math.inf
    return (n_stations + 31) * (beta + 1.0) * EPS64 * root / (root - 1.0)


def screen_tolerance(n_stations: int, beta: float, alpha: float) -> float:
    """The float32 screen's relative tolerance, from float32 error bounds.

    It covers coordinate-rounding amplification at the geometry guard
    (``~alpha * eps32 / GEOMETRY_MARGIN``, which also bounds the
    squared-distance error of ``nearest_received``'s separation test)
    and the interference cancellation of near-threshold SINR columns
    (``~beta * n * eps32``), each with generous slack.  The screen casts
    the value to float32 before it compares with it.
    """
    return max(
        4.0 * max(2.0, abs(alpha)) * EPS32 / GEOMETRY_MARGIN,
        8.0 * (abs(beta) + 1.0) * (n_stations + 64.0) * EPS32,
    )


def geometry_guard(coords: np.ndarray, pts: np.ndarray) -> np.ndarray:
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
        np.square(scale, out=scale)
    return scale


def probe_tolerance(radius: float) -> float:
    """The stopping gap to probe a zone whose certified radius is ``radius``.

    The probe stops at a gap relative to ``max(1, distance)``, so below
    distance 1 its gap is absolute.  Scaled by ``min(1, radius)`` it is
    relative at every scale, like :data:`MEASURED_PAD`, and unchanged
    wherever ``radius`` is at least 1.
    """
    return PROBE_TOLERANCE * min(1.0, radius)
