"""Exception hierarchy for the :mod:`repro` package.

All library-specific failures derive from :class:`ReproError` so that callers
can distinguish library errors from programming errors (``TypeError`` and
friends) with a single ``except`` clause.  :func:`positive_int` is the one
count check, raising the caller's own error class.
"""

from __future__ import annotations

import operator
from typing import Type


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class GeometryError(ReproError):
    """Raised for invalid geometric constructions (e.g. a degenerate segment)."""


class AlgebraError(ReproError):
    """Raised for invalid polynomial operations (e.g. dividing by zero poly)."""


class NetworkConfigurationError(ReproError):
    """Raised when a wireless network is constructed with invalid parameters.

    Examples: fewer than two stations, a non-positive transmission power,
    a negative background noise, or a reception threshold below the value a
    particular algorithm requires.
    """


class PointLocationError(ReproError):
    """Raised when the point-location preprocessing cannot be carried out.

    Typical causes: the reception zone of the target station is degenerate
    (another station shares its location) or the performance parameter
    ``epsilon`` is outside ``(0, 1)``.
    """


class DiagramError(ReproError):
    """Raised when a raster or contour diagram cannot be constructed."""


class RasterCacheError(DiagramError):
    """Raised for invalid raster tile-cache configuration or arguments.

    Examples: a non-positive byte budget or tile size, or a ``cache=``
    argument that is neither a :class:`repro.raster.TileCache` nor ``None``.
    """


class EngineError(ReproError, ValueError):
    """Raised for invalid engine batch arguments or backend configuration.

    Examples: query points whose shape is not ``(m, 2)`` or a per-point
    index array of the wrong length.  Also a
    :class:`ValueError`: these are argument-validation failures, so existing
    callers that caught ``ValueError`` keep working while new code catches
    the taxonomy root.
    """


class WorkloadError(ReproError, ValueError):
    """Raised for invalid workload or load-generator parameters.

    Examples: a negative query count, a non-positive arrival rate, or a
    schedule whose length does not match its points.  Also a
    :class:`ValueError` for the same compatibility reason as
    :class:`EngineError`.
    """


class LintError(ReproError):
    """Raised by :mod:`repro.lint` for unusable linter input.

    Examples: a missing lint path, an unknown rule id, or a baseline file
    that is malformed or missing a written justification.
    """


class ServiceError(ReproError):
    """Raised for invalid query-service configuration or lifecycle misuse.

    Examples: a non-positive latency budget or batch size, starting a
    service twice, or swapping an opaque pre-built locator without a
    replacement.
    """


class ObservabilityError(ReproError):
    """Raised for invalid metrics-hub configuration or lifecycle misuse.

    Examples: registering two sources under one name, a non-positive
    collection interval, or starting an already running hub.
    """


class ComponentError(ReproError):
    """Raised for runtime-framework misuse (:mod:`repro.runtime`).

    Examples: adding a component to an already-started composition root,
    declaring a component after an undeclared dependency, or starting a
    generic component twice.  Components with their own taxonomy
    branch (service, observability) override the error types the
    shared lifecycle raises, so this class surfaces only from the framework
    itself.
    """


class ServiceClosedError(ServiceError):
    """Raised when a query is submitted to (or aborted by) a closed service.

    Submitters blocked in ``submit`` when the service shuts down without
    draining receive this exception through their pending future.
    """


class ComponentClosedError(ComponentError):
    """Raised when a closed generic runtime component is used again."""


class ObservabilityClosedError(ObservabilityError):
    """Raised when a stopped metrics hub is asked to collect or restart.

    The unified component lifecycle is terminal: a hub that has been
    stopped keeps its counters readable but no longer samples.
    """


def positive_int(name: str, value: object, error: Type[ReproError]) -> int:
    """``value`` as an ``int`` >= 1, else ``error``: a bool, a float (even
    ``2.0``) or a string is refused rather than truncated."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < 1:
        raise error(f"{name} must be an integer >= 1, got {value!r}")
    return number
