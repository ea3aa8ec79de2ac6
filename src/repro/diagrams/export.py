"""Export of SINR diagrams to plain-text formats.

The paper's figures were produced with a plotting package; in this offline
reproduction the rasterised diagrams are exported as:

* **ASCII art** — a quick human-readable rendering for the terminal (used by
  the examples),
* **PGM images** — portable greymap files viewable with any image tool,
* **CSV** — the raw label / SINR matrices, for external plotting.

All exporters take the :class:`~repro.model.diagram.RasterDiagram` produced by
:meth:`SINRDiagram.rasterize` and are deterministic.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from ..geometry.point import Point
from ..model.diagram import NO_RECEPTION, RasterDiagram

__all__ = ["to_ascii", "to_pgm", "to_csv", "write_pgm", "write_csv"]

#: Characters used for the zones in ASCII renderings (cycled when n > 16).
_ZONE_CHARACTERS = "0123456789ABCDEF"
_EMPTY_CHARACTER = "."
_STATION_CHARACTER = "*"


def to_ascii(
    raster: RasterDiagram,
    station_locations: Optional[Sequence[Point]] = None,
    max_width: int = 100,
) -> str:
    """Render a raster diagram as ASCII art.

    Each pixel becomes one character: the station index (hex digit) of the
    zone covering it, ``.`` for the null zone, and ``*`` for pixels containing
    a station.  Rows are emitted top-to-bottom (the usual text orientation),
    so the y axis is flipped relative to the raster arrays.
    """
    labels = raster.labels
    rows, columns = labels.shape
    step = max(1, int(np.ceil(columns / max_width)))

    station_cells = set()
    if station_locations:
        for location in station_locations:
            column = int(np.argmin(np.abs(raster.xs - location.x)))
            row = int(np.argmin(np.abs(raster.ys - location.y)))
            station_cells.add((row, column))

    lines: List[str] = []
    for r in range(rows - 1, -1, -step):
        characters: List[str] = []
        for c in range(0, columns, step):
            if (r, c) in station_cells:
                characters.append(_STATION_CHARACTER)
                continue
            label = int(labels[r, c])
            if label == NO_RECEPTION:
                characters.append(_EMPTY_CHARACTER)
            else:
                characters.append(_ZONE_CHARACTERS[label % len(_ZONE_CHARACTERS)])
        lines.append("".join(characters))
    return "\n".join(lines)


def to_pgm(raster: RasterDiagram, levels: int = 255) -> str:
    """Render the label map as an ASCII (P2) portable greymap.

    The null zone maps to white (``levels``), zone ``i`` maps to a grey level
    spread evenly across the available range, so adjacent zones are visually
    distinct.
    """
    labels = raster.labels
    rows, columns = labels.shape
    n_zones = int(labels.max()) + 1 if labels.max() >= 0 else 1
    grey = np.full(labels.shape, levels, dtype=int)
    for zone in range(n_zones):
        grey[labels == zone] = int((zone + 1) * levels / (n_zones + 1))

    lines = [f"P2", f"{columns} {rows}", str(levels)]
    for r in range(rows - 1, -1, -1):
        lines.append(" ".join(str(int(v)) for v in grey[r]))
    return "\n".join(lines) + "\n"


def to_csv(raster: RasterDiagram) -> str:
    """Export the label map as CSV with an x/y header row and column.

    The first row holds the x coordinates, the first column the y coordinates,
    and the body holds the integer labels (``-1`` = no reception).
    """
    lines = ["," + ",".join(f"{x:.6g}" for x in raster.xs)]
    for r, y in enumerate(raster.ys):
        row_labels = ",".join(str(int(v)) for v in raster.labels[r])
        lines.append(f"{y:.6g},{row_labels}")
    return "\n".join(lines) + "\n"


def write_pgm(raster: RasterDiagram, path: "Path | str", levels: int = 255) -> Path:
    """Write the PGM rendering to ``path`` and return the path."""
    destination = Path(path)
    destination.write_text(to_pgm(raster, levels=levels))
    return destination


def write_csv(raster: RasterDiagram, path: "Path | str") -> Path:
    """Write the CSV export to ``path`` and return the path."""
    destination = Path(path)
    destination.write_text(to_csv(raster))
    return destination
