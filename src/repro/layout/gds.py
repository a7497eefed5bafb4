"""Minimal GDSII-like text export / import.

The real study consumes GDSII cell layouts.  For the reproduction a binary
GDSII writer is unnecessary, but a faithful *structured* interchange format
is still useful: examples and tests round-trip layouts through it, and it
gives downstream users a way to feed their own layouts into the LPE flow.

The format ("GDT" — GDS text) is deliberately tiny and line oriented::

    HEADER unit_nm=1.0
    CELL <cellname>
    BOUNDARY layer=<gds_layer> datatype=<dt> net=<net> role=<role>
    XY x1 y1 x2 y2 ... xn yn
    ENDEL
    ...
    ENDCELL

Only axis-aligned rectangles are emitted by the layout generators, but the
reader accepts arbitrary polygons and reduces them to their bounding box
(sufficient for the extraction flow, which reasons about straight parallel
wires).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, TextIO, Tuple, Union

from .geometry import GeometryError, Point, Polygon, Rect
from .layers import Layer, LayerMap, LayerPurpose, default_layer_map
from .wire import NetRole, Wire


class GDSFormatError(ValueError):
    """Raised for malformed GDT content."""


@dataclass
class GDSCell:
    """A named collection of wires (shapes with nets) — one layout cell."""

    name: str
    wires: List[Wire] = field(default_factory=list)

    def nets(self) -> List[str]:
        seen = []
        for wire in self.wires:
            if wire.net not in seen:
                seen.append(wire.net)
        return seen


@dataclass
class GDSLibrary:
    """A collection of cells plus the layer map used for numbering."""

    cells: Dict[str, GDSCell] = field(default_factory=dict)
    layer_map: LayerMap = field(default_factory=default_layer_map)
    unit_nm: float = 1.0

    def add_cell(self, cell: GDSCell) -> None:
        if cell.name in self.cells:
            raise GDSFormatError(f"duplicate cell name {cell.name!r}")
        self.cells[cell.name] = cell

    def cell(self, name: str) -> GDSCell:
        try:
            return self.cells[name]
        except KeyError:
            raise GDSFormatError(
                f"no cell named {name!r}; cells: {sorted(self.cells)}"
            ) from None


def _role_to_text(role: NetRole) -> str:
    return role.value


def _role_from_text(text: str) -> NetRole:
    try:
        return NetRole(text)
    except ValueError:
        return NetRole.OTHER


def write_gdt(library: GDSLibrary, destination: Union[str, Path, TextIO]) -> None:
    """Write a :class:`GDSLibrary` in the GDT text format."""
    owns_handle = False
    if isinstance(destination, (str, Path)):
        handle: TextIO = open(destination, "w", encoding="utf-8")
        owns_handle = True
    else:
        handle = destination
    try:
        handle.write(f"HEADER unit_nm={library.unit_nm}\n")
        for cell in library.cells.values():
            handle.write(f"CELL {cell.name}\n")
            for wire in cell.wires:
                layer = library.layer_map.by_name(wire.layer)
                handle.write(
                    "BOUNDARY "
                    f"layer={layer.gds_layer} datatype={layer.gds_datatype} "
                    f"net={wire.net} role={_role_to_text(wire.role)}\n"
                )
                rect = wire.rect
                coords = [
                    rect.x_min, rect.y_min,
                    rect.x_max, rect.y_min,
                    rect.x_max, rect.y_max,
                    rect.x_min, rect.y_max,
                ]
                handle.write("XY " + " ".join(f"{value:.3f}" for value in coords) + "\n")
                handle.write("ENDEL\n")
            handle.write("ENDCELL\n")
    finally:
        if owns_handle:
            handle.close()


def dumps_gdt(library: GDSLibrary) -> str:
    """Return the GDT text of a library as a string."""
    buffer = io.StringIO()
    write_gdt(library, buffer)
    return buffer.getvalue()


def _parse_xy(line: str) -> Rect:
    parts = line.split()
    values = [float(token) for token in parts[1:]]
    if len(values) < 6 or len(values) % 2 != 0:
        raise GDSFormatError(f"bad XY record: {line!r}")
    points = [Point(values[i], values[i + 1]) for i in range(0, len(values), 2)]
    polygon = Polygon(vertices=tuple(points))
    return polygon.bounding_box()


def read_gdt(
    source: Union[str, Path, TextIO],
    layer_map: Optional[LayerMap] = None,
) -> GDSLibrary:
    """Read a GDT text stream or file back into a :class:`GDSLibrary`."""
    chosen_map = layer_map if layer_map is not None else default_layer_map()
    owns_handle = False
    if isinstance(source, (str, Path)):
        handle: TextIO = open(source, "r", encoding="utf-8")
        owns_handle = True
    else:
        handle = source

    library = GDSLibrary(layer_map=chosen_map)
    current_cell: Optional[GDSCell] = None
    pending: Optional[Dict[str, str]] = None
    try:
        for raw_line in handle:
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            keyword = line.split()[0]
            if keyword == "HEADER":
                fields = dict(
                    token.split("=", 1) for token in line.split()[1:] if "=" in token
                )
                library.unit_nm = float(fields.get("unit_nm", "1.0"))
            elif keyword == "CELL":
                name = line.split(maxsplit=1)[1]
                current_cell = GDSCell(name=name)
            elif keyword == "ENDCELL":
                if current_cell is None:
                    raise GDSFormatError("ENDCELL without CELL")
                library.add_cell(current_cell)
                current_cell = None
            elif keyword == "BOUNDARY":
                pending = dict(
                    token.split("=", 1) for token in line.split()[1:] if "=" in token
                )
            elif keyword == "XY":
                if current_cell is None or pending is None:
                    raise GDSFormatError("XY record outside of a BOUNDARY element")
                rect = _parse_xy(line)
                gds_layer = int(pending["layer"])
                gds_datatype = int(pending.get("datatype", "0"))
                layer = chosen_map.by_gds(gds_layer, gds_datatype)
                wire = Wire(
                    net=pending.get("net", "UNNAMED"),
                    layer=layer.name,
                    rect=rect,
                    role=_role_from_text(pending.get("role", "other")),
                )
                current_cell.wires.append(wire)
            elif keyword == "ENDEL":
                pending = None
            else:
                raise GDSFormatError(f"unknown record {keyword!r}")
    finally:
        if owns_handle:
            handle.close()

    if current_cell is not None:
        raise GDSFormatError(f"cell {current_cell.name!r} was never closed")
    return library


def loads_gdt(text: str, layer_map: Optional[LayerMap] = None) -> GDSLibrary:
    """Parse GDT text from a string."""
    return read_gdt(io.StringIO(text), layer_map=layer_map)


def library_from_wires(
    cell_name: str,
    wires: Iterable[Wire],
    layer_map: Optional[LayerMap] = None,
) -> GDSLibrary:
    """Wrap a wire list into a single-cell library ready for export."""
    library = GDSLibrary(layer_map=layer_map if layer_map is not None else default_layer_map())
    library.add_cell(GDSCell(name=cell_name, wires=list(wires)))
    return library
