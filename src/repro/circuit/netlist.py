"""Circuit netlist container.

A :class:`Circuit` is a named collection of elements connected between
named nodes.  Node ``"0"`` (alias ``"gnd"``) is the global ground.  The
circuit only stores topology; matrix assembly lives in
:mod:`repro.circuit.mna` and the solvers in :mod:`repro.circuit.dc` /
:mod:`repro.circuit.transient`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .elements import CircuitElement, TwoTerminal

#: Node names treated as the global ground.
GROUND_NAMES = ("0", "gnd", "GND", "vss!", "VSS!")


class NetlistError(ValueError):
    """Raised for malformed circuits."""


def is_ground(node: str) -> bool:
    """Whether a node name refers to the global ground."""
    return node in GROUND_NAMES


class Circuit:
    """A flat netlist of circuit elements.

    Parameters
    ----------
    title:
        Free-form description, stored for netlist export.
    """

    def __init__(self, title: str = "untitled") -> None:
        self.title = title
        self._elements: Dict[str, CircuitElement] = {}

    # -- element management ----------------------------------------------------

    def add(self, element: CircuitElement) -> CircuitElement:
        """Add an element; its name must be unique within the circuit."""
        if element.name in self._elements:
            raise NetlistError(f"duplicate element name {element.name!r}")
        self._elements[element.name] = element
        return element

    def add_all(self, elements: Iterable[CircuitElement]) -> None:
        for element in elements:
            self.add(element)

    def element(self, name: str) -> CircuitElement:
        try:
            return self._elements[name]
        except KeyError:
            raise NetlistError(
                f"no element named {name!r}; elements: {sorted(self._elements)[:20]}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[CircuitElement]:
        return iter(self._elements.values())

    @property
    def elements(self) -> List[CircuitElement]:
        return list(self._elements.values())

    def elements_of_type(self, element_type: type) -> List[CircuitElement]:
        return [element for element in self._elements.values() if isinstance(element, element_type)]

    # -- node management ---------------------------------------------------------

    def nodes(self) -> List[str]:
        """All non-ground node names, in first-appearance order."""
        seen: Dict[str, None] = {}
        for element in self._elements.values():
            for node in element.nodes():
                if not is_ground(node):
                    seen.setdefault(node, None)
        return list(seen)

    def node_count(self) -> int:
        return len(self.nodes())

    def validate(self) -> None:
        """Basic sanity checks: every node must connect at least two terminals
        (or one terminal plus ground-referenced elements), and the circuit
        must reference ground somewhere."""
        if not self._elements:
            raise NetlistError("the circuit has no elements")
        touches_ground = any(
            any(is_ground(node) for node in element.nodes())
            for element in self._elements.values()
        )
        if not touches_ground:
            raise NetlistError("the circuit never references ground ('0')")
        connection_count: Dict[str, int] = {}
        for element in self._elements.values():
            for node in element.nodes():
                if is_ground(node):
                    continue
                connection_count[node] = connection_count.get(node, 0) + 1
        floating = sorted(
            node for node, count in connection_count.items() if count < 2
        )
        if floating:
            raise NetlistError(
                "floating nodes (connected to a single terminal): "
                f"{floating[:10]}{'...' if len(floating) > 10 else ''}"
            )

    # -- convenience summaries ----------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """Element count per class name plus the node count."""
        counts: Dict[str, int] = {}
        for element in self._elements.values():
            counts[type(element).__name__] = counts.get(type(element).__name__, 0) + 1
        counts["nodes"] = self.node_count()
        return counts
