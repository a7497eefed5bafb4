"""Abstract interface of a patterning option.

A *patterning option* (LE3, SADP, EUV...) knows three things:

1. how a nominal :class:`~repro.layout.wire.TrackPattern` is decomposed
   onto its masks / process steps (:meth:`PatterningOption.decompose`);
2. which variation parameters it introduces and their 3σ budgets
   (:meth:`PatterningOption.parameter_specs`);
3. how a concrete assignment of those parameters distorts the printed
   pattern (:meth:`PatterningOption.apply`).

The worst-case enumeration, Monte-Carlo sampling and parasitic extraction
all operate on this interface only, so adding a new patterning option
(for example LE2, or SAQP) does not touch the analysis code.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..layout.wire import NetRole, TrackPattern
from ..technology.corners import GaussianSpec, VariationAssumptions


class PatterningError(ValueError):
    """Raised for invalid patterning configurations or parameter sets."""


#: A concrete assignment of variation-parameter values in nanometres,
#: keyed by the names returned by :meth:`PatterningOption.parameter_specs`
#: (for example ``{"cd:A": +3.0, "ol:B": -8.0}``).
ParameterValues = Mapping[str, float]


@dataclass(frozen=True)
class PatternedResult:
    """The outcome of printing a track pattern with a patterning option.

    Attributes
    ----------
    option_name:
        Name of the patterning option that produced the result.
    nominal:
        The drawn (input) pattern.
    printed:
        The printed pattern, with distorted widths/positions and with each
        track's ``mask`` attribute filled in.
    parameters:
        The parameter values that were applied.
    """

    option_name: str
    nominal: TrackPattern
    printed: TrackPattern
    parameters: Dict[str, float] = field(default_factory=dict)

    def width_change_nm(self, net: str) -> float:
        """Printed-minus-drawn width of the track carrying ``net``."""
        return self.printed.track_for(net).width_nm - self.nominal.track_for(net).width_nm

    def center_shift_nm(self, net: str) -> float:
        """Printed-minus-drawn centre position of the track carrying ``net``."""
        return self.printed.track_for(net).center_nm - self.nominal.track_for(net).center_nm

    def space_changes_nm(self) -> List[float]:
        """Per-gap change of the neighbour spaces (printed minus drawn)."""
        return [
            printed - drawn
            for printed, drawn in zip(self.printed.spaces(), self.nominal.spaces())
        ]


@dataclass(frozen=True)
class BatchPrintedGeometry:
    """Printed geometry of one pattern under N parameter assignments.

    The column order matches the decomposed pattern's track order (sorted
    by nominal centre position); ``left_edges_nm`` and ``right_edges_nm``
    are ``(N, T)`` arrays of printed track edges.  This is the interface
    between the vectorised patterning step and the vectorised extraction.
    """

    option_name: str
    nominal: TrackPattern
    nets: Tuple[str, ...]
    roles: Tuple[NetRole, ...]
    masks: Tuple[Optional[str], ...]
    left_edges_nm: np.ndarray
    right_edges_nm: np.ndarray

    def __post_init__(self) -> None:
        left = self.left_edges_nm
        right = self.right_edges_nm
        if left.shape != right.shape or left.ndim != 2:
            raise PatterningError(
                f"edge arrays must share one (N, T) shape, got "
                f"{left.shape} and {right.shape}"
            )
        if left.shape[1] != len(self.nets):
            raise PatterningError(
                f"edge arrays cover {left.shape[1]} tracks but {len(self.nets)} "
                "nets were named"
            )

    @property
    def n_samples(self) -> int:
        return int(self.left_edges_nm.shape[0])

    @property
    def n_tracks(self) -> int:
        return int(self.left_edges_nm.shape[1])

    @property
    def wire_length_nm(self) -> float:
        return self.nominal.wire_length_nm

    @property
    def widths_nm(self) -> np.ndarray:
        """Printed widths, shape ``(N, T)``."""
        return self.right_edges_nm - self.left_edges_nm

    def index_of(self, net: str) -> int:
        try:
            return self.nets.index(net)
        except ValueError:
            raise PatterningError(
                f"no printed track carries net {net!r}; nets: {list(self.nets)}"
            ) from None

    def spaces_nm(self, left_index: int, right_index: int) -> np.ndarray:
        """Edge-to-edge spaces between two track columns, shape ``(N,)``."""
        return self.left_edges_nm[:, right_index] - self.right_edges_nm[:, left_index]

    def validate(self) -> None:
        """Reject samples that pinch off a track or overlap neighbours.

        The scalar path raises for such samples one at a time; the batch
        path rejects the whole batch with the offending sample index so the
        caller can tighten the budgets (matching scalar-path strictness).
        """
        widths = self.widths_nm
        if np.any(widths <= 0.0):
            sample, track = np.argwhere(widths <= 0.0)[0]
            raise PatterningError(
                f"{self.option_name}: sample {int(sample)} gives track "
                f"{self.nets[int(track)]!r} a non-positive printed width"
            )
        if self.n_tracks > 1:
            overlap = (
                self.left_edges_nm[:, 1:] < self.right_edges_nm[:, :-1] - 1e-9
            )
            if np.any(overlap):
                sample, gap = np.argwhere(overlap)[0]
                raise PatterningError(
                    f"{self.option_name}: sample {int(sample)} makes tracks "
                    f"{self.nets[int(gap)]!r} and {self.nets[int(gap) + 1]!r} overlap"
                )



def geometry_from_patterns(
    option_name: str,
    nominal: TrackPattern,
    printed_patterns: Sequence[TrackPattern],
) -> BatchPrintedGeometry:
    """Stack scalar printed patterns into a :class:`BatchPrintedGeometry`."""
    if not printed_patterns:
        raise PatterningError("at least one printed pattern is required")
    first = printed_patterns[0]
    left = np.empty((len(printed_patterns), len(first)))
    right = np.empty_like(left)
    for row, printed in enumerate(printed_patterns):
        for column, track in enumerate(printed):
            left[row, column] = track.left_edge_nm
            right[row, column] = track.right_edge_nm
    return BatchPrintedGeometry(
        option_name=option_name,
        nominal=nominal,
        nets=tuple(track.net for track in first),
        roles=tuple(track.role for track in first),
        masks=tuple(track.mask for track in first),
        left_edges_nm=left,
        right_edges_nm=right,
    )


class PatterningOption(abc.ABC):
    """Base class for all patterning options."""

    #: Short machine-readable name (``"LELELE"``, ``"SADP"``, ``"EUV"``).
    name: str = "abstract"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"

    # -- mandatory interface -------------------------------------------------

    @abc.abstractmethod
    def decompose(self, pattern: TrackPattern) -> TrackPattern:
        """Assign every track of ``pattern`` to a mask / process step.

        Returns a copy of the pattern whose tracks carry a ``mask`` label;
        geometry is unchanged.
        """

    @abc.abstractmethod
    def parameter_specs(
        self, assumptions: VariationAssumptions
    ) -> Dict[str, GaussianSpec]:
        """The variation parameters this option introduces and their budgets."""

    @abc.abstractmethod
    def apply(
        self, pattern: TrackPattern, parameters: ParameterValues
    ) -> PatternedResult:
        """Print ``pattern`` with the given parameter values.

        Unknown parameter names raise :class:`PatterningError`; missing
        parameters default to zero (nominal).
        """

    # -- batched printing ------------------------------------------------------

    def apply_batch(
        self,
        pattern: TrackPattern,
        parameter_matrix: np.ndarray,
        parameter_names: Sequence[str],
    ) -> BatchPrintedGeometry:
        """Print ``pattern`` under every row of an ``(N, k)`` parameter matrix.

        The base implementation loops the scalar :meth:`apply` per sample —
        always correct, never fast; the standard options override it with a
        fully vectorised implementation.  Column ``j`` of the matrix holds
        parameter ``parameter_names[j]``.
        """
        matrix = self._check_batch_matrix(parameter_matrix, parameter_names)
        printed = [
            self.apply(
                pattern,
                {name: float(row[j]) for j, name in enumerate(parameter_names)},
            ).printed
            for row in matrix
        ]
        geometry = geometry_from_patterns(self.name, pattern, printed)
        geometry.validate()
        return geometry

    def _printed_geometry(
        self,
        nominal: TrackPattern,
        decomposed: TrackPattern,
        left_edges_nm: np.ndarray,
        right_edges_nm: np.ndarray,
    ) -> BatchPrintedGeometry:
        """Assemble and validate the batch geometry of a printed pattern."""
        geometry = BatchPrintedGeometry(
            option_name=self.name,
            nominal=nominal,
            nets=tuple(track.net for track in decomposed),
            roles=tuple(track.role for track in decomposed),
            masks=tuple(track.mask for track in decomposed),
            left_edges_nm=left_edges_nm,
            right_edges_nm=right_edges_nm,
        )
        geometry.validate()
        return geometry

    def _check_batch_matrix(
        self, parameter_matrix: np.ndarray, parameter_names: Sequence[str]
    ) -> np.ndarray:
        """Validate an ``(N, k)`` parameter matrix against its column names."""
        matrix = np.asarray(parameter_matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != len(parameter_names):
            raise PatterningError(
                f"{self.name}: parameter matrix shape {matrix.shape} does not "
                f"match {len(parameter_names)} parameter names"
            )
        return matrix

    def _parameter_columns(
        self, parameter_names: Sequence[str], known: Iterable[str]
    ) -> Dict[str, int]:
        """Map known parameter names to matrix columns, rejecting unknowns."""
        known_set = set(known)
        unknown = [name for name in parameter_names if name not in known_set]
        if unknown:
            raise PatterningError(
                f"{self.name}: unknown parameter(s) {sorted(unknown)}; "
                f"known parameters: {sorted(known_set)}"
            )
        return {name: index for index, name in enumerate(parameter_names)}

    # -- shared helpers -------------------------------------------------------

    def nominal_result(self, pattern: TrackPattern) -> PatternedResult:
        """Print the pattern with all variation parameters at zero."""
        return self.apply(pattern, {})

    def _check_parameters(
        self, parameters: ParameterValues, known: Iterable[str]
    ) -> Dict[str, float]:
        known_set = set(known)
        unknown = [name for name in parameters if name not in known_set]
        if unknown:
            raise PatterningError(
                f"{self.name}: unknown parameter(s) {sorted(unknown)}; "
                f"known parameters: {sorted(known_set)}"
            )
        values = {name: 0.0 for name in known_set}
        values.update({name: float(value) for name, value in parameters.items()})
        return values


class PatterningRegistry:
    """A name → option factory registry.

    Studies are configured with option *names* (strings); the registry maps
    them to constructed option objects.  The default registry is populated
    by :mod:`repro.patterning` at import time with LE2, LE3 (LELELE), SADP
    and EUV.
    """

    def __init__(self) -> None:
        self._factories: Dict[str, object] = {}

    def register(self, name: str, factory) -> None:
        key = name.upper()
        if key in self._factories:
            raise PatterningError(f"patterning option {name!r} already registered")
        self._factories[key] = factory

    def create(self, name: str, **kwargs) -> PatterningOption:
        key = name.upper()
        try:
            factory = self._factories[key]
        except KeyError:
            raise PatterningError(
                f"unknown patterning option {name!r}; known: {sorted(self._factories)}"
            ) from None
        return factory(**kwargs)

    @property
    def names(self) -> List[str]:
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name.upper() in self._factories


#: The module-level default registry used by the studies.
default_registry = PatterningRegistry()
