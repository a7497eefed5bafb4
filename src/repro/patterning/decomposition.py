"""Mask decomposition (colouring) of track patterns.

Litho-etch multiple patterning splits a dense layer onto ``k`` masks such
that no two features closer than the single-exposure resolution share a
mask.  For the regular, parallel track patterns of an SRAM metal1 layer a
cyclic assignment is optimal; for irregular patterns the conflict graph is
coloured with networkx, an optional dependency imported only by the two
colouring functions.  Both strategies are provided, plus a checker that
verifies a colouring is legal for a given same-mask spacing limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..layout.wire import Track, TrackPattern
from .base import PatterningError

if TYPE_CHECKING:
    import networkx as nx

#: Default mask labels, in exposure order.
DEFAULT_MASK_LABELS: Tuple[str, ...] = ("A", "B", "C", "D")


def mask_labels(n_masks: int) -> Tuple[str, ...]:
    """The labels of an ``n_masks``-exposure litho-etch flow."""
    if n_masks < 1:
        raise PatterningError("a litho-etch flow needs at least one mask")
    if n_masks <= len(DEFAULT_MASK_LABELS):
        return DEFAULT_MASK_LABELS[:n_masks]
    return tuple(f"M{index}" for index in range(n_masks))


def cyclic_assignment(pattern: TrackPattern, n_masks: int) -> Dict[str, str]:
    """Assign tracks to masks cyclically, left to right.

    For equally pitched parallel lines this maximises the same-mask pitch
    (``n_masks ×`` the line pitch), which is exactly how a gridded SRAM
    metal1 layer is decomposed in practice.

    Returns
    -------
    dict
        Mapping net name → mask label.
    """
    labels = mask_labels(n_masks)
    assignment: Dict[str, str] = {}
    for index, track in enumerate(pattern):
        assignment[track.net] = labels[index % n_masks]
    return assignment


def build_conflict_graph(
    pattern: TrackPattern, same_mask_min_space_nm: float
) -> nx.Graph:
    """Build the colouring conflict graph of a track pattern.

    Two tracks conflict (cannot share a mask) when their edge-to-edge space
    is below ``same_mask_min_space_nm`` — the single-exposure spacing
    limit.

    The graph nodes are net names; each node stores its track index.
    """
    import networkx as nx

    if same_mask_min_space_nm <= 0.0:
        raise PatterningError("the same-mask spacing limit must be positive")
    graph = nx.Graph()
    for index, track in enumerate(pattern):
        graph.add_node(track.net, index=index)
    tracks = list(pattern)
    for (index_a, track_a), (index_b, track_b) in itertools.combinations(
        enumerate(tracks), 2
    ):
        if pattern.space_between(index_a, index_b) < same_mask_min_space_nm:
            graph.add_edge(track_a.net, track_b.net)
    return graph


def graph_coloring_assignment(
    pattern: TrackPattern,
    n_masks: int,
    same_mask_min_space_nm: float,
    strategy: str = "DSATUR",
) -> Dict[str, str]:
    """Colour the conflict graph with at most ``n_masks`` colours.

    Raises
    ------
    PatterningError
        If the greedy colouring needs more colours than masks are
        available (the pattern is not ``n_masks``-decomposable with the
        chosen strategy).
    """
    import networkx as nx

    graph = build_conflict_graph(pattern, same_mask_min_space_nm)
    coloring = nx.greedy_color(graph, strategy=strategy)
    used_colors = set(coloring.values())
    if len(used_colors) > n_masks:
        raise PatterningError(
            f"pattern needs {len(used_colors)} masks but only {n_masks} are "
            f"available (same-mask space limit {same_mask_min_space_nm} nm)"
        )
    labels = mask_labels(n_masks)
    # Make the colour → label mapping deterministic: order colours by the
    # leftmost track that uses them.
    color_first_index: Dict[int, int] = {}
    for net, color in coloring.items():
        index = graph.nodes[net]["index"]
        color_first_index[color] = min(color_first_index.get(color, index), index)
    ordered_colors = sorted(color_first_index, key=lambda color: color_first_index[color])
    color_to_label = {color: labels[rank] for rank, color in enumerate(ordered_colors)}
    return {net: color_to_label[color] for net, color in coloring.items()}


def verify_assignment(
    pattern: TrackPattern,
    assignment: Dict[str, str],
    same_mask_min_space_nm: float,
) -> List[Tuple[str, str, float]]:
    """Return the list of same-mask spacing violations of an assignment.

    Each violation is ``(net_a, net_b, space_nm)``.  An empty list means
    the assignment is legal.
    """
    violations: List[Tuple[str, str, float]] = []
    tracks = list(pattern)
    for (index_a, track_a), (index_b, track_b) in itertools.combinations(
        enumerate(tracks), 2
    ):
        if assignment.get(track_a.net) != assignment.get(track_b.net):
            continue
        space = pattern.space_between(index_a, index_b)
        if space < same_mask_min_space_nm:
            violations.append((track_a.net, track_b.net, space))
    return violations


def apply_assignment(pattern: TrackPattern, assignment: Dict[str, str]) -> TrackPattern:
    """Return a copy of ``pattern`` whose tracks carry the assigned masks."""
    missing = [track.net for track in pattern if track.net not in assignment]
    if missing:
        raise PatterningError(f"assignment misses nets: {missing}")
    return pattern.with_tracks(
        [track.with_mask(assignment[track.net]) for track in pattern]
    )


@dataclass(frozen=True)
class DecompositionReport:
    """Summary of a decomposition: assignment plus per-mask statistics."""

    n_masks: int
    assignment: Dict[str, str]
    tracks_per_mask: Dict[str, int]
    min_same_mask_space_nm: Optional[float]

    @classmethod
    def from_pattern(
        cls, pattern: TrackPattern, assignment: Dict[str, str], n_masks: int
    ) -> "DecompositionReport":
        tracks_per_mask: Dict[str, int] = {}
        for net, mask in assignment.items():
            tracks_per_mask[mask] = tracks_per_mask.get(mask, 0) + 1
        min_space: Optional[float] = None
        tracks = list(pattern)
        for (index_a, track_a), (index_b, track_b) in itertools.combinations(
            enumerate(tracks), 2
        ):
            if assignment[track_a.net] != assignment[track_b.net]:
                continue
            space = pattern.space_between(index_a, index_b)
            min_space = space if min_space is None else min(min_space, space)
        return cls(
            n_masks=n_masks,
            assignment=dict(assignment),
            tracks_per_mask=tracks_per_mask,
            min_same_mask_space_nm=min_space,
        )
