"""Patterning substrate: LE/LE2/LE3 litho-etch, SADP, EUV, decomposition, sampling.

The module also populates :data:`~repro.patterning.base.default_registry`
with the standard options so studies can refer to them by name
(``"LELELE"``, ``"LELE"``, ``"SADP"``, ``"EUV"``).
"""

from .base import (
    BatchPrintedGeometry,
    ParameterValues,
    PatternedResult,
    PatterningError,
    PatterningOption,
    PatterningRegistry,
    default_registry,
)
from .decomposition import (
    DEFAULT_MASK_LABELS,
    DecompositionReport,
    apply_assignment,
    build_conflict_graph,
    cyclic_assignment,
    graph_coloring_assignment,
    mask_labels,
    verify_assignment,
)
from .euv import EUV_MASK, EUVSinglePatterning, euv
from .litho_etch import LithoEtch, le2, le3
from .sadp import CORE_MASK, SADP, SPACER_MASK, sadp
from .sampler import (
    ParameterSampleBatch,
    ParameterSampler,
    enumerate_worst_case_corners,
)

#: The three options compared by the paper, in the order used by its tables.
PAPER_OPTIONS = ("LELELE", "SADP", "EUV")


def _populate_default_registry() -> None:
    if "LELELE" not in default_registry:
        default_registry.register("LELELE", le3)
    if "LE3" not in default_registry:
        default_registry.register("LE3", le3)
    if "LELE" not in default_registry:
        default_registry.register("LELE", le2)
    if "SADP" not in default_registry:
        default_registry.register("SADP", sadp)
    if "EUV" not in default_registry:
        default_registry.register("EUV", euv)


_populate_default_registry()


def create_option(name: str, **kwargs) -> PatterningOption:
    """Create a patterning option by name from the default registry."""
    return default_registry.create(name, **kwargs)


def paper_options() -> list:
    """Instantiate the three options compared by the paper (LE3, SADP, EUV)."""
    return [create_option(name) for name in PAPER_OPTIONS]


__all__ = [
    "BatchPrintedGeometry",
    "CORE_MASK",
    "DEFAULT_MASK_LABELS",
    "DecompositionReport",
    "EUVSinglePatterning",
    "EUV_MASK",
    "LithoEtch",
    "PAPER_OPTIONS",
    "ParameterSampleBatch",
    "ParameterSampler",
    "ParameterValues",
    "PatternedResult",
    "PatterningError",
    "PatterningOption",
    "PatterningRegistry",
    "SADP",
    "SPACER_MASK",
    "apply_assignment",
    "build_conflict_graph",
    "create_option",
    "cyclic_assignment",
    "default_registry",
    "enumerate_worst_case_corners",
    "euv",
    "graph_coloring_assignment",
    "le2",
    "le3",
    "mask_labels",
    "paper_options",
    "sadp",
    "verify_assignment",
]
