"""Technology description: materials, metal stack, devices, variation assumptions.

The package exposes the building blocks for describing a technology node
(:class:`~repro.technology.node.TechnologyNode`) and the canonical
imec-N10-class node (:func:`~repro.technology.node.n10`) used by the
DATE 2015 study.
"""

from .corners import (
    CornerError,
    CornerPoint,
    EUVAssumptions,
    GaussianSpec,
    LithoEtchAssumptions,
    SADPAssumptions,
    VariationAssumptions,
    enumerate_corner_points,
    paper_assumptions,
)
from .materials import (
    AIR_GAP,
    COPPER,
    LOW_K,
    N10_MATERIALS,
    SIO2,
    TUNGSTEN,
    ULTRA_LOW_K,
    BarrierLiner,
    Conductor,
    Dielectric,
    MaterialError,
    MaterialSystem,
)
from .metal_stack import (
    MetalLayer,
    MetalStack,
    Orientation,
    PatterningClass,
    StackError,
    default_n10_metal_stack,
)
from .node import NodeError, OperatingConditions, TechnologyNode, n10
from .transistors import (
    DeviceError,
    DeviceType,
    FinFETParameters,
    SRAMTransistorSet,
    default_n10_nmos,
    default_n10_pmos,
    default_sram_transistors,
)

__all__ = [
    "AIR_GAP",
    "BarrierLiner",
    "COPPER",
    "Conductor",
    "CornerError",
    "CornerPoint",
    "DeviceError",
    "DeviceType",
    "Dielectric",
    "EUVAssumptions",
    "FinFETParameters",
    "GaussianSpec",
    "LOW_K",
    "LithoEtchAssumptions",
    "MaterialError",
    "MaterialSystem",
    "MetalLayer",
    "MetalStack",
    "N10_MATERIALS",
    "NodeError",
    "OperatingConditions",
    "Orientation",
    "PatterningClass",
    "SADPAssumptions",
    "SIO2",
    "SRAMTransistorSet",
    "StackError",
    "TUNGSTEN",
    "TechnologyNode",
    "ULTRA_LOW_K",
    "VariationAssumptions",
    "default_n10_metal_stack",
    "default_n10_nmos",
    "default_n10_pmos",
    "default_sram_transistors",
    "enumerate_corner_points",
    "n10",
    "paper_assumptions",
]
