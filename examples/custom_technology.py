"""Evaluating a custom technology: tighter pitch, air-gap dielectric, tuned cell.

The study is not hard-wired to the N10 defaults: every input — metal
stack, materials, devices, operating point, variation budgets, cell
template — is an object the user can replace.  This example builds a
hypothetical "N7-like" variant (42 nm metal1 pitch, taller lines, air-gap
intra-layer dielectric, a faster 1-1-2 cell) and asks the same question
the paper asks of N10: how much read-time variability does each patterning
option cost, and does the LE3-versus-SADP conclusion survive the node
change?

Run with::

    python examples/custom_technology.py
"""

from __future__ import annotations

import dataclasses

from repro.core import OptionComparison, WorstCaseStudy, model_from_technology
from repro.core.montecarlo import MonteCarloTdpStudy
from repro.reporting import format_figure4, format_table1, format_table4
from repro.technology import (
    AIR_GAP,
    LOW_K,
    BarrierLiner,
    MaterialSystem,
    MetalLayer,
    MetalStack,
    OperatingConditions,
    Orientation,
    TechnologyNode,
    default_n10_metal_stack,
    default_sram_transistors,
    paper_assumptions,
)
from repro.variability.doe import StudyDOE


def build_custom_node() -> TechnologyNode:
    """A hypothetical N7-like node with air-gap metal1."""
    airgap_materials = MaterialSystem(
        barrier=BarrierLiner(thickness_nm=1.2),
        intra_layer_dielectric=AIR_GAP,     # air gap between minimum-pitch lines
        inter_layer_dielectric=LOW_K,
    )
    metal1 = MetalLayer(
        name="metal1",
        pitch_nm=42.0,
        min_width_nm=21.0,
        min_space_nm=21.0,
        thickness_nm=44.0,
        tapering_angle_deg=3.0,
        ild_below_nm=34.0,
        ild_above_nm=38.0,
        orientation=Orientation.HORIZONTAL,
        materials=airgap_materials,
        cmp_dishing_nm=0.4,
    )
    # Keep metal2/metal3 from the N10 stack (word lines are not the study's focus).
    base_stack = default_n10_metal_stack()
    stack = MetalStack.from_layers([metal1, base_stack.layer("metal2"), base_stack.layer("metal3")])

    # A performance-oriented cell: two fins on the pull-down.
    devices = dataclasses.replace(default_sram_transistors(), pull_down_fins=2)

    # Lower supply, same 70 mV sense amplifier.
    conditions = OperatingConditions(vdd_v=0.65, sense_amp_sensitivity_v=0.07)

    # The same patterning budgets as the paper, but start from a 5 nm overlay.
    variations = paper_assumptions().for_overlay(5.0)

    return TechnologyNode(
        name="custom-N7-airgap",
        metal_stack=stack,
        sram_devices=devices,
        operating_conditions=conditions,
        variations=variations,
        sram_cell_width_nm=210.0,
        sram_cell_height_nm=180.0,
    )


def main() -> None:
    node = build_custom_node()
    doe = StudyDOE(array_sizes=(64, 256), overlay_budgets_nm=(3.0, 5.0))

    print(f"Technology under study: {node.name}")
    metal1 = node.bitline_metal
    print(f"  metal1: {metal1.pitch_nm:.0f} nm pitch, {metal1.thickness_nm:.0f} nm thick, "
          f"intra-layer k = {metal1.materials.intra_layer_dielectric.relative_permittivity}")
    print(f"  Vdd = {node.operating_conditions.vdd_v} V, "
          f"pull-down fins = {node.sram_devices.pull_down_fins}")
    print()

    print("=== Worst-case RC impact (Table I equivalent) ===")
    worst_case = WorstCaseStudy(node, doe=doe)
    print(format_table1(worst_case.table1()))
    print()

    print("=== Worst-case read-time penalty (Fig. 4 equivalent) ===")
    figure4 = worst_case.figure4()
    print(format_figure4(figure4))
    print()

    print("=== Monte-Carlo tdp sigma (Table IV equivalent, n = 64) ===")
    model = model_from_technology(node)
    monte_carlo = MonteCarloTdpStudy(node, doe=doe, model=model, n_samples=400, seed=7)
    table4 = monte_carlo.table4()
    print(format_table4(table4))
    print()

    verdict = OptionComparison(figure4, table4).verdict()
    print("Recommendation for this node:", verdict.recommended_option)
    for note in verdict.notes:
        print("  -", note)


if __name__ == "__main__":
    main()
