"""Ablation — LE3 mask-alignment strategy (B,C aligned to A versus chained).

The paper assumes masks B and C are both aligned to mask A, making their
overlay errors independent.  The alternative scheme — chaining the
alignment (B to A, C to B) — accumulates both overlay draws on the last
mask, so individual tracks can be displaced further; but it also
*correlates* the displacements of the two masks, and for a victim line
whose neighbours sit on B and C a common-mode displacement partially
cancels (one gap closes while the other opens).

The ablation quantifies both effects on the central bit line: the chained
scheme makes the worst ±3σ corner dramatically worse (the last mask can be
displaced by the *sum* of the two overlay budgets, collapsing one gap
almost completely), while the Monte-Carlo spread of ΔCbl stays in the same
regime (the common-mode component partially cancels on average).  The
paper's aligned-to-A assumption is therefore the conservative-but-sane
choice: it bounds the tail without changing the statistical story.
"""

import numpy as np
import pytest

from repro.patterning import le3
from repro.patterning.sampler import ParameterSampler
from repro.reporting import format_csv


def test_ablation_le3_alignment_strategy(benchmark, node, lpe, worst_case_study):
    layout = worst_case_study.reference_layout
    pattern = layout.metal1_pattern
    bl_net, _ = layout.central_pair_nets()
    option = le3()
    nominal_c = lpe.extract_pattern(pattern)[bl_net].capacitance_total_f

    def delta_c_percent(parameters, aligned):
        printed = option.apply(pattern, parameters, aligned_to_first=aligned)
        printed_c = lpe.extract_pattern(printed.printed)[bl_net].capacitance_total_f
        return 100.0 * (printed_c - nominal_c) / nominal_c

    def worst_corner_percent(aligned):
        from repro.patterning.sampler import enumerate_worst_case_corners

        best = None
        for corner in enumerate_worst_case_corners(option, node.variations):
            value = delta_c_percent(corner.as_dict(), aligned)
            best = value if best is None else max(best, value)
        return best

    def run():
        batch = ParameterSampler(option, node.variations, seed=77).draw_batch(150)
        samples = [
            dict(zip(batch.parameter_names, row.tolist())) for row in batch.matrix
        ]
        aligned_samples = [delta_c_percent(sample, True) for sample in samples]
        chained_samples = [delta_c_percent(sample, False) for sample in samples]
        return {
            "worst_corner_aligned_percent": worst_corner_percent(True),
            "worst_corner_chained_percent": worst_corner_percent(False),
            "mc_sigma_aligned_percent": float(np.std(aligned_samples, ddof=1)),
            "mc_sigma_chained_percent": float(np.std(chained_samples, ddof=1)),
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + format_csv(list(result.keys()), [[f"{v:.3f}" for v in result.values()]]))

    # Both schemes have a catastrophic ±3σ corner, but chaining the
    # alignment makes the tail far worse: the last mask can accumulate both
    # overlay budgets and nearly close one gap.
    assert result["worst_corner_aligned_percent"] > 30.0
    assert result["worst_corner_chained_percent"] > 1.5 * result["worst_corner_aligned_percent"]

    # Statistically the two schemes stay within the same regime (the
    # correlation introduced by chaining shifts sigma by tens of percent,
    # not by an order of magnitude) — overlay budget, not alignment
    # bookkeeping, is the decisive knob.
    ratio = result["mc_sigma_chained_percent"] / result["mc_sigma_aligned_percent"]
    assert 0.5 < ratio < 2.0

    benchmark.extra_info.update({k: round(v, 3) for k, v in result.items()})
