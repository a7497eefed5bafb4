"""Parity of the batched Monte-Carlo kernels against the one-sample kernels.

The Monte-Carlo pipeline (batched sampling → ``apply_batch`` →
``extract_batch`` → array-valued analytical model) and the one-sample
kernels the corner search and the circuit simulators run (``apply``,
``rc_variation``, the scalar analytical model) are separate code.  Fed the
same draws, they must agree element-wise up to floating-point round-off
(``rtol <= 1e-12``) for every patterning option.  The draw order itself and
the study records are pinned bit for bit by the golden corpus
(``tests/golden/``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analytical import model_from_technology
from repro.core.montecarlo import MonteCarloTdpStudy
from repro.extraction.lpe import ParameterizedLPE
from repro.layout.array import PAPER_ARRAY_SIZES, generate_array_layout
from repro.patterning import PAPER_OPTIONS, create_option
from repro.patterning.sampler import ParameterSampler

RTOL = 1e-12

OPTIONS = list(PAPER_OPTIONS) + ["LELE"]


@pytest.fixture(scope="module")
def node():
    from repro.technology.node import n10

    return n10()


@pytest.fixture(scope="module")
def layout(node):
    return generate_array_layout(n_wordlines=64, n_bitline_pairs=4, node=node)


class TestPrintingParity:
    @pytest.mark.parametrize("option_name", OPTIONS)
    def test_apply_batch_edges_match_scalar_apply(self, node, layout, option_name):
        option = create_option(option_name)
        pattern = layout.metal1_pattern
        batch = ParameterSampler(option, node.variations, seed=17).draw_batch(32)
        geometry = option.apply_batch(pattern, batch.matrix, batch.parameter_names)
        for index, row in enumerate(batch.matrix):
            parameters = dict(zip(batch.parameter_names, row.tolist()))
            printed = option.apply(pattern, parameters).printed
            for column, track in enumerate(printed):
                assert geometry.nets[column] == track.net
                np.testing.assert_allclose(
                    geometry.left_edges_nm[index, column], track.left_edge_nm, rtol=RTOL
                )
                np.testing.assert_allclose(
                    geometry.right_edges_nm[index, column], track.right_edge_nm, rtol=RTOL
                )


class TestExtractionParity:
    @pytest.mark.parametrize("option_name", OPTIONS)
    def test_batched_rc_variations_match_scalar_loop(self, node, layout, option_name):
        option = create_option(option_name)
        pattern = layout.metal1_pattern
        bl_net, _ = layout.central_pair_nets()
        lpe = ParameterizedLPE(node)
        batch = lpe.monte_carlo_variations_batch_multi(
            pattern, option, (bl_net,), 64, seed=29
        )[bl_net]
        assert len(batch) == 64
        names = batch.parameter_names
        scalar = [
            lpe.rc_variation(pattern, option, dict(zip(names, row.tolist())), bl_net)
            for row in batch.parameter_matrix
        ]
        np.testing.assert_allclose(
            batch.rvar, [v.rvar for v in scalar], rtol=RTOL
        )
        np.testing.assert_allclose(
            batch.cvar, [v.cvar for v in scalar], rtol=RTOL
        )

    def test_nominal_extraction_is_cached(self, node, layout):
        lpe = ParameterizedLPE(node)
        pattern = layout.metal1_pattern
        first = lpe.nominal_extraction(pattern)
        second = lpe.nominal_extraction(pattern)
        assert first is second
        # A different thickness delta is a different cache entry.
        third = lpe.nominal_extraction(pattern, thickness_delta_nm=1.0)
        assert third is not first


class TestAnalyticalParity:
    @pytest.mark.parametrize("n_wordlines", PAPER_ARRAY_SIZES)
    def test_array_valued_model_matches_scalar(self, node, n_wordlines):
        model = model_from_technology(node, n_bitline_pairs=4)
        rng = np.random.default_rng(n_wordlines)
        rvar = 1.0 + 0.1 * rng.standard_normal(256)
        cvar = 1.0 + 0.1 * rng.standard_normal(256)
        batched = model.tdp_percent(n_wordlines, rvar, cvar)
        scalar = [
            model.tdp_percent(n_wordlines, float(r), float(c))
            for r, c in zip(rvar, cvar)
        ]
        np.testing.assert_allclose(batched, scalar, rtol=RTOL)

    def test_array_valued_array_sizes(self, node):
        model = model_from_technology(node, n_bitline_pairs=4)
        sizes = np.array(PAPER_ARRAY_SIZES)
        batched = model.td_s(sizes, 1.05, 0.97)
        scalar = [model.td_s(int(n), 1.05, 0.97) for n in sizes]
        np.testing.assert_allclose(batched, scalar, rtol=RTOL)

    def test_array_validation_still_raises(self, node):
        from repro.core.analytical import AnalyticalModelError

        model = model_from_technology(node, n_bitline_pairs=4)
        with pytest.raises(AnalyticalModelError):
            model.td_s(64, np.array([1.0, -0.5]), 1.0)
        with pytest.raises(AnalyticalModelError):
            model.td_s(np.array([64, 0]), 1.0, 1.0)


class TestStudyParity:
    def test_process_pool_records_match_serial(self, node):
        study = MonteCarloTdpStudy(node, n_samples=32, seed=7)
        points = study.doe.monte_carlo_points(n_wordlines=64)
        serial = study.tdp_records(points)
        parallel = study.tdp_records(points, workers=2)
        for one, two in zip(serial, parallel):
            assert one.tdp_percent_samples == two.tdp_percent_samples
