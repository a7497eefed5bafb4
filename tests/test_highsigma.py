"""Tests of the high-sigma yield engine (repro.highsigma).

Covers the whitened parameter space and defensive mixture proposal, the
quadratic surrogate, the HL-RF dominant-shift search, the tail
estimators, the end-to-end engine against closed-form Gaussian tails,
the DOE-level study with its Monte-Carlo parity oracle, and the
``yield_hs`` spec/api/CLI wiring.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.stats import norm

from repro.highsigma import (
    HighSigmaCornerRow,
    HighSigmaEngine,
    HighSigmaError,
    HighSigmaYieldStudy,
    ParameterSpace,
    QuadraticSurrogate,
    binomial_estimate,
    find_dominant_shift,
    intervals_overlap,
    self_normalized_is_estimate,
)
from repro.highsigma.estimator import EstimatorError, TailEstimate, _z_for
from repro.highsigma.space import MixtureProposal, continuous_mask
from repro.highsigma.study import BatchEvaluator
from repro.highsigma.surrogate import initial_design, n_quadratic_features
from repro.variability.distributions import (
    CornerDistribution,
    DistributionError,
    NormalDistribution,
)


def make_space(dimension=2, sigma=1.0):
    return ParameterSpace(
        names=tuple(f"x{i}" for i in range(dimension)),
        distributions=tuple(
            NormalDistribution(sigma=sigma) for _ in range(dimension)
        ),
    )


class TestParameterSpace:
    def test_standardize_round_trip(self):
        space = ParameterSpace(
            names=("a", "b"),
            distributions=(
                NormalDistribution(mu=2.0, sigma=0.5),
                NormalDistribution(mu=-1.0, sigma=3.0),
            ),
        )
        X = np.array([[2.5, 2.0], [1.5, -4.0]])
        assert np.allclose(space.unstandardize(space.standardize(X)), X)
        assert np.allclose(space.standardize(X)[0], [1.0, 1.0])

    def test_logpdf_sums_dimensions(self):
        space = make_space(2)
        x = np.array([[0.3, -0.7]])
        expected = NormalDistribution().logpdf(0.3) + NormalDistribution().logpdf(-0.7)
        assert space.logpdf(x)[0] == pytest.approx(expected, rel=1e-12)

    def test_from_samples_fits_moments(self):
        rng = np.random.default_rng(0)
        matrix = np.column_stack(
            [rng.normal(5.0, 2.0, 4000), rng.normal(-1.0, 0.5, 4000)]
        )
        space = ParameterSpace.from_samples(("u", "v"), matrix)
        assert space.distributions[0].mean() == pytest.approx(5.0, abs=0.1)
        assert space.distributions[0].std() == pytest.approx(2.0, rel=0.05)
        assert space.distributions[1].std() == pytest.approx(0.5, rel=0.05)

    def test_degenerate_dimension_rejected(self):
        with pytest.raises(DistributionError):
            ParameterSpace(
                names=("a",), distributions=(NormalDistribution(sigma=0.0),)
            )

    def test_proposal_for_shift_moves_continuous_keeps_corner(self):
        space = ParameterSpace(
            names=("a", "c"),
            distributions=(
                NormalDistribution(mu=1.0, sigma=2.0),
                CornerDistribution(excursion=3.0),
            ),
        )
        proposal = space.proposal_for_shift(np.array([2.0, 5.0]))
        assert proposal.distributions[0].mean() == pytest.approx(5.0)  # 1 + 2*2
        assert proposal.distributions[0].std() == pytest.approx(2.0)
        assert proposal.distributions[1] is space.distributions[1]

    def test_proposal_inflation_widens_spread(self):
        space = make_space(1)
        proposal = space.proposal_for_shift(np.array([4.0]), inflation=2.0)
        assert proposal.distributions[0].std() == pytest.approx(2.0)
        with pytest.raises(DistributionError):
            space.proposal_for_shift(np.array([4.0]), inflation=0.0)

    def test_log_weights_are_exact_ratios(self):
        space = make_space(1)
        proposal = space.proposal_for_shift(np.array([3.0]))
        X = np.array([[0.0], [3.0]])
        lw = space.log_weights(proposal, X)
        # log N(x;0,1) - log N(x;3,1) = (-x^2 + (x-3)^2)/2 = (9 - 6x)/2
        assert lw[0] == pytest.approx(4.5, rel=1e-12)
        assert lw[1] == pytest.approx(-4.5, rel=1e-12)

    def test_continuous_mask(self):
        space = ParameterSpace(
            names=("a", "c"),
            distributions=(
                NormalDistribution(sigma=1.0),
                CornerDistribution(excursion=1.0),
            ),
        )
        assert continuous_mask(space).tolist() == [True, False]


class TestMixtureProposal:
    def test_logpdf_is_log_mixture(self):
        space = make_space(1)
        shifted = space.proposal_for_shift(np.array([4.0]))
        mix = MixtureProposal(target=space, shifted=shifted, alpha=0.5)
        x = np.array([[1.0]])
        expected = np.log(
            0.5 * np.exp(space.logpdf(x)) + 0.5 * np.exp(shifted.logpdf(x))
        )
        assert mix.logpdf(x)[0] == pytest.approx(float(expected[0]), rel=1e-12)

    def test_weights_bounded_by_inverse_alpha(self):
        # The defensive-mixture guarantee: w = p/(a p + (1-a) q) <= 1/a.
        space = make_space(2)
        mix = MixtureProposal(
            target=space,
            shifted=space.proposal_for_shift(np.array([5.0, 5.0])),
            alpha=0.5,
        )
        rng = np.random.default_rng(1)
        X = mix.sample(rng, 2000)
        weights = np.exp(space.log_weights(mix, X))
        assert np.max(weights) <= 2.0 + 1e-9

    def test_sample_count_and_validation(self):
        space = make_space(1)
        shifted = space.proposal_for_shift(np.array([2.0]))
        mix = MixtureProposal(target=space, shifted=shifted)
        assert mix.sample(np.random.default_rng(2), 100).shape == (100, 1)
        with pytest.raises(DistributionError):
            MixtureProposal(target=space, shifted=shifted, alpha=1.0)


class TestQuadraticSurrogate:
    def test_recovers_exact_quadratic(self):
        rng = np.random.default_rng(3)
        surrogate = QuadraticSurrogate(2)
        U = rng.standard_normal((40, 2)) * 3.0

        def truth(U):
            return 1.0 + 2.0 * U[:, 0] - U[:, 1] + 0.5 * U[:, 0] ** 2 + 0.25 * U[:, 0] * U[:, 1]

        surrogate.observe(U, truth(U))
        assert surrogate.refit()
        probe = rng.standard_normal((10, 2)) * 5.0
        assert np.allclose(surrogate.predict(probe), truth(probe), atol=1e-8)
        assert surrogate.residual_std == pytest.approx(0.0, abs=1e-8)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        surrogate = QuadraticSurrogate(3)
        U = rng.standard_normal((60, 3)) * 2.0
        values = U[:, 0] + 0.3 * U[:, 1] ** 2 - 0.2 * U[:, 0] * U[:, 2]
        surrogate.observe(U, values)
        surrogate.refit()
        u = np.array([0.5, -1.0, 2.0])
        grad = surrogate.gradient(u)
        eps = 1e-6
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = eps
            fd = (surrogate.predict_one(u + e) - surrogate.predict_one(u - e)) / (2 * eps)
            assert grad[axis] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_refuses_underdetermined_fit(self):
        surrogate = QuadraticSurrogate(2)
        surrogate.observe(np.zeros((3, 2)), np.zeros(3))
        assert not surrogate.refit()
        assert not surrogate.is_fitted

    def test_initial_design_spans_sigma_range(self):
        design = initial_design(2, 32, np.random.default_rng(5))
        assert design.shape[0] >= 13  # origin + 3 radii * 2 dims * 2 signs
        norms = np.linalg.norm(design, axis=1)
        assert norms.max() >= 6.0
        assert n_quadratic_features(2) == 6


class TestDominantShift:
    def test_linear_margin_closed_form(self):
        # g(u) = b - a.u fails past the hyperplane a.u = b; the closest
        # point is u* = b a / ||a||^2 with beta = b/||a||.
        a = np.array([3.0, 4.0])
        b = 10.0
        result = find_dominant_shift(
            lambda u: b - float(a @ u), lambda u: -a, dimension=2
        )
        assert result.converged
        assert result.beta == pytest.approx(b / 5.0, rel=1e-9)
        assert np.allclose(result.u_star, b * a / 25.0)
        assert result.margin == pytest.approx(0.0, abs=1e-9)

    def test_movable_mask_pins_dimensions(self):
        a = np.array([3.0, 4.0])
        result = find_dominant_shift(
            lambda u: 10.0 - float(a @ u),
            lambda u: -a,
            dimension=2,
            movable=np.array([True, False]),
        )
        assert result.u_star[1] == 0.0
        assert result.beta == pytest.approx(10.0 / 3.0, rel=1e-9)

    def test_flat_surrogate_terminates_unconverged(self):
        result = find_dominant_shift(
            lambda u: 5.0, lambda u: np.zeros(2), dimension=2
        )
        assert not result.converged
        assert result.beta == 0.0


class TestEstimators:
    def test_uniform_weights_reduce_to_mean(self):
        lw = np.zeros(1000)
        ind = np.zeros(1000)
        ind[:25] = 1.0
        estimate = self_normalized_is_estimate(lw, ind)
        assert estimate.probability == pytest.approx(0.025)
        assert estimate.ess == pytest.approx(1000.0)
        assert estimate.method == "importance_sampling"

    def test_defensive_mixture_recovers_gaussian_tail(self):
        # Estimate P(x > t) for x ~ N(0,1) with a 50/50 defensive mixture
        # of N(0,1) and N(t,1) as the proposal; the exact answer is
        # norm.sf(t). (A *pure* shift would collapse the self-normalizer:
        # weights are unbounded on the left tail and the ESS drops to ~2.)
        t = 4.0
        rng = np.random.default_rng(6)
        n = 20000
        x = np.concatenate(
            [rng.normal(0.0, 1.0, n // 2), rng.normal(t, 1.0, n // 2)]
        )
        lp = norm.logpdf(x)
        lq = np.logaddexp(
            lp + np.log(0.5), norm.logpdf(x, loc=t) + np.log(0.5)
        )
        estimate = self_normalized_is_estimate(lp - lq, (x > t).astype(float))
        exact = float(norm.sf(t))
        assert estimate.ci_low <= exact <= estimate.ci_high
        assert estimate.probability == pytest.approx(exact, rel=0.25)
        assert estimate.ess > n / 3

    def test_log_weight_shift_immune_to_underflow(self):
        lw = np.full(100, -800.0)  # exp underflows to 0 without the shift
        ind = np.zeros(100)
        ind[:10] = 1.0
        estimate = self_normalized_is_estimate(lw, ind)
        assert estimate.probability == pytest.approx(0.1)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(EstimatorError):
            self_normalized_is_estimate(
                np.full(10, -np.inf), np.zeros(10)
            )

    def test_binomial_wilson_interval(self):
        estimate = binomial_estimate(5, 100)
        assert estimate.probability == pytest.approx(0.05)
        assert 0.0 < estimate.ci_low < 0.05 < estimate.ci_high < 1.0
        assert estimate.method == "monte_carlo"
        zero = binomial_estimate(0, 100)
        assert zero.probability == 0.0
        assert zero.ci_high > 0.0  # Wilson never collapses the interval

    def test_sigma_equivalent(self):
        estimate = binomial_estimate(1, 1000)
        three_sigma = TailEstimate(
            probability=float(norm.sf(3.0)),
            ci_low=0.0,
            ci_high=1.0,
            confidence=0.95,
            ess=1.0,
            n_samples=1,
            method="monte_carlo",
        )
        assert three_sigma.sigma_equivalent == pytest.approx(3.0, rel=1e-9)
        assert estimate.ppm == pytest.approx(1000.0)

    def test_intervals_overlap(self):
        a = binomial_estimate(10, 100)
        b = binomial_estimate(12, 100)
        c = binomial_estimate(90, 100)
        assert intervals_overlap(a, b)
        assert not intervals_overlap(a, c)


#: Tail probabilities from the far tail to the body of the distribution.
TAIL_PROBABILITIES = (1e-300, 1e-15, 1e-9, 1.35e-3, 0.0228, 0.3, 0.5, 0.9)


def assert_identical(value, expected):
    """The same float: ``==`` plus the sign of zero, which ``==`` ignores."""
    assert value == expected
    assert math.copysign(1.0, value) == math.copysign(1.0, expected)


def tail_estimate(probability):
    return TailEstimate(
        probability=probability,
        ci_low=0.0,
        ci_high=1.0,
        confidence=0.95,
        ess=1.0,
        n_samples=1,
        method="monte_carlo",
    )


def corner_row(fail_probability):
    return HighSigmaCornerRow(
        operation="read",
        model="analytical",
        array_label="64x10",
        option_name="LELELE",
        overlay_three_sigma_nm=8.0,
        sigma_level=3.0,
        threshold=1.0,
        fail_probability=fail_probability,
        ci_low=0.0,
        ci_high=1.0,
        confidence=0.95,
        ess=1.0,
        beta=3.0,
        shift_converged=True,
        n_proposals=1,
        n_promoted=0,
        n_simulator_calls=1,
    )


class TestNormalQuantiles:
    """The sigma equivalents and CI quantiles equal ``scipy.stats.norm.isf``."""

    @pytest.mark.parametrize("probability", TAIL_PROBABILITIES)
    def test_sigma_equivalents_match_norm_isf(self, probability):
        expected = float(norm.isf(probability))
        assert_identical(tail_estimate(probability).sigma_equivalent, expected)
        assert_identical(corner_row(probability).sigma_equivalent, expected)

    @pytest.mark.parametrize(
        "confidence",
        # Two-sided levels whose tails are the probabilities above, where
        # 1 - 2p is inside (0, 1), plus the usual reporting levels.
        sorted({1.0 - 2.0 * p for p in TAIL_PROBABILITIES if 0.0 < 1.0 - 2.0 * p < 1.0})
        + [0.9, 0.95, 0.99],
    )
    def test_z_for_matches_norm_isf(self, confidence):
        assert_identical(_z_for(confidence), float(norm.isf(0.5 * (1.0 - confidence))))

    @pytest.mark.parametrize(
        "probability, expected",
        ((0.0, math.inf), (-0.1, math.inf), (1.0, -math.inf), (1.5, -math.inf)),
    )
    def test_degenerate_probabilities(self, probability, expected):
        assert tail_estimate(probability).sigma_equivalent == expected
        assert corner_row(probability).sigma_equivalent == expected

    @pytest.mark.parametrize("confidence", (0.0, 1.0))
    def test_z_for_rejects_degenerate_confidence(self, confidence):
        with pytest.raises(EstimatorError):
            _z_for(confidence)


class TestBatchEvaluator:
    def test_counts_calls(self):
        evaluator = BatchEvaluator(lambda X: X[:, 0], max_calls=100)
        evaluator(np.zeros((30, 1)))
        evaluator(np.zeros((20, 1)))
        assert evaluator.calls == 50
        assert evaluator.remaining == 50

    def test_budget_enforced(self):
        evaluator = BatchEvaluator(lambda X: X[:, 0], max_calls=10)
        with pytest.raises(HighSigmaError):
            evaluator(np.zeros((11, 1)))
        assert evaluator.calls == 0  # the refused batch is not charged


class TestHighSigmaEngine:
    def make_engine(self, metric, dimension=2, seed=7, max_calls=100_000):
        space = make_space(dimension)
        return HighSigmaEngine(
            space, BatchEvaluator(metric, max_calls=max_calls), seed=seed
        )

    def test_recovers_linear_gaussian_tail_at_3_sigma(self):
        # f(x) = x0 + x1 ~ N(0, sqrt(2)); P(f >= t) = sf(t/sqrt(2)).
        engine = self.make_engine(lambda X: X[:, 0] + X[:, 1])
        t = 3.0 * np.sqrt(2.0)
        result = engine.estimate(t, n_proposals=4000)
        exact = float(norm.sf(3.0))
        assert result.estimate.ci_low <= exact <= result.estimate.ci_high
        assert result.shift.beta == pytest.approx(3.0, rel=0.05)

    def test_recovers_linear_gaussian_tail_at_6_sigma(self):
        # The deliverable: a 6-sigma probability (~1e-9) with a finite
        # two-sided CI from a few thousand weighted draws.
        engine = self.make_engine(lambda X: X[:, 0] + X[:, 1])
        t = 6.0 * np.sqrt(2.0)
        result = engine.estimate(t, n_proposals=4000)
        exact = float(norm.sf(6.0))
        assert result.estimate.ci_low <= exact <= result.estimate.ci_high
        assert 0.0 < result.estimate.ci_low < result.estimate.ci_high < 1e-6
        assert result.estimate.ess > 500.0

    def test_brute_force_parity_at_3_sigma(self):
        engine = self.make_engine(lambda X: X[:, 0] + X[:, 1])
        t = 3.0 * np.sqrt(2.0)
        is_estimate = engine.estimate(t, n_proposals=4000).estimate
        mc = engine.brute_force(t, 50_000)
        assert intervals_overlap(is_estimate, mc)

    def test_exact_surrogate_needs_no_promotions(self):
        # A linear metric is inside the quadratic family: residual ~ 0,
        # the trust band collapses, and nothing needs a real solve.
        engine = self.make_engine(lambda X: X[:, 0] + X[:, 1])
        result = engine.estimate(3.0, n_proposals=2000)
        assert result.n_promoted == 0

    def test_nonquadratic_metric_promotes_uncertain_draws(self):
        # A cubic term leaves residual the quadratic cannot absorb; draws
        # near the threshold fall inside the band and must be promoted.
        engine = self.make_engine(lambda X: X[:, 0] + 0.1 * X[:, 0] ** 3)
        result = engine.estimate(4.0, n_proposals=2000)
        assert result.n_promoted > 0
        assert result.n_simulator_calls >= result.n_promoted

    def test_promotions_recorded_in_metrics(self):
        from repro.obs.metrics import registry, reset_registry

        reset_registry()
        engine = self.make_engine(lambda X: X[:, 0] + 0.1 * X[:, 0] ** 3)
        engine.estimate(4.0, n_proposals=1000, operation="read")
        counters = registry().snapshot()["counters"]
        names = {key[0] for key in counters}
        assert "repro_highsigma_proposals_total" in names
        assert "repro_highsigma_promoted_solves_total" in names
        assert "repro_highsigma_simulator_calls_total" in names
        for key, value in counters.items():
            if key[0] == "repro_highsigma_proposals_total":
                assert key[1] == (("operation", "read"),)
                assert value == 1000.0
        reset_registry()

    def test_fail_direction_below(self):
        # A margin-like metric fails low: P(x0 <= -t) = sf(t).
        space = make_space(1)
        engine = HighSigmaEngine(
            space,
            BatchEvaluator(lambda X: X[:, 0]),
            fail_direction="below",
            seed=11,
        )
        result = engine.estimate(-4.0, n_proposals=4000)
        exact = float(norm.sf(4.0))
        assert result.estimate.ci_low <= exact <= result.estimate.ci_high

    def test_invalid_fail_direction_rejected(self):
        space = make_space(1)
        with pytest.raises(HighSigmaError):
            HighSigmaEngine(
                space, BatchEvaluator(lambda X: X[:, 0]), fail_direction="up"
            )

    def test_budget_exhaustion_surfaces(self):
        engine = self.make_engine(lambda X: X[:, 0], max_calls=5)
        with pytest.raises(HighSigmaError):
            engine.fit_surrogate(32)


@pytest.fixture(scope="module")
def analytical_hs_study(node, analytical_model):
    from repro.core.montecarlo import MonteCarloTdpStudy
    from repro.variability.doe import StudyDOE

    study = MonteCarloTdpStudy(
        node,
        doe=StudyDOE(array_sizes=(64,), overlay_budgets_nm=(8.0,)),
        model=analytical_model,
        n_samples=256,
        seed=2015,
    )
    return HighSigmaYieldStudy(
        study,
        proposals=2000,
        pilot_samples=256,
        mc_samples=8000,
        sigma_levels=(3.0, 6.0),
    )


class TestHighSigmaYieldStudy:
    def test_corner_parity_and_deep_tail(self, analytical_hs_study):
        from repro.variability.doe import DOEPoint

        point = DOEPoint(
            n_wordlines=64, option_name="LELELE", overlay_three_sigma_nm=8.0
        )
        rows = analytical_hs_study.corner_rows(point)
        by_level = {row.sigma_level: row for row in rows}
        assert set(by_level) == {3.0, 6.0}

        three = by_level[3.0]
        assert three.mc_agrees is True  # the parity oracle
        assert three.mc_probability is not None
        assert three.ess > analytical_hs_study.proposals / 8

        six = by_level[6.0]
        assert six.mc_agrees is None  # too deep to brute-force
        assert 0.0 < six.ci_low <= six.fail_probability <= six.ci_high < 1e-6
        assert six.beta > 4.0
        assert six.shift_converged

    def test_call_accounting(self, analytical_hs_study):
        from repro.variability.doe import DOEPoint

        before = analytical_hs_study.total_simulator_calls
        rows = analytical_hs_study.corner_rows(
            DOEPoint(n_wordlines=64, option_name="SADP", overlay_three_sigma_nm=None)
        )
        spent = analytical_hs_study.total_simulator_calls - before
        assert spent >= analytical_hs_study.surrogate_initial
        assert spent <= analytical_hs_study.max_calls
        assert all(row.n_simulator_calls <= spent for row in rows)

    def test_to_record_is_flat_json(self, analytical_hs_study):
        from repro.variability.doe import DOEPoint

        row = analytical_hs_study.corner_rows(
            DOEPoint(n_wordlines=64, option_name="EUV", overlay_three_sigma_nm=None)
        )[0]
        record = row.to_record()
        assert record["record"] == "high_sigma"
        json.dumps(record)  # must be JSON-serialisable as-is
        assert record["ppm"] == pytest.approx(row.fail_probability * 1e6)

    def test_analytical_model_restricted_to_read(self, node, analytical_model):
        from repro.core.montecarlo import MonteCarloTdpStudy

        study = MonteCarloTdpStudy(node, model=analytical_model, n_samples=16)
        with pytest.raises(HighSigmaError):
            HighSigmaYieldStudy(study, operation="write", model="analytical")
        with pytest.raises(HighSigmaError):
            HighSigmaYieldStudy(study, model="bogus")

    def test_margin_operations_fail_below(self, node, analytical_model):
        from repro.core.montecarlo import MonteCarloTdpStudy

        study = MonteCarloTdpStudy(node, model=analytical_model, n_samples=16)
        hs = HighSigmaYieldStudy(study, operation="hold_snm", model="surface")
        assert hs.fail_direction == "below"
        hs = HighSigmaYieldStudy(study, operation="read", model="circuit")
        assert hs.fail_direction == "above"


class TestCircuitModel:
    def test_circuit_metric_through_prepared_lanes(self, node, analytical_model):
        # The circuit metric must run real batched solves through the
        # prepare/solve_prepared lanes: nominal variation -> ~0 % impact,
        # degraded R/C -> positive read-time impact.
        from repro.core.montecarlo import MonteCarloTdpStudy
        from repro.variability.doe import StudyDOE

        study = MonteCarloTdpStudy(
            node,
            doe=StudyDOE(array_sizes=(8,)),
            model=analytical_model,
            n_samples=8,
        )
        hs = HighSigmaYieldStudy(
            study, model="circuit", n_wordlines=8, pilot_samples=8
        )
        metric = hs._metric_fn()
        X = np.array(
            [
                [1.0, 1.0, 1.0],   # nominal
                [1.3, 1.2, 1.05],  # degraded interconnect
            ]
        )
        values = metric(X)
        assert values.shape == (2,)
        assert np.all(np.isfinite(values))
        assert values[0] == pytest.approx(0.0, abs=1e-9)
        assert values[1] > 0.0

    def test_surface_metric_vectorises(self, node, analytical_model):
        from repro.core.montecarlo import MonteCarloTdpStudy
        from repro.variability.doe import StudyDOE

        study = MonteCarloTdpStudy(
            node,
            doe=StudyDOE(array_sizes=(8,)),
            model=analytical_model,
            n_samples=8,
        )
        hs = HighSigmaYieldStudy(study, model="surface", n_wordlines=8)
        metric = hs._metric_fn()
        X = np.array([[1.0, 1.0, 1.0], [1.2, 1.1, 1.0], [0.9, 0.95, 1.0]])
        values = metric(X)
        assert values.shape == (3,)
        assert values[0] == pytest.approx(0.0, abs=1e-9)
        assert values[1] > 0.0


class TestSpecApiWiring:
    def make_spec(self, **hs_overrides):
        from repro.core.spec import (
            ArraySpec,
            ExperimentSpec,
            HighSigmaSpec,
            TechnologySpec,
        )

        hs = dict(
            operation="read",
            model="analytical",
            sigma_levels=(3.0, 6.0),
            proposals=2000,
            pilot_samples=256,
            mc_samples=8000,
        )
        hs.update(hs_overrides)
        return ExperimentSpec(
            kind="yield_hs",
            technology=TechnologySpec(overlay_three_sigma_nm=8.0),
            array=ArraySpec(sizes=(64,), overlay_budgets_nm=(8.0,)),
            high_sigma=HighSigmaSpec(**hs),
        )

    def test_spec_round_trips(self):
        from repro.core.spec import ExperimentSpec

        spec = self.make_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_spec_validation(self):
        from repro.core.spec import HighSigmaSpec, SpecError

        with pytest.raises(SpecError):
            HighSigmaSpec(model="bogus")
        with pytest.raises(SpecError):
            HighSigmaSpec(operation="write", model="analytical")
        with pytest.raises(SpecError):
            HighSigmaSpec(sigma_levels=())
        with pytest.raises(SpecError):
            HighSigmaSpec(proposals=10)
        with pytest.raises(SpecError):
            HighSigmaSpec(confidence=1.5)

    def test_fingerprint_stable_for_other_kinds(self):
        # Pre-existing kinds must keep their fingerprints (and hence any
        # cached results): high_sigma only enters the canonical form for
        # yield_hs specs.
        from repro.core.spec import ExperimentSpec, HighSigmaSpec

        base = ExperimentSpec(kind="yield")
        tweaked = ExperimentSpec(
            kind="yield", high_sigma=HighSigmaSpec(proposals=999)
        )
        assert "high_sigma" not in base.canonical_dict()
        assert base.fingerprint() == tweaked.fingerprint()
        hs_spec = self.make_spec()
        assert "high_sigma" in hs_spec.canonical_dict()

    def test_api_run_dispatches(self):
        from repro.api import run

        result = run(self.make_spec())
        assert result.kind == "yield_hs"
        records = [r for r in result.records if r.get("record") == "high_sigma"]
        assert len(records) == 6  # 3 corners (LELELE 8nm, SADP, EUV) x 2 levels
        meta = result.meta["high_sigma"]
        assert meta["total_simulator_calls"] <= 100_000
        assert meta["total_proposals"] == 6 * 2000
        three_sigma = [r for r in records if r["sigma_level"] == 3.0]
        assert all(r["mc_agrees"] for r in three_sigma)
        six_sigma = [r for r in records if r["sigma_level"] == 6.0]
        assert all(0.0 < r["ci_low"] <= r["ci_high"] < 1.0 for r in six_sigma)

    def test_result_set_renders_all_formats(self):
        from repro.api import run

        result = run(self.make_spec(sigma_levels=(3.0,)))
        text = result.to_text()
        assert "High-sigma yield" in text
        assert "MC check" in text
        payload = json.loads(result.to_json())
        assert payload["kind"] == "yield_hs"
        assert result.to_csv().splitlines()[0].startswith("record,")


class TestCli:
    def test_yield_hs_options_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "yield-hs",
                "--sigma-levels", "3", "4.5",
                "--hs-model", "surface",
                "--proposals", "500",
                "--format", "json",
            ]
        )
        assert args.command == "yield-hs"
        assert args.sigma_levels == [3.0, 4.5]
        assert args.hs_model == "surface"

    def test_yield_hs_smoke(self, capsys):
        from repro.cli import main

        code = main(
            [
                "yield-hs",
                "--sizes", "64",
                "--sigma-levels", "3",
                "--proposals", "500",
                "--pilot-samples", "64",
                "--mc-samples", "2000",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "yield_hs"
        assert payload["n_records"] > 0

    def test_spec_dump_yield_hs(self, capsys):
        from repro.cli import main

        assert main(["spec", "dump", "--kind", "yield_hs", "--proposals", "1234"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "yield_hs"
        assert payload["high_sigma"]["proposals"] == 1234
