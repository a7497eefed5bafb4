"""The high-sigma yield study: engines wired to the paper's DOE.

:class:`HighSigmaEngine` is the model-agnostic core: given a
:class:`~repro.highsigma.space.ParameterSpace` (the fitted variability
model) and a batch evaluator (the "simulator"), it

1. fits a :class:`~repro.highsigma.surrogate.QuadraticSurrogate` from a
   sigma-spanning initial design (span ``highsigma.fit``),
2. finds the dominant mean shift on the surrogate with the HL-RF search
   (span ``highsigma.search``),
3. draws mean-shifted proposals, screens them on the surrogate,
   promotes the draws inside the uncertainty band to real solves — which
   fold back into the fit — and reweights everything with exact
   likelihood ratios into a self-normalised IS estimate
   (span ``highsigma.sample``).

:class:`HighSigmaYieldStudy` runs that engine per DOE corner on one of
three metric models — the paper's analytical tdp formula, a calibrated
operation response surface, or real batched circuit solves through the
``prepare``/``solve_prepared`` lanes — and cross-checks against
brute-force Monte-Carlo at low sigma, which is the subsystem's parity
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.batch import solve_prepared
from ..core.montecarlo import MonteCarloTdpStudy
from ..core.operations import OperationSimulators, create_operation, ensure_operation
from ..core.spec import HIGH_SIGMA_MODELS
from ..obs import metrics as obs_metrics
from ..obs.trace import span
from .estimator import (
    TailEstimate,
    _normal_isf,
    binomial_estimate,
    intervals_overlap,
    self_normalized_is_estimate,
)
from .shift import ShiftResult, find_dominant_shift
from .space import MixtureProposal, ParameterSpace, continuous_mask
from .surrogate import QuadraticSurrogate, initial_design

#: Failure tail per metric family: delays fail high, margins fail low.
FAIL_DIRECTIONS = ("above", "below")


class HighSigmaError(RuntimeError):
    """Raised when a high-sigma estimate cannot be produced."""


class BatchEvaluator:
    """A call-counted batch metric: ``(n, d) points -> (n,) values``.

    Every evaluation is a "real simulator call" for budget accounting,
    whatever the underlying model costs; ``max_calls`` is the hard
    ceiling the ISSUE's ≤1e5-call deliverable is enforced against.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        max_calls: int = 100_000,
    ) -> None:
        self._fn = fn
        self.max_calls = int(max_calls)
        self.calls = 0

    @property
    def remaining(self) -> int:
        return max(self.max_calls - self.calls, 0)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] > self.remaining:
            raise HighSigmaError(
                f"evaluator budget exhausted: {self.calls} calls used, "
                f"{X.shape[0]} more requested, limit {self.max_calls}"
            )
        self.calls += X.shape[0]
        values = np.asarray(self._fn(X), dtype=float).reshape(X.shape[0])
        return values


@dataclass(frozen=True)
class HighSigmaResult:
    """One corner × sigma-level estimate with its diagnostics."""

    estimate: TailEstimate
    shift: ShiftResult
    threshold: float
    n_proposals: int
    n_promoted: int
    n_simulator_calls: int


class HighSigmaEngine:
    """Importance sampling with surrogate screening over one metric."""

    def __init__(
        self,
        space: ParameterSpace,
        evaluator: BatchEvaluator,
        fail_direction: str = "above",
        seed: int = 2015,
        band_sigma: float = 2.0,
        proposal_inflation: float = 2.0,
    ) -> None:
        if fail_direction not in FAIL_DIRECTIONS:
            raise HighSigmaError(
                f"fail_direction must be one of {FAIL_DIRECTIONS}, "
                f"got {fail_direction!r}"
            )
        self.space = space
        self.evaluator = evaluator
        self.fail_direction = fail_direction
        self.band_sigma = float(band_sigma)
        self.proposal_inflation = float(proposal_inflation)
        self.rng = np.random.default_rng(seed)
        self.surrogate = QuadraticSurrogate(space.dimension)

    # -- failure geometry ------------------------------------------------

    def _fails(self, values: np.ndarray, threshold: float) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if self.fail_direction == "above":
            return values >= threshold
        return values <= threshold

    def _margin_fn(self, threshold: float) -> Callable[[np.ndarray], float]:
        # Margin is positive in the safe region, negative past the limit
        # surface — the sign convention the HL-RF iteration expects.
        if self.fail_direction == "above":
            return lambda u: threshold - self.surrogate.predict_one(u)
        return lambda u: self.surrogate.predict_one(u) - threshold

    def _gradient_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        if self.fail_direction == "above":
            return lambda u: -self.surrogate.gradient(u)
        return lambda u: self.surrogate.gradient(u)

    # -- phase 1: surrogate fit ------------------------------------------

    def fit_surrogate(self, n_initial: int = 32) -> None:
        """Evaluate a sigma-spanning design and fit the first surrogate."""
        with span("highsigma.fit", dimension=self.space.dimension):
            U = initial_design(self.space.dimension, n_initial, self.rng)
            values = self.evaluator(self.space.unstandardize(U))
            self.surrogate.observe(U, values)
            if not self.surrogate.refit():
                raise HighSigmaError(
                    f"initial design too small for a quadratic fit: "
                    f"{self.surrogate.n_observations} points, need "
                    f"{self.surrogate.min_observations}"
                )

    # -- phase 2: dominant-shift search ----------------------------------

    def find_shift(self, threshold: float) -> ShiftResult:
        """HL-RF search for the most probable failure point.

        Runs on the surrogate (closed-form gradients), then promotes the
        found point to one real evaluation that folds back into the fit —
        the search result itself refines the surface where it matters
        most.
        """
        if not self.surrogate.is_fitted:
            self.fit_surrogate()
        with span("highsigma.search", threshold=float(threshold)):
            result = find_dominant_shift(
                self._margin_fn(threshold),
                self._gradient_fn(),
                self.space.dimension,
                movable=continuous_mask(self.space),
            )
            if result.beta > 0.0 and self.evaluator.remaining > 0:
                u_star = np.atleast_2d(result.u_star)
                values = self.evaluator(self.space.unstandardize(u_star))
                self.surrogate.observe(u_star, values)
                self.surrogate.refit()
            return result

    # -- phase 3: mean-shifted sampling ----------------------------------

    def estimate(
        self,
        threshold: float,
        n_proposals: int = 4000,
        confidence: float = 0.95,
        operation: str = "unknown",
    ) -> HighSigmaResult:
        """Importance-sampled fail probability past ``threshold``."""
        calls_before = self.evaluator.calls
        shift = self.find_shift(threshold)
        with span(
            "highsigma.sample",
            threshold=float(threshold),
            n_proposals=int(n_proposals),
        ):
            # Defensive mixture: the shifted component covers the failure
            # region, the target component keeps the self-normalisation
            # (and hence the ESS) well-conditioned.  See MixtureProposal.
            proposal = MixtureProposal(
                target=self.space,
                shifted=self.space.proposal_for_shift(
                    shift.u_star, inflation=self.proposal_inflation
                ),
            )
            X = proposal.sample(self.rng, int(n_proposals))
            U = self.space.standardize(X)
            predicted = self.surrogate.predict(U)
            indicators = self._fails(predicted, threshold).astype(float)

            # Active refinement: draws whose surrogate margin sits inside
            # the uncertainty band cannot be classified from the fit alone;
            # promote them (closest to the limit surface first, within the
            # call budget) to real solves and fold the truth back in.
            band = self.band_sigma * max(self.surrogate.residual_std, 1e-30)
            distance = np.abs(predicted - threshold)
            uncertain = np.nonzero(distance <= band)[0]
            promoted = uncertain[np.argsort(distance[uncertain])]
            promoted = promoted[: self.evaluator.remaining]
            if promoted.size:
                true_values = self.evaluator(X[promoted])
                indicators[promoted] = self._fails(
                    true_values, threshold
                ).astype(float)
                self.surrogate.observe(U[promoted], true_values)
                self.surrogate.refit()

            log_weights = self.space.log_weights(proposal, X)
            estimate = self_normalized_is_estimate(
                log_weights, indicators, confidence=confidence
            )
        n_calls = self.evaluator.calls - calls_before
        obs_metrics.record_high_sigma(
            operation=operation,
            proposals=int(n_proposals),
            promoted=int(promoted.size),
            simulator_calls=int(n_calls),
        )
        return HighSigmaResult(
            estimate=estimate,
            shift=shift,
            threshold=float(threshold),
            n_proposals=int(n_proposals),
            n_promoted=int(promoted.size),
            n_simulator_calls=int(n_calls),
        )

    # -- brute-force cross-check -----------------------------------------

    def brute_force(
        self,
        threshold: float,
        n_samples: int,
        confidence: float = 0.95,
        count_calls: bool = False,
    ) -> TailEstimate:
        """Plain Monte-Carlo under the target model (the parity oracle).

        ``count_calls=False`` (default) evaluates outside the engine's
        call budget — the cross-check is a validation instrument, not
        part of the ≤1e5-call IS deliverable.
        """
        X = self.space.sample(self.rng, int(n_samples))
        if count_calls:
            values = self.evaluator(X)
        else:
            values = np.asarray(self.evaluator._fn(X), dtype=float).reshape(
                X.shape[0]
            )
        n_fail = int(np.count_nonzero(self._fails(values, threshold)))
        return binomial_estimate(n_fail, int(n_samples), confidence=confidence)

    def metric_stats(self, n: int = 4096) -> Tuple[float, float]:
        """Surrogate mean/std of the metric under the target model.

        Used to translate sigma levels into thresholds without spending
        simulator calls; by the time this is called the surrogate has
        absorbed the initial design.
        """
        if not self.surrogate.is_fitted:
            self.fit_surrogate()
        X = self.space.sample(self.rng, int(n))
        values = self.surrogate.predict(self.space.standardize(X))
        return float(np.mean(values)), float(np.std(values, ddof=1))


# -- DOE-level study -------------------------------------------------------


@dataclass(frozen=True)
class HighSigmaCornerRow:
    """One (corner × sigma level) line of the yield_hs report."""

    operation: str
    model: str
    array_label: str
    option_name: str
    overlay_three_sigma_nm: Optional[float]
    sigma_level: float
    threshold: float
    fail_probability: float
    ci_low: float
    ci_high: float
    confidence: float
    ess: float
    beta: float
    shift_converged: bool
    n_proposals: int
    n_promoted: int
    n_simulator_calls: int
    mc_probability: Optional[float] = None
    mc_ci_low: Optional[float] = None
    mc_ci_high: Optional[float] = None
    mc_samples: Optional[int] = None
    mc_agrees: Optional[bool] = None

    @property
    def ppm(self) -> float:
        return self.fail_probability * 1e6

    @property
    def sigma_equivalent(self) -> float:
        if self.fail_probability <= 0.0:
            return float("inf")
        if self.fail_probability >= 1.0:
            return float("-inf")
        return _normal_isf(self.fail_probability)

    def to_record(self) -> Dict[str, Any]:
        return {
            "record": "high_sigma",
            "operation": self.operation,
            "model": self.model,
            "array": self.array_label,
            "option": self.option_name,
            "overlay_three_sigma_nm": self.overlay_three_sigma_nm,
            "sigma_level": self.sigma_level,
            "threshold": self.threshold,
            "fail_probability": self.fail_probability,
            "ppm": self.ppm,
            "sigma_equivalent": self.sigma_equivalent,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "confidence": self.confidence,
            "ess": self.ess,
            "beta": self.beta,
            "shift_converged": self.shift_converged,
            "n_proposals": self.n_proposals,
            "n_promoted": self.n_promoted,
            "n_simulator_calls": self.n_simulator_calls,
            "mc_probability": self.mc_probability,
            "mc_ci_low": self.mc_ci_low,
            "mc_ci_high": self.mc_ci_high,
            "mc_samples": self.mc_samples,
            "mc_agrees": self.mc_agrees,
        }


class HighSigmaYieldStudy:
    """yield_hs over the paper's DOE: one engine per (corner, model)."""

    def __init__(
        self,
        study: MonteCarloTdpStudy,
        operation: str = "read",
        model: str = "analytical",
        sigma_levels: Sequence[float] = (3.0, 6.0),
        threshold_percent: Optional[float] = None,
        proposals: int = 4000,
        pilot_samples: int = 512,
        surrogate_initial: int = 32,
        band_sigma: float = 2.0,
        mc_samples: int = 20000,
        mc_max_sigma: float = 3.5,
        max_calls: int = 100_000,
        confidence: float = 0.95,
        n_wordlines: int = 64,
        seed: int = 2015,
    ) -> None:
        ensure_operation(operation, error=HighSigmaError)
        if model not in HIGH_SIGMA_MODELS:
            raise HighSigmaError(
                f"model must be one of {HIGH_SIGMA_MODELS}, got {model!r}"
            )
        if model == "analytical" and operation != "read":
            raise HighSigmaError(
                "the analytical model only covers the read operation; "
                "use model='surface' or model='circuit' for "
                f"{operation!r}"
            )
        self.study = study
        self.operation_name = operation
        self.model = model
        self.sigma_levels = tuple(float(s) for s in sigma_levels)
        self.threshold_percent = threshold_percent
        self.proposals = int(proposals)
        self.pilot_samples = int(pilot_samples)
        self.surrogate_initial = int(surrogate_initial)
        self.band_sigma = float(band_sigma)
        self.mc_samples = int(mc_samples)
        self.mc_max_sigma = float(mc_max_sigma)
        self.max_calls = int(max_calls)
        self.confidence = float(confidence)
        self.n_wordlines = int(n_wordlines)
        self.seed = int(seed)
        operation_obj = create_operation(operation)
        #: Delays fail high (slow read/write), margins fail low (lost SNM).
        self.fail_direction = (
            "above" if operation_obj.metric == "delay" else "below"
        )
        self._operation = operation_obj
        self._simulators: Optional[OperationSimulators] = None
        #: Real metric evaluations spent by the last :meth:`rows` call,
        #: including surrogate-fit designs (the rows themselves only
        #: carry their estimate-phase spend).
        self.total_simulator_calls = 0

    @classmethod
    def from_spec(cls, spec) -> "HighSigmaYieldStudy":
        hs = spec.high_sigma
        study = MonteCarloTdpStudy(
            spec.technology.build(),
            doe=spec.array.to_doe(),
            n_samples=hs.pilot_samples,
            seed=spec.execution.seed,
        )
        return cls(
            study,
            operation=hs.operation,
            model=hs.model,
            sigma_levels=hs.sigma_levels,
            threshold_percent=hs.threshold_percent,
            proposals=hs.proposals,
            pilot_samples=hs.pilot_samples,
            surrogate_initial=hs.surrogate_initial,
            band_sigma=hs.band_sigma,
            mc_samples=hs.mc_samples,
            mc_max_sigma=hs.mc_max_sigma,
            max_calls=hs.max_calls,
            confidence=hs.confidence,
            n_wordlines=spec.operation.n_wordlines,
            seed=spec.execution.seed,
        )

    # -- metric models ---------------------------------------------------

    def _dimension_names(self) -> Tuple[str, ...]:
        if self.model == "analytical":
            return ("rvar", "cvar")
        return ("rvar", "cvar", "rail_rvar")

    def _simulator_bundle(self) -> OperationSimulators:
        if self._simulators is None:
            self._simulators = OperationSimulators(
                self.study.node, n_bitline_pairs=self.study.doe.n_bitline_pairs
            )
        return self._simulators

    def _metric_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        """The metric in percent impact vs nominal, batched over points."""
        if self.model == "analytical":
            model = self.study.model
            n_wordlines = self.n_wordlines

            def analytical(X: np.ndarray) -> np.ndarray:
                return np.asarray(
                    model.tdp_percent(n_wordlines, X[:, 0], X[:, 1])
                )

            return analytical
        if self.model == "surface":
            surface = self.study.response_surface(
                self.operation_name, self.n_wordlines
            )

            def surface_fn(X: np.ndarray) -> np.ndarray:
                return np.asarray(
                    surface.change_percent(X[:, 0], X[:, 1], X[:, 2])
                )

            return surface_fn

        sims = self._simulator_bundle()
        operation = self._operation
        n_wordlines = self.n_wordlines
        nominal = operation.measure_nominal(sims, n_wordlines).value
        if nominal == 0.0:
            raise HighSigmaError("nominal metric is zero; no relative impact")

        def circuit_fn(X: np.ndarray) -> np.ndarray:
            prepared = [
                operation.prepare_value_with_variation(
                    sims,
                    n_wordlines,
                    float(row[0]),
                    float(row[1]),
                    rail_rvar=float(row[2]),
                )
                for row in X
            ]
            outcomes = solve_prepared(prepared)
            values = []
            for outcome in outcomes:
                if isinstance(outcome, Exception):
                    raise HighSigmaError(
                        f"promoted circuit solve failed: {outcome}"
                    ) from outcome
                values.append((outcome / nominal - 1.0) * 100.0)
            return np.asarray(values)

        return circuit_fn

    def _pilot_space(self, point) -> Tuple[ParameterSpace, np.ndarray]:
        """Fit the corner's variability model from one pilot LPE batch.

        Both the IS target density and the brute-force cross-check sample
        from this fitted model, so the 3σ parity comparison is
        self-consistent by construction.
        """
        bitline, rail = self.study.column_variation_samples_batch(point)
        columns = [np.asarray(bitline.rvar), np.asarray(bitline.cvar)]
        if self.model != "analytical":
            columns.append(np.asarray(rail.rvar))
        matrix = np.column_stack(columns)
        return ParameterSpace.from_samples(self._dimension_names(), matrix), matrix

    def _thresholds_for(
        self, engine: HighSigmaEngine, pilot_values: Optional[np.ndarray]
    ) -> List[Tuple[float, float]]:
        """(sigma_level, threshold) pairs for one corner.

        An explicit ``threshold_percent`` pins every level to the same
        absolute threshold; otherwise levels translate to
        ``mean ± sigma·std`` of the metric — exact pilot statistics when
        the model is cheap enough to evaluate the pilot batch, surrogate
        statistics for the circuit model.
        """
        if self.threshold_percent is not None:
            return [(s, float(self.threshold_percent)) for s in self.sigma_levels]
        if pilot_values is not None:
            mean = float(np.mean(pilot_values))
            std = float(np.std(pilot_values, ddof=1))
        else:
            mean, std = engine.metric_stats()
        if std <= 0.0:
            raise HighSigmaError("the metric has zero spread at this corner")
        sign = 1.0 if self.fail_direction == "above" else -1.0
        return [(s, mean + sign * s * std) for s in self.sigma_levels]

    # -- the study -------------------------------------------------------

    def corner_rows(self, point) -> List[HighSigmaCornerRow]:
        """All sigma-level estimates for one DOE corner."""
        space, pilot_matrix = self._pilot_space(point)
        metric = self._metric_fn()
        evaluator = BatchEvaluator(metric, max_calls=self.max_calls)
        engine = HighSigmaEngine(
            space,
            evaluator,
            fail_direction=self.fail_direction,
            seed=self.study._seed_for_point(point),
            band_sigma=self.band_sigma,
        )
        engine.fit_surrogate(self.surrogate_initial)
        # The pilot batch doubles as free threshold statistics whenever
        # the model is vectorised-cheap (everything but real solves).
        pilot_values = None
        if self.model != "circuit":
            pilot_values = metric(pilot_matrix)
        rows: List[HighSigmaCornerRow] = []
        for sigma_level, threshold in self._thresholds_for(engine, pilot_values):
            result = engine.estimate(
                threshold,
                n_proposals=self.proposals,
                confidence=self.confidence,
                operation=self.operation_name,
            )
            mc: Optional[TailEstimate] = None
            if sigma_level <= self.mc_max_sigma and self.model != "circuit":
                mc = engine.brute_force(
                    threshold, self.mc_samples, confidence=self.confidence
                )
            rows.append(
                HighSigmaCornerRow(
                    operation=self.operation_name,
                    model=self.model,
                    array_label=point.array_label,
                    option_name=point.option_name,
                    overlay_three_sigma_nm=point.overlay_three_sigma_nm,
                    sigma_level=float(sigma_level),
                    threshold=float(threshold),
                    fail_probability=result.estimate.probability,
                    ci_low=result.estimate.ci_low,
                    ci_high=result.estimate.ci_high,
                    confidence=self.confidence,
                    ess=result.estimate.ess,
                    beta=result.shift.beta,
                    shift_converged=result.shift.converged,
                    n_proposals=result.n_proposals,
                    n_promoted=result.n_promoted,
                    n_simulator_calls=result.n_simulator_calls,
                    mc_probability=None if mc is None else mc.probability,
                    mc_ci_low=None if mc is None else mc.ci_low,
                    mc_ci_high=None if mc is None else mc.ci_high,
                    mc_samples=None if mc is None else mc.n_samples,
                    mc_agrees=(
                        None
                        if mc is None
                        else intervals_overlap(result.estimate, mc)
                    ),
                )
            )
        # estimate() records only its own window; the surrogate design and
        # MPP promotions above must reach the counter too, or Prometheus
        # under-reports the corner's real spend.
        unattributed = evaluator.calls - sum(row.n_simulator_calls for row in rows)
        if unattributed > 0:
            obs_metrics.record_high_sigma(
                operation=self.operation_name,
                proposals=0,
                promoted=0,
                simulator_calls=int(unattributed),
            )
        self.total_simulator_calls += evaluator.calls
        return rows

    def rows(self) -> List[HighSigmaCornerRow]:
        """Every DOE corner × sigma level, in DOE order."""
        self.total_simulator_calls = 0
        rows: List[HighSigmaCornerRow] = []
        for point in self.study.doe.monte_carlo_points(
            n_wordlines=self.n_wordlines
        ):
            rows.extend(self.corner_rows(point))
        return rows


__all__ = [
    "BatchEvaluator",
    "FAIL_DIRECTIONS",
    "HIGH_SIGMA_MODELS",
    "HighSigmaCornerRow",
    "HighSigmaEngine",
    "HighSigmaError",
    "HighSigmaResult",
    "HighSigmaYieldStudy",
]
