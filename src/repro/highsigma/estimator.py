"""Tail-probability estimators and their confidence intervals.

Two estimators share one result type:

* :func:`self_normalized_is_estimate` — the importance-sampling
  estimate ``p = Σ w_i I_i / Σ w_i`` with a delta-method variance and
  the effective sample size ``ESS = (Σw)² / Σw²`` as the health
  diagnostic (a collapsed ESS means the proposal missed the failure
  region and the interval cannot be trusted);
* :func:`binomial_estimate` — the brute-force Monte-Carlo estimate with
  a Wilson score interval, used as the 3σ parity oracle.

Probabilities are reported with σ-equivalents (``Φ⁻¹`` of the
survival probability) because that is the axis fab yield is quoted on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri


class EstimatorError(ValueError):
    """Raised for estimator inputs that cannot produce an estimate."""


def _normal_isf(probability: float) -> float:
    """``scipy.stats.norm.isf(probability)`` to the bit, without ``scipy.stats``.

    ``norm.isf`` returns ``-ndtri(q) * 1.0 + 0.0``; ``0.0 - ndtri(q)`` is the
    same float, including the ``+0.0`` it gives at ``q = 0.5``.
    """
    return float(0.0 - ndtri(probability))


@dataclass(frozen=True)
class TailEstimate:
    """A fail probability with a two-sided confidence interval."""

    probability: float
    ci_low: float
    ci_high: float
    confidence: float
    ess: float
    n_samples: int
    method: str

    @property
    def ppm(self) -> float:
        return self.probability * 1e6

    @property
    def sigma_equivalent(self) -> float:
        """The sigma level whose Gaussian tail equals this probability."""
        if self.probability <= 0.0:
            return math.inf
        if self.probability >= 1.0:
            return -math.inf
        return _normal_isf(self.probability)

    def to_dict(self) -> dict:
        return {
            "probability": float(self.probability),
            "ci_low": float(self.ci_low),
            "ci_high": float(self.ci_high),
            "confidence": float(self.confidence),
            "ess": float(self.ess),
            "n_samples": int(self.n_samples),
            "method": self.method,
            "ppm": float(self.ppm),
            "sigma_equivalent": float(self.sigma_equivalent),
        }


def _z_for(confidence: float) -> float:
    if not 0.0 < confidence < 1.0:
        raise EstimatorError("confidence must be in (0, 1)")
    return _normal_isf(0.5 * (1.0 - confidence))


def self_normalized_is_estimate(
    log_weights: np.ndarray,
    indicators: np.ndarray,
    confidence: float = 0.95,
) -> TailEstimate:
    """Self-normalised IS estimate from log weights and fail indicators.

    Log weights are shifted by their maximum before exponentiation, so
    deep-tail estimates (where every raw weight underflows) stay exact:
    the self-normalised ratio is invariant to a common log offset.
    """
    lw = np.asarray(log_weights, dtype=float)
    ind = np.asarray(indicators, dtype=float)
    if lw.shape != ind.shape or lw.ndim != 1 or lw.size == 0:
        raise EstimatorError("need matching 1-D weights and indicators")
    z = _z_for(confidence)

    finite = lw > -np.inf
    if not np.any(finite):
        raise EstimatorError("all importance weights are zero")
    shift = float(np.max(lw[finite]))
    w = np.where(finite, np.exp(lw - shift), 0.0)
    w_sum = float(np.sum(w))
    if w_sum <= 0.0:
        raise EstimatorError("all importance weights are zero")

    p = float(np.sum(w * ind) / w_sum)
    # Delta-method variance of the self-normalised ratio estimator.
    var = float(np.sum((w * (ind - p)) ** 2) / w_sum**2)
    half = z * math.sqrt(max(var, 0.0))
    ess = w_sum**2 / float(np.sum(w * w))
    return TailEstimate(
        probability=p,
        ci_low=max(p - half, 0.0),
        ci_high=min(p + half, 1.0),
        confidence=confidence,
        ess=float(ess),
        n_samples=int(lw.size),
        method="importance_sampling",
    )


def binomial_estimate(
    n_fail: int, n_total: int, confidence: float = 0.95
) -> TailEstimate:
    """Wilson score interval for a brute-force Monte-Carlo fail count."""
    if n_total <= 0:
        raise EstimatorError("need at least one sample")
    if not 0 <= n_fail <= n_total:
        raise EstimatorError("fail count must lie in [0, n_total]")
    z = _z_for(confidence)
    p_hat = n_fail / n_total
    denom = 1.0 + z * z / n_total
    centre = (p_hat + z * z / (2 * n_total)) / denom
    half = (
        z
        * math.sqrt(
            p_hat * (1.0 - p_hat) / n_total + z * z / (4.0 * n_total**2)
        )
        / denom
    )
    return TailEstimate(
        probability=p_hat,
        ci_low=max(centre - half, 0.0),
        ci_high=min(centre + half, 1.0),
        confidence=confidence,
        ess=float(n_total),
        n_samples=int(n_total),
        method="monte_carlo",
    )


def intervals_overlap(a: TailEstimate, b: TailEstimate) -> bool:
    """Whether two estimates agree within their combined intervals."""
    return a.ci_low <= b.ci_high and b.ci_low <= a.ci_high


__all__ = [
    "EstimatorError",
    "TailEstimate",
    "binomial_estimate",
    "intervals_overlap",
    "self_normalized_is_estimate",
]
