"""Process-variation assumption containers.

The paper states its multiple-patterning variation assumptions explicitly
(Section II.A); this module turns them into typed objects consumed by the
patterning models, the worst-case corner enumeration and the Monte-Carlo
samplers:

* 3σ CD variation of 3 nm for LE3, the SADP core layer and EUV;
* 3σ SADP spacer-thickness variation of 1.5 nm;
* 3σ LE3 overlay error swept from 3 nm to 8 nm;
* LE3 masks B and C are aligned to mask A (so A carries no overlay error
  relative to itself);
* SADP bit lines are spacer defined.

A *3σ value* here always means the half-width of the ±3σ interval of a
zero-mean normal distribution; ``sigma = three_sigma / 3``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Tuple


class CornerError(ValueError):
    """Raised for inconsistent variation assumptions."""


@dataclass(frozen=True)
class GaussianSpec:
    """A zero-mean normal variation described by its 3σ half width."""

    three_sigma_nm: float

    def __post_init__(self) -> None:
        if self.three_sigma_nm < 0.0:
            raise CornerError("3-sigma value cannot be negative")

    @property
    def sigma_nm(self) -> float:
        return self.three_sigma_nm / 3.0

    def corner_values(self) -> Tuple[float, float, float]:
        """The (−3σ, 0, +3σ) values used in worst-case corner enumeration."""
        return (-self.three_sigma_nm, 0.0, self.three_sigma_nm)


@dataclass(frozen=True)
class LithoEtchAssumptions:
    """Variation assumptions for an ``n``-mask litho-etch (LE, LE2, LE3...) flow.

    Parameters
    ----------
    cd: 3σ CD error applied independently per mask.
    overlay: 3σ overlay error of the non-reference masks.
    masks_aligned_to_first:
        If true (paper assumption for LE3) every non-reference mask is
        aligned to mask A, so overlay errors of B and C are independent of
        each other and A itself carries no overlay error.  If false the
        masks are chained (B aligned to A, C aligned to B) and overlay
        errors accumulate — exposed for the alignment-strategy ablation.
    """

    cd: GaussianSpec = field(default_factory=lambda: GaussianSpec(3.0))
    overlay: GaussianSpec = field(default_factory=lambda: GaussianSpec(8.0))
    masks_aligned_to_first: bool = True

    def with_overlay(self, three_sigma_nm: float) -> "LithoEtchAssumptions":
        return replace(self, overlay=GaussianSpec(three_sigma_nm))


@dataclass(frozen=True)
class SADPAssumptions:
    """Variation assumptions for self-aligned double patterning.

    Parameters
    ----------
    core_cd: 3σ CD error of the mandrel (core) print.
    spacer: 3σ spacer-thickness error.
    spacer_defined_lines:
        If true (paper assumption) the bit lines are the spacer-defined
        (non-mandrel) lines, so their width is set by
        ``2*pitch − core_cd − 2*spacer`` and much of the variability
        self-compensates.
    """

    core_cd: GaussianSpec = field(default_factory=lambda: GaussianSpec(3.0))
    spacer: GaussianSpec = field(default_factory=lambda: GaussianSpec(1.5))
    spacer_defined_lines: bool = True


@dataclass(frozen=True)
class EUVAssumptions:
    """Variation assumptions for single-patterning EUV.

    The paper notes the 3 nm 3σ CD budget may be pessimistic for EUV; the
    value is a parameter so the sensitivity can be explored.
    """

    cd: GaussianSpec = field(default_factory=lambda: GaussianSpec(3.0))


@dataclass(frozen=True)
class VariationAssumptions:
    """Bundle of all patterning-variation assumptions used by the study."""

    litho_etch: LithoEtchAssumptions = field(default_factory=LithoEtchAssumptions)
    sadp: SADPAssumptions = field(default_factory=SADPAssumptions)
    euv: EUVAssumptions = field(default_factory=EUVAssumptions)
    #: Overlay budgets (3σ, nm) swept for the LE3 Monte-Carlo study (Table IV).
    le3_overlay_sweep_nm: Tuple[float, ...] = (3.0, 5.0, 7.0, 8.0)
    #: Metal-thickness 3σ variation (etch + CMP), applied to all options.
    thickness: GaussianSpec = field(default_factory=lambda: GaussianSpec(0.0))

    def __post_init__(self) -> None:
        if not self.le3_overlay_sweep_nm:
            raise CornerError("the LE3 overlay sweep needs at least one value")
        if any(value < 0.0 for value in self.le3_overlay_sweep_nm):
            raise CornerError("overlay budgets cannot be negative")

    def for_overlay(self, three_sigma_nm: float) -> "VariationAssumptions":
        """Return a copy with the LE3 overlay budget replaced."""
        return replace(
            self, litho_etch=self.litho_etch.with_overlay(three_sigma_nm)
        )


def paper_assumptions() -> VariationAssumptions:
    """The exact assumption set of Section II.A (worst-case OL of 8 nm)."""
    return VariationAssumptions(
        litho_etch=LithoEtchAssumptions(
            cd=GaussianSpec(3.0),
            overlay=GaussianSpec(8.0),
            masks_aligned_to_first=True,
        ),
        sadp=SADPAssumptions(
            core_cd=GaussianSpec(3.0),
            spacer=GaussianSpec(1.5),
            spacer_defined_lines=True,
        ),
        euv=EUVAssumptions(cd=GaussianSpec(3.0)),
        le3_overlay_sweep_nm=(3.0, 5.0, 7.0, 8.0),
    )


@dataclass(frozen=True)
class CornerPoint:
    """A named corner assignment: variation kind / target → signed value (nm).

    Used by the worst-case enumeration: each patterning parameter of each
    mask (or of the core/spacer) is set to one of its (−3σ, 0, +3σ) values.
    """

    label: str
    assignments: Tuple[Tuple[str, float], ...]

    def as_dict(self) -> Dict[str, float]:
        return dict(self.assignments)

    def __len__(self) -> int:
        return len(self.assignments)


def enumerate_corner_points(
    parameter_specs: Dict[str, GaussianSpec],
    include_nominal: bool = False,
) -> List[CornerPoint]:
    """Enumerate all ±3σ corner combinations of a parameter set.

    Parameters
    ----------
    parameter_specs:
        Mapping from parameter name (e.g. ``"cd:metal1_A"``) to its
        Gaussian spec.
    include_nominal:
        If true, the 0 value is included per parameter, giving 3**n
        combinations instead of 2**n.

    Returns
    -------
    list of :class:`CornerPoint`
        One entry per combination; labels encode the signs, e.g.
        ``"cd:metal1_A=+3s|ol:metal1_B=-3s"``.
    """
    if not parameter_specs:
        raise CornerError("cannot enumerate corners of an empty parameter set")

    names = sorted(parameter_specs)
    per_parameter: List[List[Tuple[str, float, str]]] = []
    for name in names:
        spec = parameter_specs[name]
        choices = [(name, spec.three_sigma_nm, "+3s"), (name, -spec.three_sigma_nm, "-3s")]
        if include_nominal:
            choices.append((name, 0.0, "0"))
        per_parameter.append(choices)

    points: List[CornerPoint] = []

    def _recurse(depth: int, chosen: List[Tuple[str, float, str]]) -> None:
        if depth == len(per_parameter):
            label = "|".join(f"{name}={tag}" for name, _value, tag in chosen)
            assignments = tuple((name, value) for name, value, _tag in chosen)
            points.append(CornerPoint(label=label, assignments=assignments))
            return
        for choice in per_parameter[depth]:
            _recurse(depth + 1, chosen + [choice])

    _recurse(0, [])
    return points
