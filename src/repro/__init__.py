"""repro — reproduction of "Impact of Interconnect Multiple-Patterning
Variability on SRAMs" (Karageorgos et al., DATE 2015).

The library quantifies how multiple-patterning interconnect variability
(triple litho-etch, SADP, single-patterning EUV) on a 10 nm-class metal1
layer degrades SRAM read performance.  It contains everything the study
needs, built from scratch:

* :mod:`repro.technology` — N10-class metal stack, FinFET devices,
  variation assumptions;
* :mod:`repro.layout` — parametric 6T-cell / array layout generation and
  GDS-like I/O;
* :mod:`repro.patterning` — LE/LE3, SADP and EUV patterning models with
  mask decomposition, worst-case corners and Monte-Carlo sampling;
* :mod:`repro.extraction` — the parameterized LPE tool (trapezoidal wire
  profiles, Sakurai-Tamaru capacitance models, patterning-aware R/C/CC
  extraction);
* :mod:`repro.circuit` — an MNA-based SPICE-level DC/transient simulator
  with an alpha-power-law FinFET model;
* :mod:`repro.sram` — 6T cell, bit-line ladders, precharge, sense amp and
  the read-path simulation harness;
* :mod:`repro.variability` — distributions, statistics and the study
  DOE;
* :mod:`repro.core` — the paper's contribution: the analytical td/tdp
  formula, the worst-case and Monte-Carlo studies (one batched
  sample → print → extract → eq. 4 pipeline) and the option comparison;
* :mod:`repro.reporting` — paper-style tables and figure data.

Quick start — the declarative API (preferred)::

    from repro.api import run
    from repro.core.spec import ExperimentSpec

    result = run(ExperimentSpec(kind="worst_case"))
    print(result.to_text())            # worst-case dCbl/dRbl per option

or the classic study front door (maintained as a compatibility shim)::

    from repro import MultiPatterningSRAMStudy
    from repro.technology import n10

    study = MultiPatterningSRAMStudy(n10())
    print(study.run_table1())          # worst-case dCbl/dRbl per option
"""

from .core import (
    AnalyticalDelayModel,
    ArraySpec,
    ComparisonVerdict,
    ExecutionSpec,
    ExperimentSpec,
    FormulaValidation,
    MonteCarloTdpStudy,
    MultiPatterningSRAMStudy,
    OperationSpec,
    OptionComparison,
    ScenarioSpec,
    SpecError,
    StudyReport,
    TechnologySpec,
    WorstCaseStudy,
    discharge_constant,
    model_from_technology,
)
from .technology import TechnologyNode, n10

__version__ = "1.3.0"

__all__ = [
    "AnalyticalDelayModel",
    "ArraySpec",
    "ComparisonVerdict",
    "ExecutionSpec",
    "ExperimentSpec",
    "FormulaValidation",
    "MonteCarloTdpStudy",
    "MultiPatterningSRAMStudy",
    "OperationSpec",
    "OptionComparison",
    "ScenarioSpec",
    "SpecError",
    "StudyReport",
    "TechnologyNode",
    "TechnologySpec",
    "WorstCaseStudy",
    "__version__",
    "discharge_constant",
    "model_from_technology",
    "n10",
]
