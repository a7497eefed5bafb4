"""Shared fixtures for the benchmark harness.

Every bench regenerates one table or figure of the paper at the paper's
full design-of-experiments (array sizes 16/64/256/1024, 10 bit-line pairs,
the 3-8 nm overlay sweep).  The heavyweight objects are session scoped so
the corner search and nominal extractions are paid for once per run.

The files are named ``bench_*.py``, which pytest does not collect by
default, so name the pattern.  Run with::

    python -m pytest benchmarks/ -o 'python_files=bench_*.py' --benchmark-only

Add ``-s`` to also see the regenerated paper-style tables, or swap
``--benchmark-only`` for ``--benchmark-disable`` to run each bench once
as a plain test (what CI does).
"""

from __future__ import annotations

import pytest

from repro.core.analytical import model_from_technology
from repro.core.montecarlo import MonteCarloTdpStudy
from repro.core.validation import FormulaValidation
from repro.core.worst_case import WorstCaseStudy
from repro.extraction.lpe import ParameterizedLPE
from repro.sram.read_path import ReadPathSimulator
from repro.technology.node import n10
from repro.variability.doe import paper_doe

#: Monte-Carlo samples per study point used by the benches (the paper's
#: distributions are smooth at 1000 samples; 500 keeps the bench snappy
#: while leaving the sigma estimates within a few percent).
BENCH_MC_SAMPLES = 500


@pytest.fixture(scope="session")
def node():
    return n10()


@pytest.fixture(scope="session")
def doe():
    return paper_doe()


@pytest.fixture(scope="session")
def lpe(node):
    return ParameterizedLPE(node)


@pytest.fixture(scope="session")
def simulator(node):
    return ReadPathSimulator(node)


@pytest.fixture(scope="session")
def analytical_model(node):
    return model_from_technology(node)


@pytest.fixture(scope="session")
def worst_case_study(node, doe):
    return WorstCaseStudy(node, doe=doe)


@pytest.fixture(scope="session")
def validation(node, doe, analytical_model, simulator, worst_case_study):
    return FormulaValidation(
        node,
        doe=doe,
        model=analytical_model,
        simulator=simulator,
        worst_case=worst_case_study,
    )


@pytest.fixture(scope="session")
def monte_carlo_study(node, doe, analytical_model):
    return MonteCarloTdpStudy(
        node, doe=doe, model=analytical_model, n_samples=BENCH_MC_SAMPLES, seed=2015
    )
