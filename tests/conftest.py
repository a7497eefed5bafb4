"""Shared fixtures for the test suite.

Expensive objects (technology node, array layouts, extraction results,
the operation simulators) are session scoped: they are immutable for the
tests that use them, and sharing them keeps the full suite fast.
"""

from __future__ import annotations

from typing import Tuple

import pytest
from scipy import sparse

from repro.core.analytical import model_from_technology
from repro.core.operations import OperationSimulators
from repro.extraction.lpe import ParameterizedLPE
from repro.layout.array import generate_array_layout
from repro.layout.sram_cell import generate_cell_layout
from repro.patterning import euv, le3, sadp
from repro.technology.node import n10

def scipy_matrices(assembler) -> Tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """``G`` and ``C`` of a binding, built by scipy from its triplets.

    The reference for the binding's own sums: scipy's COO→CSR conversion
    adds each position's duplicates.
    """
    shape = (assembler.size, assembler.size)
    g_matrix, c_matrix = (
        sparse.csr_matrix((values, (rows, cols)), shape=shape)
        for rows, cols, values in (assembler._g_triplets, assembler._c_triplets)
    )
    return g_matrix, c_matrix


#: Worst-case corner parameter sets used across tests (Table I corners).
LE3_WORST_CORNER = {"cd:A": 3.0, "cd:B": 3.0, "cd:C": 3.0, "ol:B": -8.0, "ol:C": 8.0}
SADP_WORST_CORNER = {"cd:core": -3.0, "spacer": -1.5}
EUV_WORST_CORNER = {"cd:euv": 3.0}


@pytest.fixture(scope="session")
def node():
    """The N10-class technology node with the paper's 8 nm overlay budget."""
    return n10()


@pytest.fixture(scope="session")
def cell_layout(node):
    return generate_cell_layout(node=node)


@pytest.fixture(scope="session")
def array16(node):
    return generate_array_layout(n_wordlines=16, node=node)


@pytest.fixture(scope="session")
def array64(node):
    return generate_array_layout(n_wordlines=64, node=node)


@pytest.fixture(scope="session")
def lpe(node):
    return ParameterizedLPE(node)


@pytest.fixture(scope="session")
def nominal_extraction64(lpe, array64):
    return lpe.extract_pattern(array64.metal1_pattern)


@pytest.fixture(scope="session")
def sims(node):
    """The read / write / margin simulators behind one geometry stack."""
    return OperationSimulators(node)


@pytest.fixture(scope="session")
def simulator(sims):
    return sims.read


@pytest.fixture(scope="session")
def analytical_model(node):
    return model_from_technology(node)


@pytest.fixture(scope="session")
def le3_option():
    return le3()


@pytest.fixture(scope="session")
def sadp_option():
    return sadp()


@pytest.fixture(scope="session")
def euv_option():
    return euv()
