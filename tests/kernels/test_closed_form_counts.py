"""The matmul and LU cost models are the counts their kernels charge.

Both kernels charge their work from the same closed forms that
``analytic_cost`` evaluates, so the two agree exactly -- ragged edge tiles,
non-square operands and explicit tile shapes included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import ComputationCost
from repro.exceptions import ConfigurationError
from repro.kernels.matmul import BlockedMatrixMultiply
from repro.kernels.triangularization import BlockedLUTriangularization

ORDERS = (2, 3, 5, 7, 13, 24, 31, 48)
MEMORIES = (3, 4, 5, 12, 13, 27, 48, 75, 300, 5000)


@pytest.mark.parametrize("memory", MEMORIES)
@pytest.mark.parametrize("n", ORDERS)
def test_matmul_analytic_cost_is_measured_cost(n, memory):
    kernel = BlockedMatrixMultiply()
    problem = kernel.default_problem(n)
    assert kernel.analytic_cost(memory, **problem) == kernel.execute(memory, **problem).cost


@pytest.mark.parametrize("memory", MEMORIES)
@pytest.mark.parametrize("n", ORDERS)
def test_lu_analytic_cost_is_measured_cost(n, memory):
    kernel = BlockedLUTriangularization()
    problem = kernel.default_problem(n)
    assert kernel.analytic_cost(memory, **problem) == kernel.execute(memory, **problem).cost


@pytest.mark.parametrize(
    "shape, tile_shape, memory",
    [
        ((5, 7, 3), None, 12),
        ((9, 14, 5), None, 27),
        ((1, 6, 4), None, 3),
        ((3, 0, 4), None, 12),
        ((17, 31, 11), (2, 8), 48),
        ((17, 31, 11), (1, 16), 48),
        ((13, 13, 13), (3, 2), 11),
    ],
)
def test_matmul_analytic_cost_is_measured_cost_for_any_shape(shape, tile_shape, memory):
    rows, inner, cols = shape
    rng = np.random.default_rng(0)
    problem = {"a": rng.standard_normal((rows, inner)), "b": rng.standard_normal((inner, cols))}
    kernel = BlockedMatrixMultiply(tile_shape=tile_shape)
    execution = kernel.execute(memory, **problem)
    assert kernel.analytic_cost(memory, **problem) == execution.cost
    np.testing.assert_allclose(execution.output, problem["a"] @ problem["b"], rtol=1e-10)


def test_matmul_analytic_cost_prices_ragged_edge_tiles_as_run():
    """Order 24 in 10 x 10 tiles: 2n**3 ops, each panel read once per tile."""
    problem = BlockedMatrixMultiply().default_problem(24)
    cost = BlockedMatrixMultiply().analytic_cost(300, **problem)
    assert cost == ComputationCost(2.0 * 24**3, 3 * 2 * 24**2 + 24**2)


@pytest.mark.parametrize(
    "tile_shape, memory", [((2, 2), 5), ((2, 2), 7), ((1, 2), 4), ((3, 4), 18)]
)
def test_infeasible_tile_shape_rejected_before_running(tile_shape, memory):
    rows, cols = tile_shape
    kernel = BlockedMatrixMultiply(tile_shape=tile_shape)
    problem = kernel.default_problem(6)
    working_set = rows * cols + rows + cols
    message = f"working set of at least {working_set} words"
    with pytest.raises(ConfigurationError, match=message):
        kernel.analytic_cost(memory, **problem)
    with pytest.raises(ConfigurationError, match=message):
        kernel.execute(memory, **problem)


def test_lu_analytic_cost_rejects_a_non_square_operand():
    kernel = BlockedLUTriangularization()
    a = np.ones((4, 6))
    message = "triangularization requires a square matrix"
    with pytest.raises(ConfigurationError, match=message):
        kernel.analytic_cost(48, a=a)
    with pytest.raises(ConfigurationError, match=message):
        kernel.execute(48, a=a)


def test_tile_shape_that_just_fits_runs_at_full_memory():
    """``rows * cols + rows + cols == M`` leaves exactly one-wide chunks."""
    kernel = BlockedMatrixMultiply(tile_shape=(3, 4))
    problem = kernel.default_problem(10)
    execution = kernel.execute(19, **problem)
    assert execution.peak_memory_words == 19
    assert kernel.analytic_cost(19, **problem) == execution.cost
    assert kernel.verify(execution)
