"""Tests for the blocked LU triangularization kernel (Section 3.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.kernels.triangularization import (
    BlockedLUTriangularization,
    make_diagonally_dominant,
    unblocked_lu,
)


def _unpack(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lower = np.tril(packed, -1) + np.eye(packed.shape[0])
    upper = np.triu(packed)
    return lower, upper


class TestUnblockedLU:
    def test_factors_reconstruct_matrix(self):
        a = make_diagonally_dominant(8, seed=3)
        lower, upper = _unpack(unblocked_lu(a))
        np.testing.assert_allclose(lower @ upper, a, rtol=1e-9)

    def test_upper_is_triangular(self):
        a = make_diagonally_dominant(6, seed=1)
        _, upper = _unpack(unblocked_lu(a))
        np.testing.assert_allclose(np.tril(upper, -1), 0, atol=1e-12)

    def test_zero_pivot_detected(self):
        a = np.zeros((3, 3))
        with pytest.raises(ConfigurationError):
            unblocked_lu(a)

    def test_does_not_mutate_input(self):
        a = make_diagonally_dominant(5, seed=2)
        copy = a.copy()
        unblocked_lu(a)
        np.testing.assert_array_equal(a, copy)


class TestBlockedLUCorrectness:
    @pytest.mark.parametrize("memory", [3, 12, 27, 75, 300])
    def test_matches_unblocked_reference(self, memory):
        a = make_diagonally_dominant(13, seed=7)
        kernel = BlockedLUTriangularization()
        execution = kernel.execute(memory, a=a)
        np.testing.assert_allclose(execution.output, unblocked_lu(a), rtol=1e-8, atol=1e-8)

    def test_factors_reconstruct_original_matrix(self):
        a = make_diagonally_dominant(16, seed=11)
        execution = BlockedLUTriangularization().execute(48, a=a)
        lower, upper = _unpack(np.asarray(execution.output))
        np.testing.assert_allclose(lower @ upper, a, rtol=1e-8, atol=1e-8)

    def test_non_square_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            BlockedLUTriangularization().execute(48, a=rng.standard_normal((4, 6)))

    def test_zero_last_pivot_of_a_non_final_block_rejected(self):
        # At M = 12 the tile side is 2: the first block's last pivot turns
        # zero after elimination and would divide the column panel below.
        a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ConfigurationError, match="zero pivot encountered"):
            unblocked_lu(a)
        with pytest.raises(ConfigurationError, match="zero pivot encountered"):
            BlockedLUTriangularization().execute(12, a=a)

    def test_zero_final_pivot_is_never_a_divisor(self):
        a = np.array([[2.0, 1.0], [4.0, 2.0]])
        execution = BlockedLUTriangularization().execute(12, a=a)
        np.testing.assert_array_equal(execution.output, unblocked_lu(a))

    def test_verify_helper(self):
        kernel = BlockedLUTriangularization()
        problem = kernel.default_problem(10)
        assert kernel.verify(kernel.execute(27, **problem))

    @given(
        n=st.integers(min_value=2, max_value=14),
        memory=st.integers(min_value=3, max_value=150),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_property(self, n, memory, seed):
        """Property: L @ U always reconstructs A, for any blocking."""
        a = make_diagonally_dominant(n, seed=seed)
        execution = BlockedLUTriangularization().execute(memory, a=a)
        lower, upper = _unpack(np.asarray(execution.output))
        np.testing.assert_allclose(lower @ upper, a, rtol=1e-7, atol=1e-7)


class TestBlockedLUCosts:
    def test_peak_residency_within_budget(self):
        a = make_diagonally_dominant(20, seed=5)
        for memory in (12, 48, 147):
            execution = BlockedLUTriangularization().execute(memory, a=a)
            assert execution.peak_memory_words <= memory

    def test_compute_ops_scale_as_n_cubed(self):
        kernel = BlockedLUTriangularization()
        ops = []
        for n in (12, 24):
            a = make_diagonally_dominant(n, seed=n)
            ops.append(kernel.execute(48, a=a).cost.compute_ops)
        assert ops[1] / ops[0] == pytest.approx(8.0, rel=0.35)

    def test_io_decreases_as_memory_grows(self):
        a = make_diagonally_dominant(24, seed=9)
        kernel = BlockedLUTriangularization()
        io = [kernel.execute(m, a=a).cost.io_words for m in (12, 48, 192)]
        assert io[0] > io[1] > io[2]

    def test_intensity_grows_like_sqrt_memory(self):
        a = make_diagonally_dominant(36, seed=13)
        kernel = BlockedLUTriangularization()
        f_small = kernel.execute(27, a=a).intensity
        f_large = kernel.execute(108, a=a).intensity
        assert f_large / f_small == pytest.approx(2.0, rel=0.3)

    def test_phases_cover_every_panel(self):
        a = make_diagonally_dominant(12, seed=17)
        execution = BlockedLUTriangularization().execute(27, a=a)
        # tile side 3 -> 4 panel steps for a 12 x 12 matrix
        assert len(execution.phases) == 4
        assert execution.phases.total.io_words == pytest.approx(execution.cost.io_words)

    def test_make_diagonally_dominant_is_dominant(self):
        a = make_diagonally_dominant(10, seed=21)
        off_diagonal = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
        assert np.all(np.abs(np.diag(a)) > off_diagonal - 1e-9)
