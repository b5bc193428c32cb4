"""Equivalence suite: the vectorized wavefront engines vs the reference.

The fast engines are trusted because they are *asserted identical* to the
scalar specification -- outputs bitwise, cycle counts and active-cell
accounting exact -- over random orders, batch counts and the degenerate
one-cell arrays (the same contract the pebble game's trusted fast engine
satisfies move for move).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.systolic import LinearMatvecArray, OutputStationaryMatmulArray
from repro.arrays.triangular_qr import GentlemanKungTriangularArray
from repro.arrays.wavefront import ENGINES, validate_engine
from repro.exceptions import ConfigurationError


def _bitwise_equal(left: list[np.ndarray], right: list[np.ndarray]) -> bool:
    return len(left) == len(right) and all(
        a.tobytes() == b.tobytes() for a, b in zip(left, right)
    )


class TestEngineSelector:
    def test_known_engines(self):
        assert ENGINES == ("reference", "fast")
        for engine in ENGINES:
            assert validate_engine(engine) == engine

    @pytest.mark.parametrize(
        "factory",
        [
            lambda e: OutputStationaryMatmulArray(3, engine=e),
            lambda e: LinearMatvecArray(3, engine=e),
            lambda e: GentlemanKungTriangularArray(3, engine=e),
        ],
    )
    def test_unknown_engine_rejected(self, factory):
        with pytest.raises(ConfigurationError, match="unknown simulation engine"):
            factory("turbo")

    def test_fast_is_the_default(self):
        assert OutputStationaryMatmulArray(2).engine == "fast"
        assert LinearMatvecArray(2).engine == "fast"
        assert GentlemanKungTriangularArray(2).engine == "fast"


class TestMatmulEquivalence:
    @given(
        n=st.integers(min_value=1, max_value=8),
        batches=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_fast_matches_reference(self, n, batches, seed):
        rng = np.random.default_rng(seed)
        problems = [
            (rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            for _ in range(batches)
        ]
        reference = OutputStationaryMatmulArray(n, engine="reference").run(problems)
        fast = OutputStationaryMatmulArray(n, engine="fast").run(problems)
        assert fast.cycles == reference.cycles
        assert fast.cell_count == reference.cell_count
        assert fast.active_cell_cycles == reference.active_cell_cycles
        assert _bitwise_equal(fast.outputs, reference.outputs)

    def test_degenerate_one_cell_mesh(self, rng):
        problems = [
            (rng.standard_normal((1, 1)), rng.standard_normal((1, 1)))
            for _ in range(3)
        ]
        reference = OutputStationaryMatmulArray(1, engine="reference").run(problems)
        fast = OutputStationaryMatmulArray(1, engine="fast").run(problems)
        assert fast.cycles == reference.cycles == 3
        assert fast.active_cell_cycles == reference.active_cell_cycles == 3
        assert _bitwise_equal(fast.outputs, reference.outputs)

    def test_single_batch(self, rng):
        n = 6
        problems = [(rng.standard_normal((n, n)), rng.standard_normal((n, n)))]
        reference = OutputStationaryMatmulArray(n, engine="reference").run(problems)
        fast = OutputStationaryMatmulArray(n, engine="fast").run(problems)
        assert _bitwise_equal(fast.outputs, reference.outputs)
        assert fast.active_cell_cycles == reference.active_cell_cycles

    def test_large_order_spot_check(self, rng):
        """One order beyond the hypothesis range, the size the engine is for."""
        n = 16
        problems = [
            (rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            for _ in range(3)
        ]
        reference = OutputStationaryMatmulArray(n, engine="reference").run(problems)
        fast = OutputStationaryMatmulArray(n, engine="fast").run(problems)
        assert fast.cycles == reference.cycles
        assert fast.active_cell_cycles == reference.active_cell_cycles
        assert _bitwise_equal(fast.outputs, reference.outputs)


class TestMatvecEquivalence:
    @given(
        n=st.integers(min_value=1, max_value=10),
        batches=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_fast_matches_reference(self, n, batches, seed):
        rng = np.random.default_rng(seed)
        problems = [
            (rng.standard_normal((n, n)), rng.standard_normal(n))
            for _ in range(batches)
        ]
        reference = LinearMatvecArray(n, engine="reference").run(problems)
        fast = LinearMatvecArray(n, engine="fast").run(problems)
        assert fast.cycles == reference.cycles
        assert fast.cell_count == reference.cell_count
        assert fast.active_cell_cycles == reference.active_cell_cycles
        assert _bitwise_equal(fast.outputs, reference.outputs)

    def test_degenerate_one_cell_array(self, rng):
        problems = [(rng.standard_normal((1, 1)), rng.standard_normal(1)) for _ in range(4)]
        reference = LinearMatvecArray(1, engine="reference").run(problems)
        fast = LinearMatvecArray(1, engine="fast").run(problems)
        assert fast.cycles == reference.cycles == 5
        assert fast.active_cell_cycles == reference.active_cell_cycles == 4
        assert _bitwise_equal(fast.outputs, reference.outputs)


class TestTriangularQREquivalence:
    @given(
        m=st.integers(min_value=0, max_value=20),
        n=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_fast_matches_reference(self, m, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        reference = GentlemanKungTriangularArray(n, engine="reference").run(a)
        fast = GentlemanKungTriangularArray(n, engine="fast").run(a)
        assert fast.cycles == reference.cycles
        assert fast.cell_count == reference.cell_count
        assert fast.active_cell_steps == reference.active_cell_steps
        assert fast.rotations_generated == reference.rotations_generated
        assert fast.r_factor.tobytes() == reference.r_factor.tobytes()

    def test_degenerate_one_cell_array(self, rng):
        a = rng.standard_normal((5, 1))
        reference = GentlemanKungTriangularArray(1, engine="reference").run(a)
        fast = GentlemanKungTriangularArray(1, engine="fast").run(a)
        assert fast.r_factor.tobytes() == reference.r_factor.tobytes()
        assert fast.active_cell_steps == reference.active_cell_steps == 5

    def test_empty_input_is_idle(self):
        a = np.zeros((0, 4))
        for engine in ENGINES:
            result = GentlemanKungTriangularArray(4, engine=engine).run(a)
            assert result.cycles == 0
            assert result.active_cell_steps == 0
            assert result.utilization == 0.0

    @given(
        extra=st.integers(min_value=1, max_value=24),
        n=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_tall_nonsquare_inputs(self, extra, n, seed):
        """rows > order: the array keeps absorbing past the square point."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n + extra, n))
        reference = GentlemanKungTriangularArray(n, engine="reference").run(a)
        fast = GentlemanKungTriangularArray(n, engine="fast").run(a)
        assert fast.r_factor.tobytes() == reference.r_factor.tobytes()
        assert fast.active_cell_steps == reference.active_cell_steps
        assert fast.rotations_generated == reference.rotations_generated
        report = GentlemanKungTriangularArray(n).verify(a)
        assert report.ok, report.max_abs_error

    @given(
        zero_cols=st.sets(st.integers(min_value=0, max_value=5), min_size=1),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_zero_columns_produce_identity_rotations(self, zero_cols, seed):
        """Zero columns hit the idle (c, s) = (1, 0) branch of the batch path."""
        n = 6
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((10, n))
        a[:, sorted(zero_cols)] = 0.0
        reference = GentlemanKungTriangularArray(n, engine="reference").run(a)
        fast = GentlemanKungTriangularArray(n, engine="fast").run(a)
        assert fast.r_factor.tobytes() == reference.r_factor.tobytes()
        assert fast.active_cell_steps == reference.active_cell_steps

    def test_all_zero_input_keeps_idle_rotations(self):
        n = 5
        a = np.zeros((8, n))
        reference = GentlemanKungTriangularArray(n, engine="reference").run(a)
        fast = GentlemanKungTriangularArray(n, engine="fast").run(a)
        assert fast.r_factor.tobytes() == reference.r_factor.tobytes()
        assert np.all(fast.r_factor == 0.0)
        assert fast.rotations_generated == reference.rotations_generated == 8 * n

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rows_surface_as_inf_error(self, poison, rng):
        """NaN/inf input must fail verification loudly, never silently pass.

        The two engines may disagree in the *sign/payload bits* of NaNs
        downstream of a non-finite input (IEEE 754 leaves two-NaN
        arithmetic unspecified, and CPython scalar ``+`` keeps the second
        operand's NaN where numpy's vector loop keeps the first), so the
        equivalence claim here is: identical NaN positions, bitwise-equal
        finite positions, and ``verify()`` reporting ``max_abs_error=inf``.
        """
        n = 6
        a = rng.standard_normal((9, n))
        a[3, 2] = poison
        with np.errstate(invalid="ignore"):
            reference = GentlemanKungTriangularArray(n, engine="reference").run(a)
            fast = GentlemanKungTriangularArray(n, engine="fast").run(a)
            ref_nan = np.isnan(reference.r_factor)
            fast_nan = np.isnan(fast.r_factor)
            assert np.array_equal(ref_nan, fast_nan)
            assert (
                fast.r_factor[~fast_nan].tobytes()
                == reference.r_factor[~ref_nan].tobytes()
            )
            for engine in ENGINES:
                report = GentlemanKungTriangularArray(n, engine=engine).verify(a)
                assert not report.ok
                assert report.max_abs_error == np.inf


class TestReportHelpers:
    def test_nan_deviation_surfaces_as_inf(self):
        """A NaN in a corrupted output must not masquerade as a 0.0 error."""
        from repro.arrays.wavefront import batched_verification_report, max_abs_deviation

        got = np.array([[1.0, np.nan]])
        want = np.array([[1.0, 2.0]])
        assert max_abs_deviation(got, want) == np.inf
        report = batched_verification_report(None, [got], [want])
        assert not report.ok
        assert report.max_abs_error == np.inf
        assert report.mismatched_batches == (0,)

    def test_empty_expectation_has_zero_deviation(self):
        from repro.arrays.wavefront import max_abs_deviation

        assert max_abs_deviation(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0

    @pytest.mark.parametrize("produced_count, expected_count", [(1, 3), (3, 1), (0, 2)])
    def test_length_mismatch_is_a_failure(self, produced_count, expected_count):
        """Dropped (or surplus) trailing batches must not verify as ok.

        ``zip`` truncates to the shorter sequence, so before this check an
        engine that returned only the first batch of a three-batch run
        reported ``ok=True`` with ``max_abs_error=0.0``.
        """
        from repro.arrays.wavefront import batched_verification_report

        batches = [np.full((2, 2), float(i)) for i in range(3)]
        report = batched_verification_report(
            None, batches[:produced_count], batches[:expected_count]
        )
        assert not report.ok
        assert report.max_abs_error == np.inf
        compared = min(produced_count, expected_count)
        longest = max(produced_count, expected_count)
        assert report.mismatched_batches == tuple(range(compared, longest))

    def test_equal_lengths_still_verify(self):
        from repro.arrays.wavefront import batched_verification_report

        batches = [np.full((2, 2), float(i)) for i in range(3)]
        report = batched_verification_report(None, batches, list(batches))
        assert report.ok
        assert report.max_abs_error == 0.0
        assert report.mismatched_batches == ()


def _assert_same_nonfinite_wake(fast: list[np.ndarray], reference: list[np.ndarray]):
    """Identical NaN positions and bitwise-equal values everywhere else.

    NaN sign/payload bits are left out for the reason
    ``test_nonfinite_rows_surface_as_inf_error`` gives.
    """
    assert len(fast) == len(reference)
    for got, want in zip(fast, reference):
        got_nan = np.isnan(got)
        assert np.array_equal(got_nan, np.isnan(want))
        assert got[~got_nan].tobytes() == want[~got_nan].tobytes()


class TestNonfiniteSystolicData:
    """NaN and +-inf operands are data: both engines carry them like numpy.

    The reference engines once used NaN as their empty-register sentinel,
    so a NaN operand was silently skipped (the mesh) or reported as a
    dataflow fault (the matvec array).
    """

    def test_nan_operand_reproduction(self, rng):
        """Order-3 mesh, two batches, ``A0[0, 1] = NaN``."""
        n = 3
        problems = [
            (rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            for _ in range(2)
        ]
        problems[0][0][0, 1] = np.nan
        alone = OutputStationaryMatmulArray(n, engine="reference").run(problems[1:])
        for engine in ENGINES:
            result = OutputStationaryMatmulArray(n, engine=engine).run(problems)
            assert np.all(np.isnan(result.outputs[0][0]))
            assert np.all(np.isfinite(result.outputs[0][1:]))
            assert result.active_cell_cycles == 2 * n**3 == 54
            assert result.outputs[1].tobytes() == alone.outputs[0].tobytes()
            assert np.allclose(result.outputs[1], problems[1][0] @ problems[1][1])

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_mesh_nonfinite_operands(self, poison, rng):
        n, batches = 5, 3
        problems = [
            (rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            for _ in range(batches)
        ]
        problems[0][0][2, 3] = poison
        with np.errstate(invalid="ignore"):
            reference = OutputStationaryMatmulArray(n, engine="reference").run(problems)
            fast = OutputStationaryMatmulArray(n, engine="fast").run(problems)
            expected = [a @ b for a, b in problems]
            reports = [
                OutputStationaryMatmulArray(n, engine=engine).verify(problems)
                for engine in ENGINES
            ]
        _assert_same_nonfinite_wake(fast.outputs, reference.outputs)
        assert fast.active_cell_cycles == reference.active_cell_cycles == batches * n**3
        assert np.array_equal(fast.outputs[0][2], expected[0][2], equal_nan=True)
        for got, want in zip(fast.outputs[1:], expected[1:]):
            assert np.allclose(got, want)
        self._assert_report(reports, poison)

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_matvec_nonfinite_operands(self, poison, rng):
        n, batches = 6, 3
        problems = [
            (rng.standard_normal((n, n)), rng.standard_normal(n))
            for _ in range(batches)
        ]
        problems[0][0][4, 1] = poison
        with np.errstate(invalid="ignore"):
            reference = LinearMatvecArray(n, engine="reference").run(problems)
            fast = LinearMatvecArray(n, engine="fast").run(problems)
            expected = [a @ x for a, x in problems]
            reports = [
                LinearMatvecArray(n, engine=engine).verify(problems)
                for engine in ENGINES
            ]
        _assert_same_nonfinite_wake(fast.outputs, reference.outputs)
        assert fast.active_cell_cycles == reference.active_cell_cycles == batches * n**2
        assert np.array_equal(fast.outputs[0][4], expected[0][4], equal_nan=True)
        for got, want in zip(fast.outputs[1:], expected[1:]):
            assert np.allclose(got, want)
        self._assert_report(reports, poison)

    @staticmethod
    def _assert_report(reports, poison):
        """A NaN output fails loudly; an infinity that numpy also gets matches.

        numpy's own product carries the poisoned row to the same signed
        infinity, so the run agrees with its specification exactly and the
        report must say so rather than call ``inf - inf`` an infinite error.
        """
        for report in reports:
            if np.isnan(poison):
                assert not report.ok
                assert report.max_abs_error == np.inf
                assert report.mismatched_batches == (0,)
            else:
                assert report.ok
                assert report.max_abs_error < 1e-9


class TestClosedFormCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("batches", [1, 2, 4])
    def test_mesh_counts(self, n, batches, rng):
        problems = [
            (rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            for _ in range(batches)
        ]
        for engine in ENGINES:
            result = OutputStationaryMatmulArray(n, engine=engine).run(problems)
            assert result.cycles == batches * n + 2 * (n - 1)
            assert result.active_cell_cycles == batches * n**3

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    @pytest.mark.parametrize("batches", [1, 2, 4])
    def test_matvec_counts(self, n, batches, rng):
        problems = [
            (rng.standard_normal((n, n)), rng.standard_normal(n)) for _ in range(batches)
        ]
        for engine in ENGINES:
            result = LinearMatvecArray(n, engine=engine).run(problems)
            assert result.cycles == batches * n + n
            assert result.active_cell_cycles == batches * n**2

    def test_order_24_mesh_spot_check(self, rng):
        n = 24
        problems = [
            (rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            for _ in range(2)
        ]
        reference = OutputStationaryMatmulArray(n, engine="reference").run(problems)
        fast = OutputStationaryMatmulArray(n, engine="fast").run(problems)
        assert fast.cycles == reference.cycles
        assert fast.active_cell_cycles == reference.active_cell_cycles
        assert _bitwise_equal(fast.outputs, reference.outputs)

    def test_length_64_matvec_spot_check(self, rng):
        n = 64
        problems = [(rng.standard_normal((n, n)), rng.standard_normal(n)) for _ in range(3)]
        reference = LinearMatvecArray(n, engine="reference").run(problems)
        fast = LinearMatvecArray(n, engine="fast").run(problems)
        assert fast.cycles == reference.cycles
        assert fast.active_cell_cycles == reference.active_cell_cycles
        assert _bitwise_equal(fast.outputs, reference.outputs)


class TestQRStrictLowerTriangle:
    """The mask-free band writes below the diagonal; the result must not show it."""

    @staticmethod
    def _assert_positive_zero_below_diagonal(a: np.ndarray, n: int):
        with np.errstate(invalid="ignore", over="ignore"):
            results = [
                GentlemanKungTriangularArray(n, engine=engine).run(a) for engine in ENGINES
            ]
        for result in results:
            lower = result.r_factor[np.tril_indices(n, -1)]
            assert np.all(lower == 0.0)
            assert not np.any(np.signbit(lower))

    def test_tall_input(self, rng):
        self._assert_positive_zero_below_diagonal(rng.standard_normal((30, 7)), 7)

    def test_one_row_input(self, rng):
        self._assert_positive_zero_below_diagonal(rng.standard_normal((1, 6)), 6)

    def test_all_zero_columns(self, rng):
        a = rng.standard_normal((12, 6))
        a[:, [0, 3]] = 0.0
        self._assert_positive_zero_below_diagonal(a, 6)

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input(self, poison, rng):
        a = rng.standard_normal((9, 6))
        a[3, 2] = poison
        self._assert_positive_zero_below_diagonal(a, 6)


def test_matching_infinities_deviate_by_zero():
    from repro.arrays.wavefront import max_abs_deviation

    got = np.array([np.inf, -np.inf, 1.0])
    assert max_abs_deviation(got, got.copy()) == 0.0
    assert max_abs_deviation(got, np.array([-np.inf, -np.inf, 1.0])) == np.inf
