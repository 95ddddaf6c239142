"""Decay schedule and matrix constructors, including the axial factorization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masa_kit import (ConfigurationError, GridShape, decay_axial_kernels, decay_axial_pair,
                      decay_bidirectional_1d, decay_causal_1d, decay_manhattan_2d,
                      gamma_schedule)


class TestGammaSchedule:
    def test_four_heads_hand_evaluation(self):
        # schedule formula evaluated by hand for range (2, 8): exponents 3.5, 5, 6.5, 8
        gammas = gamma_schedule(2, 8, 4)
        expected = [1 - 2**-3.5, 1 - 2**-5, 1 - 2**-6.5, 1 - 2**-8]
        np.testing.assert_allclose(gammas, expected, rtol=0, atol=1e-15)

    def test_single_head_lands_on_upper_endpoint(self):
        assert gamma_schedule(2, 8, 1) == (0.99609375,)

    def test_last_head_hits_endpoint_exactly(self):
        for lower, upper, n in [(2, 6, 4), (2, 8, 16), (1, 3, 5)]:
            assert gamma_schedule(lower, upper, n)[-1] == 1 - 2.0**-upper

    @settings(max_examples=50, deadline=None)
    @given(lower=st.floats(0.5, 4), spread=st.floats(0.5, 6), n=st.integers(1, 24))
    def test_strictly_increasing_within_open_closed_range(self, lower, spread, n):
        g = np.array(gamma_schedule(lower, lower + spread, n))
        assert (np.diff(g) > 0).all() or n == 1
        assert (g > 1 - 2.0**-lower).all()
        assert (g <= 1 - 2.0 ** -(lower + spread)).all()
        assert ((g > 0) & (g < 1)).all()

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ConfigurationError):
            gamma_schedule(3, 2, 4)
        with pytest.raises(ConfigurationError):
            gamma_schedule(2, 2, 4)
        with pytest.raises(ConfigurationError):
            gamma_schedule(2, 8, 0)

    @pytest.mark.parametrize("lower,upper,heads,rate", [(2, 60, 4, "1.0"), (1e-18, 2e-18, 1, "0.0")])
    def test_rates_that_round_to_zero_or_one_rejected(self, lower, upper, heads, rate):
        # 1 - 2**-60 rounds to 1, and 1 - 2**-2e-18 to 0, in float64
        with pytest.raises(ConfigurationError, match=f"lower={lower}, upper={upper} .*got {rate}$"):
            gamma_schedule(lower, upper, heads)


class TestCausal1d:
    def test_length_one(self):
        np.testing.assert_array_equal(decay_causal_1d(1, 0.5).data, [[1.0]])

    def test_direct_formula_length_three(self):
        expected = [[1, 0, 0], [0.5, 1, 0], [0.25, 0.5, 1]]
        np.testing.assert_allclose(decay_causal_1d(3, 0.5).data, expected, atol=1e-15)

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.99])
    def test_future_entries_are_masked(self, gamma):
        d = decay_causal_1d(2, gamma).data
        assert d[0, 1] == 0.0

    def test_gamma_out_of_range_rejected(self):
        for gamma in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError):
                decay_causal_1d(3, gamma)


class TestBidirectional1d:
    def test_direct_formula_length_three(self):
        expected = [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]]
        np.testing.assert_allclose(decay_bidirectional_1d(3, 0.5).data, expected, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(length=st.integers(1, 20), gamma=st.floats(0.05, 0.99))
    def test_symmetric_with_unit_diagonal(self, length, gamma):
        d = decay_bidirectional_1d(length, gamma).data
        np.testing.assert_array_equal(d, d.T)
        np.testing.assert_array_equal(np.diag(d), np.ones(length))

    @pytest.mark.parametrize("gamma", [0.3, 0.7])
    def test_lower_triangle_matches_causal(self, gamma):
        bi = decay_bidirectional_1d(6, gamma).data
        causal = decay_causal_1d(6, gamma).data
        np.testing.assert_array_equal(np.tril(bi), causal)


class TestManhattan2d:
    def test_single_token(self):
        np.testing.assert_array_equal(decay_manhattan_2d(GridShape(1, 1), 0.5).data, [[1.0]])

    def test_two_by_two_direct_formula(self):
        expected = [[1, 0.5, 0.5, 0.25],
                    [0.5, 1, 0.25, 0.5],
                    [0.5, 0.25, 1, 0.5],
                    [0.25, 0.5, 0.5, 1]]
        np.testing.assert_allclose(decay_manhattan_2d(GridShape(2, 2), 0.5).data, expected,
                                   atol=1e-15)

    def test_distance_five_entry_on_3x4_grid(self):
        grid = GridShape(3, 4)
        d = decay_manhattan_2d(grid, 0.9).data
        origin = 0                      # (x, y) = (0, 0)
        far = 2 * grid.width + 3        # (x, y) = (3, 2)
        assert grid.coords(far) == (3, 2)
        assert np.isclose(d[origin, far], 0.9**5, atol=1e-15)

    def test_flat_index_map_is_row_major_bijection(self):
        grid = GridShape(3, 5)
        seen = {grid.coords(n) for n in range(grid.size)}
        assert len(seen) == grid.size
        assert grid.coords(0) == (0, 0)
        assert grid.coords(grid.width) == (0, 1)

    def test_entries_depend_only_on_coordinate_deltas(self):
        grid = GridShape(5, 7)
        d = decay_manhattan_2d(grid, 0.8).data
        # translate an interior pair by (+1, +1) without wrap-around
        n, m = 1 * grid.width + 1, 2 * grid.width + 3
        n2, m2 = n + grid.width + 1, m + grid.width + 1
        assert d[n, m] == d[n2, m2]

    def test_strictly_decreasing_with_distance(self):
        grid = GridShape(4, 4)
        d = decay_manhattan_2d(grid, 0.7).data
        x = np.arange(grid.size) % grid.width
        y = np.arange(grid.size) // grid.width
        dist = np.abs(x[:, None] - x[None, :]) + np.abs(y[:, None] - y[None, :])
        by_distance = {}
        for n in range(grid.size):
            for m in range(grid.size):
                by_distance.setdefault(dist[n, m], set()).add(d[n, m])
        levels = sorted(by_distance)
        values = [by_distance[k] for k in levels]
        assert all(len(v) == 1 for v in values)  # one weight per distance
        flattened = [next(iter(v)) for v in values]
        assert all(a > b for a, b in zip(flattened, flattened[1:]))


class TestAxialPair:
    def test_two_by_three_direct_formula(self):
        d_h, d_w = decay_axial_pair(GridShape(2, 3), 0.5)
        np.testing.assert_allclose(d_h.data, [[1, 0.5], [0.5, 1]], atol=1e-15)
        np.testing.assert_allclose(
            d_w.data, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]], atol=1e-15)

    def test_a_tuple_of_rates_refused(self):
        # per-head decay is stacked only by decay_axial_kernels
        with pytest.raises(ConfigurationError, match=r"decay rate must be a real number, got \(0.3, 0.5\)"):
            decay_axial_pair(GridShape(2, 3), (0.3, 0.5))

    def test_an_empty_tuple_of_rates_rejected(self):
        with pytest.raises(ConfigurationError, match="rate"):
            decay_axial_pair(GridShape(2, 3), ())

    def test_strip_height_factor_is_scalar_one(self):
        d_h, _ = decay_axial_pair(GridShape(1, 9), 0.3)
        np.testing.assert_array_equal(d_h.data, [[1.0]])

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("height", range(1, 9))
    @pytest.mark.parametrize("width", range(1, 9))
    def test_kronecker_factorization_reproduces_manhattan(self, height, width, gamma):
        grid = GridShape(height, width)
        d_h, d_w = decay_axial_pair(grid, gamma)
        full = decay_manhattan_2d(grid, gamma)
        assert np.max(np.abs(np.kron(d_h.data, d_w.data) - full.data)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(height=st.integers(1, 8), width=st.integers(1, 8), gamma=st.floats(0.05, 0.99))
    def test_factorization_holds_for_arbitrary_rates(self, height, width, gamma):
        grid = GridShape(height, width)
        d_h, d_w = decay_axial_pair(grid, gamma)
        full = decay_manhattan_2d(grid, gamma)
        assert np.max(np.abs(np.kron(d_h.data, d_w.data) - full.data)) < 1e-12


class TestAxialKernels:
    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("height,width", [(1, 1), (1, 6), (3, 5), (7, 2)])
    def test_kernels_are_the_centre_profile_of_the_1d_matrices(self, height, width, gamma):
        # D[n-1, j] for j < n, then D[0, j-n+1]: the last row's left half and the first row's right half
        for n, kernel in zip((height, width), decay_axial_kernels(GridShape(height, width), gamma)):
            d = decay_bidirectional_1d(n, gamma).data
            np.testing.assert_array_equal(kernel, np.concatenate([d[n - 1, :n], d[0, 1:]]))

    def test_a_tuple_of_rates_stacks_the_single_rate_kernels(self):
        grid, gammas = GridShape(2, 3), (0.3, 0.5, 0.9)
        stacked = decay_axial_kernels(grid, gammas)
        for i, length in enumerate((3, 5)):
            assert stacked[i].shape == (3, length)
            np.testing.assert_array_equal(
                stacked[i], np.stack([decay_axial_kernels(grid, g)[i] for g in gammas]))

    @pytest.mark.parametrize("grid", [GridShape(3, 5), GridShape(1, 5), GridShape(1, 3)],
                             ids=["3x5", "row-pass-1x5", "column-pass-1x3"])
    def test_per_head_kernels_index_to_each_heads_manhattan_decay(self, grid):
        # D[n, m] = a[y_m - y_n + H - 1] * b[x_m - x_n + W - 1], head by head
        rates = gamma_schedule(2, 8, 3)
        a, b = decay_axial_kernels(grid, rates)
        x, y = grid.coords(np.arange(grid.size))
        decay = (a[:, y[None, :] - y[:, None] + grid.height - 1]
                 * b[:, x[None, :] - x[:, None] + grid.width - 1])
        for head, rate in enumerate(rates):
            np.testing.assert_allclose(decay[head], decay_manhattan_2d(grid, rate).data, rtol=1e-15)

    @pytest.mark.parametrize("gamma,fragment", [
        (1.5, r"decay rate must lie strictly inside \(0, 1\), got 1.5$"),
        (0.0, r"decay rate must lie strictly inside \(0, 1\), got 0.0$"),
        ("a", "decay rate must be a real number, got 'a'$"),
        ((0.5, 1.0), r"decay rate of head 1 must lie strictly inside \(0, 1\), got 1.0$"),
        ((None,), "decay rate of head 0 must be a real number, got None$"),
        ((), "a tuple of decay rates needs at least one rate$"),
    ], ids=["above-one", "zero", "string", "head-at-one", "none-rate", "empty-tuple"])
    def test_bad_rates_rejected(self, gamma, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            decay_axial_kernels(GridShape(2, 3), gamma)


def test_grid_shape_rejects_empty_sides():
    with pytest.raises(ConfigurationError):
        GridShape(0, 4)


@pytest.mark.parametrize("height,width,bad", [(2.5, 2, "height .* got 2.5"), ("a", 2, "height .* got 'a'"),
                                              (None, 2, "height .* got None"), (True, 2, "height .* got True"),
                                              (2, 0, "width .* got 0"), (2, 2.0, "width .* got 2.0")])
def test_grid_shape_rejects_sides_that_are_not_counts(height, width, bad):
    with pytest.raises(ConfigurationError, match=f"grid {bad}$"):
        GridShape(height, width)


def test_grid_shape_takes_numpy_integers_as_ints():
    grid = GridShape(np.int64(3), np.int32(2))
    assert (grid.height, grid.width, grid.size) == (3, 2, 6)
    assert type(grid.height) is int and type(grid.width) is int
