"""Grid construction: node placement, quadrature mass, snapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from relbayes.grids import (ParameterGrid, box_nodes, build_grid,
                            midpoint_nodes, toy_grid)

# symmetric about 0 and wide enough to hold nearly all of each prior's mass
BOX = [[-10.0, 10.0]]


class TestMidpointNodes:
    def test_unit_interval_two_cells(self):
        assert_allclose(midpoint_nodes(0.0, 1.0, 2), [0.25, 0.75])

    def test_single_cell_is_center(self):
        assert_allclose(midpoint_nodes(-3.0, 5.0, 1), [1.0])

    @given(st.integers(min_value=1, max_value=60),
           st.floats(min_value=-50, max_value=50),
           st.floats(min_value=0.1, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_nodes_tile_the_interval(self, count, low, width):
        """Midpoints are evenly spaced, symmetric in [low, high], and the
        first and last sit half a cell inside the endpoints."""
        high = low + width
        nodes = midpoint_nodes(low, high, count)
        h = width / count
        assert nodes.size == count
        assert_allclose(nodes[0] - low, h / 2, rtol=1e-9, atol=1e-12)
        assert_allclose(high - nodes[-1], h / 2, rtol=1e-9, atol=1e-12)
        if count > 1:
            assert_allclose(np.diff(nodes), h, rtol=1e-9, atol=1e-12)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            midpoint_nodes(0.0, 1.0, 0)


class TestBoxNodes:
    def test_one_dimensional_box_keeps_column_shape(self):
        nodes = box_nodes(np.array([[0.0, 1.0]]), 4)
        assert nodes.shape == (4, 1)

    def test_two_dimensional_box_is_cartesian_product(self):
        nodes = box_nodes(np.array([[0.0, 1.0], [10.0, 12.0]]), 2)
        assert nodes.shape == (4, 2)
        assert_allclose(nodes, [[0.25, 10.5], [0.25, 11.5],
                                [0.75, 10.5], [0.75, 11.5]])


class TestParameterGrid:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sums to"):
            ParameterGrid(np.zeros((2, 1)), np.zeros((1, 1)),
                          np.array([0.5, 0.4]), np.array([1.0]))

    def test_mass_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="negative"):
            ParameterGrid(np.zeros((2, 1)), np.zeros((1, 1)),
                          np.array([1.5, -0.5]), np.array([1.0]))

    def test_nan_mass_rejected(self):
        """A NaN fails both the sign test and the sum test when they are
        written as plain comparisons; the sum check rejects it."""
        for mass in ([float("nan"), 1.0], [float("nan"), 0.5, 0.5]):
            with pytest.raises(ValueError, match="theta_prior_mass sums to"):
                ParameterGrid(np.zeros((len(mass), 1)), np.zeros((1, 1)),
                              np.array(mass), np.array([1.0]))
        with pytest.raises(ValueError, match="theta_prior_mass sums to"):
            toy_grid(2, 2, theta_prior=[float("nan"), 1.0])

    def test_node_and_mass_counts_must_agree(self):
        with pytest.raises(ValueError, match="nodes but"):
            ParameterGrid(np.zeros((3, 1)), np.zeros((1, 1)),
                          np.array([0.5, 0.5]), np.array([1.0]))

    def test_log_prior_handles_zero_mass(self):
        grid = ParameterGrid(np.zeros((2, 1)), np.zeros((1, 1)),
                             np.array([1.0, 0.0]), np.array([1.0]))
        lp = grid.log_theta_prior()
        assert lp[0] == 0.0
        assert lp[1] == -np.inf

    def test_nearest_theta_reports_index_and_distance(self):
        grid = ParameterGrid(np.array([[-1.0], [0.0], [2.0]]), np.zeros((1, 1)),
                             np.full(3, 1 / 3), np.array([1.0]))
        idx, dist = grid.nearest_theta(1.9)
        assert idx == 2
        assert_allclose(dist, 0.1, atol=1e-12)
        idx, dist = grid.nearest_theta(-1.0)
        assert idx == 0
        assert dist == 0.0

    def test_nearest_theta_rejects_a_value_past_half_a_cell(self):
        """Nodes 0, 1, 2: half a cell is 0.5, so -0.5 and 2.5 snap to the
        edge nodes and anything further out raises."""
        grid = ParameterGrid(np.array([[0.0], [1.0], [2.0]]), np.zeros((1, 1)),
                             np.full(3, 1 / 3), np.array([1.0]))
        assert grid.nearest_theta(2.5) == (2, 0.5)
        assert grid.nearest_theta(-0.5) == (0, 0.5)
        for value in (np.nextafter(2.5, 3.0), np.nextafter(-0.5, -1.0), 40.0):
            with pytest.raises(ValueError, match="outside the grid span"):
                grid.nearest_theta(value)

    def test_nearest_theta_half_cell_is_per_axis_on_a_product_grid(self):
        """On the 2 x 2 grid {0, 1}^2 each axis has 2 node values, so half a
        cell is 0.5: [0.9, 1.2] snaps to node (1, 1) and [0.9, 1.6] raises."""
        nodes = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        grid = ParameterGrid(nodes, np.zeros((1, 1)), np.full(4, 0.25), np.array([1.0]))
        idx, dist = grid.nearest_theta([0.9, 1.2])
        assert idx == 3
        assert_allclose(dist, np.hypot(0.1, 0.2), rtol=1e-12)
        assert grid.nearest_theta([1.5, -0.5])[0] == 2
        with pytest.raises(ValueError, match="outside the grid span"):
            grid.nearest_theta([0.9, 1.6])

    def test_nearest_theta_checks_every_coordinate(self):
        """The first coordinate lies inside the span, the second over half a
        cell (0.5) below it."""
        nodes = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        grid = ParameterGrid(nodes, np.zeros((1, 1)), np.full(4, 0.25), np.array([1.0]))
        assert grid.nearest_theta([0.9, 1.1])[0] == 3
        with pytest.raises(ValueError, match="outside the grid span"):
            grid.nearest_theta([0.5, -0.6])


class TestBuildGrid:
    def test_normal_grid_on_four_sd_span_is_the_hand_built_grid(self):
        """Over [-4, 4] with the N(0, 1) log-density at 101 nodes, the grid
        is bit for bit the one the linear sweep built by hand before it
        called build_grid: midpoint nodes, the same exp-normalised mass on
        both axes."""
        nodes = midpoint_nodes(-4.0, 4.0, 101)[:, None]
        logs = -0.5 * nodes[:, 0] ** 2
        mass = np.exp(logs - logs.max())
        mass /= mass.sum()
        grid = build_grid([[-4, 4]], [[-4, 4]], lambda t: -0.5 * t[:, 0] ** 2,
                          lambda p: -0.5 * p[:, 0] ** 2, 101)
        for got, want in ((grid.theta_nodes, nodes), (grid.psi_nodes, nodes),
                          (grid.theta_prior_mass, mass), (grid.psi_prior_mass, mass)):
            assert_array_equal(got, want)

    def test_quadrature_matches_normal_mass_ratios(self):
        """Renormalized midpoint quadrature preserves density ratios
        exactly, so node masses must match pdf ratios to float precision."""
        grid = build_grid(BOX, BOX, lambda t: stats.norm.logpdf(t[:, 0]),
                          lambda p: stats.norm.logpdf(p[:, 0]), resolution=41)
        assert grid.n_theta == 41
        assert grid.n_psi == 41
        assert_allclose(grid.theta_prior_mass.sum(), 1.0, rtol=0, atol=1e-12)
        pdf = stats.norm.pdf(grid.theta_nodes[:, 0])
        assert_allclose(grid.theta_prior_mass / grid.theta_prior_mass[20],
                        pdf / pdf[20], rtol=1e-10)

    def test_symmetric_prior_gives_symmetric_mass(self):
        grid = build_grid(BOX, BOX, lambda t: -0.5 * t[:, 0] ** 2,
                          lambda p: -abs(p[:, 0]), resolution=21)
        assert_allclose(grid.theta_prior_mass, grid.theta_prior_mass[::-1],
                        rtol=0, atol=1e-15)
        assert_allclose(grid.psi_prior_mass, grid.psi_prior_mass[::-1],
                        rtol=0, atol=1e-15)

    def test_vanishing_prior_raises(self):
        with pytest.raises(ValueError, match="vanished"):
            build_grid(BOX, BOX, lambda t: np.full(len(t), -np.inf),
                       lambda p: np.zeros(len(p)), resolution=5)

    @pytest.mark.parametrize("per_node", [
        lambda t: stats.norm.logpdf(t[0, 0]),
        lambda t: -0.5 * t[0] ** 2,
        lambda t: -0.5 * t ** 2,
    ], ids=["scalar", "row-0", "column"])
    def test_per_node_prior_rejected(self, per_node):
        """A log-pdf maps the whole node array to one value per node; a
        callable written for one node gets the array and returns the wrong
        shape, which names the prior rather than building a wrong grid."""
        flat = lambda nodes: np.zeros(len(nodes))  # noqa: E731
        with pytest.raises(ValueError, match="theta_log_pdf must map the"):
            build_grid(BOX, BOX, per_node, flat, resolution=5)
        with pytest.raises(ValueError, match="psi_log_pdf must map the"):
            build_grid(BOX, BOX, flat, per_node, resolution=5)


class TestToyGrid:
    def test_defaults_are_uniform_index_grids(self):
        grid = toy_grid(3, 4)
        assert_allclose(grid.theta_nodes[:, 0], [0.0, 1.0, 2.0])
        assert_allclose(grid.theta_prior_mass, 1 / 3)
        assert_allclose(grid.psi_prior_mass, 0.25)

    def test_explicit_priors_pass_through(self):
        grid = toy_grid(2, 2, theta_prior=[0.3, 0.7], psi_prior=[0.9, 0.1])
        assert_allclose(grid.theta_prior_mass, [0.3, 0.7])
        assert_allclose(grid.psi_prior_mass, [0.9, 0.1])

    def test_explicit_prior_must_normalize(self):
        with pytest.raises(ValueError):
            toy_grid(2, 2, theta_prior=[0.3, 0.3])
