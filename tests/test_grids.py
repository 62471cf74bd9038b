from __future__ import annotations

import numpy as np
import pytest

from schrobridge import (FieldStack, Grid1D, NormalizationError,
                         NumericDomainError, ScalarField, integrate,
                         normalize, sample_field)
from schrobridge.grids import (gradient_values, interior_max, lattice_index,
                               laplacian_values)


def test_grid_nodes_and_spacing():
    g = Grid1D(-2.0, 2.0, 5)
    assert g.spacing == pytest.approx(1.0)
    np.testing.assert_allclose(g.nodes, [-2.0, -1.0, 0.0, 1.0, 2.0])


def test_grid_weights_are_trapezoid():
    g = Grid1D(0.0, 1.0, 5)
    np.testing.assert_allclose(g.weights, [0.125, 0.25, 0.25, 0.25, 0.125])
    assert np.sum(g.weights) == pytest.approx(g.x_max - g.x_min)


@pytest.mark.parametrize("kwargs, exc", [
    (dict(x_min=1.0, x_max=0.0, n_points=9), ValueError),
    (dict(x_min=0.0, x_max=1.0, n_points=2), ValueError),
    (dict(x_min=0.0, x_max=np.inf, n_points=9), NumericDomainError),
])
def test_grid_rejects_bad_arguments(kwargs, exc):
    with pytest.raises(exc):
        Grid1D(**kwargs)


def test_grid_nodes_are_write_locked():
    g = Grid1D(0.0, 1.0, 9)
    with pytest.raises(ValueError):
        g.nodes[0] = 3.0


def test_integrate_is_exact_for_linear():
    g = Grid1D(-1.0, 3.0, 17)
    f = sample_field(g, lambda x, t: 2.0 * x + 1.0)
    # trapezoid integrates affine functions exactly: int = x^2 + x on [-1, 3]
    assert integrate(f) == pytest.approx(12.0, abs=1e-13)


def test_gradient_exact_for_quadratic():
    g = Grid1D(-2.0, 2.0, 33)
    f = sample_field(g, lambda x, t: 3.0 * x**2 - x + 0.5)
    got = gradient_values(f.values, g.spacing)
    np.testing.assert_allclose(got, 6.0 * g.nodes - 1.0, atol=1e-12)


def test_laplacian_exact_for_cubic_interior():
    g = Grid1D(-2.0, 2.0, 33)
    f = sample_field(g, lambda x, t: x**3)
    got = laplacian_values(f.values, g.spacing)
    np.testing.assert_allclose(got[1:-1], 6.0 * g.nodes[1:-1], atol=1e-11)


def test_gradient_second_order_convergence():
    fn = lambda x, t: np.sin(x)
    errs = []
    for n in (65, 129):
        g = Grid1D(-2.0, 2.0, n)
        err = np.max(np.abs(gradient_values(sample_field(g, fn).values,
                                            g.spacing) - np.cos(g.nodes)))
        errs.append(err)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_normalize_unit_mass_and_guard():
    g = Grid1D(-6.0, 6.0, 257)
    f = sample_field(g, lambda x, t: np.exp(-x * x))
    assert integrate(normalize(f)) == pytest.approx(1.0, abs=1e-14)
    zero = ScalarField(g, np.zeros(g.n_points))
    with pytest.raises(NormalizationError):
        normalize(zero)


def test_scalar_field_validation():
    g = Grid1D(0.0, 1.0, 9)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(5))
    with pytest.raises(NumericDomainError):
        ScalarField(g, np.full(9, np.nan))
    f = ScalarField(g, np.arange(9.0))
    with pytest.raises(ValueError):
        f.values[0] = 7.0


def test_field_stack_sampling_and_slices():
    g = Grid1D(-1.0, 1.0, 11)
    times = np.array([0.0, 0.5, 1.0])
    stack = FieldStack.sample(g, times, lambda x, t: x + t)
    assert stack.values.shape == (3, 11)
    assert stack.slice_index(0.5) == 1
    sl = stack.slice(1.0)
    assert sl.time_label == pytest.approx(1.0)
    np.testing.assert_allclose(sl.values, g.nodes + 1.0)
    with pytest.raises(ValueError):
        stack.slice_index(0.3)


def test_field_stack_rejects_unordered_times():
    g = Grid1D(-1.0, 1.0, 11)
    with pytest.raises(NumericDomainError):
        FieldStack.sample(g, np.array([0.0, 0.5, 0.5]), lambda x, t: x)


def test_field_stack_at_is_exact_for_bilinear():
    g = Grid1D(0.0, 2.0, 21)
    times = np.linspace(0.0, 1.0, 6)
    stack = FieldStack.sample(g, times, lambda x, t: 2.0 * x * t + x - t)
    rng = np.random.default_rng(42)
    xs = rng.uniform(0.0, 2.0, 40)
    for t in (0.1, 0.37, 0.9):
        want = 2.0 * xs * t + xs - t
        np.testing.assert_allclose(stack.at(xs, t), want, atol=1e-12)


def test_field_stack_at_clamps_outside_the_box():
    g = Grid1D(0.0, 1.0, 11)
    stack = FieldStack.sample(g, np.array([0.0, 1.0]), lambda x, t: x)
    assert stack.at(np.array([5.0]), 0.0)[0] == pytest.approx(1.0)
    assert stack.at(np.array([-5.0]), 0.0)[0] == pytest.approx(0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_points", [3, 4, 5, 17, 129, 513, 1025])
@pytest.mark.parametrize("box", [(-10.0, 10.0), (-3.3, 7.1), (0.1, 0.7)])
def test_field_stack_at_equals_the_interp_reference(n_points, box,
                                                    assert_near_interp):
    g = Grid1D(box[0], box[1], n_points)
    rng = np.random.default_rng(n_points)
    times = np.array([0.0, 0.3, 0.35, 1.0])
    vals = rng.normal(size=(times.size, n_points)) * [[1e-3], [1.0], [10.0], [1e3]]
    vals[1, 0] = vals[2, -1] = -0.0
    nodes = g.nodes
    width = box[1] - box[0]
    xs = np.concatenate([
        nodes, np.nextafter(nodes, np.inf), np.nextafter(nodes, -np.inf),
        nodes[:-1] + 0.5 * g.spacing,
        rng.uniform(box[0] - 0.2 * width, box[1] + 0.2 * width, 500),
        [box[0] - 1e9, box[1] + 1e9, -np.inf, np.inf, np.nan, np.nan]])
    stack = FieldStack(g, times, vals)
    for t in (-1.0, 0.0, 0.1, 0.3, 0.3 + 1e-12, 0.32, 0.35, 0.9, 1.0, 2.0):
        assert_near_interp(stack, xs, t, stack.at(xs, t))


@pytest.mark.parametrize("box", [(-10.0, 10.0), (0.1, 0.7), (1e3, 1e3 + 1.0)])
def test_field_stack_at_one_ulp_from_every_node(box, assert_near_interp):
    # A point one ulp below a node belongs to the cell below it; taken into
    # the node's own cell, it would carry that cell's slope times the
    # rounding of x - node, which is far more than a few ulps of the value
    # when |x| is many spacings
    g = Grid1D(box[0], box[1], 1025)
    rng = np.random.default_rng(7)
    times = np.array([0.0, 0.5, 1.0])
    stack = FieldStack(g, times, rng.normal(size=(times.size, g.n_points)))
    xs = np.concatenate([np.nextafter(g.nodes, -np.inf),
                         np.nextafter(g.nodes, np.inf)])
    for t in (0.0, 0.25, 1.0):
        assert_near_interp(stack, xs, t, stack.at(xs, t))


def test_field_stack_at_keeps_the_position_shape(assert_near_interp):
    g = Grid1D(-1.0, 1.0, 11)
    stack = FieldStack.sample(g, np.array([0.0, 1.0]), lambda x, t: x * x + t)
    xs = np.linspace(-1.5, 1.5, 12).reshape(3, 4)
    got = stack.at(xs, 0.25)
    assert got.shape == (3, 4)
    assert_near_interp(stack, xs, 0.25, got)
    assert_near_interp(stack, 0.37, 0.25, stack.at(0.37, 0.25))


def test_lattice_index_tolerates_rounding_and_names_a_missing_time():
    times = np.array([0.0, 0.5, 1.0])
    assert lattice_index(times, 0.5 + 1e-12, "is missing") == 1
    with pytest.raises(ValueError, match="time 0.3 is missing"):
        lattice_index(times, 0.3, "is missing")
    stack = FieldStack.sample(Grid1D(-1.0, 1.0, 11), times, lambda x, t: x)
    with pytest.raises(ValueError, match="time 0.3 is not on the stack lattice"):
        stack.slice_index(0.3)


def test_a_nan_time_is_on_no_lattice():
    times = np.array([0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="time nan is missing"):
        lattice_index(times, np.nan, "is missing")
    stack = FieldStack.sample(Grid1D(-1.0, 1.0, 11), times, lambda x, t: x)
    with pytest.raises(ValueError, match="time nan is not on the stack lattice"):
        stack.slice(np.nan)


def test_interpolating_at_a_nan_time_names_the_time():
    # a NaN time fails both clamp tests; it must not index past the stack
    stack = FieldStack.sample(Grid1D(-1.0, 1.0, 11),
                              np.array([0.0, 0.5, 1.0]), lambda x, t: x)
    with pytest.raises(ValueError, match="time nan is not a number"):
        stack.at(np.zeros(3), np.nan)


def test_interior_max_skips_the_border_and_points_under_the_floor():
    res = np.zeros((4, 5))
    # the first and last slices and the edge nodes never count
    res[0, 2] = res[-1, 2] = res[1, 0] = res[2, -1] = -9.0
    res[1, 1], res[2, 3] = -3.0, 2.0
    assert interior_max(res) == 3.0
    rho = np.ones_like(res)
    rho[1, 1] = 1e-13
    # the -3 sits where rho is under the floor, so only the 2 counts
    assert interior_max(res, rho) == 2.0
    assert interior_max(res, rho, floor=1e-14) == 3.0
    rho[2, 3] = 0.0
    assert interior_max(res, rho) == 0.0
