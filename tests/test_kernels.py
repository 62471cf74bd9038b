from __future__ import annotations

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from schrobridge import (ExtrapolationWarning, GaussianKernel, Grid1D,
                         KernelMatrix, NumericFeynmanKacKernel,
                         PositivityError, Potential, TimeOrderingError,
                         check_chapman_kolmogorov, cli, extract_forward_drift,
                         generalized_heat_residual, make_kernel,
                         pinned_coefficient, pinned_coefficient_dt,
                         propagate_factors, short_time_moments,
                         solve_boundary_system)
from schrobridge.gallery import HORIZON, packet_boundary
from schrobridge.kernels import ENTRY_FLOOR
from schrobridge.packet import PACKET

TAGS = ("heat", "example1", "quantum-k1", "pinned-example2", "quantum-k2")


def _heat_kernel_exact(y, s, x, t, nu=1.0):
    var = 2.0 * nu * (t - s)
    return np.exp(-((x - y) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


@pytest.mark.parametrize("tag", TAGS)
def test_registry_round_trip(tag):
    k = make_kernel(tag)
    assert k.tag == tag
    assert float(k.evaluate(0.1, 0.0, 0.2, 0.5)) > 0.0


def test_registry_rejects_unknown_tag():
    with pytest.raises(ValueError):
        make_kernel("no-such-kernel")


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("s, t", [(0.5, 0.5), (0.7, 0.2), (-0.1, 0.5),
                                  (np.nan, 0.5), (0.0, np.nan), (0.0, np.inf)])
def test_time_ordering_guard(tag, s, t):
    with pytest.raises(TimeOrderingError):
        make_kernel(tag).evaluate(0.0, s, 0.0, t)
    with pytest.raises(TimeOrderingError):
        KernelMatrix.from_kernel(make_kernel(tag), Grid1D(-1.0, 1.0, 9), s, t)


@pytest.mark.parametrize("s, t", [(np.nan, 0.5), (0.2, np.nan), (0.2, np.inf),
                                  (0.05, 0.5), (0.5, 0.5)])
def test_markov_family_times_start_at_the_anchor_and_are_finite(s, t):
    fam = make_kernel("markov-family", anchor_y=1.0, anchor_s=0.1)
    with pytest.raises(TimeOrderingError):
        fam.evaluate(0.0, s, 0.0, t)
    with pytest.raises(TimeOrderingError):
        KernelMatrix.from_kernel(fam, Grid1D(-1.0, 1.0, 9), s, t)


@pytest.mark.parametrize("tag, params, name", [
    ("heat", {"nu": np.inf}, "nu"), ("heat", {"nu": np.nan}, "nu"),
    ("heat", {"nu": -1.0}, "nu"),
    ("markov-family", {"anchor_y": np.inf, "anchor_s": 0.0}, "anchor_y"),
    ("markov-family", {"anchor_y": np.nan, "anchor_s": 0.0}, "anchor_y"),
    ("markov-family", {"anchor_y": 0.0, "anchor_s": np.nan}, "anchor_s"),
    ("markov-family", {"anchor_y": 0.0, "anchor_s": np.inf}, "anchor_s"),
])
def test_non_finite_kernel_parameters_are_refused_by_name(tag, params, name):
    with pytest.raises(ValueError, match=name):
        make_kernel(tag, **params)


@pytest.mark.parametrize("tag, params", [
    ("heat", {"anchor_y": 0.0}), ("example1", {"nu": 1.0}),
    ("quantum-k2", {"nu": 1.0}), ("markov-family", {"nu": 1.0}),
    ("markov-family", {"anchor_y": 0.0, "anchor_s": 0.0, "nu": 1.0}),
])
def test_registry_accepts_only_each_tags_own_parameters(tag, params):
    with pytest.raises(TypeError):
        make_kernel(tag, **params)


def test_heat_kernel_matches_closed_form():
    k = make_kernel("heat", nu=0.7)
    xs = np.linspace(-3.0, 3.0, 41)
    np.testing.assert_allclose(k.evaluate(0.25, 0.1, xs, 0.9),
                               _heat_kernel_exact(0.25, 0.1, xs, 0.9, nu=0.7),
                               rtol=1e-14)


def test_example1_kernel_uses_squared_time_clock():
    k = make_kernel("example1")
    xs = np.linspace(-3.0, 3.0, 41)
    # variance t^2 - s^2 instead of 2 nu (t - s)
    var = 0.8 ** 2 - 0.2 ** 2
    want = np.exp(-(xs - 0.5) ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)
    np.testing.assert_allclose(k.evaluate(0.5, 0.2, xs, 0.8), want, rtol=1e-14)
    assert float(k.evaluate(0.0, 0.0, 0.0, 1.0)) == pytest.approx(
        1.0 / np.sqrt(2.0 * np.pi), abs=1e-15)


def test_tilted_kernel_propagates_the_factors():
    k1 = make_kernel("quantum-k1")
    grid = Grid1D(-12.0, 12.0, 513)
    mat = KernelMatrix.from_kernel(k1, grid, 0.25, 0.75)
    pulled = mat.apply_target(PACKET.factor_v(grid.nodes, 0.75))
    ref = PACKET.factor_v(grid.nodes, 0.25)
    inner = np.abs(grid.nodes) <= 8.0
    assert np.max(np.abs(pulled - ref)[inner]) / np.max(ref) < 1e-8
    pushed = mat.apply_source(PACKET.factor_u(grid.nodes, 0.25))
    ref_t = PACKET.factor_u(grid.nodes, 0.75)
    assert np.max(np.abs(pushed - ref_t)) / np.max(ref_t) < 1e-8


def test_pinned_coefficient_values():
    c = pinned_coefficient
    assert c(0.5, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert c(1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    for s in (0.0, 0.3, 0.8):
        assert c(s, s) == pytest.approx(1.0, abs=1e-14)
    assert c(1.0, 0.5) == pytest.approx(np.sqrt(0.8), abs=1e-14)


def test_pinned_coefficient_derivative_matches_finite_difference():
    h = 1e-6
    for t, s in ((0.4, 0.1), (0.9, 0.25), (0.6, 0.0)):
        fd = (pinned_coefficient(t + h, s)
              - pinned_coefficient(t - h, s)) / (2 * h)
        assert pinned_coefficient_dt(t, s) == pytest.approx(
            fd, abs=1e-8)


def _gauss(x, mean, var):
    return np.exp(-(x - mean) ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)


def test_pinned_composition_against_the_analytic_oracle():
    """Composing (0 -> 0.5 -> 1) analytically gives a Gaussian with mean
    c(1, 0.5) c(0.5, 0) y and variance 1.8, while the direct kernel has
    mean 0 and variance 2.  The quadrature composition must reproduce
    the analytic one, and the probe must land on the analytic gap."""
    c_mid = pinned_coefficient(0.5, 0.0)
    c_top = pinned_coefficient(1.0, 0.5)
    grid = Grid1D(-10.0, 10.0, 513)
    pin = make_kernel("pinned-example2")
    m1 = KernelMatrix.from_kernel(pin, grid, 0.0, 0.5)
    m2 = KernelMatrix.from_kernel(pin, grid, 0.5, 1.0)
    composed = (m1.entries * grid.weights[None, :]) @ m2.entries
    for iy in (200, 256, 330):
        y = grid.nodes[iy]
        ana = _gauss(grid.nodes, c_top * c_mid * y, 1.0 + c_top**2)
        np.testing.assert_allclose(composed[iy], ana, atol=1e-10)

    ys = np.linspace(-6.0, 6.0, 481)[:, None]
    xs = np.linspace(-6.0, 6.0, 481)[None, :]
    dense_gap = float(np.max(np.abs(
        _gauss(xs, c_top * c_mid * ys, 1.0 + c_top**2)
        - _gauss(xs, 0.0 * ys, 2.0))))
    measured = check_chapman_kolmogorov(pin, 0.0, 0.5, 1.0, grid)
    assert measured > 0.01
    assert measured == pytest.approx(dense_gap, abs=0.02)


def test_tilted_pinned_kernel_inherits_the_violation():
    # reweighting by the factors cannot repair the composition defect
    assert check_chapman_kolmogorov(make_kernel("quantum-k2"), 0.0, 0.5, 1.0) > 0.01


@pytest.mark.parametrize("tag", ["heat"])
def test_consistent_kernels_pass_chapman_kolmogorov(tag):
    res = check_chapman_kolmogorov(make_kernel(tag), 0.0, 0.5, 1.0)
    assert res < 1e-6


def test_markov_family_is_consistent_and_anchored():
    fam = make_kernel("markov-family", anchor_y=1.0, anchor_s=0.1)
    assert check_chapman_kolmogorov(fam, 0.25, 0.5, 1.0) < 1e-6
    with pytest.raises(TimeOrderingError):
        fam.evaluate(0.0, 0.05, 0.0, 0.5)
    with pytest.raises(TimeOrderingError):
        make_kernel("markov-family", anchor_y=0.0, anchor_s=-0.2)


def test_kernel_matrix_duality():
    grid = Grid1D(-8.0, 8.0, 257)
    mat = KernelMatrix.from_kernel(make_kernel("heat"), grid, 0.0, 0.5)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(grid.n_points)
    g = rng.standard_normal(grid.n_points)
    left = float(grid.weights @ (f * mat.apply_target(g)))
    right = float((mat.apply_source(f) * g) @ grid.weights)
    assert left == pytest.approx(right, rel=1e-13)


def test_kernel_matrix_row_mass_is_unit_for_heat():
    grid = Grid1D(-10.0, 10.0, 257)
    mat = KernelMatrix.from_kernel(make_kernel("heat"), grid, 0.0, 0.5)
    inner = np.abs(grid.nodes) <= 4.0
    row_mass = mat.apply_target(np.ones(grid.n_points))
    np.testing.assert_allclose(row_mass[inner], 1.0, atol=1e-12)


def test_kernel_matrix_shape_validation():
    grid = Grid1D(0.0, 1.0, 9)
    with pytest.raises(ValueError):
        KernelMatrix(grid=grid, entries=np.ones((3, 3)))
    with pytest.raises(PositivityError):
        KernelMatrix(grid=grid, entries=np.full((9, 9), np.nan))


# ------------------------------------------------------- Gaussian builds

# nodes on these boxes are exact multiples of the spacing, so every
# difference x_j - y_i is exactly (j - i) h
DYADIC_GRIDS = (Grid1D(-10.0, 10.0, 513), Grid1D(-10.0, 10.0, 65),
                Grid1D(-14.0, 14.0, 1025))
ROUNDED_GRIDS = (Grid1D(-10.0, 10.0, 500), Grid1D(-7.3, 9.1, 401),
                 Grid1D(-6.0, 6.0, 401))
# (0, 0.01) is the first slice at the bridge-solve defaults; (0.1, 0.11) is
# a narrow pair whose far corners underflow; the others are wide
REFERENCE_PAIRS = ((0.0, 0.01), (0.1, 0.11), (0.2, 1.0), (0.0, 1.0),
                   (0.5, 0.75), (0.3, 0.8))
MARKOV = {"anchor_y": 0.7, "anchor_s": 0.1}


def _grid_id(grid):
    return f"[{grid.x_min:g},{grid.x_max:g}]x{grid.n_points}"


def _kernel(name):
    if name == "heat-nu0.37":
        return make_kernel("heat", nu=0.37)
    if name == "markov-family":
        # a nonzero anchor gives a mean shift, so the matrix is not symmetric
        return make_kernel(name, **MARKOV)
    return make_kernel(name)


def _pairs(name, pairs=REFERENCE_PAIRS):
    """The pairs, less those that precede the markov family's anchor."""
    if name == "markov-family":
        return tuple((s, t) for s, t in pairs if s >= MARKOV["anchor_s"])
    return pairs


# Each closed form written out as a reference in its own operation order
# (density or log-density form); the spec reproduces them bit for bit,
# except pinned-example2, whose reference is exp of its log-density while
# the untilted spec uses the density form (REFERENCE_PINNED_REL).

def _ref_c(t, s):
    return float(np.sqrt(((1.0 - t) ** 2 + 2.0 * s) / (1.0 + s * s)))


def _ref_clock_density(x, y, var):
    return np.exp(-((x - y) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def _ref_log_clock(x, y, var):
    return -0.5 * np.log(2.0 * np.pi * var) - (x - y) ** 2 / (2.0 * var)


def _ref_log_pinned(y, s, x, t):
    var = 4.0 * (t - s)
    return -0.5 * np.log(np.pi * var) - (x - _ref_c(t, s) * y) ** 2 / var


def _ref_markov(x1, t1, x2, t2):
    y_a, s_a = MARKOV["anchor_y"], MARKOV["anchor_s"]
    shift = (_ref_c(t2, s_a) - _ref_c(t1, s_a)) * y_a
    var = 4.0 * (t2 - t1)
    return np.exp(-((x2 - x1 - shift) ** 2) / var) / np.sqrt(np.pi * var)


def _tilted(log_k, y, s, x, t):
    return np.exp(log_k + PACKET.log_factor_v(y, s) - PACKET.log_factor_v(x, t))


REFERENCE = {
    "heat": _heat_kernel_exact,
    "heat-nu0.37": lambda y, s, x, t: _heat_kernel_exact(y, s, x, t, nu=0.37),
    "example1": lambda y, s, x, t: _ref_clock_density(x, y, t * t - s * s),
    "quantum-k1": lambda y, s, x, t: _tilted(
        _ref_log_clock(x, y, t * t - s * s), y, s, x, t),
    "markov-family": _ref_markov,
    "quantum-k2": lambda y, s, x, t: _tilted(
        _ref_log_pinned(y, s, x, t), y, s, x, t),
    "pinned-example2": lambda y, s, x, t: np.exp(_ref_log_pinned(y, s, x, t)),
}
# the largest relative move of a pinned-example2 entry above ENTRY_FLOOR on
# DYADIC_GRIDS x REFERENCE_PAIRS was 4.96e-14 (|log k| up to ~690 in the
# far corners, each rounding of the exponent moving the entry by ~690 eps)
REFERENCE_PINNED_REL = 6e-14


def _reference(name, grid, s, t):
    y, x = grid.nodes[:, None], grid.nodes[None, :]
    return REFERENCE[name](y, s, x, t)


@pytest.mark.parametrize("grid", DYADIC_GRIDS, ids=_grid_id)
@pytest.mark.parametrize("name", sorted(set(REFERENCE) - {"pinned-example2"}))
def test_gaussian_spec_reproduces_the_closed_forms_bit_for_bit(name, grid):
    # a tilted spec's matrix holds untilted entries; its applications are
    # checked against the closed form below
    kernel = _kernel(name)
    for s, t in _pairs(name):
        want = _reference(name, grid, s, t)
        got = kernel.evaluate(grid.nodes[:, None], s, grid.nodes[None, :], t)
        np.testing.assert_array_equal(got, want)
        if kernel.log_tilt is None:
            np.testing.assert_array_equal(
                KernelMatrix.from_kernel(kernel, grid, s, t).entries,
                np.maximum(want, ENTRY_FLOOR))


def _dense(entries, grid):
    """The floored entries as a directly built (untilted) KernelMatrix."""
    return KernelMatrix(grid=grid, entries=np.maximum(entries, ENTRY_FLOOR))


def _assert_applies_as(mat, ref, grid, bound=1e-13):
    """Both applications of ``mat`` match ``ref``'s to ``bound`` relative
    per node, on a positive test function."""
    g = 1.0 + 0.5 * np.sin(grid.nodes)
    for apply in ("apply_target", "apply_source"):
        got, want = getattr(mat, apply)(g), getattr(ref, apply)(g)
        assert np.max(np.abs(got - want) / want) <= bound


@pytest.mark.parametrize("grid", DYADIC_GRIDS + ROUNDED_GRIDS, ids=_grid_id)
@pytest.mark.parametrize("name", ["quantum-k1", "quantum-k2"])
def test_tilted_builds_apply_the_closed_forms_to_rounding(name, grid):
    kernel = make_kernel(name)
    for s, t in REFERENCE_PAIRS:
        _assert_applies_as(KernelMatrix.from_kernel(kernel, grid, s, t),
                           _dense(_reference(name, grid, s, t), grid), grid)


@pytest.mark.parametrize("grid", DYADIC_GRIDS, ids=_grid_id)
def test_pinned_density_form_stays_within_rounding_of_its_log_form(grid):
    kernel = make_kernel("pinned-example2")
    for s, t in REFERENCE_PAIRS:
        want = np.maximum(_reference("pinned-example2", grid, s, t),
                          ENTRY_FLOOR)
        for got in (kernel.evaluate(grid.nodes[:, None], s,
                                    grid.nodes[None, :], t),
                    KernelMatrix.from_kernel(kernel, grid, s, t).entries):
            got = np.maximum(got, ENTRY_FLOOR)
            above = want > ENTRY_FLOOR
            assert np.array_equal(got > ENTRY_FLOOR, above)
            rel = np.abs(got - want)[above] / want[above]
            assert np.max(rel) <= REFERENCE_PINNED_REL


# the kernels whose square builds sample one row of 2n - 1 offsets
ROW_KERNELS = ("heat", "heat-nu0.37", "example1", "markov-family",
               "quantum-k1")
ROW_PAIRS = ((0.1, 0.11), (0.2, 1.0), (0.0, 0.05))


@pytest.mark.parametrize("grid", DYADIC_GRIDS, ids=_grid_id)
@pytest.mark.parametrize("name", ROW_KERNELS)
def test_offset_row_build_is_bit_equal_on_dyadic_grids(name, grid,
                                                       dense_reference):
    kernel = _kernel(name)
    for s, t in _pairs(name, ROW_PAIRS):
        got = KernelMatrix.from_kernel(kernel, grid, s, t).entries
        np.testing.assert_array_equal(got, dense_reference(kernel, grid, s, t))


@pytest.mark.parametrize("grid", ROUNDED_GRIDS, ids=_grid_id)
@pytest.mark.parametrize("name", ROW_KERNELS)
def test_offset_row_build_matches_dense_to_rounding(name, grid,
                                                    dense_reference):
    kernel = _kernel(name)
    y, x = grid.nodes[:, None], grid.nodes[None, :]
    for s, t in _pairs(name, ROW_PAIRS):
        mat = KernelMatrix.from_kernel(kernel, grid, s, t)
        ref = dense_reference(kernel, grid, s, t)
        above = ref > ENTRY_FLOOR
        rel = np.abs(mat.entries - ref)[above] / ref[above]
        assert np.max(rel) <= 1e-11
        _assert_applies_as(mat, _dense(kernel.evaluate(y, s, x, t), grid),
                           grid)


def _recording(kernel, shapes):
    """The spec with its tilt wrapped to record the shape of each call."""
    if kernel.log_tilt is None:
        return kernel

    def log_tilt(x, t):
        shapes.append(("tilt", np.shape(x)))
        return kernel.log_tilt(x, t)
    return replace(kernel, log_tilt=log_tilt)


@pytest.fixture
def core_shapes(monkeypatch):
    """Records the broadcast shape of every Gaussian core computed."""
    shapes = []
    core = GaussianKernel.core

    def recording(self, y, s, x, t):
        shapes.append(("core", np.broadcast(y, x).shape))
        return core(self, y, s, x, t)
    monkeypatch.setattr(GaussianKernel, "core", recording)
    return shapes


def test_these_tags_build_from_one_offset_row(core_shapes):
    grid = Grid1D(-10.0, 10.0, 65)
    built = {}
    for name in ("heat", "example1", "quantum-k1", "markov-family",
                 "pinned-example2", "quantum-k2"):
        core_shapes.clear()
        kernel = _recording(_kernel(name), core_shapes)
        KernelMatrix.from_kernel(kernel, grid, 0.2, 0.5)
        built[name] = list(core_shapes)
    tilts = [("tilt", (65,)), ("tilt", (65,))]
    assert built == {
        "heat": [("core", (129,))], "example1": [("core", (129,))],
        "markov-family": [("core", (129,))],
        "quantum-k1": [("core", (129,))] + tilts,
        "pinned-example2": [("core", (65, 65))],
        "quantum-k2": [("core", (65, 65))] + tilts}


@pytest.mark.parametrize("case", ["pinned-example2", "quantum-k2"])
def test_kernels_with_a_mean_coefficient_keep_the_dense_build(case,
                                                              dense_reference):
    grid, kernel = Grid1D(-10.0, 10.0, 129), make_kernel(case)
    for s, t in ROW_PAIRS:
        got = KernelMatrix.from_kernel(kernel, grid, s, t)
        np.testing.assert_array_equal(got.entries,
                                      dense_reference(kernel, grid, s, t))


@pytest.mark.parametrize("name", ["heat", "quantum-k1", "pinned-example2",
                                  "quantum-k2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1e-6])
def test_gaussian_builds_refuse_a_bad_variance(name, bad):
    kernel = replace(make_kernel(name), var=lambda s, t: bad)
    with np.errstate(all="ignore"), pytest.raises(PositivityError,
                                                  match="variance"):
        KernelMatrix.from_kernel(kernel, Grid1D(-10.0, 10.0, 65), 0.0, 0.5)


def _build_or_refusal(kernel, grid, s, t):
    """The built matrix's entries, or the message of its refusal."""
    try:
        with np.errstate(all="ignore"):
            return KernelMatrix.from_kernel(kernel, grid, s, t).entries
    except PositivityError as err:
        return str(err)


@pytest.mark.parametrize("name, t", [("quantum-k1", 1e-160),
                                     ("quantum-k2", 5e-321)])
@pytest.mark.parametrize("bad_var", [False, True])
def test_a_tilted_spec_is_refused_or_accepted_as_its_untilted_spec(
        name, t, bad_var):
    # var = 1e-320 passes the variance check; the untilted density core
    # alone decides, so the tilt neither refuses nor rescues the build
    kernel = make_kernel(name)
    assert 0.0 < kernel.var(0.0, t) < 1e-300
    if bad_var:
        kernel = replace(kernel, var=lambda s, t: -1.0)
    grid = Grid1D(-10.0, 10.0, 65)
    got = _build_or_refusal(kernel, grid, 0.0, t)
    want = _build_or_refusal(replace(kernel, log_tilt=None), grid, 0.0, t)
    assert isinstance(got, str) == bad_var
    np.testing.assert_array_equal(got, want)


@pytest.fixture
def spoil_core(monkeypatch):
    """Makes every Gaussian core hold one bad value at its first sample:
    the offset x_0 - x_{n-1} of a row, entry (0, 0) of an n^2 core."""
    core = GaussianKernel.core

    def spoil(bad):
        def spoilt(self, y, s, x, t):
            out = core(self, y, s, x, t)
            out.flat[0] = bad
            return out
        monkeypatch.setattr(GaussianKernel, "core", spoilt)
    return spoil


# heat and quantum-k1 build from an offset row, the pinned pair from n^2
# pairs
@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in ("heat", "quantum-k1", "pinned-example2",
                             "quantum-k2")
    for bad in (np.nan, np.inf, -np.inf)])
def test_gaussian_builds_keep_the_positivity_guard(name, bad, spoil_core):
    spoil_core(bad)
    with np.errstate(all="ignore"), pytest.raises(PositivityError):
        KernelMatrix.from_kernel(make_kernel(name), Grid1D(-10.0, 10.0, 65),
                                 0.2, 0.7)


def _spoilt_tilt(kernel, piece, bad, s):
    """The spec with one bad log value at node 3 of its tilt at time s
    (piece "tilt-s") or at time t ("tilt-t")."""
    def log_tilt(x, t):
        out = kernel.log_tilt(x, t)
        if piece == ("tilt-s" if t == s else "tilt-t"):
            out.flat[3] = bad
        return out
    return replace(kernel, log_tilt=log_tilt)


@pytest.mark.parametrize("name", ["quantum-k1", "quantum-k2"])
@pytest.mark.parametrize("piece, bad", [
    ("tilt-s", np.nan), ("tilt-s", np.inf), ("tilt-s", -np.inf),
    ("tilt-t", np.nan), ("tilt-t", np.inf), ("tilt-t", -np.inf),
    # finite log values whose exp overflows, added at s or subtracted at t
    ("tilt-s", 800.0), ("tilt-t", -800.0),
])
def test_tilted_builds_refuse_non_finite_entries(name, piece, bad):
    grid = Grid1D(-10.0, 10.0, 65)
    kernel = _spoilt_tilt(make_kernel(name), piece, bad, 0.2)
    with np.errstate(all="ignore"), pytest.raises(PositivityError):
        KernelMatrix.from_kernel(kernel, grid, 0.2, 0.7)


@pytest.mark.parametrize("name", ["heat", "quantum-k1", "pinned-example2",
                                  "quantum-k2"])
def test_gaussian_builds_floor_underflowing_corners(name):
    grid = Grid1D(-10.0, 10.0, 65)
    e = KernelMatrix.from_kernel(make_kernel(name), grid, 0.1, 0.11).entries
    assert e[-1, 0] == ENTRY_FLOOR
    assert np.all(e > 0.0)


def test_offset_row_build_returns_an_owned_contiguous_matrix():
    grid = Grid1D(-10.0, 10.0, 65)
    e = KernelMatrix.from_kernel(_kernel("markov-family"), grid,
                                 0.2, 0.6).entries
    assert e.flags.c_contiguous and e.flags.owndata and e.base is None
    before = e[1, 1]
    e[0, 0] = 7.0
    assert e[1, 1] == before


def _digest(entries):
    """A digest of the entries' bytes, read in place (no n^2 copy)."""
    return hashlib.sha256(entries).hexdigest()


@pytest.fixture
def built_specs(monkeypatch):
    """Every ``KernelMatrix.from_kernel`` build, in order: its spec, times,
    entries digest and log-tilts, with no matrix kept alive."""
    built = []
    build = KernelMatrix.from_kernel

    def recording(cls, kernel, grid, s, t):
        mat = build(kernel, grid, s, t)
        built.append((kernel, s, t, _digest(mat.entries), mat.log_tilt))
        return mat

    monkeypatch.setattr(KernelMatrix, "from_kernel", classmethod(recording))
    return built


@pytest.mark.parametrize("tag", ("heat", "quantum-k1", "quantum-k2"))
def test_a_sweep_holds_one_per_pair_matrix_at_a_time(tag, built_specs):
    grid, times = Grid1D(-10.0, 10.0, 257), np.linspace(0.0, 1.0, 11)
    kernel = make_kernel(tag)
    propagator = kernel.propagator(grid, times)
    u0, vT = PACKET.factor_u(grid.nodes, 0.0), PACKET.factor_v(grid.nodes, 1.0)
    matrix_bytes = grid.n_points ** 2 * 8
    stack_bytes = times.size * grid.n_points * 8
    tracemalloc.start()
    try:
        propagator.sweep(u0, vT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one matrix and its row-sized temporaries; holding the previous
    # matrix while the next is built would peak near two
    assert peak < 1.5 * matrix_bytes + 2 * stack_bytes
    # one build per (t_0, t_k) and per (t_k, t_N) pair, each holding the
    # untilted spec's entries and the tilt at its two times
    built = list(built_specs)
    assert [spec for spec, *_ in built] == [kernel] * (2 * (times.size - 1))
    base = replace(kernel, log_tilt=None)
    for _, s, t, digest, log_tilt in built:
        assert digest == _digest(KernelMatrix.from_kernel(base, grid, s, t)
                                 .entries)
        if kernel.log_tilt is None:
            assert log_tilt is None
        else:
            np.testing.assert_array_equal(
                log_tilt, (kernel.log_tilt(grid.nodes, s),
                           kernel.log_tilt(grid.nodes, t)))


@pytest.mark.parametrize("tag", ("heat", "quantum-k1"))
def test_ipf_then_sweep_holds_one_n2_matrix_at_a_time(tag):
    grid, times = Grid1D(-10.0, 10.0, 257), np.linspace(0.0, HORIZON, 11)
    propagator = make_kernel(tag).propagator(grid, times)
    boundary = packet_boundary(grid)
    matrix_bytes = grid.n_points ** 2 * 8
    stack_bytes = times.size * grid.n_points * 8
    tracemalloc.start()
    try:
        factors = solve_boundary_system(propagator, boundary)
        propagate_factors(factors, propagator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # K(0, T) is freed when IPF returns, before the sweep's first build; a
    # propagator that kept it would peak near two matrices
    assert peak < 1.5 * matrix_bytes + 2 * stack_bytes


def test_a_five_slice_bridge_solve_builds_the_boundary_and_eight_pairs(
        built_specs, tmp_path):
    argv = ["bridge-solve", "--rho0", "gaussian:0,1", "--rhoT", "gaussian:0,2",
            "--grid-points", "65", "--time-slices", "5", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    # one K(0, T) for IPF, then 2 * (5 - 1) per-pair matrices for the sweep
    assert len(built_specs) == 1 + 2 * 4


# ---------------------------------------------------------------- numeric


def _fk_matrix(potential, grid, s, t, n_substeps=None):
    """The dense Feynman-Kac matrix K(s, t) of one time pair on ``grid``."""
    kernel = NumericFeynmanKacKernel(potential, grid=grid,
                                     n_substeps=n_substeps)
    return kernel.propagator(grid, (s, t)).matrix()


def test_feynman_kac_zero_potential_matches_heat_kernel():
    grid = Grid1D(-10.0, 10.0, 257)
    mat = _fk_matrix(Potential.zero(), grid, 0.0, 0.5)
    inner = np.abs(grid.nodes) <= 6.0
    exact = _heat_kernel_exact(grid.nodes[inner][:, None], 0.0,
                               grid.nodes[None, :], 0.5)
    got = mat.entries[inner]
    rel = np.max(np.abs(got - exact)) / np.max(exact)
    assert rel < 1e-3


@pytest.mark.parametrize("lo, hi, n", [(-10.0, 10.0, 257), (-2.0, 2.0, 65)],
                         ids=["wide-box", "tight-box"])
def test_feynman_kac_rows_of_a_zero_potential_hold_unit_mass(lo, hi, n):
    # the walls are zero-flux, so no row loses mass, the wall rows
    # included; in the tight box every row's mass reaches the walls
    grid = Grid1D(lo, hi, n)
    mat = _fk_matrix(Potential.zero(), grid, 0.0, 1.0)
    assert np.max(np.abs(mat.entries @ grid.weights - 1.0)) <= 1e-12


def test_feynman_kac_constant_potential_scales_the_heat_kernel():
    lam = 0.8
    grid = Grid1D(-10.0, 10.0, 257)
    plain = _fk_matrix(Potential.zero(), grid, 0.0, 0.5)
    damped = _fk_matrix(Potential.constant(lam), grid, 0.0, 0.5)
    inner = np.abs(grid.nodes) <= 6.0
    # the potential enters only through the path weight exp(-lam (t - s))
    diff = np.abs(damped.entries - np.exp(-lam * 0.5) * plain.entries)
    assert np.max(diff[inner][:, inner]) / np.max(plain.entries) < 3e-4


def test_feynman_kac_packet_potential_propagates_the_backward_factor():
    grid = Grid1D(-10.0, 10.0, 257)
    mat = _fk_matrix(Potential.packet(), grid, 0.0, 0.5)
    pushed = mat.apply_source(PACKET.factor_u(grid.nodes, 0.0))
    ref = PACKET.factor_u(grid.nodes, 0.5)
    assert np.max(np.abs(pushed - ref)) / np.max(ref) < 1e-3


def test_feynman_kac_argument_guards():
    grid = Grid1D(-10.0, 10.0, 257)
    with pytest.raises(ValueError):
        _fk_matrix(Potential.zero(), grid, 0.0, 0.5, n_substeps=3)
    with pytest.raises(ValueError):
        # diffusion number way beyond the stability budget
        _fk_matrix(Potential.zero(), grid, 0.0, 1.0, n_substeps=4)
    with pytest.raises(TimeOrderingError):
        _fk_matrix(Potential.zero(), grid, 0.5, 0.5)


def test_numeric_kernel_wraps_the_solver():
    grid = Grid1D(-10.0, 10.0, 129)
    k = NumericFeynmanKacKernel(Potential.zero(), grid=grid)
    assert k.tag == "numeric-fk"
    mat = _fk_matrix(Potential.zero(), grid, 0.0, 0.5)
    mid = grid.n_points // 2
    got = float(k.evaluate(grid.nodes[mid], 0.0, grid.nodes[mid + 3], 0.5))
    assert got == pytest.approx(float(mat.entries[mid, mid + 3]), rel=1e-12)
    # off-node evaluation stays within the bracketing node values
    x_half = 0.5 * (grid.nodes[mid + 3] + grid.nodes[mid + 4])
    lo = min(mat.entries[mid, mid + 3], mat.entries[mid, mid + 4])
    hi = max(mat.entries[mid, mid + 3], mat.entries[mid, mid + 4])
    val = float(k.evaluate(grid.nodes[mid], 0.0, x_half, 0.5))
    assert lo <= val <= hi


# ---------------------------------------------------------------- probes


def test_chapman_kolmogorov_argument_guards():
    with pytest.raises(TimeOrderingError):
        check_chapman_kolmogorov(make_kernel("heat"), 0.5, 0.2, 1.0)
    with pytest.raises(ValueError):
        check_chapman_kolmogorov(make_kernel("heat"), 0.0, 0.5, 1.0,
                                 Grid1D(-2.0, 2.0, 65))


def test_short_time_moments_heat_kernel():
    m = short_time_moments(make_kernel("heat", nu=0.7), 0.3, 0.2)
    assert m.second_moment_rate == pytest.approx(1.4, abs=1e-9)
    assert abs(m.first_moment_rate) < 1e-9
    assert abs(m.leak_rate) < 1e-9
    assert m.table.shape == (3, 3)


def test_short_time_moments_tracks_the_example1_clock():
    k = make_kernel("example1")
    assert short_time_moments(k, 0.0, 0.5).second_moment_rate == pytest.approx(
        1.0, abs=1e-9)
    assert short_time_moments(k, 0.0, 1.0).second_moment_rate == pytest.approx(
        2.0, abs=1e-9)


def test_drift_extraction_values():
    assert abs(extract_forward_drift(make_kernel("heat"), 1.5, 0.2)) < 1e-8


class _WobblyKernel:
    """Transition density whose spread oscillates with the probe step."""

    tag = "wobbly"
    nu = 1.0

    def evaluate(self, y, s, x, t):
        dt = t - s
        var = 2.0 * dt * (1.0 + 0.8 * np.sin(0.021 / dt))
        x = np.asarray(x, dtype=float)
        return np.exp(-(x - y) ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)


def test_non_converging_table_warns():
    with pytest.warns(ExtrapolationWarning) as record:
        short_time_moments(_WobblyKernel(), 0.0, 0.5)
    # the warning points at the probe's caller
    assert {w.filename for w in record} == {__file__}


def test_generalized_heat_residual_kind_guard():
    grid = Grid1D(-6.0, 6.0, 101)
    times = np.linspace(0.0, 1.0, 11)
    from schrobridge import FieldStack
    stack = FieldStack.sample(grid, times, PACKET.factor_u)
    with pytest.raises(ValueError):
        generalized_heat_residual(stack, Potential.packet(), kind="w")


def test_potential_constructors():
    xs = np.linspace(-2.0, 2.0, 5)
    assert np.all(Potential.zero()(xs, 0.3) == 0.0)
    assert np.all(Potential.constant(2.5)(xs, 0.3) == 2.5)
    np.testing.assert_allclose(Potential.packet()(xs, 0.4),
                               PACKET.potential(xs, 0.4), atol=1e-15)


@pytest.mark.parametrize("nu", [0.0, -1.0, np.inf, np.nan])
def test_potential_refuses_a_bad_diffusivity(nu):
    with pytest.raises(ValueError, match="nu must be positive and finite"):
        Potential.zero(nu)
