import ast
import inspect
import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from volprod import contract as contract_mod
from volprod import functionals as functionals_mod
from volprod import heatflow as heatflow_mod
from volprod import legendre as legendre_mod
from volprod import oracles
from volprod import quadrature as quadrature_mod
from volprod.contract import Gauss, Outer, contract, edge_dominated, faces, shell_split
from volprod.core import (
    BodySpec,
    ExponentSchedule,
    ellipsoid,
    gaussian_to_logdensity,
    isotropic_gaussian,
    lp_ball,
    make_grid,
    reflect,
)
from volprod.densities import box, cross2d, exp_power, gaussian
from volprod.functionals import (
    bl_data,
    bl_integral,
    laplace_f_t,
    laplace_grid,
    log_laplace,
    lr_volume_product,
    volume_product,
)
from volprod.heatflow import fp_evolve, ou_apply, ou_edge_flags
from volprod.legendre import default_dual_grid, legendre_transform, polar_density
from volprod.quadrature import GAUSSIAN, log_lq_norm

from conftest import boundary_mask, peak_in_outputs, trapezoid_log_weights

REL = 1e-12


def _log_array(w):
    """The (M, N) log array of a kernel of any kind, formed by its definition."""
    if isinstance(w, Outer):
        return np.multiply.outer(w.x, w.y)
    if isinstance(w, Gauss):
        d = np.subtract.outer(w.u, w.v)
        return -(d * d) / (2 * w.var) - 0.5 * math.log(2 * math.pi * w.var)
    return w


def _all_pairs(log_f, kernels):
    """sum_k W_k[i_k, j_k] + log f[j] for every (i, j), the i axes first."""
    d = log_f.ndim
    total = log_f.reshape((1,) * d + log_f.shape)
    for k, w in enumerate(kernels):
        w = _log_array(w)
        shape = [1] * (2 * d)
        shape[k], shape[d + k] = w.shape
        total = total + w.reshape(shape)
    return total


def _brute(log_f, kernels, reduce):
    """All-pairs reference: reduce over every j of sum_k W_k[i_k, j_k] + log f[j].
    A "max" is taken one row of output axis 0 at a time, each holding 1 / M_0
    of the all-pairs array; a max is exact, so the rows move no byte."""
    axes = tuple(range(log_f.ndim, 2 * log_f.ndim))
    if reduce == "max" and kernels:
        w0 = _log_array(kernels[0])
        rows = [np.max(_all_pairs(log_f, [w0[i:i + 1], *kernels[1:]]), axis=axes) for i in range(w0.shape[0])]
        return np.concatenate(rows)
    return logsumexp(_all_pairs(log_f, kernels), axis=axes)


def _close(a, b, rel=REL):
    a, b = np.asarray(a, float), np.asarray(b, float)
    assert a.shape == b.shape
    same = a == b  # matching infinities
    assert not np.isnan(a).any() and not np.isnan(b).any()
    with np.errstate(invalid="ignore"):  # inf - inf where both are -inf; masked by `same`
        err = np.where(same, 0.0, np.abs(a - b) / np.maximum(1.0, np.abs(b)))
    assert float(np.max(err)) <= rel


def _random_case(rng, in_shape, out_shape):
    log_f = rng.normal(scale=3.0, size=in_shape)
    kernels = [rng.normal(scale=2.0, size=(m, n)) for m, n in zip(out_shape, in_shape)]
    return log_f, kernels


def _engine_case(rng, reduce, in_shape, out_shape):
    """Array kernels for "lse"; for "max", which takes nothing else, Outer
    kernels on sorted axes."""
    return (_random_case if reduce == "lse" else _monge_case)(rng, in_shape, out_shape)


class TestEngine:
    @pytest.mark.parametrize("reduce", ["lse", "max"])
    @pytest.mark.parametrize(
        "in_shape, out_shape",
        [((9,), (5,)), ((7, 6), (4, 9)), ((5, 4, 6), (3, 7, 2))],
    )
    def test_matches_all_pairs(self, reduce, in_shape, out_shape):
        rng = np.random.default_rng(len(in_shape))
        log_f, kernels = _engine_case(rng, reduce, in_shape, out_shape)
        got = contract(log_f, kernels, reduce)
        assert got.shape == out_shape
        _close(got, _brute(log_f, kernels, reduce))

    @pytest.mark.parametrize("reduce", ["lse", "max"])
    def test_minus_inf_columns_and_masked_body(self, reduce):
        rng = np.random.default_rng(5)
        log_f, kernels = _engine_case(rng, reduce, (6, 7, 5), (4, 3, 8))
        log_f[:, 2, :] = -np.inf  # columns that vanish throughout
        log_f[1:3, :, 4] = -np.inf
        got = contract(log_f, kernels, reduce)
        _close(got, _brute(log_f, kernels, reduce))
        # a 0 / -inf body mask, as lr_volume_product passes it
        mask = np.where(rng.random((8, 9)) < 0.4, 0.0, -np.inf)
        mask[3, :] = -np.inf
        if reduce == "lse":
            kern2 = [rng.normal(size=(5, 8)), rng.normal(size=(6, 9))]
        else:
            kern2 = _monge_case(rng, (8, 9), (5, 6))[1]
        _close(contract(mask, kern2, reduce), _brute(mask, kern2, reduce))

    def test_all_minus_inf_gives_minus_inf(self):
        for reduce, kernels in [("lse", [np.zeros((3, 4)), np.zeros((2, 5))]),
                                ("max", [Outer(np.zeros(3), np.zeros(4)), Outer(np.zeros(2), np.zeros(5))])]:
            out = contract(np.full((4, 5), -np.inf), kernels, reduce)
            assert np.all(out == -np.inf)

    @pytest.mark.parametrize("reduce", ["lse", "max"])
    @pytest.mark.parametrize("in_shape, out_shape", [((40,), (31,)), ((13, 6), (29, 5)), ((6, 7, 11), (5, 4, 9))])
    def test_row_blocks_are_bitwise_invisible(self, monkeypatch, reduce, in_shape, out_shape):
        rng = np.random.default_rng(9)
        log_f, kernels = _engine_case(rng, reduce, in_shape, out_shape)
        log_f[rng.random(in_shape) < 0.2] = -np.inf
        log_f[..., 0] = -np.inf  # on 2D and 3D, axis-0 columns that vanish throughout
        if reduce == "lse":
            kernels[0][4] = -np.inf
        whole = contract(log_f, kernels, reduce)
        # three rows per axis-0 "lse" block, so 31 rows end in a block of one
        # and 29 and 5 rows in a block of two; a windowed "max" step forms its
        # argmax sums three axis-0 columns at a time, and the 1D "max" step
        # takes flat windows where it took one dense block
        monkeypatch.setattr(contract_mod, "ROW_ELEMS", 3 * in_shape[0] + 1)
        blocked = contract(log_f, kernels, reduce)
        assert blocked.tobytes() == whole.tobytes()
        _close(blocked, _brute(log_f, kernels, reduce))

    @staticmethod
    def _underflow_case():
        """Half the kernel rows peak 1000 nats away from where half the columns
        carry their mass, so the shifted sum of those entries underflows to 0."""
        rng = np.random.default_rng(11)
        log_f, kernels = _random_case(rng, (40, 6), (30, 5))
        ramp = np.linspace(0.0, 1000.0, 40)
        kernels[0][::2] -= ramp
        log_f[:, ::2] -= ramp[::-1, None]
        log_f[5, 1] = -np.inf
        return log_f, kernels

    def test_underflowed_sums_fall_back_to_the_exact_sum(self, monkeypatch):
        log_f, kernels = self._underflow_case()
        exact = contract_mod._lse_exact
        entries = []

        def spy(summed):
            entries.append(len(summed))
            return exact(summed)

        monkeypatch.setattr(contract_mod, "_lse_exact", spy)
        got = contract(log_f, kernels)
        assert sum(entries) >= 15 * 3  # at least the ramped rows x ramped columns
        assert np.isfinite(got).all()
        _close(got, _brute(log_f, kernels, "lse"))

    def test_fallback_chunking_is_bitwise_invisible(self, monkeypatch):
        log_f, kernels = self._underflow_case()
        whole = contract(log_f, kernels)
        monkeypatch.setattr(contract_mod, "ROW_ELEMS", 40 * 4)  # 4 entries per chunk
        assert contract(log_f, kernels).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("reduce", ["lse", "max"])
    def test_repeated_calls_are_bitwise_identical(self, reduce):
        if reduce == "lse":
            log_f, kernels = self._underflow_case()
        else:
            rng = np.random.default_rng(11)
            log_f, kernels = _monge_case(rng, (40, 6), (30, 5))
            log_f[rng.random(log_f.shape) < 0.2] = -np.inf
        assert contract(log_f, kernels, reduce).tobytes() == contract(log_f, kernels, reduce).tobytes()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            contract(np.zeros((3, 4)), [np.zeros((2, 3))])
        with pytest.raises(ValueError):
            contract(np.zeros(3), [np.zeros((2, 4))])
        with pytest.raises(ValueError):
            contract(np.zeros(3), [np.zeros((2, 3))], reduce="sum")


def _all_fallback_case(n):
    """A 1D n-node "lse" step whose every entry falls back to the exact sum:
    each kernel row peaks at j = 0, where the input is 2000 nats down, so
    every shifted sum underflows to 0; each exact sum is log n - 2000."""
    w = np.full((n, n), -2000.0)
    w[:, 0] = 0.0
    log_f = np.zeros(n)
    log_f[0] = -2000.0
    return log_f, [w]


class TestBanded:
    @pytest.mark.parametrize("shape", [(513, 513), (257, 513), (65, 65, 65), (7,), (100_000,), (3, 40_000), (1, 5)])
    def test_bands_cover_axis_0_once_in_order_in_one_buffer(self, shape):
        bands = list(contract_mod.banded(shape))
        assert [i for band, _ in bands for i in range(band.start, band.stop)] == list(range(shape[0]))
        row = math.prod(shape[1:])
        buf = bands[0][1].base
        for band, part in bands:
            assert part.shape == (band.stop - band.start,) + shape[1:] and part.dtype == float
            assert part.size <= max(contract_mod.ROW_ELEMS, row)
            assert part.base is buf and part.ctypes.data == buf.ctypes.data
        # every band but the last is full
        assert all(part.size + row > contract_mod.ROW_ELEMS for _, part in bands[:-1])

    def test_zero_rows_yield_nothing(self):
        assert list(contract_mod.banded((0, 5))) == []

    def test_every_band_loop_goes_through_banded(self, monkeypatch):
        """Seven loops cut full-size passes into bands: the "lse" kernel bands
        and its fallback, the windowed argmax sums and window sums, the
        shell's face fold (its two buffers on one line), the polar's margin
        and the Gaussian log-weight. A 2D 65^2 polar's steps, 33 x 33 on 33
        columns, are windowed."""
        inner = contract_mod.banded
        sites = set()

        def spy(shape):
            caller = inspect.currentframe().f_back
            sites.add((caller.f_code.co_name, caller.f_lineno))
            return inner(shape)

        for module in (contract_mod, legendre_mod, quadrature_mod):
            monkeypatch.setattr(module, "banded", spy)
        log_f, kernels = _all_fallback_case(65)
        contract(log_f, kernels)
        grid = make_grid(2, 6.0, 65)
        polar_density(gaussian(grid))
        log_lq_norm(gaussian(grid), 1.0, GAUSSIAN)
        names = sorted(name for name, _ in sites)
        assert names == ["_lse", "_lse", "_max_windowed", "_shell_bands", "_window_max", "add_log_weight",
                         "polar_density"]

    def test_fallback_holds_one_band_of_temporaries(self, monkeypatch):
        """Every entry of a 1D 513 step falls back; the exact sums are formed
        in chunks of at most one band, so the call holds three bands at once
        (the band buffer and the kernel rows and columns it adds), not the
        whole 513 x 513 sum three times over."""
        log_f, kernels = _all_fallback_case(513)
        inner = contract_mod._lse_exact
        chunks = []

        def spy(summed):
            chunks.append(summed.size)
            return inner(summed)

        monkeypatch.setattr(contract_mod, "_lse_exact", spy)
        got = contract(log_f, kernels)
        assert sum(chunks) == 513 * 513 and max(chunks) <= contract_mod.ROW_ELEMS
        assert np.all(got == math.log(513) - 2000.0)
        band_bytes = 8 * contract_mod.ROW_ELEMS
        assert peak_in_outputs(contract, log_f, kernels, nbytes=band_bytes) < 4


def _kind_reduces(*kinds):
    """(kind, reducer) pairs, every kind under each reducer."""
    return [(kind, reduce) for reduce in ("lse", "max") for kind in kinds]


KIND_REDUCES = _kind_reduces("array", "outer", "gauss")


def _max_refuses(kind, reduce, log_f, kernels, *spies, out=None):
    """Whether ``contract`` refuses kernels of ``kind`` under ``reduce``, as
    "max" refuses all but Outer kernels. If so, checks that the call raises
    before it takes any path (every spy still empty) and leaves ``log_f`` and
    ``out`` as they were."""
    if reduce != "max" or kind == "outer":
        return False
    arrays = [log_f] if out is None else [log_f, out]
    before = [a.tobytes() for a in arrays]
    with pytest.raises(ValueError, match="Outer kernels on finite, nondecreasing axes"):
        contract(log_f, kernels, reduce, out=out)
    assert [a.tobytes() for a in arrays] == before
    assert all(spy == [] for spy in spies)
    return True

# square kernels, so that the input itself can take the result
OUT_CASES = [((9,), "orthant"), ((9,), "full"), ((15, 31), "orthant"), ((15, 31), "central"), ((15, 31), "full"),
             ((5, 13, 7), "orthant"), ((5, 13, 7), "central"), ((5, 13, 7), "full")]


def _out_case(rng, kind, shape, path):
    """Square, centrally symmetric kernels of one kind and an input that takes
    ``path``: even along every axis (the orthant path), even through the
    origin alone (the central half path) or even nowhere (the full path)."""
    if path == "orthant":
        log_f, kernels = _orthant_case(rng, kind, shape, shape, range(len(shape)))
    else:
        log_f, kernels = _symmetric_case(rng, kind, shape, shape)
    if path == "full":
        flat = log_f.ravel()
        i = next(i for i in np.flatnonzero(np.isfinite(flat)) if 2 * i != flat.size - 1)
        flat[i] = np.nextafter(flat[i], np.inf)
    assert _halved_axes(log_f) == {"orthant": len(shape), "central": 1, "full": 0}[path]
    assert (path == "orthant") == all(_even_along(log_f, k) for k in range(len(shape)))
    return log_f, kernels


class TestOutBuffer:
    @pytest.mark.parametrize("kind, reduce", KIND_REDUCES)
    @pytest.mark.parametrize("shape, path", OUT_CASES)
    def test_out_holds_the_bytes_of_a_call_without_it(self, reduce, kind, shape, path):
        rng = np.random.default_rng(len(shape) + len(kind) + len(path))
        log_f, kernels = _out_case(rng, kind, shape, path)
        buf = np.full(shape, np.nan)
        if _max_refuses(kind, reduce, log_f, kernels, out=buf):
            return
        want = contract(log_f, kernels, reduce)
        before = log_f.tobytes()
        assert contract(log_f, kernels, reduce, out=buf) is buf
        assert buf.tobytes() == want.tobytes()
        assert log_f.tobytes() == before  # a separate out leaves the input as it was
        # the input itself as out
        assert contract(log_f, kernels, reduce, out=log_f) is log_f
        assert log_f.tobytes() == want.tobytes()

    @pytest.mark.parametrize("reduce", ["lse", "max"])
    def test_out_of_another_shape_than_the_input(self, reduce):
        rng = np.random.default_rng(73)
        log_f, kernels = _orthant_case(rng, "outer", (5, 13, 7), (7, 11, 15), range(3))
        buf = np.empty((7, 11, 15))
        assert contract(log_f, kernels, reduce, out=buf).tobytes() == contract(log_f, kernels, reduce).tobytes()

    @pytest.mark.parametrize("bad", [(15, 30), (31, 15), (15, 31, 1)])
    def test_out_of_the_wrong_shape_is_rejected(self, bad):
        log_f, kernels = _out_case(np.random.default_rng(79), "outer", (15, 31), "full")
        with pytest.raises(ValueError, match="out must be"):
            contract(log_f, kernels, out=np.empty(bad))

    def test_out_of_another_dtype_is_rejected(self):
        log_f, kernels = _out_case(np.random.default_rng(83), "outer", (15, 31), "full")
        with pytest.raises(ValueError, match="out must be"):
            contract(log_f, kernels, "max", out=np.empty((15, 31), dtype=np.float32))


def _even_case(rng, in_shape, out_shape):
    """An exactly even input with -inf entries and centrally symmetric kernels;
    the first and last rows of the axis-0 kernel are -inf."""
    log_f = rng.normal(scale=3.0, size=in_shape)
    log_f[rng.random(in_shape) < 0.2] = -np.inf
    log_f = np.minimum(log_f, reflect(log_f))
    kernels = []
    for m, n in zip(out_shape, in_shape):
        w = rng.normal(scale=2.0, size=(m, n))
        kernels.append(w + w[::-1, ::-1])
    kernels[0][[0, -1]] = -np.inf
    return log_f, kernels


def _is_even(a):
    return a.tobytes() == reflect(a).tobytes()


def _even_along(a, k):
    return a.tobytes() == np.flip(a, k).tobytes()


def _halved_axes(log_f):
    """How many axes the engine halves on centrally symmetric kernels: each
    axis along which ``log_f`` equals its flip, else axis 0 alone when
    ``log_f`` is even through the origin."""
    per_axis = sum(np.array_equal(log_f, np.flip(log_f, k)) for k in range(log_f.ndim))
    return per_axis or int(np.array_equal(log_f, reflect(log_f)))


@pytest.fixture
def low_cuts(monkeypatch):
    """The kernels whose even slice a contraction takes: one per halved axis
    per call (axis 0 alone on the central half path)."""
    calls = []
    inner = contract_mod._low_cut

    def spy(w, low):
        calls.append(w)
        return inner(w, low)

    monkeypatch.setattr(contract_mod, "_low_cut", spy)
    return calls


@pytest.fixture
def orthant_fills(monkeypatch):
    """The ``lows`` of every orthant fill: one per call on the orthant path."""
    calls = []
    inner = contract_mod._fill_orthant

    def spy(out, orthant, lows):
        calls.append(list(lows))
        return inner(out, orthant, lows)

    monkeypatch.setattr(contract_mod, "_fill_orthant", spy)
    return calls


def _symmetric_case(rng, kind, in_shape, out_shape):
    """An exactly even input with -inf entries and centrally symmetric kernels
    of one kind: arrays, Outer or Gauss kernels on odd axes."""
    if kind == "array":
        return _even_case(rng, in_shape, out_shape)
    return (_outer_case if kind == "outer" else _gauss_case)(rng, in_shape, out_shape, True, "minus_inf")


def _one_ulp_off(w, where):
    """w with one entry (an array) or one axis end (Outer, Gauss) moved up by
    one ulp: ``where`` is "rows" (x or u) or "columns" (y or v)."""
    if isinstance(w, (Outer, Gauss)):
        axes = [a.copy() for a in w[:2]]
        axes[where == "columns"][-1] = np.nextafter(axes[where == "columns"][-1], np.inf)
        return Outer(*axes) if isinstance(w, Outer) else Gauss.of(*axes, w.var)
    w = w.copy()
    entry = (1, 0) if where == "rows" else (w.shape[0] // 2, 1)  # a finite entry off the centre
    w[entry] = np.nextafter(w[entry], np.inf)
    return w


def _matches_brute(got, log_f, kernels, reduce):
    want = _brute(log_f, kernels, reduce)
    if reduce == "max":
        assert got.tobytes() == want.tobytes()
    else:
        _close(got, want)


EVEN_SHAPES = [((9,), (5,)), ((9,), (13,)), ((257,), (301,)), ((15, 31), (9, 41)), ((5, 13, 7), (7, 11, 15))]


def _orthant_case(rng, kind, in_shape, out_shape, axes):
    """Centrally symmetric kernels of one kind (as ``_symmetric_case``) and an
    input with -inf entries that equals its flip along each axis in ``axes``."""
    _, kernels = _symmetric_case(rng, kind, in_shape, out_shape)
    log_f = rng.normal(scale=3.0, size=in_shape)
    log_f[rng.random(in_shape) < 0.2] = -np.inf
    for k in axes:
        log_f = np.minimum(log_f, np.flip(log_f, k))
    return log_f, kernels


def _nudge_off_axis(a, k):
    """``a`` (even along every axis) with one finite entry off the x_k = 0 slab
    moved up by one ulp, together with its mirrors along every other axis: the
    result is even along every axis but k, and not even through the origin."""
    a = a.copy()
    p = next(i for i in zip(*np.nonzero(np.isfinite(a))) if 2 * i[k] != a.shape[k] - 1)
    v = np.nextafter(a[p], np.inf)
    others = [l for l in range(a.ndim) if l != k]
    for flips in itertools.product([False, True], repeat=len(others)):
        q = list(p)
        for l, flip in zip(others, flips):
            if flip:
                q[l] = a.shape[l] - 1 - q[l]
        a[tuple(q)] = v
    return a


def _ids(kernels):
    return [id(w) for w in kernels]


@pytest.fixture
def engine_steps(monkeypatch):
    """Every ``contract`` call the library makes (the tests call
    ``contract_mod.contract``): its reducer, input and output shapes and
    the ``(reducer, kernel rows, block shape)`` of each of its axis steps."""
    calls = []
    inner = contract_mod.contract

    def spy(log_f, kernels, reduce="lse", out=None):
        calls.append((reduce, np.shape(log_f), tuple(w.shape[0] for w in kernels), []))
        return inner(log_f, kernels, reduce, out)

    for mod in (contract_mod, functionals_mod, heatflow_mod, legendre_mod):
        monkeypatch.setattr(mod, "contract", spy)
    for name in ("lse", "max"):
        step = getattr(contract_mod, "_" + name)

        def step_spy(w, block, step=step, name=name):
            calls[-1][-1].append((name, w.shape[0], block.shape))
            return step(w, block)

        monkeypatch.setattr(contract_mod, "_" + name, step_spy)
    return calls


def _orthant_steps(in_shape, out_shape, reduce, axes):
    """The ``engine_steps`` record of each axis step of a call whose input is
    even along ``axes``: a step along k holds only the orthant of every other
    even axis l, ``M_l - M_l // 2`` once contracted and ``N_l - N_l // 2``
    before, as columns, and the whole of the rest. Its block has ``N_k - N_k
    // 2`` rows when it is a "max" step along an even axis, and ``N_k``
    otherwise."""
    def orthant(n, l):
        return n - n // 2 if l in axes else n

    steps = []
    for k, n in enumerate(in_shape):
        cols = math.prod(orthant(m, l) for l, m in enumerate(out_shape[:k]))
        cols *= math.prod(orthant(n_l, l) for l, n_l in enumerate(in_shape) if l > k)
        rows = orthant(n, k) if reduce == "max" else n
        steps.append((reduce, orthant(out_shape[k], k), (rows, cols)))
    return steps


class TestEvenPath:
    """``contract`` halves every axis whose kernel is centrally symmetric and
    along which the input equals its flip (the orthant path), and takes the
    central half path when no axis qualifies but every kernel is centrally
    symmetric and the input is even through the origin."""

    @pytest.mark.parametrize("kind, reduce", KIND_REDUCES)
    @pytest.mark.parametrize("in_shape, out_shape", EVEN_SHAPES)
    def test_even_input_takes_the_half_path(self, low_cuts, orthant_fills, reduce, kind, in_shape, out_shape):
        rng = np.random.default_rng(len(in_shape) + out_shape[0] + len(kind))
        log_f, kernels = _symmetric_case(rng, kind, in_shape, out_shape)
        if _max_refuses(kind, reduce, log_f, kernels, low_cuts, orthant_fills):
            return
        got = contract(log_f, kernels, reduce)
        assert len(low_cuts) == 1 and low_cuts[0] is kernels[0]
        # even along no single axis in 2D and 3D: the central path; in 1D the
        # two paths are one
        if len(in_shape) > 1:
            assert not any(_even_along(log_f, k) for k in range(len(in_shape)))
            assert orthant_fills == []
        else:
            assert orthant_fills == [[out_shape[0] // 2]]
        assert got.shape == out_shape and _is_even(got) and np.isfinite(got).any()
        _matches_brute(got, log_f, kernels, reduce)

    @pytest.mark.parametrize("kind, reduce", KIND_REDUCES)
    @pytest.mark.parametrize("off", ["input", "rows", "columns"])
    @pytest.mark.parametrize("in_shape, out_shape", EVEN_SHAPES[2:])
    def test_one_ulp_off_takes_the_full_path(self, low_cuts, reduce, kind, off, in_shape, out_shape):
        rng = np.random.default_rng(len(in_shape) + len(kind) + len(off))
        log_f, kernels = _symmetric_case(rng, kind, in_shape, out_shape)
        if off == "input":
            flat = log_f.ravel()
            i = np.flatnonzero(np.isfinite(flat))[0]
            assert i != flat.size - 1 - i
            flat[i] = np.nextafter(flat[i], np.inf)
        else:  # an axis of the last kernel, so that the earlier ones pass
            kernels[-1] = _one_ulp_off(kernels[-1], off)
        if _max_refuses(kind, reduce, log_f, kernels, low_cuts):
            return
        got = contract(log_f, kernels, reduce)
        assert low_cuts == []
        _matches_brute(got, log_f, kernels, reduce)

    @pytest.mark.parametrize("kind, reduce", KIND_REDUCES)
    @pytest.mark.parametrize("in_shape, out_shape", EVEN_SHAPES)
    def test_input_even_in_every_axis_halves_every_axis(self, low_cuts, orthant_fills, reduce, kind, in_shape,
                                                        out_shape):
        d = len(in_shape)
        rng = np.random.default_rng(d + out_shape[0] + len(kind) + 1)
        log_f, kernels = _orthant_case(rng, kind, in_shape, out_shape, range(d))
        if _max_refuses(kind, reduce, log_f, kernels, low_cuts, orthant_fills):
            return
        got = contract(log_f, kernels, reduce)
        assert _ids(low_cuts) == _ids(kernels)
        assert orthant_fills == [[m // 2 for m in out_shape]]
        assert got.shape == out_shape and np.isfinite(got).any()
        assert all(_even_along(got, k) for k in range(d))
        _matches_brute(got, log_f, kernels, reduce)

    @pytest.mark.parametrize("kind, reduce", KIND_REDUCES)
    @pytest.mark.parametrize("in_shape, out_shape", EVEN_SHAPES[3:])
    def test_input_even_in_one_axis_halves_that_axis(self, low_cuts, orthant_fills, reduce, kind, in_shape,
                                                     out_shape):
        rng = np.random.default_rng(len(in_shape) + len(kind) + 2)
        log_f, kernels = _orthant_case(rng, kind, in_shape, out_shape, [1])
        assert _halved_axes(log_f) == 1 and not np.array_equal(log_f, reflect(log_f))
        if _max_refuses(kind, reduce, log_f, kernels, low_cuts, orthant_fills):
            return
        got = contract(log_f, kernels, reduce)
        assert _ids(low_cuts) == _ids(kernels[1:2])
        assert orthant_fills == [[out_shape[1] // 2 if k == 1 else 0 for k in range(len(in_shape))]]
        assert _even_along(got, 1) and np.isfinite(got).any()
        _matches_brute(got, log_f, kernels, reduce)

    @pytest.mark.parametrize("kind, reduce", KIND_REDUCES)
    @pytest.mark.parametrize("off", ["input", "rows", "columns"])
    @pytest.mark.parametrize("in_shape, out_shape", EVEN_SHAPES[2:])
    def test_one_ulp_off_along_one_axis_halves_the_others(self, low_cuts, orthant_fills, reduce, kind, off,
                                                          in_shape, out_shape):
        d = len(in_shape)
        rng = np.random.default_rng(d + len(kind) + len(off) + 3)
        log_f, kernels = _orthant_case(rng, kind, in_shape, out_shape, range(d))
        k = d - 1
        if off == "input":
            log_f = _nudge_off_axis(log_f, k)
            assert not _even_along(log_f, k) and all(_even_along(log_f, l) for l in range(k))
        else:
            kernels[k] = _one_ulp_off(kernels[k], off)
        if _max_refuses(kind, reduce, log_f, kernels, low_cuts, orthant_fills):
            return
        got = contract(log_f, kernels, reduce)
        assert _ids(low_cuts) == _ids(kernels[:k])
        assert orthant_fills == ([[m // 2 for m in out_shape[:k]] + [0]] if k else [])
        _matches_brute(got, log_f, kernels, reduce)

    @pytest.mark.parametrize("kind, reduce", KIND_REDUCES)
    @pytest.mark.parametrize("axes", [(1, 2), (0, 2), (2,)], ids=["12", "02", "2"])
    @pytest.mark.parametrize("in_shape, out_shape", [EVEN_SHAPES[4], ((9, 11, 7), (13, 9, 11))])
    def test_input_even_in_some_axes(self, engine_steps, low_cuts, orthant_fills, reduce, kind, axes, in_shape,
                                     out_shape):
        """3D inputs even along some axes only, where the input's cut and the
        halved rows differ: axis 0 keeps its whole input unless its step is
        a "max" step, and only even axes are halved."""
        rng = np.random.default_rng(sum(axes) + len(axes) + len(kind) + in_shape[0])
        log_f, kernels = _orthant_case(rng, kind, in_shape, out_shape, axes)
        assert [k for k in range(3) if _even_along(log_f, k)] == list(axes)
        if _max_refuses(kind, reduce, log_f, kernels, engine_steps, low_cuts, orthant_fills):
            return
        got = contract_mod.contract(log_f, kernels, reduce)
        assert _ids(low_cuts) == [id(kernels[k]) for k in axes]
        assert orthant_fills == [[m // 2 if k in axes else 0 for k, m in enumerate(out_shape)]]
        steps = _orthant_steps(in_shape, out_shape, reduce, axes)
        assert engine_steps == [(reduce, in_shape, out_shape, steps)]
        want = _brute(log_f, kernels, reduce)
        if reduce == "max":
            assert got.tobytes() == want.tobytes()
        else:
            _close(got, want)
            assert np.array_equal(np.isposinf(got), np.isposinf(want))
            assert np.array_equal(np.isneginf(got), np.isneginf(want))

    @pytest.mark.parametrize("kind, reduce", _kind_reduces("array", "outer"))
    @pytest.mark.parametrize("case", ["plus_inf", "minus_inf", "all_minus_inf"])
    def test_infinite_entries_on_the_orthant_path(self, low_cuts, orthant_fills, reduce, kind, case):
        rng = np.random.default_rng(53 + len(case))
        log_f, kernels = _orthant_case(rng, kind, (9, 7, 5), (11, 5, 7), range(3))
        if case == "plus_inf":
            log_f[np.ix_([1, 7], [2, 4], [0, 4])] = np.inf
            kernels = [np.where(np.isfinite(w), w, 0.0) for w in kernels] if kind == "array" else kernels
        elif case == "minus_inf":
            log_f[:, 3] = -np.inf  # the x_1 = 0 slab
            log_f[[0, -1]] = -np.inf
        else:
            log_f[...] = -np.inf
        if _max_refuses(kind, reduce, log_f, kernels, low_cuts, orthant_fills):
            return
        got = contract(log_f, kernels, reduce)
        assert len(low_cuts) == 3 and orthant_fills == [[5, 2, 3]]
        if case == "plus_inf":
            assert np.all(got == np.inf)
        elif case == "all_minus_inf":
            assert np.all(got == -np.inf)
        else:
            assert np.isfinite(got).any() and (got == -np.inf).any() == (kind == "array")
        _matches_brute(got, log_f, kernels, reduce)

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    @pytest.mark.parametrize("in_shape, out_shape", [((21,), (25,)), ((21, 17), (25, 13)), ((9, 11, 7), (13, 9, 11))])
    def test_exact_ties_differ_only_in_the_sign_of_zero(self, low_cuts, orthant_fills, norm, in_shape, out_shape):
        """-|y|_1 and -|y|_inf on integer axes through 0: the terms x y - phi(y)
        are exact integers and tie all over, zero maxima included. The values
        equal the all-pairs max; only the sign of a zero maximum may differ."""
        mesh = np.meshgrid(*[np.arange(n) - n // 2.0 for n in in_shape], indexing="ij")
        phi = sum(np.abs(m) for m in mesh) if norm == "l1" else np.maximum.reduce([np.abs(m) for m in mesh])
        kernels = [Outer(np.arange(m) - m // 2.0, np.arange(n) - n // 2.0) for m, n in zip(out_shape, in_shape)]
        got = contract(-phi, kernels, "max")
        want = _brute(-phi, kernels, "max")
        assert len(low_cuts) == len(in_shape) and len(orthant_fills) == 1
        assert np.array_equal(got, want) and (got == 0).any()
        signed = np.signbit(got) != np.signbit(want)
        assert np.all(got[signed] == 0)
        assert all(_even_along(got, k) for k in range(len(in_shape)))

    @pytest.mark.parametrize("reduce", ["lse", "max"])
    def test_plus_inf_input(self, low_cuts, reduce):
        log_f = np.zeros((5, 7))
        log_f[1, 2] = log_f[3, 4] = np.inf
        if reduce == "lse":
            kernels = [np.add.outer(np.arange(3.0), np.arange(5.0)) % 3, np.ones((9, 7))]
            kernels[0] = kernels[0] + kernels[0][::-1, ::-1]
        else:
            kernels = [Outer(np.arange(3.0) - 1, np.arange(5.0) - 2), Outer(np.arange(9.0) - 4, np.arange(7.0) - 3)]
        got = contract(log_f, kernels, reduce)
        assert len(low_cuts) == 1 and np.isposinf(got).all()
        assert got.tobytes() == _brute(log_f, kernels, reduce).tobytes()

    @pytest.mark.parametrize("apply", [fp_evolve, ou_apply])
    def test_flow_of_an_even_density_is_exactly_even(self, apply):
        for f in (exp_power(make_grid(2, 6.0, (33, 21)), 2.5), gaussian(make_grid(3, 4.0, (17, 19, 21)))):
            assert _is_even(apply(f, 0.3).phi)

    def test_conjugate_of_an_even_density_is_exactly_even(self):
        for f in (exp_power(make_grid(1, 6.0, 65), 3.0), box(make_grid(2, 3.0, (17, 13)), half=1.2),
                  exp_power(make_grid(3, 4.0, (9, 11, 7)), 2.5)):
            for out in (legendre_transform(f), polar_density(f)):
                assert _is_even(out.phi)
                assert np.isfinite(out.phi).any()


def _monge_case(rng, in_shape, out_shape, integer=False):
    """Outer kernels on sorted axes, which are Monge.

    ``integer=True`` draws small integers everywhere (axes without 0, so no
    signed zero arises), so exact ties abound."""
    if integer:
        log_f = rng.integers(-4, 5, size=in_shape).astype(float)
    else:
        log_f = rng.normal(scale=3.0, size=in_shape)
    kernels = []
    for m, n in zip(out_shape, in_shape):
        if integer:
            x = np.sort(rng.choice(np.r_[-9:0, 1:10], size=m)).astype(float)
            y = np.sort(rng.choice(np.r_[-9:0, 1:10], size=n)).astype(float)
        else:
            x, y = np.sort(rng.normal(size=m)) * rng.uniform(0.5, 4.0), np.sort(rng.normal(size=n))
        kernels.append(Outer(x, y))
    return log_f, kernels


@pytest.fixture
def windowed_steps(monkeypatch):
    """Count the axis steps that take the windowed max step."""
    calls = []
    inner = contract_mod._max_windowed

    def spy(w, block):
        calls.append(w.shape)
        return inner(w, block)

    monkeypatch.setattr(contract_mod, "_max_windowed", spy)
    return calls


@pytest.fixture
def flat_steps(monkeypatch):
    """Count the axis steps that take the flat one-column windows."""
    calls = []
    inner = contract_mod._max_flat

    def spy(w, col):
        calls.append(w.shape)
        return inner(w, col)

    monkeypatch.setattr(contract_mod, "_max_flat", spy)
    return calls


# every axis step has two or more columns and at least ROW_ELEMS sums M N
# columns; the last shape's steps have at most 2 STRIDE rows, and its first
# has a single-row coarse interval before the last row's own (10 rows take
# coarse rows 0, 8 and 9); M != N, with M < N and M > N both present; _brute
# holds at most 7e5 sums at once
WINDOWED_SHAPES = [((81, 53), (23, 29)), ((12, 10, 12), (23, 21, 20)), ((64, 367), (10, 9))]


def _step_sums(in_shape, out_shape):
    """(sums M N columns, columns) of each axis step of a call without halving."""
    return [(out_shape[k] * math.prod(out_shape[:k]) * math.prod(in_shape[k:]),
             math.prod(out_shape[:k]) * math.prod(in_shape[k + 1:])) for k in range(len(in_shape))]


class TestWindowedMax:
    def test_shapes_take_the_windowed_step(self):
        for in_shape, out_shape in WINDOWED_SHAPES:
            assert all(sums >= contract_mod.ROW_ELEMS and cols >= 2 for sums, cols in _step_sums(in_shape, out_shape))
        assert max(WINDOWED_SHAPES[-1][1]) <= 2 * contract_mod.STRIDE
        coarse = contract_mod._coarse_rows(WINDOWED_SHAPES[-1][1][0])
        assert coarse[-1] - coarse[-2] == 1 and coarse[-2] - coarse[-3] > 1

    @pytest.mark.parametrize("in_shape, out_shape", WINDOWED_SHAPES)
    @pytest.mark.parametrize(
        "case", ["minus_inf", "minus_inf_rows", "dead_columns", "all_minus_inf", "plus_inf", "integer_ties"])
    def test_matches_all_pairs_bitwise(self, windowed_steps, in_shape, out_shape, case):
        rng = np.random.default_rng(len(in_shape) + len(case))
        log_f, kernels = _monge_case(rng, in_shape, out_shape, integer=case == "integer_ties")
        if case == "minus_inf":
            log_f[rng.random(in_shape) < 0.3] = -np.inf
        elif case == "minus_inf_rows":
            # every third block row of the first step is -inf throughout,
            # the first and last included
            log_f[::3] = log_f[-1] = -np.inf
        elif case == "dead_columns":
            log_f[:, 3] = -np.inf  # every axis-0 column with index 3 on axis 1
            log_f[rng.random(in_shape) < 0.5] = -np.inf
        elif case == "all_minus_inf":
            log_f[...] = -np.inf
        elif case == "plus_inf":
            log_f[(2,) * len(in_shape)] = np.inf
        else:
            log_f[rng.random(in_shape) < 0.2] = -np.inf
        got = contract(log_f, kernels, "max")
        assert got.tobytes() == _brute(log_f, kernels, "max").tobytes()
        assert len(windowed_steps) == len(in_shape)
        if case == "all_minus_inf":
            assert np.all(got == -np.inf)
        elif case == "plus_inf":
            assert np.all(got == np.inf)
        else:
            assert np.isfinite(got).any()

    @pytest.mark.parametrize("in_shape, out_shape", [((67, 61), (81, 71)), ((15, 9, 7), (411, 17, 19))])
    def test_even_path(self, windowed_steps, low_cuts, in_shape, out_shape):
        rng = np.random.default_rng(13)
        log_f = rng.normal(scale=3.0, size=in_shape)
        log_f[rng.random(in_shape) < 0.2] = -np.inf
        log_f = np.minimum(log_f, reflect(log_f))
        # odd, sorted axes: centrally symmetric and Monge
        kernels = [Outer(1.5 * (np.arange(m) - m // 2), (np.arange(n) - n // 2) * 0.75)
                   for m, n in zip(out_shape, in_shape)]
        got = contract(log_f, kernels, "max")
        assert len(windowed_steps) == len(in_shape) and len(low_cuts) == 1
        assert got.tobytes() == _brute(log_f, kernels, "max").tobytes()
        assert _is_even(got)


@pytest.fixture
def max_routes(monkeypatch):
    """The route of each "max" axis step, in step order: "windowed", "flat"
    or "dense" (the one dense block)."""
    routes = []
    step = contract_mod._max

    def step_spy(w, block):
        routes.append("dense")
        return step(w, block)

    monkeypatch.setattr(contract_mod, "_max", step_spy)
    for route in ("windowed", "flat"):
        inner = getattr(contract_mod, "_max_" + route)

        def spy(w, block, inner=inner, route=route):
            routes[-1] = route
            return inner(w, block)

        monkeypatch.setattr(contract_mod, "_max_" + route, spy)
    return routes


# a step of fewer than ROW_ELEMS = 2^15 sums M N columns is one dense block;
# from there one column takes flat windows, however few its rows (9 x 4001;
# 181 x 181 is 32761, 181 x 182 is 32942), and two or more take band windows
# (128 x 128 on two columns is 2^15, 127 x 129 on two is 32766; 91 x 181 on
# two is 32942)
ROUTE_CASES = [((4001,), (9,), ["flat"]), ((181,), (181,), ["dense"]), ((182,), (181,), ["flat"]),
               ((2, 128), (2, 128), ["dense", "windowed"]), ((2, 129), (2, 127), ["dense", "dense"]),
               ((181, 2), (91, 1), ["windowed", "dense"])]


@pytest.mark.parametrize("in_shape, out_shape, routes", ROUTE_CASES)
def test_max_steps_are_routed_by_shape(max_routes, in_shape, out_shape, routes):
    rng = np.random.default_rng(sum(in_shape) + sum(out_shape))
    log_f, kernels = _monge_case(rng, in_shape, out_shape)
    log_f[rng.random(in_shape) < 0.2] = -np.inf
    got = contract(log_f, kernels, "max")
    assert max_routes == routes
    assert got.tobytes() == _brute(log_f, kernels, "max").tobytes()


def _with_node(a, i, value):
    a = a.copy()
    a[i] = value
    return a


_X, _Y = np.linspace(-2.0, 2.0, 5), np.linspace(-1.0, 1.0, 7)
# (5, 7) kernels that a "max" step refuses: array and Gauss kernels, and Outer
# kernels off finite, nondecreasing axes
REFUSED_MAX_KERNELS = {
    "array": np.multiply.outer(_X, _Y),
    "gauss": Gauss.of(_X, _Y, 0.5),
    "decreasing_x": Outer(_X[::-1], _Y),
    "decreasing_y": Outer(_X, _Y[::-1]),
    "nan": Outer(_X, _with_node(_Y, 3, np.nan)),
    "inf": Outer(_with_node(_X, -1, np.inf), _Y),
    "minus_inf": Outer(_X, _with_node(_Y, 0, -np.inf)),
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize(
    "entry", [lambda f, k: contract(f, k, "max"), edge_dominated, shell_split],
    ids=["contract", "edge_dominated", "shell_split"])
@pytest.mark.parametrize("kind", list(REFUSED_MAX_KERNELS))
def test_max_refuses_all_but_outer_kernels_on_sorted_axes(kind, entry, dim):
    """On the last axis, after a valid kernel in 2D; the input is left as it
    was, even by ``edge_dominated`` and ``shell_split``, which own it: the
    kernels are checked before any face is masked."""
    kernels = [Outer(np.arange(3.0), np.arange(4.0))] * (dim - 1) + [REFUSED_MAX_KERNELS[kind]]
    log_f = np.random.default_rng(89).normal(size=[w.shape[1] for w in kernels])
    before = log_f.tobytes()
    with pytest.raises(ValueError, match="Outer kernels on finite, nondecreasing axes"):
        entry(log_f, kernels)
    assert log_f.tobytes() == before


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("entry", [edge_dominated, shell_split], ids=["edge_dominated", "shell_split"])
@pytest.mark.parametrize("misfit", ["columns", "axes"])
def test_split_refuses_kernels_that_do_not_fit_before_it_masks(misfit, entry, dim):
    """Outer kernels on sorted axes that miss the input's shape, by a column
    on the last axis or by one kernel too many: the split raises before any
    face is masked, so its input is left as it was."""
    w = Outer(np.linspace(-2.0, 2.0, 5), np.linspace(-1.0, 1.0, 7))
    log_f = np.random.default_rng(83).normal(size=(7,) * dim)
    if misfit == "columns":
        kernels = [w] * (dim - 1) + [Outer(w.x, w.y[:6])]
    else:
        kernels = [w] * (dim + 1)
    before = log_f.tobytes()
    with pytest.raises(ValueError, match="do not fit an array of shape"):
        entry(log_f, kernels)
    assert log_f.tobytes() == before


@pytest.fixture
def symmetry_reads(monkeypatch):
    """Count the full reads of array kernels for central symmetry."""
    calls = []
    inner = contract_mod._symmetric

    def spy(w):
        if isinstance(w, np.ndarray):
            calls.append(w.shape)
        return inner(w)

    monkeypatch.setattr(contract_mod, "_symmetric", spy)
    return calls


def test_array_kernels_are_read_for_symmetry_on_every_call(symmetry_reads):
    rng = np.random.default_rng(29)
    log_f, kernels = _even_case(rng, (9,), (13,))
    w = kernels[0]
    w.flags.writeable = False
    want = contract(log_f, [w])
    for _ in range(3):
        assert contract(log_f, [w]).tobytes() == want.tobytes()
    assert len(symmetry_reads) == 4


def _outer_case(rng, in_shape, out_shape, even, case):
    """Outer kernels on sorted axes (odd ones, x == -x[::-1], when ``even``)
    and an input with the entries ``case`` names."""
    kernels = []
    for m, n in zip(out_shape, in_shape):
        if even:
            x, y = (np.arange(m) - m // 2) * rng.uniform(0.05, 0.2), (np.arange(n) - n // 2) * rng.uniform(0.05, 0.2)
        else:
            x, y = np.sort(rng.normal(scale=2.0, size=m)), np.sort(rng.normal(scale=2.0, size=n))
        kernels.append(Outer(x, y))
    log_f = rng.normal(scale=3.0, size=in_shape)
    if case == "minus_inf":
        log_f[rng.random(in_shape) < 0.3] = -np.inf
    elif case == "shell":  # the +inf boundary shell of phi that polar_density trims
        log_f[boundary_mask(in_shape)] = -np.inf
    elif case == "all_minus_inf":
        log_f[...] = -np.inf
    if even:
        log_f = np.minimum(log_f, reflect(log_f))
    return log_f, kernels


# 1D steps below and above ROW_ELEMS (also for the even quarter: the x >= 0
# rows on the y >= 0 half), then 2D and 3D shapes whose steps have more than
# 2 STRIDE rows; M < N and M > N both present, and odd sizes, so that even
# axes exist. The 2D shape's first step is windowed unless an axis is halved
# (23 x 81 on 19 columns is 35397 sums); every other 2D and 3D step is below
# ROW_ELEMS sums, one dense block
OUTER_SHAPES = [((65,), (97,)), ((97,), (65,)), ((513,), (301,)), ((301,), (513,)),
                ((81, 19), (23, 29)), ((7, 5, 3), (19, 17, 21))]


class TestOuterKernel:
    def test_shapes_cover_both_sides_of_the_size_rule(self):
        sizes = [in_shape[0] * out_shape[0] for in_shape, out_shape in OUTER_SHAPES[:4]]
        quarters = [(n - n // 2) * (m - m // 2) for (n,), (m,) in OUTER_SHAPES[:4]]
        assert max(sizes[:2]) < contract_mod.ROW_ELEMS <= min(sizes[2:] + quarters[2:])

    @pytest.mark.parametrize("reduce", ["lse", "max"])
    @pytest.mark.parametrize("in_shape, out_shape", OUTER_SHAPES)
    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("case", ["finite", "minus_inf", "shell", "all_minus_inf"])
    def test_matches_its_materialized_array(self, flat_steps, windowed_steps, low_cuts, reduce, in_shape, out_shape,
                                            even, case):
        rng = np.random.default_rng(sum(in_shape) + len(case) + even)
        log_f, kernels = _outer_case(rng, in_shape, out_shape, even, case)
        arrays = [np.multiply.outer(x, y) for x, y in kernels]
        got = contract(log_f, kernels, reduce)
        assert len(low_cuts) == even * _halved_axes(log_f)
        if reduce == "lse":  # "max" takes no array kernel; _brute's bytes below are its reference
            assert got.tobytes() == contract(log_f, arrays, reduce).tobytes()
        want = _brute(log_f, arrays, reduce)
        if reduce == "max":
            assert got.tobytes() == want.tobytes()
        else:
            _close(got, want)
        if case == "all_minus_inf":
            assert np.all(got == -np.inf)
        else:
            assert np.isfinite(got).any()
        flat = reduce == "max" and len(in_shape) == 1 and in_shape[0] > 100
        assert len(flat_steps) == flat
        assert len(windowed_steps) == (reduce == "max" and len(in_shape) == 2 and not low_cuts)

    @pytest.mark.parametrize("in_shape, out_shape", OUTER_SHAPES[2:4])
    def test_plus_inf_entry(self, flat_steps, in_shape, out_shape):
        rng = np.random.default_rng(37)
        log_f, kernels = _outer_case(rng, in_shape, out_shape, False, "finite")
        log_f[7] = np.inf
        got = contract(log_f, kernels, "max")
        assert np.all(got == np.inf) and len(flat_steps) == 1


@pytest.fixture
def lse_outer_rows(monkeypatch):
    """(elements, N) of each block of Outer-kernel entries that an "lse" step forms."""
    formed, inside = [], []
    rows, lse = contract_mod._rows, contract_mod._lse

    def rows_spy(w, sel, *into):
        got = rows(w, sel, *into)
        if inside and isinstance(w, Outer):
            formed.append((got.size, w.shape[1]))
        return got

    def lse_spy(w, block):
        inside.append(w)
        try:
            return lse(w, block)
        finally:
            inside.pop()

    monkeypatch.setattr(contract_mod, "_rows", rows_spy)
    monkeypatch.setattr(contract_mod, "_lse", lse_spy)
    return formed


def _outer_contract(in_shape, out_shape, even):
    log_f, kernels = _outer_case(np.random.default_rng(43), in_shape, out_shape, even, "finite")
    return contract(log_f, kernels, "lse")


G513 = make_grid(1, 8.0, 513)


@pytest.mark.parametrize(
    "route",
    [lambda: _outer_contract((257,), (301,), False), lambda: _outer_contract((301,), (257,), True),
     lambda: _outer_contract((41, 19), (23, 29), False),
     lambda: log_laplace(exp_power(G513, 1.5), make_grid(1, 9.0, 513), 1.25),
     lambda: bl_integral(gaussian(G513), exp_power(G513, 3.0), bl_data(0.2)),
     lambda: lr_volume_product(lp_ball(2.0, 1), 2.0, G513, inner_cells=1024)],
    ids=["257x301", "301x257_even", "2d", "log_laplace", "bl_integral", "lr_volume_product"],
)
def test_outer_lse_steps_form_one_row_band_at_a_time(lse_outer_rows, route):
    """An "lse" step takes an Outer kernel's row maxima from its axes and forms
    at most a ROW_ELEMS band of its rows (one row at least) at once."""
    route()
    assert lse_outer_rows
    assert all(size <= max(contract_mod.ROW_ELEMS, n) for size, n in lse_outer_rows)


def _gauss_case(rng, in_shape, out_shape, even, case):
    """Gauss kernels on the axes of ``_outer_case``, each with its own variance."""
    log_f, outers = _outer_case(rng, in_shape, out_shape, even, case)
    return log_f, [Gauss.of(x, y, rng.uniform(0.05, 2.0)) for x, y in outers]


class TestGaussKernel:
    @pytest.mark.parametrize("reduce", ["lse", "max"])
    @pytest.mark.parametrize("in_shape, out_shape", OUTER_SHAPES)
    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("case", ["finite", "minus_inf", "all_minus_inf"])
    def test_matches_its_log_array(self, low_cuts, reduce, in_shape, out_shape, even, case):
        rng = np.random.default_rng(sum(out_shape) + len(case) + even)
        log_f, kernels = _gauss_case(rng, in_shape, out_shape, even, case)
        arrays = [contract_mod._rows(w, slice(None)) for w in kernels]
        for w, a in zip(kernels, arrays):
            # odd axes when even: only the x >= 0 rows are stored
            low = w.shape[0] // 2 if even else 0
            assert not w.shifted.flags.writeable
            assert w.shifted.tobytes() == np.exp(a - w.row_max)[low:].tobytes()
        if _max_refuses("gauss", reduce, log_f, kernels, low_cuts):
            assert _max_refuses("array", reduce, log_f, arrays, low_cuts)
            return
        got = contract(log_f, kernels, reduce)
        assert got.tobytes() == contract(log_f, arrays, reduce).tobytes()
        assert len(low_cuts) == 2 * even * _halved_axes(log_f)
        assert np.all(got == -np.inf) == (case == "all_minus_inf")


def _odd_gauss(rng, m, n):
    """A Gauss kernel on odd axes of m and n nodes, odd or even counts."""
    u = (np.arange(m) - (m - 1) / 2) * rng.uniform(0.01, 0.05)
    v = (np.arange(n) - (n - 1) / 2) * rng.uniform(0.01, 0.05)
    return Gauss.of(u, v, rng.uniform(0.05, 2.0))


def _shifted_array(w):
    """A Gauss kernel's whole exp(W - r), formed from its log array."""
    a = contract_mod._gauss_rows(w.u, w.v, w.var)
    return np.exp(a - np.max(a, axis=1, keepdims=True))


# odd and even row counts, bands of 63 rows below M // 2 on 513 columns
HALF_SHAPES = [(513, 513), (512, 513), (301, 513), (300, 257), (9, 7), (8, 6)]


class TestGaussHalfRows:
    @pytest.mark.parametrize("m, n", HALF_SHAPES)
    def test_odd_axes_store_the_upper_rows(self, m, n):
        w = _odd_gauss(np.random.default_rng(m + n), m, n)
        full = _shifted_array(w)
        assert w.shifted.shape == (m - m // 2, n) and not w.shifted.flags.writeable
        assert w.shifted.tobytes() == full[m // 2:].tobytes()
        a = contract_mod._gauss_rows(w.u, w.v, w.var)
        assert w.row_max.tobytes() == np.max(a, axis=1, keepdims=True).tobytes()
        # the even slice is the stored array as it is, not a copy
        cut = contract_mod._low_cut(w, m // 2).shifted
        assert cut.shape == w.shifted.shape and np.shares_memory(cut, w.shifted)

    @pytest.mark.parametrize("m, n", HALF_SHAPES)
    def test_asymmetric_axes_keep_every_row(self, m, n):
        rng = np.random.default_rng(m * n)
        w = _odd_gauss(rng, m, n)
        for u, v in [(w.u + 1e-3, w.v), (w.u, w.v * np.linspace(1, 1.01, n))]:
            g = Gauss.of(u, v, w.var)
            a = contract_mod._gauss_rows(u, v, w.var)
            assert g.shifted.shape == (m, n) and not g.shifted.flags.writeable
            assert g.shifted.tobytes() == np.exp(a - np.max(a, axis=1, keepdims=True)).tobytes()

    @pytest.mark.parametrize("m, n", HALF_SHAPES)
    def test_every_mirrored_band_is_the_materialized_one(self, m, n):
        w = _odd_gauss(np.random.default_rng(3 * m + n), m, n)
        full = _shifted_array(w)
        bands = [b for b, _ in contract_mod.banded((w.first_stored, n))]
        assert bands[-1].stop == m // 2 and (m < 100 or len(bands) > 1)
        for band in bands:
            out = np.full((band.stop - band.start, n), np.nan)
            contract_mod._mirror_rows(w, band, out)
            assert out.tobytes() == full[band].tobytes()

    @pytest.mark.parametrize("in_shape, out_shape", [((513,), (513,)), ((257,), (512,)), ((23, 30), (41, 18)),
                                                     ((7, 5, 3), (9, 6, 5))])
    @pytest.mark.parametrize("case", ["finite", "minus_inf"])
    def test_non_even_input_matches_the_full_array(self, in_shape, out_shape, case):
        rng = np.random.default_rng(sum(in_shape) + len(case))
        kernels = [_odd_gauss(rng, m, n) for m, n in zip(out_shape, in_shape)]
        log_f = rng.normal(scale=3.0, size=in_shape)
        if case == "minus_inf":
            log_f[rng.random(in_shape) < 0.3] = -np.inf
        assert all(w.shifted.shape[0] < w.shape[0] for w in kernels)
        assert _halved_axes(log_f) == 0
        arrays = [contract_mod._rows(w, slice(None)) for w in kernels]
        assert contract(log_f, kernels).tobytes() == contract(log_f, arrays).tobytes()


def _brute_shell(log_f, kernels):
    """The all-pairs max over the boundary shell, face by face: each face's
    kernel column is added last, as ``shell_split`` adds it."""
    d = log_f.ndim
    best = np.full([w.shape[0] for w in kernels], -np.inf)
    for k, w in enumerate(kernels):
        for e in (0, -1):
            face = _brute(log_f[(slice(None),) * k + (e,)], kernels[:k] + kernels[k + 1:], "max")
            col = _log_array(w)[:, e].reshape((-1,) + (1,) * (d - k - 1))
            best = np.maximum(best, np.expand_dims(face, k) + col)
    return best


def _split(log_f, kernels):
    """``shell_split`` with its shell bands assembled into one array."""
    bands, interior = shell_split(log_f, kernels)
    shell = np.empty(interior.shape)
    for band, part in bands:
        shell[band] = part
    return shell, interior


def _full_size_shell(log_f, kernels):
    """The shell's maximum folded as whole arrays, as the fold was before it
    went band by band: per axis one face contraction when the end faces are
    equal (with the larger kernel column) and two when not, each face's
    column added last, and the faces folded in by ``np.maximum`` in face
    order."""
    shell = None
    for k, w in enumerate(kernels):
        low, high = log_f[faces(log_f.ndim)[2 * k]], log_f[faces(log_f.ndim)[2 * k + 1]]
        if np.array_equal(low, high):
            pairs = [(low, np.maximum(w.x * w.y[0], w.x * w.y[-1]))]
        else:
            pairs = [(low, w.x * w.y[0]), (high, w.x * w.y[-1])]
        for face, col in pairs:
            g = np.expand_dims(contract(face, kernels[:k] + kernels[k + 1:], "max"), k)
            part = g + col.reshape((-1,) + (1,) * (log_f.ndim - k - 1))
            shell = part if shell is None else np.maximum(shell, part)
    return shell


@pytest.fixture
def face_contractions(monkeypatch):
    """The shape of every array ``shell_split`` contracts: its interior and
    then its faces."""
    calls = []
    inner = contract_mod.contract

    def spy(log_f, kernels, reduce="lse", out=None):
        calls.append(np.shape(log_f))
        return inner(log_f, kernels, reduce, out=out)

    monkeypatch.setattr(contract_mod, "contract", spy)
    return calls


SHELL_SHAPES = [((9,), (13,)), ((15, 31), (9, 41)), ((5, 13, 7), (7, 11, 15))]
# inputs even in every axis, in axis 1 only (2D and 3D) and in none
SHELL_CASES = [(i, o, even) for i, o in SHELL_SHAPES for even in ("every", "one", "none") if len(i) > 1 or even != "one"]


class TestShellMax:
    @pytest.mark.parametrize("kind", ["array", "outer", "gauss"])
    @pytest.mark.parametrize("in_shape, out_shape, even", SHELL_CASES)
    @pytest.mark.parametrize("case", ["minus_inf", "plus_inf", "dead_face"])
    def test_matches_all_pairs_over_the_shell(self, face_contractions, kind, in_shape, out_shape, even, case):
        """Bitwise against the all-pairs max over the shell (random inputs
        have no zero maximum whose sign could differ), one face contraction
        per axis where the two end faces are equal; within 1e-12 of the
        shell's max summed in axis order, which differs only in the rounding
        order of the face column."""
        d = len(in_shape)
        rng = np.random.default_rng(sum(in_shape) + len(kind) + len(even) + len(case))
        axes = {"every": range(d), "one": [1], "none": []}[even]
        log_f, kernels = _orthant_case(rng, kind, in_shape, out_shape, axes)
        if case == "plus_inf":
            log_f[(1,) * d] = log_f[(0,) * d] = np.inf
            for k in axes:
                log_f = np.maximum(log_f, np.flip(log_f, k))
        elif case == "dead_face":
            log_f[..., 0] = log_f[..., -1] = -np.inf
        if kind != "outer":  # refused, as by "max", before any face is read or masked
            before = log_f.tobytes()
            with pytest.raises(ValueError, match="Outer kernels on finite, nondecreasing axes"):
                shell_split(log_f, kernels)
            assert log_f.tobytes() == before and face_contractions == []
            return
        got = _split(log_f.copy(), kernels)[0]
        assert got.shape == out_shape
        assert got.tobytes() == _brute_shell(log_f, kernels).tobytes()
        _close(got, _brute(np.where(boundary_mask(in_shape), log_f, -np.inf), kernels, "max"))
        shared = [np.array_equal(np.take(log_f, 0, k), np.take(log_f, -1, k)) for k in range(d)]
        assert all(shared) == (even == "every" or case == "dead_face" and d == 1)
        assert face_contractions[0] == in_shape
        assert len(face_contractions) - 1 == sum(1 if same else 2 for same in shared)
        if case == "plus_inf":
            assert np.isposinf(got).all()
        else:
            assert np.isfinite(got).any() == (case != "dead_face" or d > 1)

    @pytest.mark.parametrize("in_shape, out_shape", SHELL_SHAPES)
    def test_row_bands_are_bitwise_invisible(self, monkeypatch, in_shape, out_shape):
        rng = np.random.default_rng(67)
        log_f, kernels = _orthant_case(rng, "outer", in_shape, out_shape, [])
        want = _split(log_f.copy(), kernels)[0]
        monkeypatch.setattr(contract_mod, "ROW_ELEMS", 7)
        assert _split(log_f.copy(), kernels)[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("in_shape, out_shape", SHELL_SHAPES)
    @pytest.mark.parametrize("ends", ["equal", "unequal"])
    @pytest.mark.parametrize("row_elems", [None, 7])
    def test_bands_assemble_the_full_size_shell(self, monkeypatch, in_shape, out_shape, ends, row_elems):
        """The bands, assembled, are the bytes of the shell folded as whole
        arrays, with end faces equal on every axis (an even input) or on
        none, in one band and in bands of a row or two."""
        rng = np.random.default_rng(71 + len(in_shape))
        log_f, kernels = _orthant_case(rng, "outer", in_shape, out_shape, range(len(in_shape)) if ends == "equal" else [])
        shared = [np.array_equal(np.take(log_f, 0, k), np.take(log_f, -1, k)) for k in range(log_f.ndim)]
        assert shared == [ends == "equal"] * log_f.ndim
        want = _full_size_shell(log_f, kernels)
        if row_elems:
            monkeypatch.setattr(contract_mod, "ROW_ELEMS", row_elems)
        bands, _ = shell_split(log_f.copy(), kernels)
        got = [(band, part.copy()) for band, part in bands]  # a part is valid until the next is drawn
        assert [band for band, _ in got] == [band for band, _ in contract_mod.banded(out_shape)]
        assert (len(got) > 1) == bool(row_elems)
        assert np.concatenate([part for _, part in got]).tobytes() == want.tobytes()

    def test_forms_no_full_size_temporary(self):
        """A 3D 65^3 split, its input's copy included, peaks at 1.50
        full-size arrays with its bands drawn: the input, which ends as the
        interior's maximum, the contraction's orthant temporaries and two
        band buffers. A full-size shell would read 2.5."""
        grid = make_grid(3, 6.0, 65)
        f = gaussian(grid)
        kernels = [Outer(a, a) for a in grid.axes()]
        log_f = -f.phi
        log_f[0] = -1.0  # one face that differs from its partner

        def split():
            bands, interior = shell_split(log_f.copy(), kernels)
            for _ in bands:
                pass
            return interior

        assert peak_in_outputs(split, nbytes=log_f.nbytes) < 1.55


def _edge_dominated_two_contractions(log_f, kernels):
    """The boundary flags as two full ``max`` contractions, shell against
    interior, and the two maxima."""
    shell = boundary_mask(log_f.shape)
    boundary = contract(np.where(shell, log_f, -np.inf), kernels, "max")
    interior = contract(np.where(shell, -np.inf, log_f), kernels, "max")
    return boundary >= interior, boundary, interior


EDGE_GRIDS = [make_grid(1, 8.0, 513), make_grid(2, 6.0, 65), make_grid(3, 4.0, 17)]


@pytest.mark.parametrize("grid", EDGE_GRIDS, ids=["1d", "2d", "3d"])
@pytest.mark.parametrize(
    "make",
    [gaussian, lambda g: exp_power(g, 1.0), lambda g: exp_power(g, 2.5), lambda g: fp_evolve(box(g), 0.3)],
    ids=["gaussian", "exp_power1", "exp_power2.5", "box_flow"],
)
@pytest.mark.parametrize("s", [0.1, 0.4])
def test_edge_flags_equal_the_two_contraction_form(grid, make, s):
    """The OU and Laplace edge flags of the library, byte for byte the
    two-contraction form on the kernels each route builds."""
    f = make(grid)
    var = -math.expm1(-2 * s)
    log_g = f.log_values() - sum(m * m for m in grid.meshgrid()) / (2 * var)
    want = _edge_dominated_two_contractions(log_g, [Outer(math.exp(-s) / var * a, a) for a in grid.axes()])[0]
    assert ou_edge_flags(f, s).tobytes() == want.tobytes()
    sched = ExponentSchedule(s)
    scale = 1.0 / sched.p
    x_grid = laplace_grid(f, sched.q, scale)
    kernels = [Outer(scale * x_grid.axis(k), grid.axis(k)) for k in range(grid.dim)]
    want = _edge_dominated_two_contractions(-scale * f.phi, kernels)[0]
    assert laplace_f_t(f, s)[1].tobytes() == want.tobytes()


@pytest.mark.parametrize("s", [0.1, 0.2, 0.4])
def test_edge_flags_differ_only_at_exact_ties(s):
    """``shell_split`` adds each face's kernel column last, so its shell
    maximum can round otherwise than the contraction in axis order. On a 3D 17^3
    Gaussian with Laplace kernels (1.5 x / p) z the flags can then differ
    (8, 12 and 32 of 4913 nodes), and at each such node the two orders
    disagree on an exact tie: one of them puts the shell maximum exactly on
    the interior one."""
    grid = make_grid(3, 4.0, 17)
    scale = 1.0 / ExponentSchedule(s).p
    kernels = [Outer(1.5 * scale * a, a) for a in grid.axes()]
    log_f = -scale * gaussian(grid).phi
    got = edge_dominated(log_f.copy(), kernels)
    want, boundary, interior = _edge_dominated_two_contractions(log_f, kernels)
    edge = _split(log_f.copy(), kernels)[0]
    _close(edge, boundary)
    flips = got != want
    assert np.all((boundary == interior) | (edge == interior) | ~flips)


@pytest.mark.parametrize("shape", [(9,), (5, 7), (4, 5, 6)], ids=["1d", "2d", "3d"])
def test_faces_are_the_boundary_shell(shape):
    """``faces(n)`` lists axis k at its first node and then at its last, k in
    order, and together they mark exactly the nodes with an end index."""
    shell = faces(len(shape))
    assert shell == [(slice(None),) * k + (e,) for k in range(len(shape)) for e in (0, -1)]
    mask = np.zeros(shape, dtype=bool)
    for face in shell:
        mask[face] = True
    ends = np.any([(i == 0) | (i == n - 1) for i, n in zip(np.indices(shape), shape)], axis=0)
    assert np.array_equal(mask, ends)


@pytest.mark.parametrize("out_points", [17, 33], ids=["other-shape", "own-shape"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_edge_dominated_masks_its_input_in_place(dim, out_points):
    """``edge_dominated`` gives the bytes of the shell maximum compared with
    a contraction of a masked copy. It works in its input instead: when the
    result fits, the input ends as the interior's maximum, else as the input
    with its shell at -inf."""
    grid = make_grid(dim, 4.0, 33)
    x = make_grid(dim, 3.0, out_points)
    kernels = [Outer(1.5 * x.axis(k), grid.axis(k)) for k in range(dim)]
    log_f = -exp_power(grid, 2.5).phi
    masked = np.where(boundary_mask(log_f.shape), -np.inf, log_f)
    interior = contract(masked, kernels, "max")
    want = _split(log_f.copy(), kernels)[0] >= interior
    owned = log_f.copy()
    assert edge_dominated(owned, kernels).tobytes() == want.tobytes()
    assert owned.tobytes() == (interior if out_points == 33 else masked).tobytes()


@pytest.mark.parametrize("even", [True, False], ids=["even", "uneven"])
@pytest.mark.parametrize("out_size", [9, 7], ids=["own-shape", "other-shape"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_shell_split_gives_the_two_contractions(dim, out_size, even):
    """``shell_split`` gives the bytes of the shell and interior maxima of two
    full ``max`` contractions on masked copies. The data are dyadic (integer
    axes, inputs a quarter off the integers), so every sum is exact and no
    maximum is zero: the order in which ``shell_split`` adds a face column
    moves no byte. When the shapes fit, the input ends as the interior's
    maximum, else as the input with its shell at -inf."""
    rng = np.random.default_rng(97 + dim + out_size)
    kernels = [Outer(np.arange(out_size) - out_size // 2.0, np.arange(9) - 4.0)] * dim
    log_f = rng.integers(-8, 8, size=(9,) * dim) + 0.25
    log_f[rng.random(log_f.shape) < 0.2] = -np.inf
    log_f[(0,) * dim] = log_f[(4,) * dim] = 1.25  # a finite node on the shell and one inside
    if even:
        for k in range(dim):
            log_f = np.maximum(log_f, np.flip(log_f, k))
    _, boundary, interior = _edge_dominated_two_contractions(log_f, kernels)
    masked = np.where(boundary_mask(log_f.shape), -np.inf, log_f)
    owned = log_f.copy()
    shell, inner = _split(owned, kernels)
    assert shell.tobytes() == boundary.tobytes() and inner.tobytes() == interior.tobytes()
    assert np.isfinite(boundary).any() and np.isfinite(interior).any()
    assert (inner is owned) == (out_size == 9)
    assert owned.tobytes() == (interior if out_size == 9 else masked).tobytes()


@pytest.fixture
def engine_kernels(monkeypatch):
    """Every kernel that an axis step receives, by reducer."""
    seen = {"lse": [], "max": []}
    for name in seen:
        inner = getattr(contract_mod, "_" + name)

        def spy(w, block, inner=inner, name=name):
            seen[name].append(w)
            return inner(w, block)

        monkeypatch.setattr(contract_mod, "_" + name, spy)
    return seen


GRIDS = [make_grid(1, 8.0, 513), make_grid(2, 6.0, 65), make_grid(3, 4.0, 17)]


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d", "3d"])
@pytest.mark.parametrize(
    "route",
    [lambda g: volume_product(exp_power(g, 1.5)), lambda g: volume_product(fp_evolve(box(g), 0.3)),
     lambda g: laplace_f_t(exp_power(g, 1.5), 0.1), lambda g: ou_edge_flags(exp_power(g, 1.5), 0.2),
     lambda g: laplace_grid(gaussian(g), -1.0, 1.0),
     lambda g: bl_integral(gaussian(g), exp_power(g, 3.0), bl_data(0.2))],
    ids=["volume_product", "volume_product_of_a_flow", "laplace_flags", "ou_edge_flags", "laplace_grid",
         "bl_integral"],
)
def test_library_max_steps_get_outer_kernels(engine_kernels, grid, route):
    """No library route hands the engine an array kernel: each "max" step gets
    an Outer kernel on sorted axes, the only kind "max" takes, and each "lse"
    step an Outer or a Gauss kernel."""
    route(grid)
    assert engine_kernels["lse"] or engine_kernels["max"]
    contract_mod._check_max(engine_kernels["max"])
    assert all(isinstance(w, (Outer, Gauss)) for w in engine_kernels["lse"])


TRAFFIC_GRIDS = [make_grid(1, 8.0, 513), make_grid(2, 6.0, 65)]


EVEN_ROUTES = {
    "log_laplace": lambda g: log_laplace(exp_power(g, 1.5), make_grid(g.dim, 9.0, g.points), 1.25),
    "bl_integral": lambda g: bl_integral(gaussian(g), exp_power(g, 3.0), bl_data(0.2)),
    "lr_volume_product": lambda g: lr_volume_product(lp_ball(2.0, g.dim), 2.0, g),
    "ou_edge_flags": lambda g: ou_edge_flags(exp_power(g, 1.5), 0.2),
    "fp_evolve": lambda g: fp_evolve(box(g), 0.3),
    "polar_density": lambda g: polar_density(exp_power(g, 1.5), make_grid(g.dim, 4.0, g.points)),
}


@pytest.mark.parametrize("grid", TRAFFIC_GRIDS, ids=["1d513", "2d65"])
@pytest.mark.parametrize("route", list(EVEN_ROUTES.values()), ids=list(EVEN_ROUTES))
def test_even_routes_take_the_half_path(engine_kernels, low_cuts, orthant_fills, grid, route):
    """Each route's input is even in every coordinate, so every call takes the
    orthant path and halves every axis, and every "max" step (an Outer kernel
    on sorted axes) reads only the y >= 0 half of its input. That holds for
    the face contractions of ``shell_split`` too, each of its own dimension:
    one step per axis of the call."""
    route(grid)
    steps = len(engine_kernels["lse"]) + len(engine_kernels["max"])
    assert orthant_fills and sum(len(lows) for lows in orthant_fills) == steps
    assert all(min(lows) > 0 for lows in orthant_fills)
    assert len(low_cuts) == steps
    assert all(w.y[0] >= 0 and w.y.size == grid.points[0] // 2 + 1 for w in engine_kernels["max"])


@pytest.mark.parametrize(
    "grid, route",
    [pytest.param(g, route, id=f"{name}-{gid}")
     for g, gid in zip(TRAFFIC_GRIDS + [make_grid(3, 4.0, 17)], ["1d513", "2d65", "3d17"])
     for name, route in EVEN_ROUTES.items() if g.dim <= 2 or name != "lr_volume_product"],  # L^r: n <= 2
)
def test_even_routes_read_only_the_orthant(engine_steps, grid, route):
    """Every call of these routes is even along every axis, so each axis step
    reads only the orthant columns, 2^(n - 1) times fewer than the full
    block: an "lse" step restores its own axis to N_k rows, and a "max" step
    (on sorted Outer kernels) keeps its N_k - N_k // 2."""
    route(grid)
    assert engine_steps
    for reduce, in_shape, out_shape, steps in engine_steps:
        assert steps == _orthant_steps(in_shape, out_shape, reduce, range(len(in_shape)))


@pytest.mark.parametrize("grid", TRAFFIC_GRIDS, ids=["1d513", "2d65"])
@pytest.mark.parametrize("route", [lambda g: laplace_grid(gaussian(g), -1.0, 1.0)], ids=["laplace_grid"])
def test_ladder_routes_take_the_full_path(engine_kernels, low_cuts, grid, route):
    """Their first kernel's x axis is a ladder of nonnegative rungs, not odd."""
    route(grid)
    assert engine_kernels["lse"] or engine_kernels["max"]
    assert low_cuts == []


@pytest.mark.parametrize("grid", TRAFFIC_GRIDS, ids=["1d513", "2d65"])
def test_default_dual_grid_makes_no_engine_step(engine_kernels, grid):
    """Its half-widths come from the shadow profiles, not from conjugates."""
    default_dual_grid(exp_power(grid, 1.5))
    assert engine_kernels == {"lse": [], "max": []}


def _lr_all_pairs(body: BodySpec, r: float, outer_grid, inner_cells: int) -> float:
    """M_r(K) with every (outer node, inner cell) pair summed explicitly."""
    n = body.dim
    bound = body.radius if body.kind == "lp_ball" else math.sqrt(np.linalg.eigvalsh(body.matrix).max())
    hc = 2 * bound / inner_cells
    c = -bound + (np.arange(inner_cells) + 0.5) * hc
    pts = np.stack([m.ravel() for m in np.meshgrid(*([c] * n), indexing="ij")], axis=-1)
    y = pts[body.gauge(pts) <= 1.0]
    log_cell = n * math.log(hc)
    log_vol = math.log(len(y)) + log_cell
    inner = logsumexp(r * (outer_grid.nodes() @ y.T), axis=1) + log_cell - log_vol
    outer = (-inner / r).reshape(outer_grid.points) + trapezoid_log_weights(outer_grid)
    return log_vol + float(logsumexp(outer))


def _laplace_per_node(f, x_grid, scale):
    """log Laplace transform and boundary flags, one x node at a time."""
    mesh = f.grid.meshgrid()
    base = -scale * f.phi
    zw = trapezoid_log_weights(f.grid)
    bmask = boundary_mask(f.grid.points)
    vals, flags = [], []
    for x in x_grid.nodes():
        e = scale * sum(xk * mk for xk, mk in zip(x, mesh)) + base
        vals.append(float(logsumexp(e + zw)))
        flags.append(bool(np.max(e[bmask]) >= np.max(e[~bmask])))
    return np.reshape(vals, x_grid.points), np.reshape(flags, x_grid.points)


def _bl_all_pairs(f1, f2, data) -> float:
    q2 = data.qform
    x1, x2 = f1.grid.nodes(), f2.grid.nodes()
    b1 = (-math.pi * q2[0, 0]) * (x1 * x1).sum(1) - data.c1 * f1.phi.ravel() + trapezoid_log_weights(f1.grid).ravel()
    b2 = (-math.pi * q2[1, 1]) * (x2 * x2).sum(1) - data.c2 * f2.phi.ravel() + trapezoid_log_weights(f2.grid).ravel()
    return float(logsumexp(b1[:, None] + (-2 * math.pi * q2[0, 1]) * (x1 @ x2.T) + b2[None, :]))


class TestPortsMatchAllPairs:
    @pytest.mark.parametrize(
        "body",
        [lp_ball(math.inf, 2), lp_ball(2.0, 2), lp_ball(1.0, 2), lp_ball(2.0, 1),
         ellipsoid(np.array([[2.0, 0.3], [0.3, 0.5]]))],
        ids=["square", "disk", "diamond", "segment", "ellipse"],
    )
    @pytest.mark.parametrize("r", [1.0, 5.0])
    def test_lr_volume_product(self, body, r):
        outer = make_grid(body.dim, 12.0, 33)
        got = lr_volume_product(body, r, outer, inner_cells=16).log_abs
        want = _lr_all_pairs(body, r, outer, 16)
        assert abs(got - want) <= REL * max(1.0, abs(want))

    @pytest.mark.parametrize(
        "make, scale",
        # exp_power at 1 / p(s = 0.1), the scale laplace_f_t takes at s = 0.1
        [(lambda g: gaussian(g), 1.0), (lambda g: exp_power(g, 1.5), 1.0 / ExponentSchedule(0.1).p),
         (lambda g: box(g, half=6.0), 1.0), (lambda g: cross2d(g, long=6.0), 1.0)],
        ids=["gaussian", "exp_power", "box", "cross2d"],
    )
    def test_log_laplace_values_and_flags(self, make, scale):
        for grid, x_grid in [(make_grid(1, 6.0, 41), make_grid(1, 9.0, 31)),
                             (make_grid(2, 6.0, 17), make_grid(2, (7.0, 5.0), (13, 11)))]:
            try:
                f = make(grid)
            except ValueError:  # cross2d is 2D only
                continue
            vals, flags = log_laplace(f, x_grid, scale)
            want_vals, want_flags = _laplace_per_node(f, x_grid, scale)
            _close(vals, want_vals)
            assert np.array_equal(flags, want_flags)
            assert flags.any()

    @pytest.mark.parametrize("s", [0.2, 0.5 * math.log(2)])
    def test_bl_integral(self, s):
        data = bl_data(s)
        for g1, g2 in [(make_grid(1, 6.0, 31), make_grid(1, 5.0, 25)),
                       (make_grid(2, 6.0, 15), make_grid(2, (5.0, 4.0), (13, 11)))]:
            f1 = gaussian_to_logdensity(isotropic_gaussian(0.7, g1.dim), g1)
            f2 = exp_power(g2, 3.0)
            got = bl_integral(f1, f2, data).log_abs
            want = _bl_all_pairs(f1, f2, data)
            assert abs(got - want) <= REL * max(1.0, abs(want))


def test_oracles_share_no_code_with_the_engine():
    tree = ast.parse(inspect.getsource(oracles))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any("contract" in name for name in names)
