"""Separable log-domain contraction, the one engine behind every grid transform.

``contract(log_f, [W_0, ..., W_{d-1}])`` computes
``log g[i] = RED_j (sum_k W_k[i_k, j_k] + log f[j])`` one axis at a time, with
RED = log-sum-exp (``"lse"``) or max (``"max"``). The FP/OU kernels, the
Laplace kernel ``a x_k z_k``, the Brascamp-Lieb cross term and the L^r kernel
``r x_k y_k`` all factor this way, so each axis step touches ``M_k N_k
prod_{l != k} N_l`` pairs instead of all pairs.

An ``"lse"`` kernel is an ``(M, N)`` array, an ``Outer`` kernel or a ``Gauss``
kernel. A ``"max"`` kernel is an Outer kernel on finite, nondecreasing axes,
the only kind the library sends; ``contract`` and ``shell_split`` raise
``ValueError`` on any other.

``Outer(x, y)`` is the rank-one kernel ``W[i, j] = x[i] * y[j]`` held as its
two axes. Every rank-one kernel goes to the engine so, its scale folded into
``x``: the conjugate's ``x_k y_k``, the Laplace, Brascamp-Lieb and L^r
kernels, and the OU edge flags' ``(e^{-s} / var) x_k z_k``, whose row term
cannot move an argmax over z. A step forms only the products it reads,
``np.multiply.outer(x[rows], y)`` for row bands and coarse rows and ``x[i] *
y[j]`` inside flat windows (an ``"lse"`` step takes its row maxima from the
axes), except a dense ``"max"`` step and one windowed on two or more columns,
which form it whole. These are the IEEE products of the full kernel's
entries, so an Outer kernel gives the bytes of its materialized array, and
the banded and flat steps hold at most a row band of it (the whole is 2.1 MB
on 513 x 513). Its structure comes from its
axes in O(M + N): it is centrally symmetric when ``x == -x[::-1]`` and ``y ==
-y[::-1]``, since (-a) (-b) rounds exactly as a b; and it is finite and Monge
when both axes are finite and nondecreasing, since then each 2 x 2 difference
of the exact products is (x[i+1] - x[i]) (y[j+1] - y[j]) >= 0. That is the
property the windows rest on.

``Gauss`` is the Gaussian log-kernel ``W[i, j] = -(u[i] - v[j])^2 / (2 var) -
log(2 pi var) / 2`` of the FP/OU flow, held as its axes, ``var``, its row
maxima and the read-only ``exp(W - r)`` (r the row maxima, infinities as 0),
which ``Gauss.of`` forms once in W's own memory. It keeps no log array. Its
central symmetry comes from its axes as for Outer, since (-a) - (-b) rounds
exactly as -(a - b): on odd axes row M - 1 - i of ``exp(W - r)`` is row i
reversed, byte for byte, so ``Gauss.of`` forms and keeps only the ``M - M //
2`` rows from ``M // 2`` on (the x >= 0 rows), half the bytes and half the
exponentials of the whole (a 1D 513 kernel: 257 x 513, 1.05 MB). An
``"lse"`` step reads its exponential and exponentiates nothing (a halved 1D
513 step, 257 x 513 on one column: 0.17 against 0.96 ms on its log array):
the stored rows in place, in one product, and each band of the rows below
``M // 2``, which only an input not even along the axis needs, copied from
its mirror into the band buffer. The underflow fallback re-forms the log rows
it needs from the axes with the IEEE operations of the build, so a Gauss
kernel gives the bytes of its log array.

Cost of one axis step with an ``(M, N)`` kernel on ``columns`` columns:

- ``"lse"`` shifts each kernel row and each column by its maximum, so the step
  is one ``M N columns`` sum of products (``np.einsum``, over row bands of the
  kernel) plus ``M N + N columns`` exponentials (``N columns`` on a Gauss
  kernel), with no ``(M, N, columns)`` array. Where the shifted sum falls
  below ``e^FLOOR`` it may have lost terms to underflow; those entries are
  recomputed with an exact per-entry max-shifted sum, a band of entries at a
  time.
- ``"max"`` picks one of three routes by the step's size alone. A step of
  fewer than ``ROW_ELEMS`` sums ``M N columns`` is one dense block: it forms
  the ``(M, N, columns)`` sums and reduces them over j. A larger step is
  windowed. Adding ``block[j, c]`` keeps each column Monge, so its first row
  argmax never decreases with i (Aggarwal, Klawe, Moran, Shor and Wilber,
  Algorithmica 2, 1987): a dense argmax on every ``STRIDE``-th row brackets
  the rows between, and each row reduces only over its bracket. On two or
  more columns the rows between two coarse rows share one window, from the
  least argmax on the first to the greatest on the next, so each band of
  them is one block of sums reduced over j: ``M N columns / STRIDE`` sums for
  the argmaxes plus ``columns`` per row and j of its window, with no ``(M, N,
  columns)`` array. On one column every row's window of ``x[i] y[j] +
  block[j]`` is gathered into one flat array and reduced by one
  ``np.maximum.reduceat``, with no Python loop (0.12 against 0.37 ms on a 257
  x 513 step). The routes return the same values; only the sign of a zero
  maximum can differ at exact ties, where numpy's dense max picks -0.0 or
  +0.0 by SIMD lane.

Symmetry halves the work. Each kernel is checked first (Outer and Gauss
kernels from their axes, an array kernel by one read), then the input, one
read per axis whose kernel passes:

- The orthant path. Along every axis k whose kernel is centrally symmetric
  and along which the input equals its own flip, only the ``M_k - M_k // 2``
  rows with x_k >= 0 are contracted, and the input is cut to its ``y_k >=
  0`` half, ``N_k // 2:``, before the first step. A step works one column at
  a time and maps mirror columns to equal outputs, so evenness survives
  every step and no step computes a mirror column: step k reads 2^(n - 1 -
  k) times fewer columns than one that halves only its own rows, and with
  every axis even a 3D step costs at most 1/8 of the full one. An ``"lse"``
  step sums over all of its axis, so it first restores it by one
  reflection, and axis 0 stays whole for it, since no earlier step gains
  from that cut. At the end each halved axis is filled by one sliced
  reflection, exactly, its x_k = 0 slab included. A ``"max"`` step keeps
  the ``y_k >= 0`` half, ``Outer(x[M // 2:], y[N // 2:])`` on ``block[N //
  2:]``: the block is even along k, x_i >= 0 and y_j >= 0 there, and
  fl(x_i (-y_j)) = -fl(x_i y_j) <= fl(x_i y_j), so each mirrored term
  rounds at most to its partner and the maximum keeps its value (only the
  sign of a zero maximum can differ, at exact ties). This is the per-axis
  symmetry that real-even FFTs exploit (Frigo and Johnson, Proc. IEEE 93,
  2005). In 1D it is the only path.
- The central half path, when no axis qualifies but every kernel is
  centrally symmetric and the input equals its reflection under x -> -x (a
  Gaussian with off-diagonal covariance): only the rows of axis 0 with x_0
  >= 0 are contracted, so that step has half the rows and every later step
  half the columns, and the rest is filled by reflection, the x_0 = 0 slab,
  which ``"lse"`` leaves even only to rounding, by recursion.

The even slice of ``Outer(x, y)`` is ``Outer(x[M // 2:], y)``; that of a
Gauss kernel cuts ``u`` and the row maxima at ``M // 2`` and takes the
stored rows of ``exp(W - r)`` as they are, a view with no copy.

The boundary shell is decided here alone. ``faces(n)`` lists its 2n faces,
axis k at its first node and at its last, for the polar, the edge flags and
the quadrature's tail ratio. ``shell_split`` gives the polar and
``edge_dominated`` the ``"max"`` contraction over the shell and over the rest:
it checks the kernels before it writes to its input, copies the faces out and
sets them to -inf in place, contracts the interior into its input when the
shapes fit, and only then forms the shell's maximum from the copies, one row
band at a time as its caller draws the bands: the polar writes each band's
conjugate and flags into the interior's buffer, ``edge_dominated`` compares
each into its flags, and no full-size shell array is formed. That maximum
goes face by face,
as a max over a union of node sets is the max of the maxes: the face ``j_k =
e`` is an (n - 1)-dimensional ``contract`` call over the other axes (a scalar
in 1D), and the column ``W_k[:, e]`` is added along axis k last; two equal end
faces, as on every even input, share one call with the column ``max(W_k[:, 0],
W_k[:, -1])``, exactly, since fl(c + .) is monotone. Adding the column last
rounds otherwise than a contraction in axis order, so the two orders can
disagree where one of them ties the interior's maximum exactly.

``contract(log_f, kernels, reduce, out=buf)`` writes the whole result, the
reflected fill included, into ``buf`` and returns it. ``buf`` may be ``log_f``
itself: every step writes a fresh array, and ``buf`` is written only after the
last one. A step drops the previous result once its block exists, every step
reads its block in row order (``moved.reshape(N, -1)``), a windowed one
transposing a band of columns at a time for its argmaxes, and the fill copies
each orthant from the last result. On 3D 65^3 with every axis even, a
contraction into its own input holds 0.40 of a full-size array beyond it for
``"max"`` and 0.69 for ``"lse"``. The routes contract into buffers they own
(tracemalloc peaks on 3D 65^3 in full-size arrays, output included):
``fp_evolve`` and ``ou_apply`` into their weighted log-values, then negated in
place (1.69), ``legendre_transform`` into its negated input (1.42), and
``shell_split`` into its input, the polar's negated one and the edge flags'
own, the shell masked in place (``polar_density`` 1.52, its output written
into that input, and ``ou_edge_flags`` 2.00, its boolean flags beside it).

Every full-size pass of the library is cut into row bands by ``banded``:
bands of at most ``ROW_ELEMS`` elements, formed in one buffer per pass. That
covers the "lse" kernel bands and the fallback's sums, the windowed argmax
sums and window sums, the shell's face fold, the polar's margin and the
Gaussian log-weight.

``np.einsum`` runs numpy's own loop; a BLAS product (``@``) would be faster
single-threaded but stalls under a default-threaded OpenBLAS on small
matrices, and the library sets no thread variables.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import reflect

# below log S = FLOOR the shifted "lse" sum is recomputed exactly: every term
# lost to underflow is under 2.3e-308, a share below N e^-108 of S
FLOOR = -600.0
# element budget of one row band (256 KB of float64), the engine's only one:
# ``banded`` cuts every full-size pass into bands of this many elements, so a
# 1D 513-node "lse" step allocates no (M, N) temporary (glibc unmapped 2 MB
# ones, faulted in again on every call; bands of 2^17 and up still do). A
# "max" step is windowed from this many sums M N columns on: in 1D the dense
# block was 10-30% faster at 2^14, the two broke even near 2^14.5, flat
# windows were faster from 2^15, 3x at 257 x 513; a 9 x 9 step on 81 columns
# took 19 us dense against 81 us windowed
ROW_ELEMS = 2**15
# rows between dense argmaxes in the windowed "max" step (4 to 16 measured; 8
# was fastest on 2D 129^2 and 3D 33^3 and 65^3 polars, and with the band
# windows no other value was faster on all three)
STRIDE = 8


class Outer(NamedTuple):
    """The rank-one kernel ``W[i, j] = x[i] * y[j]``, held as its two 1D axes."""

    x: np.ndarray
    y: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x.size, self.y.size)


class Gauss(NamedTuple):
    """The Gaussian log-kernel ``W[i, j] = -(u[i] - v[j])^2 / (2 var) - log(2
    pi var) / 2``, held as its axes, its ``(M, 1)`` row maxima and the
    read-only ``shifted = exp(W - r)``; build it with ``Gauss.of``. On odd
    axes ``shifted`` holds only rows ``M // 2:``, the rest being their
    mirror ``shifted[M - 1 - i, N - 1 - j]``."""

    u: np.ndarray
    v: np.ndarray
    var: float
    row_max: np.ndarray
    shifted: np.ndarray

    @classmethod
    def of(cls, u: np.ndarray, v: np.ndarray, var: float) -> Gauss:
        """Form W once, shift each row by its maximum and exponentiate, in
        place; on odd axes only rows ``M // 2:``, whose mirrors give the rest
        of the row maxima."""
        low = u.size // 2 if _odd(u) and _odd(v) else 0
        w = _gauss_rows(u[low:], v, var)
        kept = np.max(w, axis=1, keepdims=True)
        w -= _finite_or_zero(kept)
        np.exp(w, out=w)
        w.flags.writeable = False
        return cls(u, v, var, np.concatenate([kept[::-1][:low], kept]), w)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.size, self.v.size)

    @property
    def first_stored(self) -> int:
        """The first row ``shifted`` holds: ``M // 2`` on odd axes, else 0."""
        return self.u.size - self.shifted.shape[0]


def _gauss_rows(u: np.ndarray, v: np.ndarray, var: float) -> np.ndarray:
    """-(u[i] - v[j])^2 / (2 var) - log(2 pi var) / 2, in place: negating the
    square is exact, so these are the bytes of ``-d * d / (2 * var) - c``."""
    w = np.subtract.outer(u, v)
    np.multiply(w, w, out=w)
    np.negative(w, out=w)
    w /= 2 * var
    w -= 0.5 * math.log(2 * math.pi * var)
    return w


def _rows(w, rows, out: np.ndarray | None = None) -> np.ndarray:
    """``w[rows]`` as an array; an Outer or Gauss kernel forms only those rows
    from its axes (a Gauss kernel its log rows), an Outer kernel in ``out``
    when given."""
    if isinstance(w, Outer):
        return np.multiply.outer(w.x[rows], w.y, out=out)
    if isinstance(w, Gauss):
        return _gauss_rows(w.u[rows], w.v, w.var)
    return w[rows]


def banded(shape):
    """Yield ``(band, part)`` for each slice ``band`` of axis 0 of an array of
    ``shape`` that holds at most ROW_ELEMS elements (one row at least), in
    order; ``part`` is that band's rows of one float buffer, allocated once
    per call. One buffer serves every band because glibc maps each new 256 KB
    array afresh: with a new array per band, its page faults made a 257 x 513
    "lse" step slower than forming the whole kernel (1.1-1.4 against
    0.85-0.93 ms)."""
    step = max(1, ROW_ELEMS // math.prod(shape[1:]))
    buf = np.empty((min(step, shape[0]),) + tuple(shape[1:]))
    for lo in range(0, shape[0], step):
        band = slice(lo, min(lo + step, shape[0]))
        yield band, buf[:band.stop - lo]


def _finite_or_zero(a: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(a), a, 0.0)


def _lse_exact(summed: np.ndarray) -> np.ndarray:
    """log sum_j exp(summed[e, j]) per entry e, shifted by its maximum and
    exponentiated in place."""
    m = _finite_or_zero(np.max(summed, axis=1, keepdims=True))
    summed -= m
    np.exp(summed, out=summed)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(summed, axis=1)) + m[:, 0]


def _row_max(w) -> np.ndarray:
    """The ``(M, 1)`` row maxima of a kernel. An Outer kernel's come from its
    axes: rounding is monotone, so max_j x[i] y[j] rounds as x[i] max(y) where
    x[i] >= 0 and as x[i] min(y) elsewhere."""
    if isinstance(w, Gauss):
        return w.row_max
    if isinstance(w, Outer):
        return np.where(w.x >= 0, w.x * np.max(w.y), w.x * np.min(w.y))[:, None]
    return np.max(w, axis=1, keepdims=True)


def _mirror_rows(w: Gauss, band: slice, out: np.ndarray) -> None:
    """Rows ``band``, below the stored ones, of a Gauss kernel's ``exp(W -
    r)`` into ``out``. Row i is stored row M - 1 - i reversed: (-a) - (-b)
    rounds as -(a - b), so these are the bytes of the full array's rows."""
    m, low = w.shape[0], w.first_stored
    np.copyto(out, w.shifted[m - low - band.stop:m - low - band.start][::-1, ::-1])


def _lse(w, block: np.ndarray) -> np.ndarray:
    """log sum_j exp(w[i, j] + block[j, c]) as a sum of products of shifted
    exponentials; a Gauss kernel brings its row-shifted exponential, and an
    Outer kernel is formed one row band at a time."""
    row_max = _row_max(w)
    col_max = np.max(block, axis=0, keepdims=True)
    r, s = _finite_or_zero(row_max), _finite_or_zero(col_max)
    kb = block - s
    np.exp(kb, out=kb)
    log_sum = np.empty((w.shape[0], block.shape[1]))
    # the rows below ``low`` are formed (or mirrored) band by band, and a
    # Gauss kernel's stored rows, from ``low`` on, are read in place; a row's
    # sums do not depend on the rows beside it, so no band moves a byte
    low = w.first_stored if isinstance(w, Gauss) else w.shape[0]
    for band, part in banded((low, w.shape[1])):
        if isinstance(w, Gauss):
            _mirror_rows(w, band, part)
        else:
            np.subtract(_rows(w, band, part), r[band], out=part)
            np.exp(part, out=part)
        np.einsum("ij,jc->ic", part, kb, out=log_sum[band])
    if isinstance(w, Gauss):
        np.einsum("ij,jc->ic", w.shifted, kb, out=log_sum[low:])
    with np.errstate(divide="ignore"):
        np.log(log_sum, out=log_sum)
    # an all -inf kernel row or column gives exactly -inf; elsewhere a sum
    # below e^FLOOR may have lost terms to underflow
    rows, cols = np.nonzero((log_sum < FLOOR) & np.isfinite(row_max) & np.isfinite(col_max))
    log_sum += r
    log_sum += s
    for band, part in banded((rows.size, w.shape[1])):
        i, c = rows[band], cols[band]
        log_sum[i, c] = _lse_exact(np.add(_rows(w, i), block[:, c].T, out=part))
    return log_sum


def _brackets(coarse: np.ndarray, first: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row window bounds from the least (``first``) and greatest (``last``)
    argmax on each coarse row: rows coarse[k] <= i < coarse[k + 1] take j in
    [first at coarse[k], last at coarse[k + 1]]. The running min from the end
    and max from the start keep both bounds nondecreasing even where rounding
    at a near-tie breaks the monotone argmax, so the rows holding a given j are
    contiguous."""
    lo = np.minimum.accumulate(first[::-1])[::-1]
    hi = np.maximum.accumulate(last)
    span = np.append(np.diff(coarse), 1)  # the last row is its own interval
    return np.repeat(lo, span), np.repeat(np.append(hi[1:], hi[-1]), span)


def _coarse_rows(m: int) -> np.ndarray:
    """Every STRIDE-th row and the last."""
    return np.append(np.arange(0, m - 1, STRIDE), m - 1)


def _max_windowed(w, block: np.ndarray) -> np.ndarray:
    """``_max`` for an Outer ``w`` on sorted axes: each row reduces over a
    window of j that holds its argmax, bracketed by dense argmaxes on every
    STRIDE-th row. The rows of one coarse interval share their window, so
    ``_window_max`` reduces them as one block. The kernel is formed whole
    first; every value is one IEEE sum or max, so no band or block moves a
    byte of the result."""
    w = _rows(w, slice(None))
    (m, n), cols = w.shape, block.shape[1]
    live = np.max(block, axis=0) > -np.inf  # a dead column is -inf whatever the window
    if not live.any():
        return np.full((m, cols), -np.inf)
    # argmax runs along rows of (columns, N): each band of columns is read
    # transposed into the band buffer, once per coarse row
    coarse = _coarse_rows(m)
    arg = np.empty((coarse.size, cols), dtype=np.intp)
    for band, sums in banded((cols, n)):
        for i, r in enumerate(coarse):
            np.argmax(np.add(block[:, band].T, w[r], out=sums), axis=1, out=arg[i, band])
    del sums  # the band buffer goes before the windows take theirs
    arg = arg[:, live]
    lo, hi = _brackets(coarse, arg.min(axis=1), arg.max(axis=1))
    del arg
    acc = np.empty((m, cols))
    for r0, r1, a, b in zip(coarse.tolist(), np.append(coarse[1:], m).tolist(),
                            lo[coarse].tolist(), hi[coarse].tolist()):
        _window_max(w[r0:r1, a:b + 1], block[a:b + 1], acc[r0:r1])
    return acc


def _window_max(w: np.ndarray, block: np.ndarray, out: np.ndarray) -> None:
    """max_j (w[i, j] + block[j, c]) into ``out``, one ``(rows, j, columns)``
    band of sums at a time; the band buffer goes with the call."""
    for band, sums in banded(w.shape + block.shape[1:]):
        np.max(np.add(w[band, :, None], block, out=sums), axis=1, out=out[band])


def _max_flat(w: Outer, col: np.ndarray) -> np.ndarray:
    """One-column ``_max`` for an Outer kernel on sorted axes: the windows of
    ``_max_windowed``, every row's gathered into one flat array and reduced
    by one ``np.maximum.reduceat``."""
    m = w.shape[0]
    coarse = _coarse_rows(m)
    sums = _rows(w, coarse)
    sums += col
    arg = np.argmax(sums, axis=1)
    lo, hi = _brackets(coarse, arg, arg)
    width = hi - lo + 1
    start = np.cumsum(width) - width
    i = np.repeat(np.arange(m), width)
    j = np.arange(width.sum()) + np.repeat(lo - start, width)
    return np.maximum.reduceat(w.x[i] * w.y[j] + col[j], start)[:, None]


def _check_max(axis_kernels) -> None:
    """Raise unless each kernel is an Outer kernel on finite, nondecreasing
    axes (a NaN fails the order test, so a sorted axis is finite when its
    ends are): the exact products x[i] y[j] are then finite and Monge, since
    each 2 x 2 difference is (x[i+1] - x[i]) (y[j+1] - y[j]) >= 0."""
    for w in axis_kernels:
        if not (isinstance(w, Outer) and all(
                a.size == 0 or bool((a[1:] >= a[:-1]).all()) and -np.inf < a[0] and a[-1] < np.inf for a in w)):
            raise ValueError("max takes Outer kernels on finite, nondecreasing axes")


def _check_fit(shape: tuple, axis_kernels) -> None:
    """Raise unless kernel k has ``shape[k]`` columns, one kernel per axis."""
    if [w.shape[1] for w in axis_kernels] != list(shape):
        raise ValueError(f"kernels {[w.shape for w in axis_kernels]} do not fit an array of shape {shape}")


def _max(w: Outer, block: np.ndarray) -> np.ndarray:
    """max_j (w[i, j] + block[j, c]) for an Outer w on sorted axes, routed by
    size: one dense block of sums below ROW_ELEMS sums M N columns, else
    flat windows on one column and windowed bands on more."""
    if math.prod(w.shape) * block.shape[1] < ROW_ELEMS:
        return np.max(_rows(w, slice(None))[:, :, None] + block, axis=1)
    if block.shape[1] == 1:
        return _max_flat(w, block[:, 0])
    return _max_windowed(w, block)


def _fill_even(a: np.ndarray) -> None:
    """Make ``a`` exactly even in place: its first ``M_0 // 2`` rows become the
    reflection of its last ones, and likewise within the x_0 = 0 slab, which
    ``"lse"`` leaves even only to rounding."""
    low = a.shape[0] // 2
    a[:low] = reflect(a[a.shape[0] - low:])
    if a.shape[0] % 2 and a.ndim > 1:
        _fill_even(a[low])


def _fill_orthant(out: np.ndarray, orthant: np.ndarray, lows: list[int]) -> None:
    """Write ``orthant`` into ``out[lows[0]:, lows[1]:, ...]`` and its
    reflection into each other orthant of ``out``, making ``out`` exactly even
    along every axis k with ``lows[k] > 0``: one copy per orthant, each from
    ``orthant``, a separate array. A reflection of ``out`` into itself would be
    buffered by numpy (source and target overlap in memory), half of ``out``."""
    pairs = [((), ())]  # (target in out, source in orthant) per orthant
    for low, n in zip(lows, orthant.shape):
        ways = [(slice(low, None), slice(None))]
        if low:
            # out index i < low mirrors orthant index n - 1 - i
            ways.append((slice(None, low), slice(n - 1, None if n == low else n - 1 - low, -1)))
        pairs = [(t + (a,), s + (b,)) for t, s in pairs for a, b in ways]
    for target, source in pairs:
        out[target] = orthant[source]


def _odd(a: np.ndarray) -> bool:
    return bool((a == -a[::-1]).all())


def _symmetric(w) -> bool:
    """Central symmetry of a kernel. An Outer or Gauss kernel has it when its
    axes are odd (``x == -x[::-1]``), since (-a) (-b) rounds exactly as a b
    and (-a) - (-b) as -(a - b); an array kernel is read once: the flattened
    W is then a palindrome."""
    if isinstance(w, (Outer, Gauss)):
        return _odd(w[0]) and _odd(w[1])
    flat, half = w.ravel(), w.size // 2
    return np.array_equal(flat[:half], flat[:-half - 1:-1])


def _even_along(a: np.ndarray, k: int) -> bool:
    """``a`` equals its flip along axis k (inf = inf allowed), read once:
    the first half of the axis against the reversed last half."""
    half = a.shape[k] // 2
    head = (slice(None),) * k
    return np.array_equal(a[head + (slice(None, half),)], a[head + (slice(-1, -half - 1, -1),)])


def _low_cut(w, low: int):
    """Rows ``low:`` of a kernel, of its own kind."""
    if isinstance(w, Outer):
        return Outer(w.x[low:], w.y)
    if isinstance(w, Gauss):
        # the rows stored from M // 2 on are kept as they are
        return Gauss(w.u[low:], w.v, w.var, w.row_max[low:], w.shifted[low - w.first_stored:])
    return w[low:]


def faces(ndim: int) -> list[tuple]:
    """The 2n faces of the boundary shell of an ``ndim``-dimensional array:
    the index tuples of axis k at its first node and at its last, k = 0 to
    n - 1."""
    return [(slice(None),) * k + (e,) for k in range(ndim) for e in (0, -1)]


def shell_split(log_f: np.ndarray, axis_kernels) -> tuple:
    """``contract(log_f, axis_kernels, "max")`` over the boundary shell of
    ``log_f`` and over the rest, as ``(shell, interior)``, in the order the
    module docstring gives. ``shell`` yields ``(band, part)``, the shell's
    maximum on the rows ``band`` of axis 0 in a band buffer, each part valid
    until the next is drawn. It owns ``log_f``, a float array, which ends as
    the interior's maximum when the shapes fit, else with its faces at -inf,
    and as it was when the kernels are refused."""
    _check_fit(log_f.shape, axis_kernels)
    _check_max(axis_kernels)
    ends = [log_f[face].copy() for face in faces(log_f.ndim)]
    for face in faces(log_f.ndim):
        log_f[face] = -np.inf
    fits = log_f.shape == tuple(w.shape[0] for w in axis_kernels)
    interior = contract(log_f, axis_kernels, "max", out=log_f if fits else None)
    maxima = []  # (k, the face's maximum expanded along k, its column along k)
    for k, w in enumerate(axis_kernels):
        low, high = ends[2 * k], ends[2 * k + 1]
        if (low == high).all():
            pairs = [(low, np.maximum(w.x * w.y[0], w.x * w.y[-1]))]
        else:
            pairs = [(low, w.x * w.y[0]), (high, w.x * w.y[-1])]
        others = axis_kernels[:k] + axis_kernels[k + 1:]
        shape = (-1,) + (1,) * (len(axis_kernels) - k - 1)
        along_k = (slice(None),) * k + (None,)  # the face's maximum, expanded along k
        maxima += [(k, contract(face, others, "max")[along_k], col.reshape(shape)) for face, col in pairs]
    return _shell_bands(maxima, interior.shape), interior


def _shell_bands(maxima, shape: tuple):
    """The shell's maximum band by band: the first face's sums, then each
    other face's sums folded in by ``np.maximum``, in face order."""
    (_, first, first_col), rest = maxima[0], maxima[1:]  # axis 0's first face
    for (band, acc), (_, part) in zip(banded(shape), banded(shape)):
        np.add(first, first_col[band], out=acc)
        for k, g, col in rest:
            np.add(g[band] if k else g, col if k else col[band], out=part)
            np.maximum(acc, part, out=acc)
        yield band, acc


def edge_dominated(log_f: np.ndarray, axis_kernels) -> np.ndarray:
    """Where ``contract(log_f, axis_kernels, "max")`` peaks on the boundary
    shell: its largest kernel-weighted term over the shell of ``log_f`` is at
    least the largest over the interior, so the integral behind that output
    node is cut by the grid edge, not decayed inside it. Both maxima come
    from ``shell_split``, which takes ownership of ``log_f``; they are
    compared band by band."""
    shell, interior = shell_split(log_f, axis_kernels)
    flags = np.empty(interior.shape, dtype=bool)
    for band, part in shell:
        np.greater_equal(part, interior[band], out=flags[band])
    return flags


def contract(log_f: np.ndarray, axis_kernels, reduce: str = "lse", out: np.ndarray | None = None) -> np.ndarray:
    """Apply one log-kernel matrix per axis of ``log_f``, reducing by ``reduce``.

    ``axis_kernels[k]`` is an array, an ``Outer`` or a ``Gauss`` kernel of
    shape ``(M_k, log_f.shape[k])``, for ``"max"`` an Outer kernel on finite,
    nondecreasing axes (else ``ValueError``); the result has shape ``(M_0,
    ..., M_{d-1})``. ``-inf`` entries of ``log_f`` (vanishing density, masked
    bodies) drop out; a column that is ``-inf`` throughout gives ``-inf``.

    The result is written into ``out`` when given (a float array of the
    result's shape) and ``out`` is returned. ``out`` may be ``log_f``
    itself: every step writes a fresh array, and ``out`` is written only
    after the last one.

    Symmetry halves the work, and the halved result is exactly even:

    - orthant path: along every axis k whose kernel is centrally symmetric,
      ``W[i, j] = W[-1 - i, -1 - j]``, and along which ``log_f`` equals its
      own flip, only rows ``M_k // 2:`` are contracted and the rest is their
      reflection. The input keeps only its ``y_k >= 0`` half there (axis 0
      only for a ``"max"`` step, which reads just that half); an ``"lse"``
      step restores its own axis by one reflection.
    - central half path: when no axis qualifies but every kernel is centrally
      symmetric and ``log_f`` equals its reflection through the origin, rows
      ``M_0 // 2:`` of axis 0 are contracted and the rest is their reflection.
    """
    if reduce not in ("lse", "max"):
        raise ValueError(f"reduce must be 'lse' or 'max', got {reduce!r}")
    log_f = np.asarray(log_f, dtype=float)
    _check_fit(log_f.shape, axis_kernels)
    shape = tuple(w.shape[0] for w in axis_kernels)
    if out is not None and (out.shape != shape or out.dtype != float):
        raise ValueError(f"out must be a float array of shape {shape}, got {out.dtype} {out.shape}")
    if reduce == "max":
        _check_max(axis_kernels)
    symmetric = [_symmetric(w) for w in axis_kernels]
    even = [sym and _even_along(log_f, k) for k, sym in enumerate(symmetric)]
    central = not any(even) and log_f.ndim > 1 and all(symmetric) and np.array_equal(log_f, reflect(log_f))
    lows = [w.shape[0] // 2 if half else 0 for w, half in zip(axis_kernels, even)]
    if central:
        lows[0] = axis_kernels[0].shape[0] // 2
    kernels = [_low_cut(w, low) if low else w for w, low in zip(axis_kernels, lows)]
    # steps work column by column and mirror columns are equal, so each even
    # axis drops its y_k < 0 half, but axis 0 when its step sums over all of it
    cut = [half and (k > 0 or reduce == "max") for k, half in enumerate(even)]
    res = log_f[tuple(slice(n // 2 if c else 0, None) for n, c in zip(log_f.shape, cut))] if any(cut) else log_f
    for k, w in enumerate(kernels):
        moved = np.moveaxis(res, k, 0) if k else res
        n = w.shape[1]
        if cut[k] and reduce == "max":
            # x >= 0 on these rows, y_j >= 0 and block[j] = block[-1 - j]: each
            # mirrored term x (-y_j) + block[j] rounds at most to its partner
            w = Outer(w.x, w.y[n // 2:])
        elif cut[k]:
            moved = np.concatenate([moved[::-1][:n // 2], moved])
        rest = moved.shape[1:]
        # (N, columns) in row order; the block's memory order sets the order
        # of the "lse" sums, so it stays what this reshape gives
        block = moved.reshape(moved.shape[0], -1)
        # the previous result lives on only through block, when it is a view
        del moved, res
        res = (_max(w, block) if reduce == "max" else _lse(w, block)).reshape((w.shape[0],) + rest)
        del block
        res = np.moveaxis(res, 0, k) if k else res
    if not (central or any(lows)):
        if out is None:
            return res
        out[...] = res
        return out
    if out is None:
        out = np.empty(shape)
    if central:
        out[lows[0]:] = res
        _fill_even(out)
    else:
        _fill_orthant(out, res, lows)
    return out
