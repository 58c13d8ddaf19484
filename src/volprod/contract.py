"""Separable log-domain contraction, the one engine behind every grid transform.

``contract(log_f, [W_0, ..., W_{d-1}])`` computes
``log g[i] = RED_j (sum_k W_k[i_k, j_k] + log f[j])`` one axis at a time, with
RED = log-sum-exp (``"lse"``) or max (``"max"``). The FP/OU kernels, the
Laplace kernel ``a x_k z_k``, the Brascamp-Lieb cross term and the L^r kernel
``r x_k y_k`` all factor this way, so each axis step touches ``M_k N_k
prod_{l != k} N_l`` pairs instead of all pairs.

Cost of one axis step with an ``(M, N)`` kernel on ``columns`` columns:

- ``"lse"`` shifts each kernel row and each column by its maximum, so the step
  is one ``M N columns`` sum of products (``np.einsum``) plus ``M N + N
  columns`` exponentials, with no ``(M, N, columns)`` array. Where the shifted
  sum falls below ``e^FLOOR`` it may have lost terms to underflow; those
  entries are recomputed with an exact per-entry max-shifted sum, gathered in
  chunks of at most ``WORK_ELEMS`` elements.
- ``"max"`` forms ``(M, N, columns)`` sums in column chunks of at most
  ``WORK_ELEMS`` elements whenever a two-column chunk fits.

``even=True`` (an even input, centrally symmetric kernels) contracts only the
``M_0 - M_0 // 2`` rows of axis 0 with x_0 >= 0, so that step has half the
rows and every later step half the columns, and fills the rest by reflection:
about half the cost, plus one read of each kernel to check its symmetry. On
one column (1D) that read costs about as much as the halved ``"max"`` step.

``np.einsum`` runs numpy's own loop; a BLAS product (``@``) would be faster
single-threaded but stalls under a default-threaded OpenBLAS on small
matrices, and the library sets no thread variables.
"""

from __future__ import annotations

import numpy as np

from .core import reflect

# element budget of one working array (32 MB of float64): a "max" column chunk
# or one chunk of the "lse" fallback
WORK_ELEMS = 2**22
# below log S = FLOOR the shifted "lse" sum is recomputed exactly: every term
# lost to underflow is under 2.3e-308, a share below N e^-108 of S
FLOOR = -600.0


def _finite_or_zero(a: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(a), a, 0.0)


def _lse_exact(w_rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """log sum_j exp(w_rows[e, j] + cols[e, j]) per entry e, shifted by its maximum."""
    summed = w_rows + cols
    m = _finite_or_zero(np.max(summed, axis=1, keepdims=True))
    summed -= m
    np.exp(summed, out=summed)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(summed, axis=1)) + m[:, 0]


def _lse(w: np.ndarray, block: np.ndarray) -> np.ndarray:
    """log sum_j exp(w[i, j] + block[j, c]) as a sum of products of shifted exponentials."""
    row_max = np.max(w, axis=1, keepdims=True)
    col_max = np.max(block, axis=0, keepdims=True)
    r, s = _finite_or_zero(row_max), _finite_or_zero(col_max)
    kw = w - r
    np.exp(kw, out=kw)
    kb = block - s
    np.exp(kb, out=kb)
    with np.errstate(divide="ignore"):
        log_sum = np.log(np.einsum("ij,jc->ic", kw, kb))
    out = log_sum + r + s
    # an all -inf kernel row or column gives exactly -inf; elsewhere a sum
    # below e^FLOOR may have lost terms to underflow
    rows, cols = np.nonzero((log_sum < FLOOR) & np.isfinite(row_max) & np.isfinite(col_max))
    step = max(1, WORK_ELEMS // w.shape[1])
    for lo in range(0, rows.size, step):
        i, c = rows[lo:lo + step], cols[lo:lo + step]
        out[i, c] = _lse_exact(w[i], block[:, c].T)
    return out


def _max(w: np.ndarray, block: np.ndarray) -> np.ndarray:
    """max_j (w[i, j] + block[j, c]), in column chunks of at most WORK_ELEMS elements."""
    m, n = w.shape
    cols = block.shape[1]
    # numpy reduces a lone column pairwise but several columns row by row, so
    # every chunk keeps two or more columns: the result is then bitwise
    # independent of the chunking
    chunks = max(1, min(-(-cols // max(1, WORK_ELEMS // (m * n))), cols // 2))
    return np.concatenate(
        [np.max(w[:, :, None] + part[None, :, :], axis=1) for part in np.array_split(block, chunks, axis=1)],
        axis=1,
    )


_REDUCERS = {"lse": _lse, "max": _max}


def _fill_even(a: np.ndarray) -> None:
    """Make ``a`` exactly even in place: its first ``M_0 // 2`` rows become the
    reflection of its last ones, and likewise within the x_0 = 0 slab, which
    ``"lse"`` leaves even only to rounding."""
    low = a.shape[0] // 2
    a[:low] = reflect(a[a.shape[0] - low:])
    if a.shape[0] % 2 and a.ndim > 1:
        _fill_even(a[low])


def _centrally_symmetric(w: np.ndarray) -> bool:
    """``W == W[::-1, ::-1]``, read once: the flattened W is a palindrome."""
    flat = w.ravel()
    half = flat.size // 2
    return np.array_equal(flat[:half], flat[:-half - 1:-1])


def contract(log_f: np.ndarray, axis_kernels, reduce: str = "lse", even: bool = False) -> np.ndarray:
    """Apply one log-kernel matrix per axis of ``log_f``, reducing by ``reduce``.

    ``axis_kernels[k]`` has shape ``(M_k, log_f.shape[k])``; the result has
    shape ``(M_0, ..., M_{d-1})``. ``-inf`` entries of ``log_f`` (vanishing
    density, masked bodies) drop out; a column that is ``-inf`` throughout
    gives ``-inf``.

    ``even=True`` declares ``log_f`` even under x -> -x; every kernel must then
    be centrally symmetric (``W[i, j] = W[-1 - i, -1 - j]``) or ``ValueError``
    is raised. The result is even, and exactly so: rows ``M_0 // 2:`` of axis
    0 are contracted and the rest is their reflection.
    """
    if reduce not in _REDUCERS:
        raise ValueError(f"reduce must be 'lse' or 'max', got {reduce!r}")
    out = np.asarray(log_f, dtype=float)
    if [w.shape[1] for w in axis_kernels] != list(out.shape):
        raise ValueError(f"kernels {[w.shape for w in axis_kernels]} do not fit an array of shape {out.shape}")
    if even:
        if not all(_centrally_symmetric(w) for w in axis_kernels):
            raise ValueError("even=True needs centrally symmetric kernels")
        low = axis_kernels[0].shape[0] // 2
        axis_kernels = [axis_kernels[0][low:], *axis_kernels[1:]]
    for k, w in enumerate(axis_kernels):
        moved = np.moveaxis(out, k, 0)
        flat = moved.reshape(moved.shape[0], -1)  # (N, columns)
        res = _REDUCERS[reduce](w, flat)
        out = np.moveaxis(res.reshape((w.shape[0],) + moved.shape[1:]), 0, k)
    if even:
        out = np.concatenate([np.empty_like(out[:low]), out])
        _fill_even(out)
    return out
