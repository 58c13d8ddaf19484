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

``np.einsum`` runs numpy's own loop; a BLAS product (``@``) would be faster
single-threaded but stalls under a default-threaded OpenBLAS on small
matrices, and the library sets no thread variables.
"""

from __future__ import annotations

import numpy as np

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


def contract(log_f: np.ndarray, axis_kernels, reduce: str = "lse") -> np.ndarray:
    """Apply one log-kernel matrix per axis of ``log_f``, reducing by ``reduce``.

    ``axis_kernels[k]`` has shape ``(M_k, log_f.shape[k])``; the result has
    shape ``(M_0, ..., M_{d-1})``. ``-inf`` entries of ``log_f`` (vanishing
    density, masked bodies) drop out; a column that is ``-inf`` throughout
    gives ``-inf``.
    """
    if reduce not in _REDUCERS:
        raise ValueError(f"reduce must be 'lse' or 'max', got {reduce!r}")
    out = np.asarray(log_f, dtype=float)
    if [w.shape[1] for w in axis_kernels] != list(out.shape):
        raise ValueError(f"kernels {[w.shape for w in axis_kernels]} do not fit an array of shape {out.shape}")
    for k, w in enumerate(axis_kernels):
        moved = np.moveaxis(out, k, 0)
        flat = moved.reshape(moved.shape[0], -1)  # (N, columns)
        res = _REDUCERS[reduce](w, flat)
        out = np.moveaxis(res.reshape((w.shape[0],) + moved.shape[1:]), 0, k)
    return out
