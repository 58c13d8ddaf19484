"""Separable log-domain contraction, the one engine behind every grid transform.

``contract(log_f, [W_0, ..., W_{d-1}])`` computes
``log g[i] = RED_j (sum_k W_k[i_k, j_k] + log f[j])`` one axis at a time, with
RED = log-sum-exp (``"lse"``) or max (``"max"``). The FP/OU kernels, the
Laplace kernel ``a x_k z_k``, the Brascamp-Lieb cross term and the L^r kernel
``r x_k y_k`` all factor this way, so each costs ``sum_k M_k N_k prod_{l != k}
N_l`` instead of all pairs. The non-contracted columns go through in chunks,
so one chunk's ``(M_k, N_k, columns)`` working array holds at most
``WORK_ELEMS`` elements whenever a two-column chunk fits.
"""

from __future__ import annotations

import numpy as np

# element budget of one chunk's (M, N, columns) working array (32 MB of float64)
WORK_ELEMS = 2**22


def _lse(w: np.ndarray, block: np.ndarray) -> np.ndarray:
    """log sum_j exp(w[i, j] + block[j, c]) with a per-column shift."""
    shift = np.max(block, axis=0, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    summed = w[:, :, None] + (block - shift)[None, :, :]
    m = np.max(summed, axis=1, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    summed -= m_safe
    np.exp(summed, out=summed)
    with np.errstate(divide="ignore"):
        res = np.squeeze(m_safe, 1) + np.log(np.sum(summed, axis=1))
    return res + shift


def _max(w: np.ndarray, block: np.ndarray) -> np.ndarray:
    """max_j (w[i, j] + block[j, c])."""
    return np.max(w[:, :, None] + block[None, :, :], axis=1)


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
        m, n = w.shape
        cols = flat.shape[1]
        # numpy sums a lone column pairwise but several columns row by row, so
        # every chunk keeps two or more columns: the result is then bitwise
        # independent of the chunking
        chunks = max(1, min(-(-cols // max(1, WORK_ELEMS // (m * n))), cols // 2))
        blocks = np.array_split(flat, chunks, axis=1)
        res = np.concatenate([_REDUCERS[reduce](w, block) for block in blocks], axis=1)
        out = np.moveaxis(res.reshape((m,) + moved.shape[1:]), 0, k)
    return out
