"""Counter-based deterministic random streams.

Every coordinate of every stream is addressable in O(1): the j-th value of
stream ``s`` is a pure function of ``(s, j)``, so replaying a single
coordinate, a slice, or a whole Monte Carlo run is exact and independent of
evaluation order.  Workers can therefore partition a run by sample index
without sharing state and still produce bit-identical results.

Uniform bits come from the SplitMix64 sequence (seed mixed once, then the
64-bit counter walks the golden-ratio increment through the finalizer).
Standard normals are produced by inverting the normal CDF (``ndtri``) on the
53-bit uniform; the inversion is fixed across platforms.

Sample row ``n`` of a stream is the per-sample substream ``substream(s, n)``;
every row-addressed sampler reads its words from ``_words``.  Samplers walk
sample rows on one grid of ``_BLOCK_ROWS`` (2^13) rows.  Emitted samples
(``emit_rows``) reduce each row on its own, so they do not depend on the
grid.  Monte Carlo reductions (``mc_mean``) add per-block sums in block
order, so for them the 2^13-row grid is part of the replay contract.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_PHI = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xD6E8FEB86659FD93)
_BLOCK_ROWS = 1 << 13


def _finalize(z):
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _stream_base(stream_id) -> np.uint64:
    # whiten the stream id so that numerically adjacent ids give unrelated counters
    with np.errstate(over="ignore"):
        return _finalize(np.uint64(stream_id) ^ _STREAM_SALT)


def bits(stream_id, indices) -> np.ndarray:
    """Raw 64-bit words for the given coordinate indices of a stream."""
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = _stream_base(stream_id) + (idx + np.uint64(1)) * _PHI
    return _finalize(state)


def uniforms(stream_id, indices) -> np.ndarray:
    """Uniforms in (0,1), 53 significant bits, never exactly 0 or 1."""
    return _unit(bits(stream_id, indices))


def _unit(words):
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def normals(stream_id, count, offset=0) -> np.ndarray:
    """``count`` standard normal coordinates starting at ``offset``."""
    u = uniforms(stream_id, np.arange(offset, offset + count, dtype=np.uint64))
    return ndtri(u)


def normals_at(stream_id, indices) -> np.ndarray:
    """Standard normals at an arbitrary set of coordinate indices."""
    return ndtri(uniforms(stream_id, indices))


def normal_matrix(stream_id, n_samples, n_coords, first_sample=0) -> np.ndarray:
    """(n_samples, n_coords) array; row n is the prefix of ``substream(stream_id, n)``.

    Row n is independent of n_coords, so widening a run extends rows in place.
    """
    return normal_matrix_at(
        stream_id, n_samples, np.arange(n_coords, dtype=np.uint64), first_sample
    )


def normal_matrix_at(stream_id, n_samples, indices, first_sample=0) -> np.ndarray:
    """Rows are per-sample substreams, columns the requested coordinate indices."""
    return ndtri(_unit(_words(stream_id, first_sample, n_samples, indices)))


def uniform_matrix(stream_id, n_samples, n_coords, first_sample=0) -> np.ndarray:
    """(n_samples, n_coords) uniforms in (0,1), rows addressed like normal_matrix."""
    return _unit(_words(stream_id, first_sample, n_samples, np.arange(n_coords, dtype=np.uint64)))


def _words(stream_id, first, n_rows, idx) -> np.ndarray:
    """(n_rows, len(idx)) words: row r reads the substream of sample ``first + r``."""
    subs = substream(stream_id, np.arange(first, first + n_rows, dtype=np.uint64))
    idx = np.asarray(idx, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = _finalize(subs ^ _STREAM_SALT)
        state = base[:, None] + (idx[None, :] + np.uint64(1)) * _PHI
    return _finalize(state)


def substream(stream_id, sample_index):
    """Derive the per-sample stream id: whitened stream id XOR sample index."""
    with np.errstate(over="ignore"):
        return _stream_base(stream_id) ^ np.asarray(sample_index, dtype=np.uint64)


def row_dot(mat, vec) -> np.ndarray:
    """Per-row dot products whose rounding is independent of the row count.

    Matrix-vector BLAS kernels round differently for different batch shapes;
    reducing each row on its own keeps sample values bit-identical however a
    run is partitioned.
    """
    return (np.asarray(mat) * np.asarray(vec)[None, :]).sum(axis=1)


def signs(stream_id, indices) -> np.ndarray:
    """Fair +-1 coins, one per coordinate index."""
    return 1.0 - 2.0 * (bits(stream_id, indices) & np.uint64(1)).astype(np.float64)


def sign_matrix(stream_id, n_samples, n_coords, first_sample=0) -> np.ndarray:
    """(n_samples, n_coords) array of fair +-1 coins, rows addressed like normal_matrix."""
    words = _words(stream_id, first_sample, n_samples, np.arange(n_coords, dtype=np.uint64))
    return 1.0 - 2.0 * (words & np.uint64(1)).astype(np.float64)


def digit_matrix(stream_id, n_samples, n_coords, n_branches, first_sample=0) -> np.ndarray:
    """(n_samples, n_coords) digits in {0..n_branches-1} drawn from the uniform stream."""
    d = np.floor(uniform_matrix(stream_id, n_samples, n_coords, first_sample) * n_branches)
    return np.minimum(d.astype(np.intp), n_branches - 1)


# -- the sample-row grid ------------------------------------------------------


def emit_rows(out, first, block):
    """Fill ``out`` with samples ``first .. first + len(out) - 1``, one grid block at a time.

    ``block(row, m)`` returns the values of the m sample rows starting at
    ``row``; they must be computed row by row (``row_dot``), so the result
    does not depend on the block size.
    """
    for start in range(0, len(out), _BLOCK_ROWS):
        m = min(_BLOCK_ROWS, len(out) - start)
        out[start : start + m] = block(first + start, m)
    return out


def linear_samples(stream_id, n, indices, coeffs, first=0) -> np.ndarray:
    """sum_j coeffs[j] * xi[indices[j]] for sample rows ``first .. first + n - 1``."""

    def block(row, m):
        return row_dot(normal_matrix_at(stream_id, m, indices, row), coeffs)

    return emit_rows(np.empty(n), first, block)


def mc_mean(stream_id, n, indices, values):
    """Monte Carlo mean of ``values`` over sample rows 0 .. n-1, with standard errors.

    ``values(xi)`` maps an (m, len(indices)) block of normals, rows per
    sample and columns the requested coordinates, to m real or complex
    values.  Block sums of values and of squares are added in block order.
    Returns (complex mean, (se_real, se_imag)).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    idx = np.asarray(indices, dtype=np.uint64)
    s1 = np.zeros(2)
    s2 = np.zeros(2)
    for start in range(0, n, _BLOCK_ROWS):
        vals = values(normal_matrix_at(stream_id, min(_BLOCK_ROWS, n - start), idx, start))
        parts = np.real(vals), np.imag(vals)
        s1 += [p.sum() for p in parts]
        s2 += [(p * p).sum() for p in parts]
    mean = s1 / n
    var = np.maximum(s2 / n - mean * mean, 0.0)
    return complex(mean[0], mean[1]), tuple(np.sqrt(var / n))
