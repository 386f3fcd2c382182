"""Counter-based deterministic random streams.

Every coordinate of every stream is addressable in O(1): the j-th value of
stream ``s`` is a pure function of ``(s, j)``, so replaying a single
coordinate, a slice, or a whole Monte Carlo run is exact and independent of
evaluation order.

Uniform bits come from the SplitMix64 sequence (seed mixed once, then the
64-bit counter walks the golden-ratio increment through the finalizer).
Standard normals are produced by inverting the normal CDF (``ndtri``) on the
53-bit uniform; the inversion is fixed across platforms.  Fair +-1 coins are
packed 64 to a word: coin k of a stream is bit k % 64 (least significant
first) of its word k // 64, read through a little-endian byte view, so a
series of K coins draws ceil(K / 64) words and no coin depends on the host's
byte order.  Bit b gives the coin 1 - 2b.  ``sign_sums`` reduces weighted
coin series through per-byte tables, without forming the +-1 matrix (version
3 of the coin stream).

Sample row ``n`` of a stream is the per-sample substream ``substream(s, n)``.
Samplers walk sample rows on one grid of ``_BLOCK_ROWS`` (2^13) rows through
a ``block(row, m)`` that returns the values of m rows, each reduced on its
own, so emitted samples (``emit_rows``) do not depend on the grid.
``mc_mean`` merges per-block (count, mean, M2) pairwise in block order (Chan,
Golub & LeVeque 1983), so for it the grid is part of the replay contract.
Both drivers take the blocks from ``_walk`` in block order, whether it runs
them on the caller alone or with k - 1 forked workers (``workers(k)``, by
default where ``_pool_pays``), so k changes no byte.
Every Gaussian functional is a function of finitely many linear forms <c, xi>:
``linear_forms`` computes them from a (k, J) coefficient array and draws only
the union of the forms' nonzero columns, which is exact because every
coordinate is addressed by its index.

Words are generated by one kernel, ``_fill``, and every row loop (``_fill``'s,
``linear_forms``, ``sign_sums``, ``bernoulli.coupled_samples``) walks the rows
of a call in ``_row_tiles`` of about ``_TILE_WORDS`` (2^15) words, so that a
tile's buffers (hash words, finalizer scratch, normals, ``row_dot`` products)
stay in the L2 cache.  The call allocates them once and each tile uses a
C-contiguous prefix of each, so a reduction sees a fresh array's layout.  No
tile size changes a byte: every value is a pure function of its coordinate and
every reduction runs row by row.  Buffers belong to one call, so concurrent
calls share nothing.

``ndtri`` is scipy's ufunc, taken from the extension ``scipy.special._ufuncs``
alone (``_special_ufuncs``): ``import scipy.special`` also loads scipy's
array-API layer, with ``numpy.f2py`` and ``numpy.testing``, about half of what
a CLI process spent starting (0.39 s against 0.20 s on 2 cores).  While the
extension loads, a placeholder ``scipy.special`` package (the installed one,
its ``__init__`` not run) stands in ``sys.modules`` for the submodules the
extension imports; it is removed afterwards.  A later ``import scipy.special``
runs the real ``__init__`` and finds the same ufunc, but reaches the helper
extensions loaded meanwhile (``_ufuncs_cxx``, ``_special_ufuncs``,
``_gufuncs``, ``_ellip_harm_2``) only through ``sys.modules``, not as package
attributes.  Importing ``scipy.special`` from another thread while
``noisefield`` is being imported is not supported: that thread could see the
placeholder.  Where the extension cannot be loaded this way, ``ndtri`` comes
from ``scipy.special``.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import multiprocessing
import os
import sys
import threading
import time

import numpy as np


def _special_ufuncs():
    """``scipy.special._ufuncs``, loaded without running ``scipy/special/__init__.py``."""
    name = "scipy.special._ufuncs"
    if name in sys.modules or "scipy.special" in sys.modules:
        return importlib.import_module(name)
    package = importlib.util.module_from_spec(importlib.util.find_spec("scipy.special"))
    sys.modules["scipy.special"] = package
    try:
        spec = importlib.machinery.PathFinder.find_spec(name, package.__path__)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        del sys.modules["scipy.special"]
    sys.modules[name] = module
    return module


try:
    ndtri = _special_ufuncs().ndtri
except (ImportError, AttributeError):
    from scipy.special import ndtri

COIN_STREAM_VERSION = 3  # packed coins, byte-table sums; descriptors of coin-sampling outputs carry it

_PHI = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xD6E8FEB86659FD93)
_BLOCK_ROWS = 1 << 13
_TILE_WORDS = 1 << 15  # 256 KiB per uint64 buffer
_workers = "auto"  # set by ``workers``
_block = None  # the block a forked worker runs
# What a pool costs the default walk, measured on 2 cores with one BLAS thread,
# in process, workers(1) -> workers(2):
# - start and stop: two empty blocks take 0.02 -> 12-15 ms;
# - each block a worker returns: 0.55 ms when empty, 0.75-1.3 ms on real
#   samplers, as (t2 - t1 / 2 - 15 ms) / 61 over 123 blocks (t1 -> t2: Cantor
#   chaos game 72 -> 131 ms, 1e6 Bernoulli(0.75) draws 67 -> 126 ms,
#   Bernoulli(0.5) 36 -> 79 ms).
# First use slows a whole block 0 by up to 2x, so ``_probe`` does not time it.
# Scaled to a block, the probe overstates cheap blocks about 2x by their
# per-call cost (chaos game 1.05 against 0.54 ms, Bernoulli(0.5) 0.51 against
# 0.16 ms) and hits costly ones within 10% (boundary_process_cov 214 against
# 219 ms).  At k = 2 a walk of 123 blocks forks above 2.25 ms a block and one of
# 13 above 4.5 ms; in fresh processes, idle or beside a busy loop, the chaos
# game and Bernoulli estimates stayed 1.2-4x below that line (1.04-1.83 ms and
# 0.47-1.33 ms), the characteristic-functional and moment ones at 2.2-3.9 ms
# with one 4.6 (where forking is about even), and coupled_samples 1.5-2.3x
# above it (6.8-10.3 ms); the lifts, sample_pair and boundary_process_cov
# (15-230 ms) far more.
_POOL_START_S = 15e-3
_POOL_BLOCK_S = 2e-3
_PROBE_ROWS = 1 << 10


def _mix(words, scratch):
    """The SplitMix64 finalizer, in place on ``words``; ``scratch`` has their shape."""
    for shift, mult in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(words, np.uint64(shift), out=scratch)
        np.bitwise_xor(words, scratch, out=words)
        if mult is not None:
            np.multiply(words, mult, out=words)
    return words


def _finalize(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.uint64)
    return _mix(z, np.empty_like(z))


def _stream_base(stream_id) -> np.uint64:
    # whiten the stream id so that numerically adjacent ids give unrelated counters
    if not 0 <= int(stream_id) < 1 << 64:
        raise ValueError(f"stream id {stream_id} lies outside [0, 2**64)")
    return _finalize(np.uint64(stream_id) ^ _STREAM_SALT)[()]


def bits(stream_id, indices) -> np.ndarray:
    """Raw 64-bit words for the given coordinate indices of a stream."""
    idx = np.asarray(indices, dtype=np.uint64)
    out = np.empty((1, idx.size), np.uint64)
    return _fill([_stream_base(stream_id)], idx.ravel(), out, _word).reshape(idx.shape)


def normals(stream_id, count, offset=0) -> np.ndarray:
    """``count`` standard normal coordinates starting at ``offset``."""
    idx = np.arange(offset, offset + count, dtype=np.uint64)
    return _fill([_stream_base(stream_id)], idx, np.empty((1, count)), _normal)[0]


def normals_at(stream_id, indices) -> np.ndarray:
    """Standard normals at an arbitrary set of coordinate indices."""
    idx = np.asarray(indices, dtype=np.uint64)
    out = np.empty((1, idx.size))
    return _fill([_stream_base(stream_id)], idx.ravel(), out, _normal).reshape(idx.shape)


def normal_matrix(stream_id, n_samples, n_coords, first_sample=0) -> np.ndarray:
    """(n_samples, n_coords) array; row n is the prefix of ``substream(stream_id, n)``.

    Row n is independent of n_coords, so widening a run extends rows in place.
    """
    return normal_matrix_at(
        stream_id, n_samples, np.arange(n_coords, dtype=np.uint64), first_sample
    )


def normal_matrix_at(stream_id, n_samples, indices, first_sample=0, out=None, buffers=None):
    """Rows are per-sample substreams, columns the requested coordinate indices.

    ``out`` takes the normals, ``buffers`` are ``_fill``'s; neither moves a value.
    """
    return _fill_rows(stream_id, first_sample, n_samples, indices, _normal, out, buffers)


def uniform_matrix(stream_id, n_samples, n_coords, first_sample=0) -> np.ndarray:
    """(n_samples, n_coords) uniforms in (0,1), rows addressed like normal_matrix."""
    return _fill_rows(stream_id, first_sample, n_samples, np.arange(n_coords), _unit)


def substream(stream_id, sample_index):
    """Derive the per-sample stream id: whitened stream id XOR sample index."""
    return _stream_base(stream_id) ^ np.asarray(sample_index, dtype=np.uint64)


def child_stream(stream_id, tag: int) -> np.uint64:
    """Id of the child stream ``tag`` of a stream: its word at coordinate ``tag``."""
    return bits(stream_id, np.array([tag], dtype=np.uint64))[0]


# -- the tiled word kernel ------------------------------------------------------


def _unit(words, out):
    """Write the 53-bit uniforms of ``words`` into ``out``; ``words`` is overwritten."""
    np.right_shift(words, np.uint64(11), out=words)
    np.copyto(out, words, casting="unsafe")
    out += 0.5
    out *= 2.0**-53
    return out


def _normal(words, out):
    return ndtri(_unit(words, out), out=out)


def _word(words, out):
    np.copyto(out, words)
    return out


def _coins(words, count, out=None) -> np.ndarray:
    """+-1 coins 0 .. count-1 of each row of ``words``: coin k is bit k % 64 of word k // 64."""
    octets = words.astype("<u8", copy=False).view(np.uint8)  # byte order fixed, not the host's
    bits = np.unpackbits(octets, axis=-1, count=count, bitorder="little")
    out = np.multiply(bits, -2.0, out=out)
    out += 1.0
    return out


def _fill_rows(stream_id, first, n_rows, indices, finish, out=None, buffers=None, dtype=float):
    """(n_rows, len(indices)) values (into ``out``): row r reads the substream of ``first + r``."""
    rows = substream(stream_id, np.arange(first, first + n_rows, dtype=np.uint64))
    out = np.empty((n_rows, len(indices)), dtype) if out is None else out
    return _fill(_finalize(rows ^ _STREAM_SALT), indices, out, finish, buffers)


def _row_tiles(m, width, *buffers):
    """Yield ``(r, n, *tiles)`` for the row tiles r .. r + n - 1 of m rows of ``width`` values.

    The one place where ``_TILE_WORDS`` becomes a row step; a tile has at
    least one row and at most m.  It views the first n * width elements of
    each of ``buffers``: arrays of at least one tile, or dtypes for which one
    is allocated here.
    """
    step = max(1, min(m, _TILE_WORDS // max(width, 1)))
    flat = [b if isinstance(b, np.ndarray) else np.empty(step * width, b) for b in buffers]
    for r in range(0, m, step):
        n = min(step, m - r)
        yield (r, n, *(f.reshape(-1)[: n * width].reshape(n, width) for f in flat))


def _fill(bases, indices, out, finish, buffers=None) -> np.ndarray:
    """Fill ``out[r, c]`` from the word of coordinate ``indices[c]`` on the counter ``bases[r]``.

    Walks ``out`` in ``_row_tiles``, a row wider than a tile in pieces of
    ``_TILE_WORDS`` columns: each tile's counters go into the word buffer, are
    finalized in place with the scratch one (the pair ``buffers``, else
    allocated here), and ``finish(words, tile)`` writes their values into ``out``.
    """
    bases = np.asarray(bases, dtype=np.uint64)
    with np.errstate(over="ignore"):
        steps = (np.asarray(indices, dtype=np.uint64) + np.uint64(1)) * _PHI
    n_rows, n_cols = out.shape
    tiles = _row_tiles(n_rows, min(n_cols, _TILE_WORDS), *(buffers or [np.uint64] * 2))
    for r, n, words, scratch in tiles:
        for c in range(0, n_cols, _TILE_WORDS):
            tile = out[r : r + n, c : c + _TILE_WORDS]
            w = words[:, : tile.shape[1]]  # contiguous: one row when a row is cut
            np.add(bases[r : r + n, None], steps[None, c : c + _TILE_WORDS], out=w)
            finish(_mix(w, scratch[:, : tile.shape[1]]), tile)
    return out


def row_dot(mat, vec, out=None, product=None) -> np.ndarray:
    """Per-row dot products whose rounding is independent of the row count.

    Matrix-vector BLAS kernels round differently for different batch shapes;
    reducing each row on its own keeps sample values bit-identical however a
    run is partitioned.  ``out`` takes the sums, ``product`` the products.
    """
    return np.multiply(mat, np.asarray(vec)[None, :], out=product).sum(axis=1, out=out)


def signs(stream_id, indices) -> np.ndarray:
    """Fair +-1 coins at the given coin indices: coin k is bit k % 64 of word k // 64."""
    idx = np.asarray(indices, dtype=np.uint64)
    words = bits(stream_id, idx >> np.uint64(6))
    return 1.0 - 2.0 * ((words >> (idx & np.uint64(63))) & np.uint64(1))


def sign_matrix(stream_id, n_samples, n_coords, first_sample=0, out=None) -> np.ndarray:
    """(n_samples, n_coords) fair +-1 coins, in ``out`` if given, rows addressed like normal_matrix.

    Row n is ``signs(substream(stream_id, n), arange(n_coords))``: it draws
    only the ceil(n_coords / 64) words that hold its coins.
    """
    idx = np.arange(-(-n_coords // 64))
    words = _fill_rows(stream_id, first_sample, n_samples, idx, _word, dtype=np.uint64)
    return _coins(words, n_coords, out)


def _byte_tables(weights) -> np.ndarray:
    """(ceil(K / 8), 256) tables: T[b, v] = sum_{i<8} (1 - 2 bit_i(v)) w[8b + i], in order of i.

    Weights past K count as 0, so a byte holding coins K and beyond adds
    nothing for them.
    """
    w = np.asarray(weights, dtype=float)
    padded = np.zeros(-(-w.size // 8) * 8)
    padded[: w.size] = w
    padded = padded.reshape(-1, 8)
    octet = np.arange(256)
    table = np.zeros((len(padded), 256))
    for i in range(8):
        table += padded[:, i, None] * (1 - 2 * ((octet >> i) & 1))
    return table


def sign_sums(stream_id, weights):
    """``block(row, m)``: sum_k s_k w_k over the coins s of sample rows ``row .. row + m - 1``.

    The coins are ``sign_matrix``'s, but no +-1 matrix is formed.  Each coin
    byte b of a row's words (``<u8`` byte view) looks up its 8 coins' signed
    weight sum T[b, byte] in ``_byte_tables``, and a row's sum is
    T[0, byte_0] + T[1, byte_1] + ..., added in order of b, row by row.  For
    powers of 2 that span at most 53 binary places (lam = 1/2, K = 47) every
    partial sum is exact, so the sums equal ``row_dot(sign_matrix(...),
    weights)`` bit for bit; other weights may differ from it in the last bits.
    """
    table = _byte_tables(weights)
    n_bytes = len(table)
    word_idx = np.arange(-(-n_bytes // 8))

    def block(row, m):
        out = np.empty(m)
        for r, n, words, *buffers in _row_tiles(m, len(word_idx), *[np.uint64] * 3):
            _fill_rows(stream_id, row + r, n, word_idx, _word, words, buffers)
            octets = words.astype("<u8", copy=False).view(np.uint8)  # byte order fixed
            acc = out[r : r + n]
            np.take(table[0], octets[:, 0], out=acc)
            for b in range(1, n_bytes):
                acc += table[b].take(octets[:, b])
        return out

    return block


# -- the sample-row grid ------------------------------------------------------


@contextlib.contextmanager
def workers(k):
    """In this context ``emit_rows`` and ``mc_mean`` walk their grid blocks on k processes."""
    global _workers
    if not (isinstance(k, int) and k >= 1):
        raise ValueError(f"worker count must be an integer >= 1, not {k!r}")
    saved, _workers = _workers, k
    try:
        yield
    finally:
        _workers = saved


def _bind(block):
    # runs first in each forked worker; a daemon may not fork, so nested drivers run in process
    global _block, _workers
    _block, _workers = block, 1


def _run_block(span):
    return _block(*span)


def _worker_count():
    """``workers(k)`` if set, else the CPUs this process may use (1 if it cannot fork safely)."""
    if _workers != "auto":
        return _workers
    # forking a process that has another live thread can deadlock the child
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_pays(t, n_blocks, k):
    """Whether k processes walk ``n_blocks`` blocks of t seconds sooner than the caller alone.

    The caller alone takes t n_blocks.  With a pool it runs blocks 0, k, 2k, ...
    while k - 1 workers share the rest, so the walk ends after the longer of
    the two shares, plus the pool's start-up and a transfer cost for each
    block a worker returns.
    """
    mine = -(-n_blocks // k)
    theirs = n_blocks - mine
    saved = t * (n_blocks - max(mine, -(-theirs // (k - 1))))
    return saved > _POOL_START_S + _POOL_BLOCK_S * theirs


def _probe(block):
    """Seconds a full grid block of ``block`` takes, timed on ``_PROBE_ROWS`` rows of block 0.

    The first call pays what a block pays once (imports, caches, first use
    of its arrays) and is not timed; the faster of the next two is, so one
    preemption in a window this short cannot fork a cheap walk.  The
    results are dropped, so the probe moves no byte; it costs 3/8 of a block.
    """
    block(0, _PROBE_ROWS)
    times = []
    for _ in range(2):
        tick = time.perf_counter()
        block(0, _PROBE_ROWS)
        times.append(time.perf_counter() - tick)
    return min(times) * (_BLOCK_ROWS / _PROBE_ROWS)


def _walk(n, block):
    """Yield ``((start, m), block(start, m))`` over the grid blocks of rows 0 .. n-1, in order.

    With k = min(``_worker_count()``, blocks) > 1 the caller runs blocks i = 0 (mod k)
    and k - 1 forked workers the rest (a fork copies ``block``, so it needs no
    pickling); drivers nested in a block run in process.  Else all run here.
    Under the default, the walk forks only if ``_pool_pays`` at the pace
    ``_probe`` measures; a slow machine may fork where a fast one does not,
    but the blocks and their order, so the bytes, are the same either way.
    """
    spans = [(start, min(_BLOCK_ROWS, n - start)) for start in range(0, n, _BLOCK_ROWS)]
    k = min(_worker_count(), len(spans))
    if k > 1 and _workers == "auto" and not _pool_pays(_probe(block), len(spans), k):
        k = 1
    if k <= 1:
        yield from zip(spans, (block(*span) for span in spans))
        return
    with multiprocessing.get_context("fork").Pool(k - 1, _bind, (block,)) as pool, workers(1):
        theirs = pool.imap(_run_block, [span for i, span in enumerate(spans) if i % k])
        for i, span in enumerate(spans):
            yield span, next(theirs) if i % k else block(*span)


def emit_rows(out, first, block):
    """Fill ``out`` with samples ``first .. first + len(out) - 1``, one grid block at a time.

    ``block(row, m)`` returns the values of sample rows ``row .. row + m - 1``,
    computed row by row (``row_dot``).
    """
    for (start, m), vals in _walk(len(out), lambda row, m: block(first + row, m)):
        out[start : start + m] = vals
    return out


def linear_forms(stream_id, coeffs):
    """``block(row, m)``: the (m, k) forms W = xi C^T of sample rows ``row .. row + m - 1``.

    ``coeffs`` is a (k, J) array C, real or complex.  Each form is reduced
    with ``row_dot``, so W depends on neither the block nor the tile size.
    """
    C = np.atleast_2d(coeffs)
    idx = np.flatnonzero(np.any(C != 0, axis=0))
    C = C[:, idx]
    dtype = np.result_type(C.dtype, np.float64)

    def block(row, m):
        out = np.empty((m, len(C)), dtype)
        for r, n, xi, product, *buffers in _row_tiles(m, len(idx), float, dtype, *[np.uint64] * 2):
            xi = normal_matrix_at(stream_id, n, idx, row + r, out=xi, buffers=buffers)
            for i, c in enumerate(C):
                row_dot(xi, c, out[r : r + n, i], product)
        return out

    return block


def linear_samples(stream_id, n, coeffs, first=0) -> np.ndarray:
    """sum_j coeffs[j] * xi[j] for sample rows ``first .. first + n - 1``."""
    forms = linear_forms(stream_id, coeffs)
    return emit_rows(np.empty(n), first, lambda row, m: forms(row, m)[:, 0])


def mc_mean(n, block):
    """Monte Carlo mean over sample rows 0 .. n-1, with standard errors.

    ``block(row, m)`` returns the m real or complex values of the sample rows
    starting at ``row``, row by row.  The mean is the sum of block sums over n;
    each block's squared deviations from its own mean are merged pairwise in
    block order, so the variance does not cancel under a large mean.
    Returns (complex mean, (se_real, se_imag)).
    """
    if n < 1:
        raise ValueError("need at least one sample")

    def partials(row, m):
        vals = block(row, m)
        parts = np.real(vals), np.imag(vals)
        s = np.array([p.sum() for p in parts])
        return s, np.array([((p - si / m) ** 2).sum() for p, si in zip(parts, s)])

    total, m2 = np.zeros(2), np.zeros(2)
    for (start, m), (s, own_m2) in _walk(n, partials):
        delta = s / m - total / max(start, 1)
        m2 += own_m2
        m2 += delta * delta * (start * m / (start + m))
        total += s
    mean = total / n
    return complex(mean[0], mean[1]), tuple(np.sqrt(m2 / n / n))
