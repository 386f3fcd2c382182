import ast
import functools
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisefield import (
    BorelSet,
    LebesgueMeasure,
    bernoulli,
    cantor_measure,
    ifs,
    kernels,
    noise,
    streams,
)
from noisefield.cli import main as cli_main
from noisefield.sigma import SigmaFunction, SigmaLift, correlated_pair


def test_replay_is_bit_identical():
    a = streams.normals(42, 1000)
    b = streams.normals(42, 1000)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("stream_id", [-1, 2**64])
def test_stream_ids_outside_64_bits_are_rejected(stream_id):
    with pytest.raises(ValueError, match="stream id"):
        streams.normals(stream_id, 3)


def test_offset_slices_agree_with_prefix():
    full = streams.normals(9, 500)
    tail = streams.normals(9, 300, offset=200)
    assert np.array_equal(full[200:], tail)


def test_single_coordinate_is_addressable():
    full = streams.normals(5, 100)
    one = streams.normals_at(5, np.array([57], dtype=np.uint64))
    assert full[57] == one[0]


def test_empirical_moments():
    z = streams.normals(3, 100_000)
    assert abs(z.mean()) < 5 / np.sqrt(len(z))
    assert abs(z.var() - 1.0) < 5 * np.sqrt(2 / len(z))


def test_distinct_streams_uncorrelated():
    a = streams.normals(1, 10_000)
    b = streams.normals(2, 10_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.03


def test_matrix_rows_match_substreams():
    mat = streams.normal_matrix(11, 4, 16)
    for n in range(4):
        row = streams.normals(streams.substream(11, n), 16)
        assert np.array_equal(mat[n], row)


def test_matrix_at_select_columns():
    idx = np.array([0, 3, 10], dtype=np.uint64)
    full = streams.normal_matrix(13, 8, 11)
    sel = streams.normal_matrix_at(13, 8, idx)
    assert np.array_equal(sel, full[:, [0, 3, 10]])


def test_signs_are_fair():
    s = streams.signs(21, np.arange(100_000))
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert abs(s.mean()) < 4 / np.sqrt(len(s))


# -- the packed coin layout -----------------------------------------------------------


@pytest.mark.parametrize("K", [1, 63, 64, 65, 130])
def test_sign_matrix_reads_coin_k_from_bit_k_mod_64_of_word_k_div_64(K):
    s, m, first = 19, 4, 8190  # rows on both sides of a grid block boundary
    mat = streams.sign_matrix(s, m, K, first)
    assert mat.shape == (m, K)
    for r in range(m):
        sub = streams.substream(s, first + r)
        want = [1 - 2 * ((int(streams.bits(sub, [k // 64])[0]) >> k % 64) & 1) for k in range(K)]
        assert np.array_equal(mat[r], want)


@pytest.mark.parametrize("K1, K2", [(1, 64), (47, 113), (64, 65), (63, 130)])
def test_sign_rows_extend_in_place(K1, K2):
    assert np.array_equal(streams.sign_matrix(5, 30, K1, 7), streams.sign_matrix(5, 30, K2, 7)[:, :K1])


def test_signs_of_a_substream_are_its_sign_row():
    mat = streams.sign_matrix(23, 6, 130, 40)
    for n in range(6):
        assert np.array_equal(streams.signs(streams.substream(23, 40 + n), np.arange(130)), mat[n])


def test_every_coin_bit_position_is_balanced():
    n = 40_000
    means = streams.sign_matrix(29, n, 64).mean(axis=0)
    assert np.abs(means).max() < 4 / np.sqrt(n)


# -- coin series from per-byte tables -------------------------------------------------


def table_sum(stream_id, row, weights):
    """sum_k s_k w_k of one row by the byte-table rule, in plain Python floats.

    T_b(v) adds (1 - 2 bit_i(v)) w[8b + i] for i = 0 .. 7 in order, with weights
    past K taken as 0; the row adds T_b(byte b) for b = 0, 1, ... in order.
    """
    w = list(weights) + [0.0] * (-len(weights) % 8)
    sub = streams.substream(stream_id, row)
    total = 0.0
    for b in range(len(w) // 8):
        word = int(streams.bits(sub, [b // 8])[0])
        octet = (word >> 8 * (b % 8)) & 0xFF
        t = 0.0
        for i in range(8):
            t += (1 - 2 * ((octet >> i) & 1)) * w[8 * b + i]
        total += t
    return total


SUM_K = [4, 7, 8, 9, 47, 63, 64, 65, 113, 130]


@pytest.mark.parametrize("K", SUM_K)
@pytest.mark.parametrize("lam", [0.3, 0.5, 0.75, 0.9])
def test_sign_sums_follow_the_byte_table_rule(lam, K):
    w = lam ** np.arange(1, K + 1)
    first, m = 8190, 5  # rows on both sides of a grid block boundary
    got = streams.sign_sums(19, w)(first, m)
    assert got.tolist() == [table_sum(19, first + r, w) for r in range(m)]


@pytest.mark.parametrize("K", SUM_K)
@pytest.mark.parametrize("lam", [0.3, 0.5, 0.75, 0.9])
def test_sign_sums_agree_with_the_sign_matrix(lam, K):
    w = lam ** np.arange(1, K + 1)
    first, m = 8150, 60
    got = streams.sign_sums(19, w)(first, m)
    want = streams.row_dot(streams.sign_matrix(19, m, K, first), w)
    if lam == 0.5 and K <= 53:
        # dyadic weights spanning at most 53 binary places: every partial sum is exact
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() < 1e-14


def test_dyadic_bernoulli_samples_equal_the_coin_matrix_sums():
    bc = bernoulli.BernoulliConvolution(0.5, stream_id=31)
    w = 0.5 ** np.arange(1, bc.K + 1)
    want = streams.row_dot(streams.sign_matrix(31, 9000, bc.K, 17), w)
    assert np.array_equal(bc.sample(9000, 17), want)


def test_bernoulli_sample_forms_no_coin_matrix():
    # At lam = 0.99 (K = 3208) one grid block of +-1 coins is an 8192 x 3208
    # float matrix, 210 MB, and its weighted product another.
    bc = bernoulli.BernoulliConvolution(0.99, stream_id=2)
    assert bc.K == 3208
    tracemalloc.start()
    try:
        with streams.workers(1):
            bc.sample(8192)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# -- the sample-row grid -----------------------------------------------------------

LEB = LebesgueMeasure(0, 1)
FIELD = noise.GaussianNoiseField(LEB, J=64)
LIFT = SigmaLift([LEB], J_density=32)
LIFT_F = SigmaFunction(lambda x: np.cos(3.0 * np.asarray(x)), LEB)
PAIR = correlated_pair(LEB, [0.5, -0.3], [0.0, 0.5, 1.0], 12)
COINS = bernoulli.BernoulliConvolution(0.5, stream_id=4)
A = BorelSet.interval(0, 0.6)

# Samplers that take a first-sample offset: (first, n) -> samples.
OFFSET_EMITTERS = {
    "noise_samples": lambda first, n: FIELD.noise_samples(A, n, 3, first),
    "lift_samples": lambda first, n: LIFT.lift_samples(LIFT_F, n, 8, first),
    "sample_pair": lambda first, n: np.stack(PAIR.sample_pair(A, n, first), axis=1),
    "bernoulli": lambda first, n: COINS.sample(n, first),
}
EMITTERS = {
    **{name: functools.partial(emit, 5) for name, emit in OFFSET_EMITTERS.items()},
    "ito_samples": lambda n: FIELD.ito_samples(lambda x: x, n, 5),
    "coupled_samples": lambda n: bernoulli.coupled_samples([0.5, 0.75], n, 9),
    "chaos_game_sample": lambda n: ifs.chaos_game_sample(cantor_measure().ifs, n, 6),
}


@settings(max_examples=20, deadline=None)
@given(cuts=st.lists(st.integers(0, 9000), max_size=4))
@pytest.mark.parametrize("name", sorted(OFFSET_EMITTERS))
def test_split_runs_concatenate_to_the_whole(name, cuts):
    emit = OFFSET_EMITTERS[name]
    whole = emit(0, 9000)
    edges = [0, *sorted(cuts), 9000]
    parts = [emit(a, b - a) for a, b in zip(edges[:-1], edges[1:])]
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("rows", [7, 1000])
@pytest.mark.parametrize("name", sorted(EMITTERS))
def test_emitters_do_not_depend_on_block_rows(monkeypatch, name, rows):
    expected = EMITTERS[name](2500)
    monkeypatch.setattr(streams, "_BLOCK_ROWS", rows)
    assert np.array_equal(EMITTERS[name](2500), expected)


def merged_reduction(blocks, n):
    """(mean, stderr) of real values given block by block on the grid.

    The mean is the sum of block sums, in block order, over n; each block's
    squared deviations from its own mean are merged pairwise into the running
    sum (Chan, Golub & LeVeque), with the running mean taken as total / count.
    """
    total = m2 = 0.0
    count = 0
    for vals in blocks:
        m = len(vals)
        s = vals.sum()
        delta = s / m - total / max(count, 1)
        m2 += ((vals - s / m) ** 2).sum()
        m2 += delta * delta * (count * m / (count + m))
        total += s
        count += m
    assert count == n
    return total / n, math.sqrt(m2 / n / n)


def grid_blocks(n, values, rows=8192):
    """values(start, m) over consecutive blocks of the 8192-row grid."""
    return [values(start, min(rows, n - start)) for start in range(0, n, rows)]


def test_covariance_reduction_sums_8192_row_blocks_in_order():
    # Pins the reduction order: per-block sums and pairwise-merged squared
    # deviations on the 8192-row grid, in block order.  On both streams at
    # this N, a 16384-row grid gives different bits for both values; on
    # stream 3 the naive s2/n - mean^2 gives a different stderr.
    B = BorelSet.interval(0.4, 1.0)
    n = 3 * 8192 + 5
    ca, cb = FIELD.coefficients(A), FIELD.coefficients(B)
    idx = np.flatnonzero(np.abs(ca) + np.abs(cb))
    for stream in (1, 3):

        def products(start, m):
            xi = streams.normal_matrix_at(stream, m, idx, start)
            return streams.row_dot(xi, ca[idx]) * streams.row_dot(xi, cb[idx])

        expected = merged_reduction(grid_blocks(n, products), n)
        assert FIELD.covariance_mc(A, B, n, stream) == expected


def test_ito_isometry_cli_reduces_squares_on_the_8192_row_grid(tmp_path):
    # The CLI value is E[W^2] over the grid blocks of the emitted samples W.
    n = 3 * 8192 + 5
    out = tmp_path / "ito.csv"
    argv = ["ito-isometry", "--measure", "lebesgue:0,1", "--poly", "0,1", "--N", str(n),
            "--J", "64", "--seed", "5", "--out", str(out)]
    assert cli_main(argv) == 0
    est, se, _target = map(float, out.read_text().splitlines()[-1].split(","))
    c = FIELD.ito_coefficients(lambda x: x)
    c[2:] = 0.0  # the CLI keeps the Legendre degrees of the polynomial x only
    W = streams.linear_samples(5, n, c)
    assert (est, se) == merged_reduction(grid_blocks(n, lambda a, m: W[a : a + m] ** 2), n)


def test_cross_term_reduces_on_the_8192_row_grid():
    n, r = 3 * 8192 + 5, 0.3
    bc = bernoulli.BernoulliConvolution(0.6, stream_id=37)
    x1, x2 = (bc.sample(n, 0, streams.child_stream(37, tag)) for tag in (0, 1))
    near = np.abs(x1 - x2) <= r
    est, se = merged_reduction(grid_blocks(n, lambda a, m: ((x2 - x1) * near)[a : a + m]), n)
    p_near = sum(b.sum() for b in grid_blocks(n, lambda a, m: near[a : a + m] * 1.0)) / n
    bound = math.sqrt(2.0 * bc.variance()) * math.sqrt(p_near)
    assert bernoulli.cross_term_bound_mc(bc, r, n) == (est, se, bound)


def test_linear_forms_draw_exactly_the_union_of_nonzero_columns(monkeypatch):
    drawn = []
    original = streams.normal_matrix_at

    def recording(*args, **kwargs):
        drawn.append(np.asarray(args[2]).tolist())
        return original(*args, **kwargs)

    monkeypatch.setattr(streams, "normal_matrix_at", recording)
    C = np.zeros((3, 40), dtype=complex)
    C[0, [2, 9]] = [0.5, -1.0]
    C[1, [9, 31]] = [2.0j, 0.25]
    C[2, 0] = 1.0
    W = streams.linear_forms(4, C)(10, 300)
    assert drawn and all(cols == [0, 2, 9, 31] for cols in drawn)
    xi = original(4, 300, np.arange(40), 10)
    assert np.allclose(W, xi @ C.T, rtol=1e-14, atol=1e-14)
    drawn.clear()
    assert np.array_equal(streams.linear_forms(4, np.zeros((2, 40)))(0, 5), np.zeros((5, 2)))
    assert drawn == [[]]


@pytest.mark.parametrize("n", [3 * 8192 + 5, 100_000])
@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_reduction_variance_does_not_cancel_under_a_large_mean(n, offset):
    # The spread of offset + xi is that of xi.  The naive s2/n - mean^2 loses
    # it: 40% high at offset 1e8, and exactly 0 at n = 1e5.
    forms = streams.linear_forms(1, [1.0])
    _mean, (se, _) = streams.mc_mean(n, lambda row, m: offset + forms(row, m)[:, 0])
    v = offset + streams.normal_matrix_at(1, n, [0])[:, 0]
    mean = math.fsum(v) / n
    exact = math.sqrt(math.fsum((v - mean) ** 2) / n / n)
    assert abs(se - exact) < 1e-9 * exact


def test_reduction_rejects_empty_runs():
    c = np.array([0.3, 0.0, -0.2])
    with pytest.raises(ValueError, match="at least one sample"):
        streams.mc_mean(0, streams.linear_forms(1, [1.0]))
    with pytest.raises(ValueError, match="at least one sample"):
        noise.characteristic_functional_mc(c, 0, 2)
    with pytest.raises(ValueError, match="at least one sample"):
        noise.moment_identity_mc(0, 2, c, 0, 2)
    with pytest.raises(ValueError, match="at least one sample"):
        kernels.fourier_map_isometry(LEB, [A], [1.0], 0, 17, J=8)


# -- the word tiles ----------------------------------------------------------------

C = np.array([0.3, -0.2, 0.1, 0.05])
B = BorelSet.interval(0.4, 1.0)
IDX = np.array([5, 0, 70_000, 3], dtype=np.uint64)

# Everything that draws stream words, at sizes that keep 1-word tiles quick.
TILED = {
    "normals": lambda: streams.normals(4, 300, 33),
    "normal_matrix_at": lambda: streams.normal_matrix_at(3, 40, IDX, 8180),
    "uniform_matrix": lambda: streams.uniform_matrix(3, 40, 47, 11),
    "sign_matrix": lambda: streams.sign_matrix(3, 40, 47, 11),
    "sign_sums": lambda: streams.sign_sums(3, 0.75 ** np.arange(1, 131))(11, 40),
    **{f"emitter:{name}": functools.partial(emit, 100) for name, emit in EMITTERS.items()},
    "covariance_mc": lambda: FIELD.covariance_mc(A, B, 120, 1),
    "fourier_map_isometry": lambda: kernels.fourier_map_isometry(LEB, [A, B], [1.0, -0.5], 150, 17, J=8),
    "moment_identity_mc": lambda: noise.moment_identity_mc(0, 1, C, 300, 2),
}


def _same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


@pytest.mark.parametrize("tile", [1, 5, 1 << 22])
@pytest.mark.parametrize("name", sorted(TILED))
def test_results_do_not_depend_on_the_tile(monkeypatch, name, tile):
    expected = TILED[name]()
    monkeypatch.setattr(streams, "_TILE_WORDS", tile)
    assert _same(TILED[name](), expected)


def test_reduction_keeps_each_tile_until_its_block_is_summed(monkeypatch):
    # The block returns a view of the forms' values; a tile buffer reused
    # before the block sum would change the mean.
    monkeypatch.setattr(streams, "_TILE_WORDS", 64)
    n = 2 * 8192 + 5
    col = streams.normal_matrix_at(1, n, np.array([3], dtype=np.uint64))[:, 0]
    s1 = 0.0
    for start in range(0, n, 8192):
        s1 += col[start : start + 8192].sum()
    C = np.zeros((3, 8))
    C[0, 3] = C[1, 0] = C[2, 7] = 1.0
    forms = streams.linear_forms(1, C)
    mean, _se = streams.mc_mean(n, lambda row, m: forms(row, m)[:, 0])
    assert mean == complex(s1 / n, 0.0)


def test_a_repeated_block_walk_reuses_its_tile_pages():
    # Each block allocates its tile buffers once, not once per tile: at J = 512
    # fresh per-tile buffers took 61440 minor faults on the second of these
    # calls, as freed tiles went back to the system and came back as new pages.
    pytest.importorskip("resource")
    _run_fresh("""
        import resource
        from noisefield import BorelSet, GaussianNoiseField, LebesgueMeasure, streams
        field = GaussianNoiseField(LebesgueMeasure(0, 1), J=512)
        A, B = BorelSet.interval(0, 0.6), BorelSet.interval(0.4, 1.0)
        with streams.workers(1):
            field.covariance_mc(A, B, 5 * 8192, 1)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            field.covariance_mc(A, B, 5 * 8192, 1)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 6144, faults
    """)


def test_only_streams_turns_the_tile_size_into_a_row_step():
    # every row loop walks streams._row_tiles; no other module reads the tile size
    package = Path(streams.__file__).resolve().parent
    readers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name == "_TILE_WORDS" and path.stem != "streams":
                readers.add(path.name)
    assert not readers, readers


N_MEM = 3 * 8192 + 5
FIELD_512 = noise.GaussianNoiseField(LEB, J=512)
MEMORY = {
    "covariance_mc": lambda: FIELD_512.covariance_mc(A, B, N_MEM, 1),
    "noise_samples": lambda: FIELD_512.noise_samples(A, N_MEM, 1),
    "boundary_process_cov": lambda: kernels.boundary_process_cov(
        kernels.BrownianKernel(), 0.3, 0.7, 1000, N_MEM, 2
    ),
}


@pytest.mark.parametrize("name, k", [
    pytest.param(name, k, id=name if k == 1 else f"{name}-workers{k}")
    for name in sorted(MEMORY) for k in (1, 2)
])
def test_stream_memory_does_not_grow_with_the_grid_block(name, k):
    # A grid block of 8192 rows x 512 coordinates is 32 MB per float64 temporary.
    # Under k = 2 the blocks run in forked workers; the caller holds their results.
    MEMORY[name]()  # builds and caches the coefficients
    tracemalloc.start()
    try:
        with streams.workers(k):
            MEMORY[name]()
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


SMALL = {
    "covariance_mc": lambda: FIELD.covariance_mc(A, B, 200, 1),
    "noise_samples": lambda: FIELD.noise_samples(A, 200, 1),
    "boundary_process_cov": lambda: kernels.boundary_process_cov(
        kernels.BrownianKernel(), 0.3, 0.7, 64, 1000, 2
    ),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_estimators_call_the_traced_stream_layers(monkeypatch, name):
    # The benchmark's tracer expects these calls on gauss_mc (CALLED_ON in
    # bench/selftest.py); this is the fast guard for that contract.
    calls = dict.fromkeys(["normal_matrix_at", "ndtri", "row_dot"], 0)
    for attr in calls:
        original = getattr(streams, attr)

        def counted(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(streams, attr, counted)
    SMALL[name]()
    assert all(calls.values()), calls


# -- worker processes ----------------------------------------------------------------

N_POOL = 3 * 8192 + 5  # four grid blocks, so k = 2 and k = 3 fork

POOLED = {
    "characteristic_functional_mc": lambda: noise.characteristic_functional_mc(C, N_POOL, 2),
    "moment_identity_mc": lambda: noise.moment_identity_mc(0, 1, C, N_POOL, 2),
    "boundary_process_cov": lambda: kernels.boundary_process_cov(
        kernels.BrownianKernel(), 0.3, 0.7, 64, N_POOL, 2
    ),
    "cross_term_bound_mc": lambda: bernoulli.cross_term_bound_mc(
        bernoulli.BernoulliConvolution(0.6, stream_id=37), 0.3, N_POOL
    ),
    "bernoulli_sample": lambda: COINS.sample(N_POOL, 3),
    "chaos_game_sample": lambda: ifs.chaos_game_sample(cantor_measure().ifs, N_POOL, 6),
    "lift_samples": lambda: LIFT.lift_samples(LIFT_F, N_POOL, 8, 3),
    "sample_pair": lambda: PAIR.sample_pair(A, N_POOL, 3),
}


@pytest.mark.parametrize("name", sorted(POOLED))
def test_library_results_identical_for_every_worker_count(name):
    results = []
    for k in (1, 2, 3):
        with streams.workers(k):
            results.append(POOLED[name]())
    assert _same(results[0], results[1]) and _same(results[0], results[2])
    assert not multiprocessing.active_children()


def _block_pids(first_block_s=0.0):
    """The pid that ran each of the four grid blocks of an ``N_POOL``-row walk.

    Every call at row 0 (block 0 and the default walk's probe of it) sleeps
    ``first_block_s`` seconds: about 50 ms makes a pool pay for itself under
    the default, while blocks that only fill take microseconds.
    """
    def block(row, m):
        if row == 0:
            time.sleep(first_block_s)
        return np.full(m, os.getpid())

    pids = streams.emit_rows(np.empty(N_POOL), 0, block)
    assert not multiprocessing.active_children()
    return [pids[start] for start in range(0, N_POOL, 8192)]


def test_blocks_run_outside_the_calling_process():
    # The caller runs blocks i = 0 (mod k), k - 1 forked workers the rest.
    for k in (2, 3):
        with streams.workers(k):
            pids = _block_pids()
        assert [pid == os.getpid() for pid in pids] == [i % k == 0 for i in range(4)], k


@pytest.mark.parametrize("cpus, owners", [
    ({0}, [True] * 4),
    ({0, 1, 2}, [True, False, False, True]),
])
def test_default_worker_count_is_the_cpu_affinity(monkeypatch, cpus, owners):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert [pid == os.getpid() for pid in _block_pids(0.05)] == owners


def test_default_walk_of_cheap_blocks_builds_no_pool(monkeypatch):
    def no_pool(*args):
        raise AssertionError("a walk of cheap blocks started a pool")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    assert _block_pids() == [os.getpid()] * 4
    forms = streams.linear_forms(5, [1.0, 0.5])
    mean, _se = streams.mc_mean(N_POOL, lambda row, m: forms(row, m)[:, 0])
    assert np.isfinite(mean)


def test_default_walk_forks_when_block_0_is_slow(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert [pid == os.getpid() for pid in _block_pids(0.05)] == [True, False, True, False]


@pytest.mark.parametrize("t, n_blocks, k, pays", [
    (1.14e-3, 123, 2, False),  # chaos game: 70 ms saved against a 137 ms pool
    (11.8e-3, 13, 2, True),  # coupled_samples: 71 ms saved against 27 ms
    (2.9e-3, 13, 2, False),  # characteristic_functional_mc: 17 ms against 27 ms
    (1.0, 2, 2, True),  # the worker runs block 1 while the caller runs block 0
    (5e-3, 2, 2, False),  # 5 ms saved against 17 ms
    (0.05, 4, 3, True),  # the caller runs blocks 0 and 3, two workers 1 and 2
])
def test_pool_pays_only_past_its_start_and_transfer_cost(t, n_blocks, k, pays):
    assert streams._pool_pays(t, n_blocks, k) == pays


def test_default_worker_count_needs_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert _block_pids(0.05) == [os.getpid()] * 4


def test_default_walk_runs_in_process_while_another_thread_lives(monkeypatch):
    # forking a process that has another thread can deadlock the child
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        pids = _block_pids(0.05)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert pids == [os.getpid()] * 4


def test_nested_drivers_in_the_callers_blocks_fork_no_second_pool(monkeypatch):
    context = multiprocessing.get_context("fork")
    pools = []

    def counted_pool(*args, _original=context.Pool, **kwargs):
        pools.append(args)
        return _original(*args, **kwargs)

    monkeypatch.setattr(context, "Pool", counted_pool)
    inner = streams.linear_forms(5, [1.0, 0.5])

    def block(row, m):
        mean, _se = streams.mc_mean(2 * 8192 + 1, lambda r, k: inner(r, k)[:, 0])
        return np.full(m, mean.real)

    with streams.workers(2):
        streams.emit_rows(np.empty(N_POOL), 0, block)
    assert len(pools) == 1
    assert not multiprocessing.active_children()


class BlockFailure(Exception):
    pass


def test_a_block_error_reaches_the_caller_with_its_type():
    def block(row, m):
        if row >= 8192:
            raise BlockFailure(f"block at row {row}")
        return np.zeros(m)

    with streams.workers(2), pytest.raises(BlockFailure, match="block at row"):
        streams.mc_mean(N_POOL, block)
    assert not multiprocessing.active_children()


def test_forked_workers_run_nested_drivers_in_process():
    # A pool's workers are daemons, which may not fork: a nested driver that
    # kept the caller's worker count would fail.
    inner = streams.linear_forms(5, [1.0, 0.5])

    def block(row, m):
        mean, _se = streams.mc_mean(2 * 8192 + 1, lambda r, k: inner(r, k)[:, 0] + row)
        return np.full(m, mean.real)

    expected = streams.emit_rows(np.empty(N_POOL), 0, block)
    with streams.workers(2):
        assert np.array_equal(streams.emit_rows(np.empty(N_POOL), 0, block), expected)


@pytest.mark.parametrize("k", [0, -1, 1.5, "2"])
def test_worker_count_is_validated(k):
    with pytest.raises(ValueError, match="worker count"), streams.workers(k):
        pass


# -- how ndtri is loaded ------------------------------------------------------------

# What ``from scipy.special import ndtri`` would also load: scipy's array-API layer
# and the numpy subpackages it pulls in.
_ARRAY_API_MODULES = ("scipy._lib._array_api", "scipy.special._support_alternative_backends",
                      "numpy.f2py", "numpy.testing")


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's noisefield."""
    src = str(Path(streams.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_ndtri_without_scipy_special_init():
    _run_fresh(f"""
        import sys
        import noisefield.cli
        from noisefield import streams
        loaded = [m for m in {_ARRAY_API_MODULES!r} if m in sys.modules]
        assert not loaded, loaded
        assert "scipy.special" not in sys.modules
        import scipy
        assert "special" not in vars(scipy)
        assert "scipy.special._ufuncs" in sys.modules

        import scipy.special
        assert "erf" in vars(sys.modules["scipy.special"])
        assert abs(scipy.special.erf(0.5) - 0.5204998778130465) < 1e-15
        assert scipy.special.ndtr(0.0) == 0.5
        assert streams.ndtri is scipy.special.ndtri
    """)


def test_import_reuses_a_loaded_scipy_special():
    _run_fresh("""
        import sys
        import scipy.special
        real = sys.modules["scipy.special"]
        from noisefield import streams
        assert sys.modules["scipy.special"] is real
        assert streams.ndtri is real.ndtri
    """)


def test_import_falls_back_to_scipy_special_when_the_extension_is_not_found():
    # The finder misses the extension once, as a scipy whose layout the loader
    # does not know would; the public import then finds it as usual.
    _run_fresh("""
        import sys
        from importlib.machinery import PathFinder
        find_spec, missed = PathFinder.find_spec.__func__, []

        def find_spec_missing_once(cls, name, path=None, target=None):
            if name == "scipy.special._ufuncs" and not missed:
                missed.append(name)
                return None
            return find_spec(cls, name, path, target)

        PathFinder.find_spec = classmethod(find_spec_missing_once)
        from noisefield import streams
        import scipy.special
        assert missed
        assert "erf" in vars(sys.modules["scipy.special"])
        assert streams.ndtri is scipy.special.ndtri
    """)
