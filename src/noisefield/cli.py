"""Command-line front end.

Every subcommand wraps exactly one library operation, parses descriptors,
runs it under a fixed seed, and emits CSV or JSON with the full descriptor
embedded, so identical invocations replay byte for byte.

Exit codes: 0 success, 2 usage error, 3 numeric failure or a closed stdout
(a machine-readable error record goes to stderr).  Every descriptor, text or
inline JSON, reads under one rule, ``_malformed``: a malformed one exits 2
naming it.  The named systems ``cantor`` and ``binary`` take no suffix.

``main`` builds the flags of the one subcommand it runs and registers the
other fifteen by name and help only: in a fresh process the parser of all
sixteen took 3.9-6.6 ms to build, that of one 1.4-1.8 ms.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import math
import multiprocessing
import os
import sys
from fractions import Fraction

import numpy as np

from . import bernoulli as bc_mod
from . import ifs as ifs_mod
from . import kernels, noise, sigma, streams
from .bases import LegendreBasis
from .measures import (
    AtomicMeasure,
    BernoulliMeasure,
    DensityMeasure,
    IFSInvariantMeasure,
    LebesgueMeasure,
    measure_from_descriptor,
)
from .sets import BorelSet

MIN_MC_SAMPLES = 100
MAX_MC_SAMPLES = 1 << 30  # 2^17 grid blocks; a sample-path of this many rows is 8 GiB
MAX_TRUNCATION = 1 << 15
MAX_CUNTZ_CELLS = 1 << 24  # n^depth cells: a 128 MiB float64 diagonal
MAX_PROXY_CUTOFF = 10_000  # ac2-proxy T: 2T Gauss panels of 8 nodes
MAX_FBM_TIME = 100  # fbm-variance t: 3000 t / pi half-period panels of 24 nodes
MAX_MOMENT_DEGREE = 64  # exact moments of high degree outgrow Python's int-to-str limit
MAX_DENSITY_BINS = 1 << 20  # bernoulli --h: 2 lambda / ((1 - lambda) h) histogram bins
# bernoulli-density: bins x 24 max(T, 32) terms of the inversion sum.  It
# bounds time, not memory: the sum runs in node tiles (bernoulli._fourier_sums),
# and at the bound it took 0.03-0.24 s with a 1.6-4.0 MB tracemalloc peak
# (lambda = 3/4, one BLAS thread, 2 cores; 21845 bins at T = 32 up to 200
# bins at T = 3495).
MAX_INVERSION_COSINES = 1 << 24
MAX_SZEGO_NODES = 1 << 20  # szego-check: 25 trapezoid sums of this many nodes, 3.4 s and 121 MB
MAX_EMBED_POINTS = 512  # boundary-embed: points^2 / 2 distance rows, 5.5 s and 173 MB
MAX_JULIA_FACTORS = 1 << 16  # julia-kernel: a Python step per factor and point; 1e5 took 0.45 s
MAX_JULIA_POINTS = 512  # julia-kernel: points^2 / 2 kernel rows


class UsageError(Exception):
    pass


# -- descriptor parsing ---------------------------------------------------------


@contextlib.contextmanager
def _malformed(what: str, text: str):
    """The one rule for outside input: a failure becomes a UsageError naming it (exit 2)."""
    try:
        yield
    except UsageError:
        raise
    except Exception as exc:
        raise UsageError(f"malformed {what} {text!r}: {exc}") from exc


def parse_measure(text: str):
    head, _, rest = text.partition(":")
    with _malformed("measure descriptor", text):
        if text.startswith("{"):
            return measure_from_descriptor(json.loads(text))
        if head == "lebesgue":
            a, b = (float(v) for v in rest.split(","))
            return LebesgueMeasure(a, b)
        if head == "density":
            interval, _, coeffs = rest.partition(":")
            a, b = (float(v) for v in interval.split(","))
            return DensityMeasure(a, b, [float(c) for c in coeffs.split(",")])
        if head == "atomic":
            atoms = [tuple(float(v) for v in part.split(",")) for part in rest.split(";")]
            return AtomicMeasure(atoms)
        if head in (*_NAMED_SYSTEMS, "ifs"):
            return IFSInvariantMeasure(parse_ifs(text))
        if head == "bernoulli":
            return BernoulliMeasure(float(rest))
    raise UsageError(f"unknown measure kind {head!r}")


_NAMED_SYSTEMS = {"cantor": ifs_mod.cantor_system, "binary": ifs_mod.binary_system}


def parse_ifs(text: str):
    with _malformed("system descriptor", text):
        if text in _NAMED_SYSTEMS:
            return _NAMED_SYSTEMS[text]()
        if text.startswith("{"):
            return ifs_mod.ifs_from_descriptor(json.loads(text))
        head, _, rest = text.partition(":")
        if head != "ifs":
            raise UsageError(f"unknown system descriptor {text!r}")
        branch_text, _, weight_text = rest.partition(":")
        branches = [tuple(float(v) for v in p.split(",")) for p in branch_text.split(";")]
        weights = [float(v) for v in weight_text.split(",")]
        return ifs_mod.make_ifs(branches, weights)


def parse_set(text: str, measure=None) -> BorelSet:
    with _malformed("set descriptor", text):
        if text.startswith("cyl:"):
            word = tuple(int(d) for d in text[4:].split(","))
            if not isinstance(measure, IFSInvariantMeasure):
                raise UsageError("cylinder sets need an ifs-invariant measure")
            return measure.ifs.cylinder_set(word)
        intervals = [tuple(float(v) for v in part.split(",")) for part in text.split(";")]
        return BorelSet.from_intervals(intervals)


def parse_poly(text: str):
    with _malformed("polynomial coefficients", text):
        coeffs = [float(c) for c in text.split(",")]
    if not all(map(math.isfinite, coeffs)):
        raise UsageError(f"polynomial coefficients {text!r} must be finite")
    return coeffs


def _poly_fn(coeffs):
    arr = np.asarray(coeffs, dtype=float)
    return lambda x, c=arr: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c)


# -- output ---------------------------------------------------------------------


def _emit(args, descriptor: dict, header, rows=None, columns=None):
    """CSV: '# descriptor' comment line, then header and rows.  JSON: one object.

    CSV rows are written as they are formatted, so ``rows`` may be an iterator.
    ``columns`` (one int or float sequence per header entry) is the column
    form of ``rows``; CSV formats it a block of rows at a time.
    """
    if args.out:
        path = args.out
        outdir = os.environ.get("NOISEFIELD_OUTDIR")
        if outdir and not os.path.isabs(path):
            path = os.path.join(outdir, path)
        with open(path, "w", newline="") as fh:
            _write(fh, args.format, descriptor, header, rows, columns)
    else:
        _write(sys.stdout, args.format, descriptor, header, rows, columns)


def _write(fh, fmt, descriptor, header, rows, columns=None):
    if columns is not None:
        rows = zip(*columns)
    if fmt == "json":
        payload = {
            "descriptor": descriptor,
            "columns": list(header),
            "rows": [[_fmt(v) for v in row] for row in rows],
        }
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return
    fh.write("# " + json.dumps(descriptor, sort_keys=True) + "\n")
    fh.write(",".join(header) + "\n")
    if columns is not None:
        _write_columns(fh, columns)
        return
    for row in rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")


# One formatter per column dtype kind, each giving the string _fmt gives the
# item.  200k sample-path rows into a StringIO took 0.73 s as one write and one
# _fmt per value and 0.35 s formatted a block of this many rows at a time.
_CSV_BLOCK_ROWS = 8192
_COLUMN_FMT = {"i": int.__repr__, "f": float.__repr__}


def _write_columns(fh, columns):
    for i in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = [np.asarray(col[i : i + _CSV_BLOCK_ROWS]) for col in columns]
        cells = [map(_COLUMN_FMT[b.dtype.kind], b.tolist()) for b in block]
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


# exact-type fast path of _fmt; each entry gives the same string as the chain
_FMT_EXACT = {float: float.__repr__, np.float64: float.__repr__, int: int.__repr__, str: str}


def _fmt(v) -> str:
    fast = _FMT_EXACT.get(type(v))
    if fast is not None:
        return fast(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (complex, np.complexfloating)):
        c = complex(v)
        return f"{c.real!r}{c.imag:+}j".replace("+-", "-")
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return str(v)


def _descriptor(args, **extra) -> dict:
    d = {"subcommand": args.command, "seed": getattr(args, "seed", None)}
    for key in ("N", "J"):
        if getattr(args, key, None) is not None:
            d[key] = getattr(args, key)
    d.update(extra)
    return {k: v for k, v in d.items() if v is not None}


def _check_density_grid(lam, h, T=None):
    """Bound the Bernoulli histogram bins and, with a cutoff T, the inversion's cosines.

    The histogram has 2 lambda / ((1 - lambda) h) bins, and the inversion
    forms a bins x 24 T cosine matrix (12 Gauss nodes on each of 2T panels).
    A lambda outside (0, 1) is left to the library to reject.
    """
    if not 0.0 < h < math.inf:  # also rejects nan
        raise UsageError("--h must be positive and finite")
    if not 0.0 < lam < 1.0:
        return
    bins = 2.0 * lam / (1.0 - lam) / h
    if not 1.0 <= bins <= MAX_DENSITY_BINS:
        raise UsageError(f"--h must give between 1 and {MAX_DENSITY_BINS} bins "
                         f"2 lambda / ((1 - lambda) h); it gives {bins:.4g}")
    if T is None:
        return
    if not 0.0 < T < math.inf:
        raise UsageError("--T must be positive and finite")
    cosines = bins * 24.0 * max(T, 32.0)  # the inversion keeps at least 64 panels
    if cosines > MAX_INVERSION_COSINES:
        raise UsageError(f"--T and --h give {bins:.4g} bins x 24 max(T, 32) = {cosines:.4g} "
                         f"inversion terms; at most {MAX_INVERSION_COSINES} are allowed")


# -- subcommand bodies ------------------------------------------------------------


def cmd_sample_path(args):
    mu = parse_measure(args.measure)
    A = parse_set(args.A, mu)
    field = noise.GaussianNoiseField(mu, J=args.J)
    vals = field.noise_samples(A, args.N, args.seed)
    desc = _descriptor(args, measure=mu.to_descriptor(), A=args.A, J=field.J)
    _emit(args, desc, ["sample", "value"], columns=(range(len(vals)), vals))


def cmd_covariance(args):
    mu = parse_measure(args.measure)
    A, B = parse_set(args.A, mu), parse_set(args.B, mu)
    field = noise.GaussianNoiseField(mu, J=args.J)
    est, se = field.covariance_mc(A, B, args.N, args.seed)
    target = mu.measure_of(A.intersect(B))
    desc = _descriptor(args, measure=mu.to_descriptor(), A=args.A, B=args.B, J=field.J)
    _emit(args, desc, ["estimate", "stderr", "target"], [[est, se, target]])


def cmd_ito_isometry(args):
    mu = parse_measure(args.measure)
    coeffs = parse_poly(args.poly)
    field = noise.GaussianNoiseField(mu, J=args.J)
    c = field.ito_coefficients(_poly_fn(coeffs))
    if isinstance(field.basis, LegendreBasis):
        c[len(coeffs) :] = 0.0  # phi_j has degree j and is orthogonal to every lower degree
    forms = streams.linear_forms(args.seed, c)
    mean, (se, _) = streams.mc_mean(args.N, lambda row, m: forms(row, m)[:, 0] ** 2)
    target, _ = mu.integrate(_poly_fn(np.polynomial.polynomial.polymul(coeffs, coeffs)))
    desc = _descriptor(args, measure=mu.to_descriptor(), poly=coeffs, J=field.J)
    _emit(args, desc, ["variance", "stderr", "target"], [[mean.real, se, float(target)]])


def _sigma_pair(args):
    """(F1, F2, descriptor) of the sigma-function pair (--f1, --mu1), (--f2, --mu2)."""
    mu1, mu2 = parse_measure(args.mu1), parse_measure(args.mu2)
    F1 = sigma.SigmaFunction(_poly_fn(parse_poly(args.f1)), mu1)
    F2 = sigma.SigmaFunction(_poly_fn(parse_poly(args.f2)), mu2)
    return F1, F2, _descriptor(args, mu1=mu1.to_descriptor(), mu2=mu2.to_descriptor(),
                               f1=args.f1, f2=args.f2)


def cmd_sigma_inner(args):
    F1, F2, desc = _sigma_pair(args)
    _emit(args, desc, ["inner_product"], [[sigma.inner_product(F1, F2)]])


def cmd_equivalence(args):
    F1, F2, desc = _sigma_pair(args)
    res = sigma.equivalence_residual(F1, F2)
    _emit(args, desc, ["equivalent", "residual"], [[res <= 1e-9, res]])


def cmd_ifs_moments(args):
    system = parse_ifs(args.ifs)
    if not system.is_closed(tol=1e-9):
        raise UsageError(f"--ifs {args.ifs!r} has weights summing to {system.weight_sum}, not 1")
    moments = ifs_mod.invariant_moments(system, args.degree)
    desc = _descriptor(args, ifs=system.to_descriptor(), degree=args.degree)
    rows = [[k, m, float(m)] for k, m in enumerate(moments)]
    _emit(args, desc, ["degree", "moment_exact", "moment_float"], rows)


def cmd_cuntz_check(args):
    system = parse_ifs(args.ifs)
    if system.n_branches**args.depth > MAX_CUNTZ_CELLS:
        raise UsageError(f"--depth {args.depth} gives {system.n_branches}^{args.depth} cells; "
                         f"at most {MAX_CUNTZ_CELLS} are allowed")
    r1, r2 = ifs_mod.cuntz_relation_residual(system, args.depth)
    closed = ifs_mod.closedness_residual(system)
    desc = _descriptor(args, ifs=system.to_descriptor(), depth=args.depth)
    _emit(
        args,
        desc,
        ["orthogonality_residual", "completeness_residual", "closedness_residual"],
        [[r1, r2, closed]],
    )


def cmd_bernoulli_density(args):
    _check_density_grid(args.lam, args.h, args.T)
    bc = bc_mod.BernoulliConvolution(args.lam, stream_id=args.seed)
    centers, hist, inv = bc_mod.density_estimate(bc, args.N, args.h, args.T)
    params = {"lambda": args.lam, "h": args.h, "T": args.T}
    desc = _descriptor(args, **params, stream_version=streams.COIN_STREAM_VERSION)
    _emit(args, desc, ["x", "histogram", "inversion"], columns=(centers, hist, inv))


def cmd_bernoulli_scaling(args):
    _check_density_grid(args.lam, args.h)
    bc = bc_mod.BernoulliConvolution(args.lam, stream_id=args.seed)
    rows = []
    for w in args.weights:  # the calls share one draw and histogram
        rows.append([w, bc_mod.scaling_identity_residual(bc, args.N, args.h, weight=w)])
    params = {"lambda": args.lam, "h": args.h, "weights": args.weights}
    desc = _descriptor(args, **params, stream_version=streams.COIN_STREAM_VERSION)
    _emit(args, desc, ["weight", "residual"], rows)


def cmd_ac2_proxy(args):
    rows = [[T, bc_mod.ac2_l2_proxy(args.lam, T)] for T in args.T_values]
    desc = _descriptor(args, **{"lambda": args.lam, "T_values": args.T_values})
    _emit(args, desc, ["T", "proxy"], rows)


def cmd_boundary_embed(args):
    if args.kernel == "brownian":
        kernel = kernels.BrownianKernel()
        points = list(np.linspace(0.0, 1.0, args.points))
    else:
        kernel = kernels.SzegoKernel()
        points = [0.9 * np.exp(2j * np.pi * k / args.points) for k in range(args.points)]
    J = args.J or kernel.default_J
    rows = [
        [_fmt(points[i]), _fmt(points[j]), emb, ref, abs(emb - ref)]
        for i, j, emb, ref in kernels.embedding_pairs(kernel, points, J)
    ]
    desc = _descriptor(args, kernel=args.kernel, points=args.points, J=J)
    _emit(args, desc, ["s", "t", "embedded_dist_sq", "kernel_dist_sq", "abs_error"], rows)


def cmd_szego_check(args):
    pts = [0.0, 0.5, -0.5j, 0.3 + 0.4j, -0.9]
    rows = []
    for z in pts:
        for w in pts:
            quad = kernels.szego_boundary_integral(z, w, args.nodes)
            closed = kernels.SzegoKernel().evaluate(z, w)
            rows.append([_fmt(z), _fmt(w), quad, closed, abs(quad - closed)])
    desc = _descriptor(args, nodes=args.nodes)
    _emit(args, desc, ["z", "w", "quadrature", "closed_form", "abs_error"], rows)


def cmd_julia_kernel(args):
    parts = args.points.split(";")
    if len(parts) > MAX_JULIA_POINTS:
        raise UsageError(f"--points takes at most {MAX_JULIA_POINTS} points, got {len(parts)}")
    with _malformed("--points", args.points):
        points = [complex(p) for p in parts]
    if not all(map(cmath.isfinite, points)):
        raise UsageError(f"--points {args.points!r} must be finite")
    verdicts = [kernels.julia_membership(z) for z in points]
    rows = [[_fmt(z), v] for z, v in zip(points, verdicts)]
    members = [z for z, v in zip(points, verdicts) if v == kernels.INSIDE]
    G = kernels.JuliaProductKernel(n_factors=args.factors).gram(members)
    for i, z in enumerate(members):
        for j, w in enumerate(members[i:], i):
            rows.append([f"C({_fmt(z)},{_fmt(w)})", _fmt(G[i, j])])
    desc = _descriptor(args, points=args.points, factors=args.factors)
    _emit(args, desc, ["entry", "value"], rows)


def cmd_set_kernel(args):
    mu = parse_measure(args.measure)
    sets = [parse_set(s, mu) for s in args.sets.split("|")]
    G = kernels.exp_set_gram(mu, sets)
    eig = np.linalg.eigvalsh(G)
    rows = [["min_eigenvalue", float(eig.min())], ["trace", float(np.trace(G))]]
    for i in range(len(sets)):
        for j in range(len(sets)):
            rows.append([f"K_{i}_{j}", float(G[i, j])])
    desc = _descriptor(args, measure=mu.to_descriptor(), sets=args.sets)
    _emit(args, desc, ["entry", "value"], rows)


def cmd_fourier_isometry(args):
    mu = parse_measure(args.measure)
    sets = [parse_set(s, mu) for s in args.sets.split("|")]
    coeffs = parse_poly(args.coeffs)
    if len(coeffs) != len(sets):
        raise UsageError(f"--coeffs gives {len(coeffs)} coefficients for {len(sets)} --sets")
    rk, mc, se = kernels.fourier_map_isometry(mu, sets, coeffs, args.N, args.seed, J=args.J or 512)
    desc = _descriptor(
        args, measure=mu.to_descriptor(), sets=args.sets, coeffs=coeffs, J=args.J or 512
    )
    _emit(args, desc, ["kernel_norm", "mc_norm", "mc_stderr"], [[rk, mc, se]])


def cmd_fbm_variance(args):
    rows = []
    for H in args.hurst:
        for t in args.times:
            v = noise.fbm_increment_variance(H, t)
            rows.append([H, t, v, t ** (2 * H), abs(v - t ** (2 * H))])
    desc = _descriptor(args, hurst=args.hurst, times=args.times)
    _emit(args, desc, ["H", "t", "V", "t_pow_2H", "abs_error"], rows)


# -- parser ------------------------------------------------------------------------


def _float_list(text):
    return [float(v) for v in text.split(",")]


def _bounded(kind, lo=-math.inf, hi=math.inf):
    """An argparse ``type=`` that parses ``kind`` (``int``, ``float`` or ``_float_list``)
    and admits only values in [lo, hi], each value of a list on its own; a nan fails
    the comparison.  argparse turns the ``ArgumentTypeError`` into exit 2 naming the
    flag.  ``lo`` and ``hi`` stay on the converter, and ``bound`` words them.
    """
    span = (f"at most {hi}" if lo == -math.inf else f"at least {lo}" if hi == math.inf
            else f"in [{lo}, {hi}]")
    each = "each value " if kind is _float_list else ""

    def convert(text):
        value = kind(text)  # a ValueError: argparse says "invalid <kind> value"
        if not all(lo <= v <= hi for v in (value if kind is _float_list else [value])):
            raise argparse.ArgumentTypeError(f"{each}must be {span}, not {text!r}")
        return value

    convert.__name__, convert.lo, convert.hi, convert.bound = kind.__name__, lo, hi, each + span
    return convert


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given ``command``, of that one alone.

    Every subcommand is registered by name and help either way, so the
    top-level help and argparse's invalid-choice error do not change; only
    the named one (every one without a name) gets its flags and ``-h``.
    """
    parser = argparse.ArgumentParser(
        prog="noisefield",
        description="Gaussian noise fields indexed by sigma-finite measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, func):
        """Register ``name``; its parser, to take flags, if it is to be built."""
        built = command in (None, name)
        p = sub.add_parser(name, help=help, add_help=built)  # -h alone costs 0.1 ms
        p.set_defaults(func=func)
        return p if built else None

    def bounded(p, flag, help, kind, lo=-math.inf, hi=math.inf, **kw):
        convert = _bounded(kind, lo, hi)
        p.add_argument(flag, type=convert, help=f"{help} ({convert.bound})", **kw)

    def common(p, seed=True, N=None, J=False):
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        bounded(p, "--workers", "processes for the Monte Carlo block loop, by default the CPUs "
                "this process may use; artifacts are byte-identical for every count and it is "
                "not part of the descriptor", int, 1)
        if seed:
            bounded(p, "--seed", "stream id of the draws", int, 0, (1 << 64) - 1, default=7)
        if N is not None:
            bounded(p, "--N", "Monte Carlo samples", int, MIN_MC_SAMPLES, MAX_MC_SAMPLES, default=N)
        if J:
            bounded(p, "--J", "basis functions kept in the series", int, 1, MAX_TRUNCATION)

    if p := add("sample-path", "draws of W_A", cmd_sample_path):
        p.add_argument("--measure", required=True)
        p.add_argument("--A", required=True)
        common(p, N=1000, J=True)

    if p := add("covariance", "Monte Carlo E[W_A W_B] vs mu(A n B)", cmd_covariance):
        p.add_argument("--measure", required=True)
        p.add_argument("--A", required=True)
        p.add_argument("--B", required=True)
        common(p, N=100_000, J=True)

    if p := add("ito-isometry", "MC variance of the stochastic integral", cmd_ito_isometry):
        p.add_argument("--measure", required=True)
        p.add_argument("--poly", required=True, help="integrand coefficients c0,c1,...")
        common(p, N=100_000, J=True)

    for name, help, func in (
        ("sigma-inner", "inner product of two sigma-functions", cmd_sigma_inner),
        ("equivalence", "equivalence test for sigma-function pairs", cmd_equivalence),
    ):
        if p := add(name, help, func):
            for flag in ("--f1", "--mu1", "--f2", "--mu2"):
                p.add_argument(flag, required=True)
            common(p, seed=False)

    if p := add("ifs-moments", "exact invariant-measure moments", cmd_ifs_moments):
        p.add_argument("--ifs", required=True)
        bounded(p, "--degree", "highest moment degree", int, 0, MAX_MOMENT_DEGREE, default=8)
        common(p, seed=False)

    if p := add("cuntz-check", "isometry-relation residuals", cmd_cuntz_check):
        p.add_argument("--ifs", required=True)
        # n >= 2 branches, so n^depth cells fit under the cap only below its bit length
        bounded(p, "--depth", "word length of the cells", int, 1, MAX_CUNTZ_CELLS.bit_length() - 1,
                default=8)
        common(p, seed=False)

    h_help = f"bin width, > 0, giving 1 to {MAX_DENSITY_BINS} bins 2 lambda / ((1 - lambda) h)"
    if p := add("bernoulli-density", "histogram and inversion densities", cmd_bernoulli_density):
        p.add_argument("--lambda", dest="lam", type=float, required=True)
        p.add_argument("--h", type=float, default=0.01, help=h_help)
        p.add_argument("--T", type=float, default=200.0, help="inversion cutoff, > 0, with bins x "
                       f"24 max(T, 32) inversion terms at most {MAX_INVERSION_COSINES}")
        common(p, N=1_000_000)

    if p := add("bernoulli-scaling", "scaling-law residuals", cmd_bernoulli_scaling):
        p.add_argument("--lambda", dest="lam", type=float, required=True)
        p.add_argument("--h", type=float, default=0.01, help=h_help)
        bounded(p, "--weights", "weights of the scaling identity", _float_list, 0, 1, default=[0.5])
        common(p, N=1_000_000)

    if p := add("ac2-proxy", "square-integrability proxy curve", cmd_ac2_proxy):
        p.add_argument("--lambda", dest="lam", type=float, required=True)
        bounded(p, "--T-values", "cutoffs", _float_list, hi=MAX_PROXY_CUTOFF, dest="T_values",
                default=[50.0, 100.0, 200.0])
        common(p, seed=False)

    if p := add("boundary-embed", "embedding distance table", cmd_boundary_embed):
        p.add_argument("--kernel", choices=("brownian", "szego"), default="brownian")
        bounded(p, "--points", "points embedded", int, 0, MAX_EMBED_POINTS, default=16)
        common(p, seed=False, J=True)

    if p := add("szego-check", "boundary integral vs closed form", cmd_szego_check):
        bounded(p, "--nodes", "trapezoid nodes on the circle", int, 1, MAX_SZEGO_NODES,
                default=2048)
        common(p, seed=False)

    if p := add("julia-kernel", "membership verdicts and kernel values", cmd_julia_kernel):
        p.add_argument("--points", default="0;2;1;0.1;-0.15")
        bounded(p, "--factors", "factors of the product kernel", int, 1, MAX_JULIA_FACTORS,
                default=24)
        common(p, seed=False)

    if p := add("set-kernel", "exponential set-kernel Gram matrix", cmd_set_kernel):
        p.add_argument("--measure", required=True)
        p.add_argument("--sets", required=True, help="families separated by '|'")
        common(p, seed=False)

    if p := add("fourier-isometry", "kernel norm vs MC exponential norm", cmd_fourier_isometry):
        p.add_argument("--measure", required=True)
        p.add_argument("--sets", required=True)
        p.add_argument("--coeffs", required=True)
        common(p, N=100_000, J=True)

    if p := add("fbm-variance", "spectral variance scaling table", cmd_fbm_variance):
        p.add_argument("--hurst", type=_float_list, default=[0.25, 0.5, 0.75])
        bounded(p, "--times", "increment lengths t", _float_list, hi=MAX_FBM_TIME,
                default=[1.0, 4.0])
        common(p, seed=False)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a first word that is not an option can only be the subcommand
    parser = build_parser(argv[0] if argv and not argv[0].startswith("-") else None)
    args = parser.parse_args(argv)
    try:
        if (args.workers or 1) > 1 and "fork" not in multiprocessing.get_all_start_methods():
            raise UsageError("--workers above 1 needs the fork start method")
        with contextlib.nullcontext() if args.workers is None else streams.workers(args.workers):
            args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
    except UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (ValueError, NotImplementedError, BrokenPipeError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader closed stdout: point it at devnull, so that the flush
            # at exit cannot raise again ("Note on SIGPIPE", Python's signal docs)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        record = {
            "error": {
                "subcommand": args.command,
                "type": type(exc).__name__,
                "message": str(exc),
            }
        }
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
