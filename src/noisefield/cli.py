"""Command-line front end.

Every subcommand wraps exactly one library operation, parses descriptors,
runs it under a fixed seed, and emits CSV or JSON with the full descriptor
embedded, so identical invocations replay byte for byte.

Exit codes: 0 success, 2 usage error, 3 numeric failure (a machine-readable
error record goes to stderr).
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
MAX_PROXY_CUTOFF = 1e4  # ac2-proxy T: 2T Gauss panels of 8 nodes
MAX_FBM_TIME = 100.0  # fbm-variance t: 3000 t / pi half-period panels of 24 nodes
MAX_MOMENT_DEGREE = 64  # exact moments of high degree outgrow Python's int-to-str limit
MAX_DENSITY_BINS = 1 << 20  # bernoulli --h: 2 lambda / ((1 - lambda) h) histogram bins
MAX_INVERSION_COSINES = 1 << 24  # bernoulli-density: bins x 24 T cosines, 0.4 s and 0.3 GB
MAX_SZEGO_NODES = 1 << 20  # szego-check: 25 trapezoid sums of this many nodes, 3.4 s and 121 MB
MAX_EMBED_POINTS = 512  # boundary-embed: points^2 / 2 distance rows, 5.5 s and 173 MB


class UsageError(Exception):
    pass


# -- descriptor parsing ---------------------------------------------------------


def parse_measure(text: str):
    if text.startswith("{"):
        return measure_from_descriptor(json.loads(text))
    head, _, rest = text.partition(":")
    try:
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
        if head == "cantor":
            return IFSInvariantMeasure(ifs_mod.cantor_system())
        if head == "binary":
            return IFSInvariantMeasure(ifs_mod.binary_system())
        if head == "ifs":
            return IFSInvariantMeasure(parse_ifs(text))
        if head == "bernoulli":
            return BernoulliMeasure(float(rest))
    except UsageError:
        raise
    except Exception as exc:
        raise UsageError(f"malformed measure descriptor {text!r}: {exc}") from exc
    raise UsageError(f"unknown measure kind {head!r}")


def parse_ifs(text: str):
    if text == "cantor":
        return ifs_mod.cantor_system()
    if text == "binary":
        return ifs_mod.binary_system()
    if text.startswith("{"):
        return ifs_mod.ifs_from_descriptor(json.loads(text))
    head, _, rest = text.partition(":")
    if head != "ifs":
        raise UsageError(f"unknown system descriptor {text!r}")
    try:
        branch_text, _, weight_text = rest.partition(":")
        branches = [tuple(float(v) for v in p.split(",")) for p in branch_text.split(";")]
        weights = [float(v) for v in weight_text.split(",")]
        return ifs_mod.make_ifs(branches, weights)
    except UsageError:
        raise
    except Exception as exc:
        raise UsageError(f"malformed system descriptor {text!r}: {exc}") from exc


def parse_set(text: str, measure=None) -> BorelSet:
    try:
        if text.startswith("cyl:"):
            word = tuple(int(d) for d in text[4:].split(","))
            if not isinstance(measure, IFSInvariantMeasure):
                raise UsageError("cylinder sets need an ifs-invariant measure")
            return measure.ifs.cylinder_set(word)
        intervals = [tuple(float(v) for v in part.split(",")) for part in text.split(";")]
        return BorelSet.from_intervals(intervals)
    except UsageError:
        raise
    except Exception as exc:
        raise UsageError(f"malformed set descriptor {text!r}: {exc}") from exc


def parse_poly(text: str):
    try:
        coeffs = [float(c) for c in text.split(",")]
    except Exception as exc:
        raise UsageError(f"malformed polynomial coefficients {text!r}: {exc}") from exc
    if not all(map(math.isfinite, coeffs)):
        raise UsageError(f"polynomial coefficients {text!r} must be finite")
    return coeffs


def _poly_fn(coeffs):
    arr = np.asarray(coeffs, dtype=float)
    return lambda x, c=arr: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c)


# -- output ---------------------------------------------------------------------


def _emit(args, descriptor: dict, header, rows):
    """CSV: '# descriptor' comment line, then header and rows.  JSON: one object.

    CSV rows are written as they are formatted, so ``rows`` may be an iterator.
    """
    if args.out:
        path = args.out
        outdir = os.environ.get("NOISEFIELD_OUTDIR")
        if outdir and not os.path.isabs(path):
            path = os.path.join(outdir, path)
        with open(path, "w", newline="") as fh:
            _write(fh, args.format, descriptor, header, rows)
    else:
        _write(sys.stdout, args.format, descriptor, header, rows)


def _write(fh, fmt, descriptor, header, rows):
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
    for row in rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")


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


def _check_bounds(args):
    n = getattr(args, "N", None)
    if n is not None and not MIN_MC_SAMPLES <= n <= MAX_MC_SAMPLES:
        raise UsageError(f"--N must lie in [{MIN_MC_SAMPLES}, {MAX_MC_SAMPLES}]")
    for flag, hi in (("T_values", MAX_PROXY_CUTOFF), ("times", MAX_FBM_TIME)):
        vals = getattr(args, flag, None)
        if vals is not None and not all(v <= hi for v in vals):  # also rejects nan
            raise UsageError(f"each value of --{flag.replace('_', '-')} must be at most {hi:g}")
    weights = getattr(args, "weights", None)
    if weights is not None and not all(0.0 <= w <= 1.0 for w in weights):  # also rejects nan
        raise UsageError("each value of --weights must lie in [0, 1]")
    h = getattr(args, "h", None)
    if h is not None:
        _check_density_grid(args.lam, h, getattr(args, "T", None))
    nodes = getattr(args, "nodes", None)
    if nodes is not None and not 1 <= nodes <= MAX_SZEGO_NODES:
        raise UsageError(f"--nodes must lie in [1, {MAX_SZEGO_NODES}]")
    degree = getattr(args, "degree", None)
    if degree is not None and degree > MAX_MOMENT_DEGREE:
        raise UsageError(f"--degree must be at most {MAX_MOMENT_DEGREE}")
    J = getattr(args, "J", None)
    if J is not None and not 1 <= J <= MAX_TRUNCATION:
        raise UsageError(f"--J must lie in [1, {MAX_TRUNCATION}]")
    seed = getattr(args, "seed", None)
    if seed is not None and not 0 <= seed < 1 << 64:
        raise UsageError("--seed must lie in [0, 2**64)")
    if args.workers is None:
        return  # the library default
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    if args.workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise UsageError("--workers above 1 needs the fork start method")


def _check_density_grid(lam, h, T):
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
                         f"inversion cosines; at most {MAX_INVERSION_COSINES} are allowed")


# -- subcommand bodies ------------------------------------------------------------


def cmd_sample_path(args):
    mu = parse_measure(args.measure)
    A = parse_set(args.A, mu)
    field = noise.GaussianNoiseField(mu, J=args.J)
    vals = field.noise_samples(A, args.N, args.seed)
    desc = _descriptor(args, measure=mu.to_descriptor(), A=args.A, J=field.J)
    _emit(args, desc, ["sample", "value"], enumerate(vals))


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


def cmd_sigma_inner(args):
    mu1, mu2 = parse_measure(args.mu1), parse_measure(args.mu2)
    F1 = sigma.SigmaFunction(_poly_fn(parse_poly(args.f1)), mu1)
    F2 = sigma.SigmaFunction(_poly_fn(parse_poly(args.f2)), mu2)
    val = sigma.inner_product(F1, F2)
    desc = _descriptor(
        args, mu1=mu1.to_descriptor(), mu2=mu2.to_descriptor(), f1=args.f1, f2=args.f2
    )
    _emit(args, desc, ["inner_product"], [[val]])


def cmd_equivalence(args):
    mu1, mu2 = parse_measure(args.mu1), parse_measure(args.mu2)
    F1 = sigma.SigmaFunction(_poly_fn(parse_poly(args.f1)), mu1)
    F2 = sigma.SigmaFunction(_poly_fn(parse_poly(args.f2)), mu2)
    res = sigma.equivalence_residual(F1, F2)
    desc = _descriptor(
        args, mu1=mu1.to_descriptor(), mu2=mu2.to_descriptor(), f1=args.f1, f2=args.f2
    )
    _emit(args, desc, ["equivalent", "residual"], [[res <= 1e-9, res]])


def cmd_ifs_moments(args):
    system = parse_ifs(args.ifs)
    moments = ifs_mod.invariant_moments(system, args.degree)
    desc = _descriptor(args, ifs=system.to_descriptor(), degree=args.degree)
    rows = [[k, m, float(m)] for k, m in enumerate(moments)]
    _emit(args, desc, ["degree", "moment_exact", "moment_float"], rows)


def cmd_cuntz_check(args):
    system = parse_ifs(args.ifs)
    n, cap = system.n_branches, MAX_CUNTZ_CELLS  # n >= 2, so n^d <= cap needs d < cap.bit_length()
    if not 1 <= args.depth <= max(d for d in range(cap.bit_length()) if n**d <= cap):
        raise UsageError(f"--depth must be >= 1 with at most {MAX_CUNTZ_CELLS} cells n^depth")
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
    bc = bc_mod.BernoulliConvolution(args.lam, stream_id=args.seed)
    centers, hist, inv = bc_mod.density_estimate(bc, args.N, args.h, args.T)
    params = {"lambda": args.lam, "h": args.h, "T": args.T}
    desc = _descriptor(args, **params, stream_version=streams.COIN_STREAM_VERSION)
    _emit(args, desc, ["x", "histogram", "inversion"], list(zip(centers, hist, inv)))


def cmd_bernoulli_scaling(args):
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
    if not 0 <= args.points <= MAX_EMBED_POINTS:  # julia-kernel's --points is a string
        raise UsageError(f"--points must lie in [0, {MAX_EMBED_POINTS}]")
    if args.kernel == "brownian":
        kernel = kernels.BrownianKernel()
        points = list(np.linspace(0.0, 1.0, args.points))
    elif args.kernel == "szego":
        kernel = kernels.SzegoKernel()
        points = [0.9 * np.exp(2j * np.pi * k / args.points) for k in range(args.points)]
    else:
        raise UsageError(f"unknown kernel {args.kernel!r} for embedding")
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
    try:
        points = [complex(p) for p in args.points.split(";")]
    except ValueError as exc:
        raise UsageError(f"malformed --points {args.points!r}: {exc}") from exc
    if not all(map(cmath.isfinite, points)):
        raise UsageError(f"--points {args.points!r} must be finite")
    verdicts = [kernels.julia_membership(z) for z in points]
    rows = [[_fmt(z), v] for z, v in zip(points, verdicts)]
    members = [z for z, v in zip(points, verdicts) if v == kernels.INSIDE]
    kernel = kernels.JuliaProductKernel(n_factors=args.factors)
    for i, z in enumerate(members):
        for w in members[i:]:
            rows.append([f"C({_fmt(z)},{_fmt(w)})", _fmt(kernel.evaluate(z, w))])
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisefield",
        description="Gaussian noise fields indexed by sigma-finite measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, N=None, J=False):
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--workers", type=int, default=None,
                       help="processes for the Monte Carlo block loop (>= 1; default: the "
                       "CPUs this process may use); artifacts are byte-identical for every "
                       "count and it is not part of the descriptor")
        if seed:
            p.add_argument("--seed", type=int, default=7)
        if N is not None:
            p.add_argument("--N", type=int, default=N,
                           help=f"Monte Carlo samples, in [{MIN_MC_SAMPLES}, {MAX_MC_SAMPLES}]")
        if J:
            p.add_argument("--J", type=int, default=None)

    p = sub.add_parser("sample-path", help="draws of W_A")
    p.add_argument("--measure", required=True)
    p.add_argument("--A", required=True)
    common(p, N=1000, J=True)
    p.set_defaults(func=cmd_sample_path)

    p = sub.add_parser("covariance", help="Monte Carlo E[W_A W_B] vs mu(A n B)")
    p.add_argument("--measure", required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    common(p, N=100_000, J=True)
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("ito-isometry", help="MC variance of the stochastic integral")
    p.add_argument("--measure", required=True)
    p.add_argument("--poly", required=True, help="integrand coefficients c0,c1,...")
    common(p, N=100_000, J=True)
    p.set_defaults(func=cmd_ito_isometry)

    p = sub.add_parser("sigma-inner", help="inner product of two sigma-functions")
    for flag in ("--f1", "--mu1", "--f2", "--mu2"):
        p.add_argument(flag, required=True)
    common(p, seed=False)
    p.set_defaults(func=cmd_sigma_inner)

    p = sub.add_parser("equivalence", help="equivalence test for sigma-function pairs")
    for flag in ("--f1", "--mu1", "--f2", "--mu2"):
        p.add_argument(flag, required=True)
    common(p, seed=False)
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("ifs-moments", help="exact invariant-measure moments")
    p.add_argument("--ifs", required=True)
    p.add_argument("--degree", type=int, default=8, help=f"at most {MAX_MOMENT_DEGREE}")
    common(p, seed=False)
    p.set_defaults(func=cmd_ifs_moments)

    p = sub.add_parser("cuntz-check", help="isometry-relation residuals")
    p.add_argument("--ifs", required=True)
    p.add_argument("--depth", type=int, default=8)
    common(p, seed=False)
    p.set_defaults(func=cmd_cuntz_check)

    h_help = f"bin width, > 0, giving 1 to {MAX_DENSITY_BINS} bins 2 lambda / ((1 - lambda) h)"
    p = sub.add_parser("bernoulli-density", help="histogram and inversion densities")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--h", type=float, default=0.01, help=h_help)
    p.add_argument("--T", type=float, default=200.0, help="inversion cutoff, > 0, with bins x "
                   f"24 max(T, 32) at most {MAX_INVERSION_COSINES}")
    common(p, N=1_000_000)
    p.set_defaults(func=cmd_bernoulli_density)

    p = sub.add_parser("bernoulli-scaling", help="scaling-law residuals")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--h", type=float, default=0.01, help=h_help)
    p.add_argument("--weights", type=_float_list, default=[0.5], help="each in [0, 1]")
    common(p, N=1_000_000)
    p.set_defaults(func=cmd_bernoulli_scaling)

    p = sub.add_parser("ac2-proxy", help="square-integrability proxy curve")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--T-values", dest="T_values", type=_float_list, default=[50.0, 100.0, 200.0],
                   help=f"cutoffs, each at most {MAX_PROXY_CUTOFF:g}")
    common(p, seed=False)
    p.set_defaults(func=cmd_ac2_proxy)

    p = sub.add_parser("boundary-embed", help="embedding distance table")
    p.add_argument("--kernel", default="brownian")
    p.add_argument("--points", type=int, default=16, help=f"in [0, {MAX_EMBED_POINTS}]")
    common(p, seed=False, J=True)
    p.set_defaults(func=cmd_boundary_embed)

    p = sub.add_parser("szego-check", help="boundary integral vs closed form")
    p.add_argument("--nodes", type=int, default=2048, help=f"in [1, {MAX_SZEGO_NODES}]")
    common(p, seed=False)
    p.set_defaults(func=cmd_szego_check)

    p = sub.add_parser("julia-kernel", help="membership verdicts and kernel values")
    p.add_argument("--points", default="0;2;1;0.1;-0.15")
    p.add_argument("--factors", type=int, default=24)
    common(p, seed=False)
    p.set_defaults(func=cmd_julia_kernel)

    p = sub.add_parser("set-kernel", help="exponential set-kernel Gram matrix")
    p.add_argument("--measure", required=True)
    p.add_argument("--sets", required=True, help="families separated by '|'")
    common(p, seed=False)
    p.set_defaults(func=cmd_set_kernel)

    p = sub.add_parser("fourier-isometry", help="kernel norm vs MC exponential norm")
    p.add_argument("--measure", required=True)
    p.add_argument("--sets", required=True)
    p.add_argument("--coeffs", required=True)
    common(p, N=100_000, J=True)
    p.set_defaults(func=cmd_fourier_isometry)

    p = sub.add_parser("fbm-variance", help="spectral variance scaling table")
    p.add_argument("--hurst", type=_float_list, default=[0.25, 0.5, 0.75])
    p.add_argument("--times", type=_float_list, default=[1.0, 4.0],
                   help=f"each at most {MAX_FBM_TIME:g}")
    common(p, seed=False)
    p.set_defaults(func=cmd_fbm_variance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_bounds(args)
        with contextlib.nullcontext() if args.workers is None else streams.workers(args.workers):
            args.func(args)
    except UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (ValueError, NotImplementedError) as exc:
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
