"""Command-line front end: dataset generation, projection, clustering,
experiment sweeps, multiply benchmarks, and the property-check suite.

Exit codes: 0 success, 1 failed check or cross-check, 2 bad parameters,
3 unreadable or unparsable input.
"""

import argparse
import dataclasses
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, evaluation, mailman, projection, rng as _rng
from .dataio import Dataset, MixtureSpec, generate_mixture, load_image_dir, read_csv, write_csv
from .errors import CrossCheckError, DataFormatError, ParameterError
from .evaluation import ExperimentRecord, accuracy
from .kmeans import (FirstOfEachGroup, GivenIndices, SolverSpec,
                     apply_projection, objective, solve)
# unused here, but the benchmark's tracing self-test wraps and restores
# the binding cli.lloyd (perfbench/test_perfbench.py)
from .kmeans import lloyd  # noqa: F401
from .matrix import frobenius_norm
from .projection import ProjectionConfig

JSON_SCHEMA_VERSION = 1
EXPERIMENT_COLUMNS = ["method", "t", "k", "epsilon", "seed", "f_tilde",
                      "accuracy", "projection_ms", "clustering_ms"]
BENCH_COLUMNS = ["impl", "d", "t", "n", "seed", "median_ms", "repeats"]

# CLI method names -> pipeline method names.
METHOD_MAP = {
    "rp_mailman": "sign_mailman",
    "rp_naive": "sign_naive",
    "gaussian": "gaussian",
    "svd": "svd_embed",
    "hd": "none",
}

BENCH_IMPLS = ("naive", "on_the_fly", "mailman")


@dataclass
class RunManifest:
    """What produced an output file: subcommand, parameters, seed, version.

    timings holds wall-clock milliseconds per phase; it is None for outputs
    that must be byte-identical across reruns.
    """

    subcommand: str
    params: dict
    seed: int
    version: str
    timings: dict | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _manifest_comment(manifest: RunManifest) -> str:
    return "# manifest " + json.dumps(manifest.to_dict(), sort_keys=True)


def _solver_from_args(args, n: int, k: int) -> SolverSpec:
    if getattr(args, "init_indices", None):
        init = GivenIndices(tuple(int(x) for x in args.init_indices.split(",")))
    else:
        stride = getattr(args, "init_stride", None)
        init = FirstOfEachGroup(stride if stride is not None else max(1, n // k))
    return SolverSpec(
        kind=getattr(args, "solver", "lloyd"),
        max_iter=getattr(args, "max_iter", 100),
        tol=getattr(args, "tol", 1e-9),
        init=init,
        replicates=getattr(args, "replicates", 1),
    )


def _import_sparse():
    """Import scipy.sparse, which the packed projection and the plug-back
    objective load on first use, before any phase is timed: otherwise the
    first phase to use it would count the import in its wall time."""
    import scipy.sparse  # noqa: F401


def _load_dataset(path, normalize_pixels: bool) -> Dataset:
    p = Path(path)
    dataset = load_image_dir(p) if p.is_dir() else read_csv(p)
    if normalize_pixels:
        dataset = Dataset(points=dataset.points / 255.0,
                          labels=dataset.labels, source=dataset.source)
    return dataset


def run_experiment_sweep(dataset: Dataset, k: int, t_list, methods, spec: SolverSpec,
                         seed: int, epsilon: float = 1.0 / 3.0,
                         c: float = 1.0) -> list:
    """One record per (method, t): project, cluster, price the assignment in
    the original space, and score against labels when present.

    The hd method clusters the raw points once and records t = d.
    """
    fro = frobenius_norm(dataset.points)
    if fro == 0.0:
        raise ParameterError("sweep undefined for an all-zero dataset")
    _import_sparse()
    records = []
    for method in methods:
        if method not in METHOD_MAP:
            raise ParameterError(f"unknown method {method!r}")
        cells = [dataset.d] if method == "hd" else list(t_list)
        if not cells:
            raise ParameterError("t_list must not be empty")
        for t in cells:
            cfg = ProjectionConfig(k=k, epsilon=epsilon, c=c,
                                   t_override=int(t), seed=seed)
            start = time.perf_counter()
            proj, t_used = apply_projection(dataset.points, cfg, METHOD_MAP[method])
            mid = time.perf_counter()
            res = solve(proj, k, spec, seed)
            done = time.perf_counter()
            plugback = objective(dataset.points, res.assignment)
            records.append(ExperimentRecord(
                method=method,
                t=t_used,
                f_tilde=plugback / (fro * fro),
                accuracy=(accuracy(res.assignment, dataset.labels)
                          if dataset.labels is not None else None),
                projection_ms=(mid - start) * 1000.0,
                clustering_ms=(done - mid) * 1000.0,
                seed=seed,
                k=k,
                epsilon=epsilon,
            ))
    return records


def _project_on_the_fly(a, sign: projection.SignMatrix) -> np.ndarray:
    """Apply a sign matrix column by column without materializing it."""
    out = np.empty((a.shape[0], sign.t))
    offset = 0
    for block in sign.blocks:
        for b in range(block.p):
            col = (((block.codes >> b) & 1) * 2 - 1).astype(np.float64)
            out[:, offset + b] = (a @ col) * block.scale
        offset += block.p
    return out


def run_bench(d_list, t_list, n: int, seed: int, impls=BENCH_IMPLS,
              repeats: int = 5) -> list:
    """Median wall time of each multiply implementation on each (d, t) cell.

    All implementations apply the same packed sign matrix: naive expands it
    densely and multiplies, on_the_fly generates one column at a time, and
    mailman buckets and folds.  Outputs are cross-checked to 1e-10 relative
    before any timing; disagreement raises CrossCheckError.
    """
    if n < 1 or repeats < 1:
        raise ParameterError("n and repeats must be positive")
    for impl in impls:
        if impl not in BENCH_IMPLS:
            raise ParameterError(f"unknown impl {impl!r}")
    rows = []
    cell = 0
    for d in d_list:
        if d < 2:
            raise ParameterError("bench requires d >= 2")
        if d & (d - 1):
            print(f"warning: d={d} is not a power of two; the packed blocks "
                  f"waste part of their code range", file=sys.stderr)
        for t in t_list:
            if t < 1:
                raise ParameterError("bench requires t >= 1")
            cell_seed = _rng.derive_seed(seed, _rng.BENCH, cell)
            cell += 1
            plan = mailman.build_plan(d, t, cell_seed)
            sign = projection.SignMatrix(d=d, t=t, scale=1.0 / np.sqrt(t),
                                         blocks=plan.blocks)
            a = _rng.stream(cell_seed, _rng.INSTANCE).standard_normal((n, d))
            dense = sign.dense()
            runners = {
                "naive": lambda: a @ dense,
                "on_the_fly": lambda: _project_on_the_fly(a, sign),
                "mailman": lambda: mailman.project_mailman(a, plan),
            }
            reference = runners["naive"]()
            ref_norm = np.linalg.norm(reference)
            for impl in ("on_the_fly", "mailman"):
                gap = np.linalg.norm(runners[impl]() - reference)
                if gap > 1e-10 * max(ref_norm, 1e-300):
                    raise CrossCheckError(
                        f"{impl} disagrees with naive at d={d}, t={t}: "
                        f"relative gap {gap / max(ref_norm, 1e-300):.3e}"
                    )
            for impl in impls:
                times = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    runners[impl]()
                    times.append((time.perf_counter() - start) * 1000.0)
                rows.append({"impl": impl, "d": d, "t": t, "n": n,
                             "seed": cell_seed,
                             "median_ms": statistics.median(times),
                             "repeats": repeats})
    return rows


def _suite_checks(seed: int, scale: str, bound_scale: float) -> list:
    """Run every property check at the named scale; returns suite entries."""
    if scale == "full":
        p = {
            "jl": dict(n=50, d=1000, t=2000, epsilon=0.3, seeds=10),
            "moment": dict(t=400, seeds=200),
            "norm": dict(k=2, epsilon=0.5, trials=100, required=95),
            "singular": dict(k=5, epsilon=0.5, t=2000, trials=100, required=95),
            "product": dict(t=512, seeds=200),
            "pinv": dict(k=3, epsilon=0.5, t=2000, trials=100, required=90),
            "residual": dict(k=3, epsilon=0.5, t=2000, trials=100, required=90),
            "theorem": dict(n=10, d=40, k=2, epsilon=0.2, t=500, trials=100,
                            required=90),
        }
    elif scale == "quick":
        p = {
            "jl": dict(n=30, d=256, t=512, epsilon=0.3, seeds=3),
            "moment": dict(t=200, seeds=50),
            "norm": dict(k=2, epsilon=0.5, trials=30, required=27),
            "singular": dict(k=5, epsilon=0.5, t=800, trials=30, required=27),
            "product": dict(t=256, seeds=50),
            "pinv": dict(k=3, epsilon=0.5, t=800, trials=30, required=26),
            "residual": dict(k=3, epsilon=0.5, t=800, trials=30, required=26),
            "theorem": dict(n=8, d=20, k=2, epsilon=0.2, t=200, trials=20,
                            required=16),
        }
    else:
        raise ParameterError(f"unknown scale {scale!r}")

    c_small = _rng.stream(seed, _rng.INSTANCE, 1).standard_normal((20, 30))
    c_norm = _rng.stream(seed, _rng.INSTANCE, 2).standard_normal((30, 50))
    a_basis = _rng.stream(seed, _rng.INSTANCE, 3).standard_normal((50, 80))
    s_left = _rng.stream(seed, _rng.INSTANCE, 4).standard_normal((20, 40))
    t_right = _rng.stream(seed, _rng.INSTANCE, 5).standard_normal((40, 3))

    def check_seed(i):
        return _rng.derive_seed(seed, _rng.TRIAL, 1000 + i)

    runs = [
        (p["jl"], lambda q: evaluation.jl_distortion_check(
            q["n"], q["d"], q["t"], q["epsilon"], q["seeds"], check_seed(0),
            bound_scale=bound_scale), None),
        (p["moment"], lambda q: evaluation.moment_identity_check(
            c_small, q["t"], q["seeds"], check_seed(1),
            bound_scale=bound_scale), None),
        (p["norm"], lambda q: evaluation.norm_bound_check(
            c_norm, q["k"], q["epsilon"], q["trials"], check_seed(2),
            bound_scale=bound_scale), p["norm"]["required"]),
        (p["singular"], lambda q: evaluation.singular_value_check(
            a_basis, q["k"], q["epsilon"], q["t"], q["trials"], check_seed(3),
            bound_scale=bound_scale), p["singular"]["required"]),
        (p["product"], lambda q: evaluation.matmul_moment_check(
            s_left, t_right, q["t"], q["seeds"], check_seed(4),
            bound_scale=bound_scale), None),
        (p["pinv"], lambda q: evaluation.pseudo_inverse_bound_check(
            a_basis, q["k"], q["epsilon"], q["t"], q["trials"], check_seed(5),
            bound_scale=bound_scale), p["pinv"]["required"]),
        (p["residual"], lambda q: evaluation.decomposition_residual_check(
            a_basis, q["k"], q["epsilon"], q["t"], q["trials"], check_seed(6),
            bound_scale=bound_scale), p["residual"]["required"]),
        (p["theorem"], lambda q: evaluation.theorem_distortion_trial(
            q["n"], q["d"], q["k"], q["epsilon"], q["t"], q["trials"],
            check_seed(7), bound_scale=bound_scale), p["theorem"]["required"]),
    ]
    entries = []
    for params, runner, required in runs:
        report = runner(params)
        need = required if required is not None else report.trials
        entries.append({
            "name": report.check_name,
            "params": {key: val for key, val in params.items()
                       if key != "required"},
            "trials": report.trials,
            "passes": report.passes,
            "required": need,
            "statistic": report.statistic,
            "bound": report.bound,
            "ok": report.passes >= need,
        })
    return entries


def run_property_suite(seed: int = 0, scale: str = "full",
                       bound_scale: float = 1.0):
    """Run the whole check suite; returns (all_ok, json-ready payload).

    The payload carries no wall times, so identical seeds give identical
    bytes.  bound_scale below 1 tightens every acceptance bound and is the
    hook negative-control tests use to force a failing exit.
    """
    checks = _suite_checks(seed, scale, bound_scale)
    all_ok = all(entry["ok"] for entry in checks)
    manifest = RunManifest(
        subcommand="check",
        params={"scale": scale, "bound_scale": bound_scale},
        seed=seed,
        version=__version__,
    )
    payload = {
        "schema_version": JSON_SCHEMA_VERSION,
        "manifest": manifest.to_dict(),
        "checks": checks,
        "all_ok": all_ok,
    }
    return all_ok, payload


def _write_experiment_csv(path, records, manifest):
    lines = [_manifest_comment(manifest), ",".join(EXPERIMENT_COLUMNS)]
    for r in records:
        lines.append(",".join([
            r.method, str(r.t), str(r.k), repr(r.epsilon), str(r.seed),
            repr(r.f_tilde),
            "" if r.accuracy is None else repr(r.accuracy),
            f"{r.projection_ms:.3f}", f"{r.clustering_ms:.3f}",
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_bench_csv(path, rows, manifest):
    lines = [_manifest_comment(manifest), ",".join(BENCH_COLUMNS)]
    for r in rows:
        lines.append(",".join([
            r["impl"], str(r["d"]), str(r["t"]), str(r["n"]), str(r["seed"]),
            f"{r['median_ms']:.4f}", str(r["repeats"]),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path, payload):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _cmd_generate(args) -> int:
    spec = MixtureSpec(n=args.n, d=args.d, k=args.k,
                       center_scale=args.center_scale,
                       noise_sigma=args.noise_sigma, seed=args.seed)
    write_csv(generate_mixture(spec), args.output)
    return 0


def _resolve_cfg(args) -> ProjectionConfig:
    k = args.k
    if k is None:
        if args.t is None:
            raise ParameterError("provide --k (to size the projection) or --t")
        k = 1
    t = args.t
    if isinstance(t, list):
        t = t[0] if t else None
    return ProjectionConfig(k=k, epsilon=args.epsilon, c=args.c,
                            t_override=t, seed=args.seed)


def _cmd_project(args) -> int:
    dataset = _load_dataset(args.input, args.normalize_pixels)
    cfg = _resolve_cfg(args)
    method = METHOD_MAP[args.method]
    if method == "none":
        raise ParameterError("project requires a projecting method")
    proj, t_used = apply_projection(dataset.points, cfg, method)
    write_csv(Dataset(points=proj, labels=dataset.labels,
                      source=f"{dataset.source}|{args.method}@t={t_used}"),
              args.output)
    return 0


def _cmd_cluster(args) -> int:
    _import_sparse()
    start = time.perf_counter()
    dataset = _load_dataset(args.input, args.normalize_pixels)
    loaded = time.perf_counter()
    cfg = _resolve_cfg(args)
    spec = _solver_from_args(args, dataset.n, args.k)
    proj, t_used = apply_projection(dataset.points, cfg, METHOD_MAP[args.method])
    projected = time.perf_counter()
    res = solve(proj, args.k, spec, args.seed)
    clustered = time.perf_counter()
    plugback = objective(dataset.points, res.assignment)
    fro = frobenius_norm(dataset.points)
    acc = (accuracy(res.assignment, dataset.labels)
           if dataset.labels is not None else None)
    scored = time.perf_counter()
    manifest = RunManifest(
        subcommand="cluster",
        params={"input": str(args.input), "k": args.k, "method": args.method,
                "t": t_used, "epsilon": args.epsilon, "c": args.c,
                "solver": spec.kind, "max_iter": spec.max_iter,
                "replicates": spec.replicates},
        seed=args.seed,
        version=__version__,
        timings={"load_ms": (loaded - start) * 1000.0,
                 "projection_ms": (projected - loaded) * 1000.0,
                 "clustering_ms": (clustered - projected) * 1000.0,
                 "score_ms": (scored - clustered) * 1000.0},
    )
    payload = {
        "schema_version": JSON_SCHEMA_VERSION,
        "manifest": manifest.to_dict(),
        "result": {
            "labels": res.assignment.labels.tolist(),
            "projected_objective": res.objective,
            "original_objective": plugback,
            "f_tilde": plugback / (fro * fro) if fro > 0 else None,
            "accuracy": acc,
            "iterations": res.iterations,
            "converged": res.converged,
            "objective_trace": res.objective_trace.tolist(),
            "method": args.method,
            "t": t_used,
        },
    }
    _write_json(args.output, payload)
    return 0


def _cmd_experiment(args) -> int:
    dataset = _load_dataset(args.input, args.normalize_pixels)
    spec = _solver_from_args(args, dataset.n, args.k)
    t_list = args.t if args.t else [projection.target_dimension(
        args.k, args.epsilon, args.c)]
    records = run_experiment_sweep(dataset, args.k, t_list, args.method, spec,
                                   args.seed, epsilon=args.epsilon, c=args.c)
    manifest = RunManifest(
        subcommand="experiment",
        params={"input": str(args.input), "k": args.k, "t_list": t_list,
                "methods": args.method, "epsilon": args.epsilon, "c": args.c,
                "solver": spec.kind, "max_iter": spec.max_iter},
        seed=args.seed,
        version=__version__,
    )
    _write_experiment_csv(args.output, records, manifest)
    return 0


def _cmd_bench(args) -> int:
    rows = run_bench(args.d, args.t, args.n, args.seed, impls=args.impl,
                     repeats=args.repeats)
    manifest = RunManifest(
        subcommand="bench",
        params={"d_list": args.d, "t_list": args.t, "n": args.n,
                "impls": list(args.impl), "repeats": args.repeats},
        seed=args.seed,
        version=__version__,
    )
    _write_bench_csv(args.output, rows, manifest)
    return 0


def _cmd_check(args) -> int:
    all_ok, payload = run_property_suite(seed=args.seed, scale=args.scale,
                                         bound_scale=args.bound_scale)
    _write_json(args.output, payload)
    return 0 if all_ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpkmeans",
        description="Random sign projections for k-means clustering.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp, with_method=True):
        sp.add_argument("--input", required=True,
                        help="CSV file or directory of PGM class folders")
        sp.add_argument("--k", type=int, default=None)
        sp.add_argument("--epsilon", type=float, default=1.0 / 3.0)
        sp.add_argument("--c", type=float, default=1.0)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--normalize-pixels", action="store_true",
                        help="divide inputs by 255 (for image data)")
        if with_method:
            sp.add_argument("--max-iter", type=int, default=100)
            sp.add_argument("--tol", type=float, default=1e-9)
            sp.add_argument("--replicates", type=int, default=1)
            sp.add_argument("--solver", choices=["lloyd", "brute_force"],
                            default="lloyd")
            sp.add_argument("--init-indices", default=None,
                            help="comma-separated seed row indices")
            sp.add_argument("--init-stride", type=int, default=None,
                            help="seed rows 0, stride, 2*stride, ... "
                             "(default n // k)")

    gen = sub.add_parser("generate", help="write a synthetic labeled mixture")
    gen.add_argument("--output", required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--center-scale", type=float, default=1.0)
    gen.add_argument("--noise-sigma", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_generate)

    proj = sub.add_parser("project", help="project a dataset to t dimensions")
    add_common(proj, with_method=False)
    proj.add_argument("--output", required=True)
    proj.add_argument("--method", choices=["rp_mailman", "rp_naive",
                                           "gaussian", "svd"],
                      default="rp_mailman")
    proj.add_argument("--t", type=int, default=None)
    proj.set_defaults(func=_cmd_project)

    clu = sub.add_parser("cluster", help="cluster one dataset, write JSON")
    add_common(clu)
    clu.add_argument("--output", default=None)
    clu.add_argument("--method", choices=sorted(METHOD_MAP), default="hd")
    clu.add_argument("--t", type=int, default=None)
    clu.set_defaults(func=_cmd_cluster)

    exp = sub.add_parser("experiment", help="sweep methods x t, write CSV")
    add_common(exp)
    exp.add_argument("--output", required=True)
    exp.add_argument("--method", action="append", default=None,
                     help="repeatable; any of " + ", ".join(sorted(METHOD_MAP)))
    exp.add_argument("--t", type=int, action="append", default=None,
                     help="repeatable projection dimension")
    exp.set_defaults(func=_cmd_experiment)

    ben = sub.add_parser("bench", help="time the multiply implementations")
    ben.add_argument("--output", required=True)
    ben.add_argument("--d", type=int, action="append", required=True)
    ben.add_argument("--t", type=int, action="append", required=True)
    ben.add_argument("--n", type=int, default=1)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--impl", action="append", default=None,
                     help="repeatable; naive, on_the_fly, mailman")
    ben.add_argument("--repeats", type=int, default=5)
    ben.set_defaults(func=_cmd_bench)

    chk = sub.add_parser("check", help="run the property suite, write JSON")
    chk.add_argument("--output", default=None)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--scale", choices=["quick", "full"], default="quick")
    chk.add_argument("--bound-scale", type=float, default=1.0,
                     help=argparse.SUPPRESS)
    chk.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "method", None) is None and args.subcommand == "experiment":
        args.method = ["rp_mailman", "hd"]
    if getattr(args, "impl", None) is None and args.subcommand == "bench":
        args.impl = list(BENCH_IMPLS)
    needs_k = args.subcommand in ("cluster", "experiment")
    if needs_k and args.k is None:
        print("error: --k is required", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, FileNotFoundError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CrossCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
