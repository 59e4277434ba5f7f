"""Command-line front end: dataset generation, projection, clustering,
experiment sweeps, multiply benchmarks, and the property-check suite.

Exit codes: 0 success, 1 failed check or cross-check, 2 bad parameters,
3 unreadable or unparsable input.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, evaluation, mailman, projection, rng as _rng
from .dataio import Dataset, MixtureSpec, generate_mixture, load_image_dir, read_csv, write_csv
from .errors import CrossCheckError, DataFormatError, ParameterError
from .evaluation import ExperimentRecord, accuracy, normalized_objective
from .kmeans import (FirstOfEachGroup, GivenIndices, SolverSpec,
                     apply_projection, project_and_cluster)
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

BENCH_IMPLS = ("naive", "mailman")


def _manifest(subcommand: str, params: dict, seed: int, timings=None) -> dict:
    """What produced an output file: subcommand, parameters, seed, version.

    timings holds wall-clock milliseconds per phase; it is None for outputs
    that must be byte-identical across reruns.
    """
    return {"subcommand": subcommand, "params": params, "seed": seed,
            "version": __version__, "timings": timings}


def _solver_from_args(args, n: int, k: int) -> SolverSpec:
    if args.init_indices:
        try:
            indices = tuple(int(x) for x in args.init_indices.split(","))
        except ValueError:
            raise ParameterError(f"--init-indices must be comma-separated integers, "
                                 f"got {args.init_indices!r}") from None
        init = GivenIndices(indices)
    else:
        init = FirstOfEachGroup(args.init_stride if args.init_stride is not None
                                else max(1, n // k))
    return SolverSpec(kind=args.solver, max_iter=args.max_iter, tol=args.tol,
                      init=init, replicates=args.replicates)


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
    """One record per (method, t): run project_and_cluster and score the
    assignment against labels when present.

    The hd method clusters the raw points once and records t = d.
    """
    fro = frobenius_norm(dataset.points)
    if fro == 0.0:
        raise ParameterError("sweep undefined for an all-zero dataset")
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
            run = project_and_cluster(dataset.points, k, cfg, spec, METHOD_MAP[method])
            records.append(ExperimentRecord(
                method=method,
                t=run.t,
                f_tilde=normalized_objective(run.original_objective, fro),
                accuracy=(accuracy(run.projected.assignment, dataset.labels)
                          if dataset.labels is not None else None),
                projection_ms=run.projection_ms,
                clustering_ms=run.clustering_ms,
                seed=seed,
                k=k,
                epsilon=epsilon,
            ))
    return records


def run_bench(d_list, t_list, n: int, seed: int, impls=BENCH_IMPLS,
              repeats: int = 5) -> list:
    """Median wall time of each multiply implementation on each (d, t) cell.

    Both implementations apply the same packed sign matrix: naive expands it
    densely and multiplies, and mailman buckets and folds.  The mailman
    output is cross-checked against naive to 1e-10 relative before any
    timing; disagreement raises CrossCheckError.
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
            a = _rng.stream(cell_seed, _rng.INSTANCE).standard_normal((n, d))
            dense = plan.dense()
            runners = {
                "naive": lambda: a @ dense,
                "mailman": lambda: mailman.project_mailman(a, plan),
            }
            reference = runners["naive"]()
            ref_norm = max(np.linalg.norm(reference), 1e-300)
            gap = np.linalg.norm(runners["mailman"]() - reference) / ref_norm
            if gap > 1e-10:
                raise CrossCheckError(f"mailman disagrees with naive at d={d}, "
                                      f"t={t}: relative gap {gap:.3e}")
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


def _write_table(path, manifest, columns, rows):
    """CSV with a "# manifest {json}" first line, a header, then one line per
    row of already formatted cells."""
    lines = ["# manifest " + json.dumps(manifest, sort_keys=True), ",".join(columns)]
    lines += [",".join(row) for row in rows]
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
    return ProjectionConfig(k=k, epsilon=args.epsilon, c=args.c,
                            t_override=args.t, seed=args.seed)


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
    start = time.perf_counter()
    dataset = _load_dataset(args.input, args.normalize_pixels)
    load_ms = (time.perf_counter() - start) * 1000.0
    cfg = _resolve_cfg(args)
    spec = _solver_from_args(args, dataset.n, args.k)
    run = project_and_cluster(dataset.points, args.k, cfg, spec, METHOD_MAP[args.method])
    res = run.projected
    scored = time.perf_counter()
    fro = frobenius_norm(dataset.points)
    acc = (accuracy(res.assignment, dataset.labels)
           if dataset.labels is not None else None)
    score_ms = run.plugback_ms + (time.perf_counter() - scored) * 1000.0
    params = {"input": str(args.input), "k": args.k, "method": args.method,
              "t": run.t, "epsilon": args.epsilon, "c": args.c,
              "solver": spec.kind, "max_iter": spec.max_iter,
              "replicates": spec.replicates}
    timings = {"load_ms": load_ms, "projection_ms": run.projection_ms,
               "clustering_ms": run.clustering_ms, "score_ms": score_ms}
    payload = {
        "schema_version": JSON_SCHEMA_VERSION,
        "manifest": _manifest("cluster", params, args.seed, timings),
        "result": {
            "labels": res.assignment.labels.tolist(),
            "projected_objective": res.objective,
            "original_objective": run.original_objective,
            "f_tilde": normalized_objective(run.original_objective, fro),
            "accuracy": acc,
            "iterations": res.iterations,
            "converged": res.converged,
            "objective_trace": res.objective_trace.tolist(),
            "method": args.method,
            "t": run.t,
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
    manifest = _manifest("experiment", {
        "input": str(args.input), "k": args.k, "t_list": t_list,
        "methods": args.method, "epsilon": args.epsilon, "c": args.c,
        "solver": spec.kind, "max_iter": spec.max_iter}, args.seed)
    _write_table(args.output, manifest, EXPERIMENT_COLUMNS, (
        [r.method, str(r.t), str(r.k), repr(r.epsilon), str(r.seed), repr(r.f_tilde),
         "" if r.accuracy is None else repr(r.accuracy),
         f"{r.projection_ms:.3f}", f"{r.clustering_ms:.3f}"]
        for r in records))
    return 0


def _cmd_bench(args) -> int:
    rows = run_bench(args.d, args.t, args.n, args.seed, impls=args.impl,
                     repeats=args.repeats)
    manifest = _manifest("bench", {
        "d_list": args.d, "t_list": args.t, "n": args.n,
        "impls": list(args.impl), "repeats": args.repeats}, args.seed)
    _write_table(args.output, manifest, BENCH_COLUMNS, (
        [r["impl"], str(r["d"]), str(r["t"]), str(r["n"]), str(r["seed"]),
         f"{r['median_ms']:.4f}", str(r["repeats"])]
        for r in rows))
    return 0


def _cmd_check(args) -> int:
    """Run the property suite and write its JSON; exits 1 unless every check
    passes.

    The payload carries no wall times, so identical seeds give identical
    bytes.  --bound-scale below 1 tightens every acceptance bound and is
    the hook negative-control tests use to force a failing exit.
    """
    checks = evaluation.property_suite(args.seed, args.scale, args.bound_scale)
    all_ok = all(entry["ok"] for entry in checks)
    _write_json(args.output, {
        "schema_version": JSON_SCHEMA_VERSION,
        "manifest": _manifest("check", {"scale": args.scale,
                                        "bound_scale": args.bound_scale}, args.seed),
        "checks": checks,
        "all_ok": all_ok,
    })
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
                     help="repeatable; naive, mailman")
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
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CrossCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
