"""Command-line front end: parse the arguments, load the input, call the
library, write the output.  Dataset generation, projection, clustering
(a one-cell run of the experiment sweep), experiment sweeps and multiply
benchmarks (evaluation.run_experiment_sweep and run_bench), and the
property-check suite.

Exit codes: 0 success, 1 failed check or cross-check, 2 bad parameters,
3 unreadable or unparsable input.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__, evaluation, projection
from .dataio import Dataset, MixtureSpec, generate_mixture, load_image_dir, read_csv, write_csv
from .errors import CrossCheckError, DataFormatError, ParameterError
from .kmeans import SolverSpec, apply_projection
# unused here, but the benchmark's tracing self-test wraps and restores
# the binding cli.lloyd (perfbench/test_perfbench.py)
from .kmeans import lloyd  # noqa: F401
from .projection import ProjectionConfig

JSON_SCHEMA_VERSION = 1
EXPERIMENT_COLUMNS = ["method", "t", "k", "epsilon", "seed", "f_tilde",
                      "accuracy", "projection_ms", "clustering_ms"]
BENCH_COLUMNS = ["impl", "d", "t", "n", "seed", "median_ms", "repeats"]


def _manifest(subcommand: str, params: dict, seed: int, timings=None) -> dict:
    """What produced an output file: subcommand, parameters, seed, version.

    timings holds wall-clock milliseconds per phase; it is None for outputs
    that must be byte-identical across reruns.
    """
    return {"subcommand": subcommand, "params": params, "seed": seed,
            "version": __version__, "timings": timings}


def _solver_from_args(args) -> SolverSpec:
    init = None
    if args.init_indices:
        try:
            init = tuple(int(x) for x in args.init_indices.split(","))
        except ValueError:
            raise ParameterError(f"--init-indices must be comma-separated integers, "
                                 f"got {args.init_indices!r}") from None
    return SolverSpec(kind=args.solver, max_iter=args.max_iter, tol=args.tol,
                      init=init, replicates=args.replicates)


def _solver_params(spec: SolverSpec) -> dict:
    return {"solver": spec.kind, "max_iter": spec.max_iter,
            "replicates": spec.replicates, "init": spec.init}


def _load_dataset(path, normalize_pixels: bool) -> Dataset:
    p = Path(path)
    dataset = load_image_dir(p) if p.is_dir() else read_csv(p)
    if normalize_pixels:
        dataset = Dataset(points=dataset.points / 255.0,
                          labels=dataset.labels, source=dataset.source)
    return dataset


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


def _cmd_project(args) -> int:
    dataset = _load_dataset(args.input, args.normalize_pixels)
    if args.k is None and args.t is None:
        raise ParameterError("provide --k (to size the projection) or --t")
    cfg = ProjectionConfig(k=1 if args.k is None else args.k, epsilon=args.epsilon,
                           t_override=args.t, seed=args.seed)
    proj, t_used = apply_projection(dataset.points, cfg, evaluation.METHOD_MAP[args.method])
    write_csv(Dataset(points=proj, labels=dataset.labels,
                      source=f"{dataset.source}|{args.method}@t={t_used}"),
              args.output)
    return 0


def _cmd_cluster(args) -> int:
    start = time.perf_counter()
    dataset = _load_dataset(args.input, args.normalize_pixels)
    load_ms = (time.perf_counter() - start) * 1000.0
    spec = _solver_from_args(args)
    [record] = evaluation.run_experiment_sweep(dataset, args.k, [args.t], [args.method],
                                               spec, args.seed, epsilon=args.epsilon)
    run = record.run
    res = run.projected
    params = {"input": str(args.input), "k": args.k, "method": args.method,
              "t": run.t, "epsilon": args.epsilon, **_solver_params(spec)}
    timings = {"load_ms": load_ms, "projection_ms": run.projection_ms,
               "clustering_ms": run.clustering_ms, "score_ms": record.score_ms}
    payload = {
        "schema_version": JSON_SCHEMA_VERSION,
        "manifest": _manifest("cluster", params, args.seed, timings),
        "result": {
            "labels": res.assignment.labels.tolist(),
            "projected_objective": res.objective,
            "original_objective": run.original_objective,
            "f_tilde": record.f_tilde,
            "accuracy": record.accuracy,
            "iterations": res.iterations,
            "converged": res.converged,
            "replicate": res.replicate,
            "settled": res.settled,
            "objective_trace": res.objective_trace.tolist(),
            "method": args.method,
            "t": run.t,
        },
    }
    _write_json(args.output, payload)
    return 0


def _cell(value) -> str:
    """A score cell: empty for None (no labels, or all-zero data)."""
    return "" if value is None else repr(value)


def _cmd_experiment(args) -> int:
    dataset = _load_dataset(args.input, args.normalize_pixels)
    spec = _solver_from_args(args)
    methods = args.method or ["rp_mailman", "hd"]
    t_list = args.t or [projection.target_dimension(args.k, args.epsilon)]
    records = evaluation.run_experiment_sweep(dataset, args.k, t_list, methods, spec,
                                              args.seed, epsilon=args.epsilon)
    manifest = _manifest("experiment", {
        "input": str(args.input), "k": args.k, "t_list": t_list, "methods": methods,
        "epsilon": args.epsilon, **_solver_params(spec)}, args.seed)
    _write_table(args.output, manifest, EXPERIMENT_COLUMNS, (
        [r.method, str(r.run.t), str(args.k), repr(args.epsilon), str(args.seed),
         _cell(r.f_tilde), _cell(r.accuracy),
         f"{r.run.projection_ms:.3f}", f"{r.run.clustering_ms:.3f}"]
        for r in records))
    return 0


def _cmd_bench(args) -> int:
    rows = evaluation.run_bench(args.d, args.t, args.n, args.seed, repeats=args.repeats)
    manifest = _manifest("bench", {
        "d_list": args.d, "t_list": args.t, "n": args.n,
        "impls": list(dict.fromkeys(r["impl"] for r in rows)),
        "repeats": args.repeats}, args.seed)
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
                            help="comma-separated seed row indices "
                                 "(default 0, 1, ..., k-1)")

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
    proj.add_argument("--method", choices=sorted(set(evaluation.METHOD_MAP) - {"hd"}),
                      default="rp_mailman")
    proj.add_argument("--t", type=int, default=None)
    proj.set_defaults(func=_cmd_project)

    clu = sub.add_parser("cluster", help="cluster one dataset, write JSON")
    add_common(clu)
    clu.add_argument("--output", default=None)
    clu.add_argument("--method", choices=sorted(evaluation.METHOD_MAP), default="hd")
    clu.add_argument("--t", type=int, default=None)
    clu.set_defaults(func=_cmd_cluster)

    exp = sub.add_parser("experiment", help="sweep methods x t, write CSV")
    add_common(exp)
    exp.add_argument("--output", required=True)
    exp.add_argument("--method", action="append", default=None,
                     choices=sorted(evaluation.METHOD_MAP), help="repeatable")
    exp.add_argument("--t", type=int, action="append", default=None,
                     help="repeatable projection dimension")
    exp.set_defaults(func=_cmd_experiment)

    ben = sub.add_parser("bench", help="time the multiply implementations")
    ben.add_argument("--output", required=True)
    ben.add_argument("--d", type=int, action="append", required=True)
    ben.add_argument("--t", type=int, action="append", required=True)
    ben.add_argument("--n", type=int, default=1)
    ben.add_argument("--seed", type=int, default=0)
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
