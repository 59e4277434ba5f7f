"""The four benchmark workloads.

Each workload prepares a small pool of seeded inputs in set-up, runs one
warm-up job per pool entry (whose output becomes that entry's reference),
and then runs timed jobs that cycle through the pool.  Cycling through
several seeded inputs keeps one unlucky draw (a Lloyd run that needs many
more iterations) from setting the whole run's median.

A job returns an outcome dict; `check` lists what is wrong with it.
"""

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import inputs
from rpkmeans import cli, dataio, evaluation, kmeans, mailman, projection

CHILD_TIMEOUT_S = 60


def _pipeline_outcome(res, points, labels_true, k):
    return {
        "labels": res.projected.assignment.labels,
        "k": k,
        "trace": res.projected.objective_trace,
        "plugback": res.original_objective,
        "points": points,
        "accuracy": evaluation.accuracy(res.projected.assignment, labels_true),
        "bytes": {},
    }


def quality(out):
    """(f_tilde, accuracy) of one outcome; f_tilde is computed here, outside
    the timed job, unless the program reported it."""
    if "f_tilde" in out:
        return out["f_tilde"], out["accuracy"]
    points = out["points"]
    return out["plugback"] / float(np.sum(points * points)), out["accuracy"]


def check_outcome(entry, out):
    """Every output check that applies to one job's outcome."""
    problems = []
    if "labels" in out:
        problems += [checks.partition(out["labels"], out["k"]),
                     checks.descent(out["trace"]),
                     checks.plugback(out["points"], out["labels"], out["k"],
                                     out["plugback"], kmeans)]
    ref = entry.get("reference")
    if ref is not None:
        if "labels" in out:
            problems.append(checks.same_partition(out["labels"], ref["labels"]))
        for what, data in out["bytes"].items():
            problems.append(checks.same_bytes(data, ref["bytes"][what], what))
    return [p for p in problems if p is not None]


def reference_of(out):
    ref = {"bytes": {what: checks.digest(data) for what, data in out["bytes"].items()}}
    if "labels" in out:
        ref["labels"] = np.array(out["labels"], copy=True)
    return ref


class HdLloyd:
    """Full-dimensional Lloyd: the paper's baseline arm (method="none")."""

    name = "hd-lloyd"
    index = 0
    in_children = False
    pool = 8
    # About 0.4 s per job on a 2-core box.  center_scale 0.4 and noise 1.5
    # at d = 256 make the classes overlap, so accuracy stays below 1 and
    # most Lloyd replicates are still moving at max_iter = 15: every job
    # then does nearly the same work (70-75 Lloyd iterations over its five
    # replicates), whichever seed drew the data.
    n, d, k, center_scale, noise_sigma, replicates, max_iter = 1000, 256, 20, 0.4, 1.5, 5, 15
    exercises = ["kmeans", "evaluation", "dataio (set-up only)"]
    bypasses = ["cli", "mailman", "projection", "matrix"]
    expected_spans = ["kmeans.lloyd", "kmeans.objective", "evaluation.accuracy",
                      "dataio.generate_mixture"]
    setup_spans = ["dataio.generate_mixture"]

    def prepare(self, ctx, j):
        s = inputs.entry_seed(ctx.seed, self.index, j)
        ds = dataio.generate_mixture(dataio.MixtureSpec(
            n=self.n, d=self.d, k=self.k, center_scale=self.center_scale,
            noise_sigma=self.noise_sigma, seed=s))
        return {"seed": s, "points": ds.points, "labels": ds.labels,
                "input_bytes": ds.points.nbytes}

    def job(self, ctx, entry):
        cfg = projection.ProjectionConfig(k=self.k, seed=entry["seed"])
        spec = kmeans.SolverSpec(replicates=self.replicates, max_iter=self.max_iter)
        res = kmeans.project_and_cluster(entry["points"], self.k, cfg, spec, method="none")
        return _pipeline_outcome(res, entry["points"], entry["labels"], self.k)


class RpFaces:
    """Image corpus -> sign_mailman projection at t = ceil(k / eps^2) = 360."""

    name = "rp-faces"
    index = 1
    in_children = False
    pool = 3
    # The shape of face corpora such as ORL: 400 images of 112 x 92 pixels
    # in 40 classes.  At d = 10304 the packed multiply uses p = 13, so its
    # bucket matrix is about 0.7 GB and sets the job's peak memory.  Five
    # replicates, as on hd-lloyd, so both arms run the same solver.
    classes, per_class, height, width, replicates = 40, 10, 112, 92, 5
    exercises = ["dataio", "mailman", "kmeans", "evaluation"]
    bypasses = ["cli", "projection.project_naive", "matrix"]
    setup_spans = []
    expected_spans = ["dataio.load_image_dir", "mailman.build_plan",
                      "mailman.project_mailman", "kmeans.lloyd",
                      "kmeans.objective", "evaluation.accuracy"]

    def prepare(self, ctx, j):
        s = inputs.entry_seed(ctx.seed, self.index, j)
        root = ctx.work / f"faces{j}"
        images = inputs.face_images(s, self.classes, self.per_class, self.height, self.width)
        size = inputs.write_pgm_tree(root, images, self.per_class)
        entry = {"seed": s, "root": root, "input_bytes": size}
        # once per set-up: the packed multiply equals the dense product
        points = images.reshape(len(images), -1).astype(np.float64) / 255.0
        cfg = projection.ProjectionConfig(k=self.classes, seed=s)
        plan = mailman.build_plan(points.shape[1], cfg.resolve_t(points.shape[1]), s)
        dense = mailman.densify(plan, scaled=True)
        entry["setup_problems"] = [p for p in [checks.projection_matches(
            mailman.project_mailman(points, plan), points @ dense)] if p]
        if ctx.tracer is not None and j == 0:
            entry["ref"] = dense_reference(points, plan, dense)
        return entry

    def job(self, ctx, entry):
        ds = dataio.load_image_dir(entry["root"])
        points = ds.points / 255.0
        cfg = projection.ProjectionConfig(k=self.classes, seed=entry["seed"])
        spec = kmeans.SolverSpec(replicates=self.replicates)
        res = kmeans.project_and_cluster(points, self.classes, cfg, spec, method="sign_mailman")
        return _pipeline_outcome(res, points, ds.labels, self.classes)


def dense_reference(points, plan, dense, repeats=5):
    """Reference cell for the paper's claim that the packed multiply beats a
    dense one: plain numpy `points @ dense` on the same packed matrix.  It
    is computed by the benchmark and is not a measurement of the program."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        points @ dense
        times.append(time.perf_counter() - start)
    return {"ref.dense_matmul.ms": statistics.median(times) * 1000.0,
            "ref.dense_matmul.madds": points.shape[0] * plan.d * plan.t}


class CliCsv:
    """`rpkmeans generate` then `rpkmeans cluster`, as two subprocesses."""

    name = "cli-csv"
    index = 2
    in_children = True  # the program runs in child processes
    pool = 4
    # The CLI default --init-stride n // k = 10 seeds Lloyd from rows 0, 10,
    # ..., 390; generate gives row i class i mod k, so those rows hold only
    # classes 0, 10, 20 and 30.  The benchmark keeps the default and reports
    # the accuracy it gives (about 0.78) rather than choosing a stride.
    n, d, k, t, replicates = 400, 512, 40, 100, 5
    exercises = ["cli", "dataio", "mailman", "kmeans", "evaluation", "interpreter start and import"]
    bypasses = ["projection.project_naive", "matrix"]
    setup_spans = []
    expected_spans = ["cli.main", "cli.generate", "cli.cluster", "dataio.generate_mixture",
                      "dataio.write_csv", "dataio.read_csv", "mailman.build_plan",
                      "mailman.project_mailman", "kmeans.lloyd", "kmeans.objective",
                      "evaluation.accuracy"]

    def prepare(self, ctx, j):
        s = inputs.entry_seed(ctx.seed, self.index, j)
        csv_path = ctx.work / f"mix{j}.csv"
        spec = dataio.MixtureSpec(n=self.n, d=self.d, k=self.k, center_scale=10.0,
                                  noise_sigma=0.1, seed=s)
        generate = ["generate", "--output", str(csv_path), "--n", str(self.n),
                    "--d", str(self.d), "--k", str(self.k), "--center-scale", "10",
                    "--noise-sigma", "0.1", "--seed", str(s)]
        cluster = ["cluster", "--input", str(csv_path), "--k", str(self.k),
                   "--method", "rp_mailman", "--t", str(self.t),
                   "--replicates", str(self.replicates)]
        # the same mixture in-process, to re-price the child's partition
        points = dataio.generate_mixture(spec).points
        return {"seed": s, "csv": csv_path, "argv": [generate, cluster],
                "points": points, "input_bytes": points.nbytes}

    def _run(self, ctx, argv, name):
        if ctx.tracer is None:
            cmd = [sys.executable, "-m", "rpkmeans.cli", *argv]
            return subprocess.run(cmd, env=ctx.env, capture_output=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        spans_file = ctx.work / "child_spans.json"
        cmd = [sys.executable, str(ctx.bench_dir / "cli_child.py"), str(spans_file), *argv]
        with ctx.tracer.span(name):
            proc = subprocess.run(cmd, env=ctx.env, capture_output=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
            if spans_file.exists():
                ctx.tracer.add_child_spans(json.loads(spans_file.read_text()))
                spans_file.unlink()
        return proc

    def job(self, ctx, entry):
        generate, cluster = entry["argv"]
        gen = self._run(ctx, generate, "cli.generate")
        if gen.returncode != 0:
            raise RuntimeError(f"generate exited {gen.returncode}: {gen.stderr[-300:]!r}")
        clu = self._run(ctx, cluster, "cli.cluster")
        if clu.returncode != 0:
            raise RuntimeError(f"cluster exited {clu.returncode}: {clu.stderr[-300:]!r}")
        result = json.loads(clu.stdout)["result"]
        return {
            "labels": np.array(result["labels"], dtype=np.int64),
            "k": self.k,
            "trace": result["objective_trace"],
            "plugback": result["original_objective"],
            "points": entry["points"],
            "f_tilde": result["f_tilde"],
            "accuracy": result["accuracy"],
            "bytes": {"generate csv": entry["csv"].read_bytes(),
                      "cluster json": checks.mask_timings(clu.stdout)},
        }


class CheckQuick:
    """`rpkmeans check --scale quick`, in-process."""

    name = "check-quick"
    index = 3
    in_children = False
    pool = 3
    # At check's default seed, as its users run it: the property checks are
    # randomized, and at another seed one may fail by chance, which would
    # not be a fault of the program.
    argv = ["check", "--scale", "quick"]
    # check prints no partition, so f_tilde and accuracy on this workload
    # come from a small sign_naive pipeline run once per set-up entry on a
    # seeded mixture: the project_naive path this workload alone times.
    probe = dict(n=200, d=256, k=10, center_scale=1.0, noise_sigma=1.0)
    exercises = ["cli", "evaluation", "matrix", "projection", "kmeans.brute_force_optimal",
                 "kmeans.objective"]
    bypasses = ["dataio", "mailman", "kmeans.lloyd"]
    setup_spans = []
    expected_spans = ["cli.main", "projection.project_naive", "projection.sample_sign_matrix",
                      "kmeans.brute_force_optimal", "kmeans.objective", "matrix.matmul",
                      "matrix.svd_thin", "matrix.pseudo_inverse", "matrix.spectral_norm"] + [
        f"evaluation.{fn}" for fn in (
            "jl_distortion_check", "moment_identity_check", "norm_bound_check",
            "singular_value_check", "matmul_moment_check", "pseudo_inverse_bound_check",
            "decomposition_residual_check", "theorem_distortion_trial")]

    def prepare(self, ctx, j):
        s = inputs.entry_seed(ctx.seed, self.index, j)
        ds = dataio.generate_mixture(dataio.MixtureSpec(seed=s, **self.probe))
        cfg = projection.ProjectionConfig(k=self.probe["k"], seed=s)
        res = kmeans.project_and_cluster(ds.points, self.probe["k"], cfg, method="sign_naive")
        probe = _pipeline_outcome(res, ds.points, ds.labels, self.probe["k"])
        return {"seed": s, "input_bytes": ds.points.nbytes, "probe": probe,
                "setup_problems": check_outcome({}, probe)}

    def job(self, ctx, entry):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(self.argv))
        text = buf.getvalue().encode()
        if code != 0:
            raise RuntimeError(f"check exited {code}")
        if not json.loads(text)["all_ok"]:
            raise RuntimeError("check reported all_ok = false")
        f_tilde, acc = quality(entry["probe"])
        return {"f_tilde": f_tilde, "accuracy": acc, "bytes": {"check json": text}}


WORKLOADS = {w.name: w for w in (HdLloyd(), RpFaces(), CliCsv(), CheckQuick())}
