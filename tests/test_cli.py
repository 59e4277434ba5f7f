import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rpkmeans import cli, dataio, evaluation, rng
from rpkmeans.errors import ParameterError
from rpkmeans.kmeans import SolverSpec, project_and_cluster
from rpkmeans.projection import ProjectionConfig


def make_dataset(tmp_path, n=60, d=64, k=4, seed=0):
    path = tmp_path / "mix.csv"
    ds = dataio.generate_mixture(dataio.MixtureSpec(
        n=n, d=d, k=k, center_scale=6.0, noise_sigma=0.5, seed=seed))
    dataio.write_csv(ds, path)
    return path


def read_records(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest ")
    manifest = json.loads(lines[0][len("# manifest "):])
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return manifest, header, rows


def test_generate_writes_readable_csv(tmp_path):
    out = tmp_path / "gen.csv"
    code = cli.main(["generate", "--output", str(out), "--n", "30", "--d", "8",
                     "--k", "3", "--seed", "5"])
    assert code == 0
    ds = dataio.read_csv(out)
    assert ds.points.shape == (30, 8)
    assert ds.labels is not None and ds.labels.max() == 2


def test_generate_matches_library_call(tmp_path):
    out = tmp_path / "gen.csv"
    cli.main(["generate", "--output", str(out), "--n", "10", "--d", "4",
              "--k", "2", "--seed", "11"])
    direct = dataio.generate_mixture(dataio.MixtureSpec(n=10, d=4, k=2, seed=11))
    assert np.array_equal(dataio.read_csv(out).points, direct.points)


def test_project_writes_reduced_csv(tmp_path):
    data = make_dataset(tmp_path)
    out = tmp_path / "proj.csv"
    code = cli.main(["project", "--input", str(data), "--output", str(out),
                     "--k", "4", "--t", "10", "--seed", "1"])
    assert code == 0
    ds = dataio.read_csv(out)
    assert ds.points.shape == (60, 10)
    assert ds.labels is not None


def test_cluster_emits_versioned_json(tmp_path):
    data = make_dataset(tmp_path)
    out = tmp_path / "result.json"
    code = cli.main(["cluster", "--input", str(data), "--output", str(out),
                     "--k", "4", "--method", "rp_mailman", "--t", "16",
                     "--seed", "2"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == cli.JSON_SCHEMA_VERSION
    manifest = payload["manifest"]
    assert manifest["subcommand"] == "cluster"
    assert set(manifest["timings"]) == {"load_ms", "projection_ms", "clustering_ms",
                                        "score_ms"}
    result = payload["result"]
    assert len(result["labels"]) == 60
    assert result["t"] == 16
    assert result["original_objective"] >= 0.0
    assert result["projected_objective"] >= 0.0
    assert 0.0 <= result["accuracy"] <= 1.0
    trace = result["objective_trace"]
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_cluster_runs_the_library_pipeline(tmp_path):
    # cluster must report exactly what kmeans.project_and_cluster computes on
    # the same points, projection config and solver spec; the spec's start
    # is the library default, so cluster's default start must be it too
    data = make_dataset(tmp_path)
    points = dataio.read_csv(data).points
    cfg = ProjectionConfig(k=4, t_override=16, seed=2)
    spec = SolverSpec(replicates=2)
    out = tmp_path / "result.json"
    for method in ("rp_mailman", "rp_naive", "svd", "hd"):
        assert cli.main(["cluster", "--input", str(data), "--output", str(out), "--k", "4",
                         "--method", method, "--t", "16", "--replicates", "2",
                         "--seed", "2"]) == 0
        result = json.loads(out.read_text())["result"]
        run = project_and_cluster(points, 4, cfg, spec, evaluation.METHOD_MAP[method])
        assert result["labels"] == run.projected.assignment.labels.tolist()
        assert result["projected_objective"] == run.projected.objective
        assert result["original_objective"] == run.original_objective
        assert result["objective_trace"] == run.projected.objective_trace.tolist()
        assert result["replicate"] == run.projected.replicate
        assert result["settled"] == run.projected.settled
        assert result["t"] == run.t == (64 if method == "hd" else 16)
        assert min(run.projection_ms, run.clustering_ms, run.plugback_ms) >= 0.0


def test_cluster_default_start_is_certified_within_two_plus_epsilon(tmp_path):
    # k-means is a rank-k constrained problem, so OPT >= sum_{i>k} sigma_i^2,
    # the residual of the best rank-k approximation (Drineas, Frieze, Kannan,
    # Vempala & Vinay, Mach. Learn. 2004).  A plug-back objective within
    # (2 + epsilon) times that residual is within (2 + epsilon) OPT.  The
    # generated rows cycle through the classes, so the default start holds
    # one row of each class; the negative control starts from every tenth
    # row, which holds 4 of the 40 classes
    data = tmp_path / "mix.csv"
    assert cli.main(["generate", "--output", str(data), "--n", "400", "--d", "512",
                     "--k", "40", "--center-scale", "10", "--seed", "3"]) == 0
    a = dataio.read_csv(data).points
    residual = np.sort(np.linalg.eigvalsh(a @ a.T))[:-40].sum()
    bound = (2.0 + 1.0 / 3.0) * residual
    out = tmp_path / "result.json"
    for method in (["rp_mailman", "--t", "100"], ["hd"]):
        for start in ([], ["--init-indices", ",".join(map(str, range(0, 400, 10)))]):
            assert cli.main(["cluster", "--input", str(data), "--output", str(out),
                             "--k", "40", "--replicates", "5", "--method", *method,
                             *start]) == 0
            plugback = json.loads(out.read_text())["result"]["original_objective"]
            assert (plugback <= bound) == (not start), (method, start, plugback / residual)


def test_manifests_record_lloyds_start(tmp_path):
    # two runs that differ only in --init-indices must not carry the same
    # manifest: params records the given rows, or null for rows 0..k-1
    data = make_dataset(tmp_path)
    out = tmp_path / "out"
    for sub in ("cluster", "experiment"):
        params = []
        for start in ([], ["--init-indices", "5,6,7,8"]):
            assert cli.main([sub, "--input", str(data), "--output", str(out), "--k", "4",
                             "--method", "hd", "--replicates", "3", *start]) == 0
            if sub == "cluster":
                manifest = json.loads(out.read_text())["manifest"]
            else:
                manifest = read_records(out)[0]
            params.append(manifest["params"])
        assert [p.pop("init") for p in params] == [None, [5, 6, 7, 8]]
        assert params[0] == params[1] and params[0]["replicates"] == 3


def test_cluster_hd_is_deterministic(tmp_path):
    data = make_dataset(tmp_path)
    # the same rows with class labels 1..4 instead of 0..3: class labels are
    # taken as given, and accuracy does not read their values
    ds = dataio.read_csv(data)
    shifted = tmp_path / "shifted.csv"
    dataio.write_csv(dataio.Dataset(points=ds.points, labels=ds.labels + 1, source="x"),
                     shifted)
    outputs = []
    for name, path in (("one.json", data), ("two.json", shifted)):
        out = tmp_path / name
        assert cli.main(["cluster", "--input", str(path), "--output", str(out),
                         "--k", "4", "--method", "hd", "--seed", "3"]) == 0
        payload = json.loads(out.read_text())
        outputs.append(payload["result"])
    assert outputs[0]["labels"] == outputs[1]["labels"]
    assert outputs[0]["f_tilde"] == outputs[1]["f_tilde"]
    assert outputs[0]["accuracy"] == outputs[1]["accuracy"]


def test_cluster_output_independent_of_blas_threads(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    # cluster JSON at d = 256, an experiment CSV at d = 777, where BLAS
    # products differ between 1 and 2 threads, and the check suite (no
    # input); each case is one pair of runs
    cases = [(256, ["cluster", "--method", "rp_mailman", "--t", "40", "--replicates", "3"],
              b'"labels"'),
             (777, ["experiment", "--method", "hd", "--method", "rp_mailman",
                    "--method", "rp_naive", "--t", "40", "--t", "100"], b"\nrp_naive,100,"),
             (None, ["check", "--scale", "quick", "--seed", "0"], b'"all_ok": true')]
    for d, args, marker in cases:
        if d is not None:
            data = make_dataset(tmp_path, n=400, d=d, k=8, seed=6)
            args = [*args, "--input", str(data), "--k", "8"]
        # the two runs of a pair run at once, each into its own file
        runs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"out{threads}"
            runs[out] = subprocess.Popen(
                [sys.executable, "-m", "rpkmeans.cli", *args, "--output", str(out)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        outputs = []
        for out, run in runs.items():
            _, err = run.communicate(timeout=120)
            assert run.returncode == 0, err
            # the timing fields and columns are the only part allowed to differ
            text = re.sub(rb'("\w+_ms": )[^,\n]+', rb"\1null", out.read_bytes())
            outputs.append(re.sub(rb",[0-9.]+,[0-9.]+$", b",T,T", text, flags=re.M))
        assert marker in outputs[0]
        assert outputs[0] == outputs[1]


# Prints the exit code of `rpkmeans ARGS...` (or 0 when run without
# arguments, after the import alone) and every module then loaded.
_MODULES_AFTER = ("import json, sys\n"
                  "from rpkmeans import cli\n"
                  "code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
                  "print(json.dumps([code, sorted(sys.modules)]))\n")


def _modules_after(*args):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _MODULES_AFTER, *args], env=env,
                          capture_output=True, timeout=120, check=True)
    code, modules = json.loads(done.stdout)
    assert code == 0
    return modules


def _loaded(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_import_and_generate_load_no_scipy(tmp_path):
    assert _loaded(_modules_after(), "scipy") == []
    out = tmp_path / "gen.csv"
    assert _loaded(_modules_after("generate", "--output", str(out), "--n", "30", "--d", "8",
                                  "--k", "3"), "scipy") == []
    assert out.exists()


def test_cluster_loads_only_the_scipy_modules_it_uses(tmp_path):
    data = make_dataset(tmp_path)
    # the reference product's rank-1 updates are scipy.linalg's dger
    for method, linalg in (("rp_mailman", False), ("rp_naive", True)):
        out = tmp_path / f"{method}.json"
        modules = _modules_after("cluster", "--input", str(data), "--k", "4", "--method",
                                 method, "--t", "16", "--output", str(out))
        assert "scipy.sparse" in modules  # the plug-back (and mailman's multiply) use it
        assert (_loaded(modules, "scipy.linalg") != []) is linalg
        for package in ("scipy.optimize", "scipy.spatial"):
            assert _loaded(modules, package) == []
        assert json.loads(out.read_text())["result"]["accuracy"] is not None


def test_experiment_hd_twice_identical_scores(tmp_path):
    data = make_dataset(tmp_path)
    rows = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli.main(["experiment", "--input", str(data), "--output",
                         str(out), "--k", "4", "--method", "hd", "--seed", "4"])
        assert code == 0
        manifest, header, recs = read_records(out)
        assert header == cli.EXPERIMENT_COLUMNS
        rows.append(recs)
    for one, two in zip(rows[0], rows[1]):
        assert one["f_tilde"] == two["f_tilde"]
        assert one["accuracy"] == two["accuracy"]


def test_experiment_reruns_byte_identical_outside_timing_columns(tmp_path):
    data = make_dataset(tmp_path)
    texts = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        cli.main(["experiment", "--input", str(data), "--output", str(out),
                  "--k", "4", "--method", "rp_mailman", "--t", "8", "--t", "16",
                  "--seed", "6"])
        timing = {"projection_ms", "clustering_ms"}
        keep = [i for i, col in enumerate(cli.EXPERIMENT_COLUMNS)
                if col not in timing]
        lines = out.read_text().splitlines()
        body = [",".join(np.array(line.split(","))[keep]) for line in lines[2:]]
        texts.append((lines[0], lines[1], body))
    assert texts[0] == texts[1]


def test_experiment_sweep_covers_methods_and_t(tmp_path):
    data = make_dataset(tmp_path)
    out = tmp_path / "sweep.csv"
    code = cli.main(["experiment", "--input", str(data), "--output", str(out),
                     "--k", "4", "--method", "rp_mailman", "--method", "hd",
                     "--t", "8", "--t", "16", "--seed", "0"])
    assert code == 0
    _, _, recs = read_records(out)
    cells = {(r["method"], r["t"]) for r in recs}
    assert cells == {("rp_mailman", "8"), ("rp_mailman", "16"), ("hd", "64")}


def test_experiment_accuracy_column_empty_without_labels(tmp_path):
    rng = np.random.default_rng(331)
    plain = tmp_path / "plain.csv"
    dataio.write_csv(dataio.Dataset(points=rng.standard_normal((20, 6)),
                                    labels=None, source="unit"), plain)
    out = tmp_path / "sweep.csv"
    assert cli.main(["experiment", "--input", str(plain), "--output", str(out),
                     "--k", "2", "--method", "hd", "--seed", "0"]) == 0
    _, _, recs = read_records(out)
    assert all(r["accuracy"] == "" for r in recs)


def test_bench_writes_cross_checked_timings(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli.main(["bench", "--output", str(out), "--d", "64", "--d", "128",
                     "--t", "6", "--n", "8", "--repeats", "3", "--seed", "1"])
    assert code == 0
    manifest, header, rows = read_records(out)
    assert header == cli.BENCH_COLUMNS
    assert len(rows) == 2 * 2  # two d cells, two implementations
    assert all(float(r["median_ms"]) >= 0.0 for r in rows)


def test_bench_rejects_zero_t(tmp_path):
    out = tmp_path / "bench.csv"
    for bad in (["--t", "0"], ["--t", "2", "--d", "-3"]):
        code = cli.main(["bench", "--output", str(out), "--d", "64", *bad])
        assert code == 2
    # bench always times both implementations: it has no --impl option
    with pytest.raises(SystemExit) as err:
        cli.main(["bench", "--output", str(out), "--d", "64", "--t", "6",
                  "--impl", "on_the_fly"])
    assert err.value.code == 2


def test_bench_vector_case_reports_all_impls():
    rows = evaluation.run_bench([1 << 10], [10], n=1, seed=0, repeats=3)
    by_impl = {r["impl"]: r["median_ms"] for r in rows}
    assert set(by_impl) == {"naive", "mailman"}


def test_check_quick_scale_passes_and_is_deterministic(tmp_path):
    out1 = tmp_path / "one.json"
    out2 = tmp_path / "two.json"
    assert cli.main(["check", "--scale", "quick", "--seed", "0",
                     "--output", str(out1)]) == 0
    assert cli.main(["check", "--scale", "quick", "--seed", "0",
                     "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["all_ok"] is True
    assert payload["schema_version"] == cli.JSON_SCHEMA_VERSION
    assert [c["name"] for c in payload["checks"]] == [
        "jl_pairwise_distortion", "norm_moment_identity", "projected_norm_upper_bound",
        "projected_basis_singular_values", "matrix_product_moment",
        "pseudo_inverse_transpose_gap", "rank_k_decomposition_residual",
        "cluster_distortion_guarantee"]
    for check in payload["checks"]:
        assert check["passes"] >= check["required"]
    # row 5 of the suite: INSTANCE stream 3 as input, trial seed 1000 + 5
    pinv = payload["checks"][5]
    assert pinv["params"] == dict(k=3, epsilon=0.5, t=800, trials=30)
    report = evaluation.pseudo_inverse_bound_check(
        rng.stream(0, rng.INSTANCE, 3).standard_normal((50, 80)), **pinv["params"],
        seed=rng.derive_seed(0, rng.TRIAL, 1005))
    assert (pinv["passes"], pinv["required"], pinv["statistic"], pinv["bound"]) == (
        report.passes, 26, report.statistic, report.bound)


def test_check_tightened_bound_fails(tmp_path):
    out = tmp_path / "squeezed.json"
    code = cli.main(["check", "--scale", "quick", "--seed", "0",
                     "--bound-scale", "0.01", "--output", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["all_ok"] is False


def test_missing_input_exits_three(tmp_path):
    data = make_dataset(tmp_path)
    # a missing file, a path through a file (NotADirectoryError), and an
    # output that cannot be written
    for where in (["--input", str(tmp_path / "nope.csv")],
                  ["--input", str(data / "x")],
                  ["--input", str(data), "--output", str(tmp_path / "no_such_dir" / "out.json")]):
        code = cli.main(["cluster", *where, "--k", "2"])
        assert code == 3


def test_unparsable_input_exits_three(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n")
    code = cli.main(["cluster", "--input", str(bad), "--k", "2"])
    assert code == 3


def test_non_utf8_input_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x0,x1\n1,\xff\n")
    code = cli.main(["cluster", "--input", str(bad), "--k", "1", "--method", "hd"])
    assert code == 3
    assert "byte 8 is not valid UTF-8" in capsys.readouterr().err


def test_bad_epsilon_exits_two(tmp_path):
    data = make_dataset(tmp_path)
    out = tmp_path / "out.csv"
    for bad in (["cluster", "--epsilon", "0.9", "--method", "rp_naive", "--t", "8"],
                ["cluster", "--init-indices", "0,x,2,3"], ["cluster", "--init-indices", "0,,2,3"],
                ["cluster", "--epsilon", "1e-200", "--method", "rp_naive"],
                ["cluster", "--tol", "nan"], ["cluster", "--tol", "inf"],
                ["cluster", "--tol", "1"],
                ["experiment", "--epsilon", "0.9", "--output", str(out)]):
        code = cli.main([*bad, "--input", str(data), "--k", "4"])
        assert code == 2


def test_init_indices_past_int64_name_the_range(tmp_path, capsys):
    data = make_dataset(tmp_path)
    assert cli.main(["cluster", "--input", str(data), "--k", "2",
                     "--init-indices", "0,99999999999999999999"]) == 2
    assert "init row indices must lie in the int64 range" in capsys.readouterr().err


def test_cluster_overflowing_input_exits_two(tmp_path, capsys):
    ds = dataio.generate_mixture(dataio.MixtureSpec(n=20, d=4, k=2, seed=0))
    path = tmp_path / "huge.csv"
    dataio.write_csv(dataio.Dataset(points=ds.points * 1e200, labels=ds.labels,
                                    source="huge"), path)
    assert cli.main(["cluster", "--input", str(path), "--k", "2"]) == 2
    # the exhaustive solver, on rows few enough for it to accept
    dataio.write_csv(dataio.Dataset(points=ds.points[:10] * 1e200, labels=None,
                                    source="huge"), path)
    capsys.readouterr()
    assert cli.main(["cluster", "--input", str(path), "--k", "2",
                     "--solver", "brute_force"]) == 2
    assert "overflow" in capsys.readouterr().err
    # finite rows whose sign projection overflows: the projection is blamed,
    # also where BLAS adds the overflow without a floating-point warning (the
    # reference product's ordered sums stay finite at the mailman's 1e307)
    for method, scale in (("rp_mailman", 1e307), ("rp_naive", 4e307)):
        a = np.random.default_rng(0).standard_normal((10, 64)) * scale
        dataio.write_csv(dataio.Dataset(points=a, labels=None, source="huge"), path)
        for command in (["cluster", "--k", "2"],
                        ["project", "--output", str(tmp_path / "out.csv")]):
            assert cli.main([*command, "--input", str(path), "--method", method,
                             "--t", "8"]) == 2
            assert "error: the projection overflows float64" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


def test_cluster_sign_methods_accept_one_column(tmp_path):
    ds = dataio.generate_mixture(dataio.MixtureSpec(n=20, d=1, k=2, center_scale=6.0, seed=0))
    path = tmp_path / "line.csv"
    dataio.write_csv(ds, path)
    labels = []
    for method in ("rp_mailman", "rp_naive"):
        out = tmp_path / f"{method}.json"
        assert cli.main(["cluster", "--input", str(path), "--k", "2", "--method", method,
                         "--t", "1", "--output", str(out)]) == 0
        labels.append(json.loads(out.read_text())["result"]["labels"])
    assert labels[0] == labels[1]


def test_all_zero_data_has_no_f_tilde(tmp_path):
    path = tmp_path / "zero.csv"
    dataio.write_csv(dataio.Dataset(points=np.zeros((20, 8)), labels=None, source="zero"),
                     path)
    for method in ("hd", "rp_mailman"):
        out = tmp_path / f"{method}.json"
        assert cli.main(["cluster", "--input", str(path), "--k", "2", "--method", method,
                         "--t", "4", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["result"]["f_tilde"] is None
    out = tmp_path / "sweep.csv"
    assert cli.main(["experiment", "--input", str(path), "--k", "2", "--t", "4",
                     "--output", str(out)]) == 0
    _, _, recs = read_records(out)
    assert [r["method"] for r in recs] == ["rp_mailman", "hd"]
    assert all(r["f_tilde"] == "" for r in recs)


def test_missing_k_exits_two(tmp_path):
    data = make_dataset(tmp_path)
    assert cli.main(["cluster", "--input", str(data)]) == 2


def test_oversized_t_exits_two(tmp_path):
    data = make_dataset(tmp_path)
    code = cli.main(["cluster", "--input", str(data), "--k", "4",
                     "--method", "rp_mailman", "--t", "100"])
    assert code == 2


def test_unknown_method_is_an_argparse_error(tmp_path):
    data = make_dataset(tmp_path)
    # a start is --init-indices or rows 0..k-1: cluster has no stride option;
    # the Gaussian arm and the c multiplier of t are gone
    for bad in (["--method", "downsample"], ["--init-stride", "10"],
                ["--method", "gaussian"], ["--c", "2"]):
        with pytest.raises(SystemExit) as err:
            cli.main(["cluster", "--input", str(data), "--k", "4", *bad])
        assert err.value.code == 2
    for bad in (["--method", "gaussian"], ["--method", "hd"], ["--c", "2"]):
        with pytest.raises(SystemExit) as err:
            cli.main(["project", "--input", str(data), "--k", "4",
                      "--output", str(tmp_path / "p.csv"), *bad])
        assert err.value.code == 2
    # experiment refuses an unknown method while parsing, not in its sweep
    with pytest.raises(SystemExit) as err:
        cli.main(["experiment", "--input", str(data), "--k", "4",
                  "--output", str(tmp_path / "e.csv"), "--method", "warp"])
    assert err.value.code == 2


def test_sweep_rejects_unknown_method_name():
    ds = dataio.generate_mixture(dataio.MixtureSpec(n=10, d=4, k=2, seed=0))
    from rpkmeans.kmeans import SolverSpec
    for name in ("warp", "gaussian"):
        with pytest.raises(ParameterError):
            evaluation.run_experiment_sweep(ds, 2, [2], [name], SolverSpec(), seed=0)


# sha256 of CLI outputs on one seeded `generate` CSV, read from a relative
# path so the manifest's "input" does not name the test's directory: the
# cluster JSON with every "*_ms" timing replaced by null, and the experiment
# CSV without its two timing columns.  svd is left out, since LAPACK's bits
# differ between builds; the other methods are exact by construction.
GOLDEN_CLI_DIGESTS = {
    "cluster-rp_mailman":
        "cd348ff37b8ff2a6473827702c7017a9c7bfbae83b04f13a61035303c2e7bc7a",
    "cluster-rp_naive":
        "be69060e741862b3ead68fae5f96ec957f423593e3d188430154c06dfaf2c112",
    "cluster-hd":
        "53cd8be778d3fe5ecaccc1895072d997951af51e02a7605d9c7186d66ab4cf70",
    "experiment":
        "5366a0457090d53fb4d6e96dac8b2ac9cfd22081b18f6aecd19961bf64e1b24d",
}


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["generate", "--output", "mix.csv", "--n", "90", "--d", "48",
                     "--k", "6", "--center-scale", "0.3",
                     "--noise-sigma", "0.3", "--seed", "7"]) == 0
    common = ["--input", "mix.csv", "--k", "6", "--seed", "5", "--replicates", "2"]
    outputs = {}
    for method in ("rp_mailman", "rp_naive", "hd"):
        assert cli.main(["cluster", *common, "--method", method, "--t", "12",
                         "--output", "out.json"]) == 0
        outputs[f"cluster-{method}"] = re.sub(
            rb'("\w+_ms": )[^,\n]+', rb"\1null", Path("out.json").read_bytes())
    assert cli.main(["experiment", *common, "--method", "rp_mailman", "--method", "rp_naive",
                     "--method", "hd", "--t", "6", "--t", "12", "--output", "out.csv"]) == 0
    lines = Path("out.csv").read_text().splitlines()
    outputs["experiment"] = "\n".join(
        lines[:2] + [line.rsplit(",", 2)[0] for line in lines[2:]]).encode()
    assert {name: hashlib.sha256(text).hexdigest()
            for name, text in outputs.items()} == GOLDEN_CLI_DIGESTS
