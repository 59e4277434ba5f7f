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
from rpkmeans.kmeans import FirstOfEachGroup, SolverSpec, project_and_cluster
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
    # the same points, projection config and solver spec
    data = make_dataset(tmp_path)
    points = dataio.read_csv(data).points
    cfg = ProjectionConfig(k=4, t_override=16, seed=2)
    spec = SolverSpec(init=FirstOfEachGroup(60 // 4), replicates=2)
    out = tmp_path / "result.json"
    for method in ("rp_mailman", "rp_naive", "gaussian", "svd", "hd"):
        assert cli.main(["cluster", "--input", str(data), "--output", str(out), "--k", "4",
                         "--method", method, "--t", "16", "--replicates", "2",
                         "--seed", "2"]) == 0
        result = json.loads(out.read_text())["result"]
        run = project_and_cluster(points, 4, cfg, spec, cli.METHOD_MAP[method])
        assert result["labels"] == run.projected.assignment.labels.tolist()
        assert result["projected_objective"] == run.projected.objective
        assert result["original_objective"] == run.original_objective
        assert result["objective_trace"] == run.projected.objective_trace.tolist()
        assert result["t"] == run.t == (64 if method == "hd" else 16)
        assert min(run.projection_ms, run.clustering_ms, run.plugback_ms) >= 0.0


def test_cluster_hd_is_deterministic(tmp_path):
    data = make_dataset(tmp_path)
    outputs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        assert cli.main(["cluster", "--input", str(data), "--output", str(out),
                         "--k", "4", "--method", "hd", "--seed", "3"]) == 0
        payload = json.loads(out.read_text())
        outputs.append(payload["result"])
    assert outputs[0]["labels"] == outputs[1]["labels"]
    assert outputs[0]["f_tilde"] == outputs[1]["f_tilde"]


def test_cluster_output_independent_of_blas_threads(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    out = tmp_path / "out"
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
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run(
                [sys.executable, "-m", "rpkmeans.cli", *args, "--output", str(out)],
                env=env, capture_output=True, timeout=120, check=True)
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
    modules = _modules_after("cluster", "--input", str(data), "--k", "4", "--method",
                             "rp_mailman", "--t", "16", "--output", str(tmp_path / "r.json"))
    assert "scipy.sparse" in modules  # the multiply and the plug-back use it
    for package in ("scipy.optimize", "scipy.linalg", "scipy.spatial"):
        assert _loaded(modules, package) == []
    assert json.loads((tmp_path / "r.json").read_text())["result"]["accuracy"] is not None


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
    for bad in (["--t", "0"], ["--t", "6", "--impl", "on_the_fly"]):
        code = cli.main(["bench", "--output", str(out), "--d", "64", *bad])
        assert code == 2


def test_bench_vector_case_reports_all_impls():
    rows = cli.run_bench([1 << 10], [10], n=1, seed=0,
                         impls=("naive", "mailman"), repeats=3)
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
                ["cluster", "--c", "inf", "--method", "rp_naive"],
                ["cluster", "--c", "nan", "--method", "rp_naive"],
                ["cluster", "--epsilon", "1e-200", "--method", "rp_naive"],
                ["cluster", "--tol", "nan"], ["cluster", "--tol", "inf"],
                ["cluster", "--tol", "1"],
                ["experiment", "--c", "inf", "--output", str(out)]):
        code = cli.main([*bad, "--input", str(data), "--k", "4"])
        assert code == 2


def test_cluster_overflowing_input_exits_two(tmp_path):
    ds = dataio.generate_mixture(dataio.MixtureSpec(n=20, d=4, k=2, seed=0))
    path = tmp_path / "huge.csv"
    dataio.write_csv(dataio.Dataset(points=ds.points * 1e200, labels=ds.labels,
                                    source="huge"), path)
    assert cli.main(["cluster", "--input", str(path), "--k", "2"]) == 2


def test_all_zero_data_has_no_f_tilde(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    dataio.write_csv(dataio.Dataset(points=np.zeros((20, 8)), labels=None, source="zero"),
                     path)
    for method in ("hd", "rp_mailman"):
        out = tmp_path / f"{method}.json"
        assert cli.main(["cluster", "--input", str(path), "--k", "2", "--method", method,
                         "--t", "4", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["result"]["f_tilde"] is None
    capsys.readouterr()
    code = cli.main(["experiment", "--input", str(path), "--k", "2", "--t", "4",
                     "--output", str(tmp_path / "sweep.csv")])
    assert code == 2
    assert "sweep undefined for an all-zero dataset" in capsys.readouterr().err


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
    with pytest.raises(SystemExit) as err:
        cli.main(["cluster", "--input", str(data), "--k", "4",
                  "--method", "downsample"])
    assert err.value.code == 2


def test_sweep_rejects_unknown_method_name():
    ds = dataio.generate_mixture(dataio.MixtureSpec(n=10, d=4, k=2, seed=0))
    from rpkmeans.kmeans import SolverSpec
    with pytest.raises(ParameterError):
        cli.run_experiment_sweep(ds, 2, [2], ["warp"], SolverSpec(), seed=0)
