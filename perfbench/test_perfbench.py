"""Tests of the benchmark's own checks, tracing and metrics.

Run from the root of a checkout:  python3 -m pytest -q perfbench

Each output check gets a negative control: an output broken on purpose
that the check must reject.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rpkmeans import dataio, kmeans, mailman, projection  # noqa: E402


@pytest.fixture(scope="module")
def job():
    """A real hd-lloyd style outcome on a small mixture, plus its reference."""
    ds = dataio.generate_mixture(dataio.MixtureSpec(n=120, d=16, k=4, center_scale=3.0,
                                                    noise_sigma=1.0, seed=5))
    cfg = projection.ProjectionConfig(k=4, seed=5)
    res = kmeans.project_and_cluster(ds.points, 4, cfg, kmeans.SolverSpec(replicates=2),
                                     method="none")
    out = workloads._pipeline_outcome(res, ds.points, ds.labels, 4)
    out["bytes"] = {"out": b'{"projection_ms": 1.5, "x": 1}'}
    return out, {"reference": workloads.reference_of(out)}


def test_good_outcome_passes_every_check(job):
    out, entry = job
    assert workloads.check_outcome(entry, out) == []


def test_labels_out_of_range_fail(job):
    out, entry = job
    bad = dict(out, labels=np.where(out["labels"] == 0, 4, out["labels"]))
    assert checks.partition(bad["labels"], 4) is not None
    assert workloads.check_outcome(entry, bad)


def test_empty_cluster_fails(job):
    out, _ = job
    merged = np.where(out["labels"] == 3, 2, out["labels"])
    assert "empty" in checks.partition(merged, 4)


def test_rising_trace_fails():
    assert checks.descent([5.0, 4.0, 4.5]) is not None
    assert checks.descent([5.0, float("nan")]) is not None
    assert checks.descent([5.0, 4.0, 4.0]) is None


def test_wrong_plugback_fails(job):
    out, entry = job
    nudged = dict(out, plugback=out["plugback"] * (1 + 1e-12))
    assert checks.plugback(out["points"], out["labels"], 4, nudged["plugback"], kmeans)
    assert workloads.check_outcome(entry, nudged)


def test_permuted_labels_fail(job):
    out, entry = job
    permuted = dict(out, labels=np.random.default_rng(0).permutation(out["labels"]))
    assert checks.plugback(out["points"], permuted["labels"], 4, out["plugback"], kmeans)
    assert checks.same_partition(permuted["labels"], entry["reference"]["labels"])


def test_corrupted_byte_fails(job):
    out, entry = job
    data = bytearray(out["bytes"]["out"])
    data[-2] ^= 1
    bad = dict(out, bytes={"out": bytes(data)})
    assert workloads.check_outcome(entry, bad) == ["out bytes differ from the warm-up job"]


def test_timing_fields_are_masked():
    a = b'{"clustering_ms": 12.25, "projection_ms": 3e-05, "t": 100}'
    b = b'{"clustering_ms": 9.0, "projection_ms": 4.5, "t": 100}'
    assert checks.mask_timings(a) == checks.mask_timings(b)
    assert checks.mask_timings(a) != checks.mask_timings(a.replace(b"100", b"101"))


def test_projection_cross_check():
    plan = mailman.build_plan(64, 12, 3)
    a = np.random.default_rng(1).standard_normal((5, 64))
    dense = mailman.densify(plan, scaled=True)
    proj = mailman.project_mailman(a, plan)
    assert checks.projection_matches(proj, a @ dense) is None
    proj[2, 3] += 1e-6
    assert checks.projection_matches(proj, a @ dense) is not None


@pytest.mark.parametrize("d,t", [(64, 12), (100, 7), (10304, 27)])
def test_adds_match_the_counted_reference(d, t):
    plan = mailman.build_plan(d, t, 0)
    counted = sum(mailman.block_row_multiply_counted(b, np.zeros(d))[1] for b in plan.blocks)
    assert tracing.mailman_adds(3, plan) == 3 * counted


def test_tail_has_ten_jobs_beyond_it():
    assert metrics.tail(list(range(10)))[1] is None
    value, pct = metrics.tail([float(x) for x in range(40)])
    assert value == 29.0 and pct == 75.0
    assert sum(x > value for x in range(40)) == 10


def test_self_time_subtracts_children():
    spans = [["job", 0.0, 10.0, None, {}], ["a", 1.0, 4.0, 0, {}], ["b", 2.0, 3.0, 1, {}],
             ["c", 5.0, 9.0, 0, {}]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    unit = tracing.per_unit(spans, "job")[0]
    assert unit["a"]["ms"] == 3000.0 and unit["a"]["self_ms"] == 2000.0


def test_wrappers_fire_at_caller_bindings_and_come_off():
    import rpkmeans.cli
    import rpkmeans.projection

    originals = (kmeans.lloyd, rpkmeans.cli.lloyd, rpkmeans.projection.matmul)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        a = np.random.default_rng(2).standard_normal((30, 64))
        cfg = projection.ProjectionConfig(k=3, t_override=12, seed=1)
        with tracer.span("job"):
            kmeans.project_and_cluster(a, 3, cfg, method="sign_mailman")
            kmeans.project_and_cluster(a, 3, cfg, method="sign_naive")
    finally:
        tracer.uninstall()
    assert (kmeans.lloyd, rpkmeans.cli.lloyd, rpkmeans.projection.matmul) == originals
    fired = {s[0] for s in tracer.spans}
    assert {"mailman.build_plan", "mailman.project_mailman", "kmeans.lloyd",
            "kmeans.objective", "projection.project_naive", "matrix.matmul"} <= fired
    assert metrics.missing_spans(tracer.spans, ["kmeans.lloyd", "dataio.read_csv"]) == [
        "dataio.read_csv"]
    layer = metrics.layer_metrics(tracer.spans)
    assert layer["kmeans.lloyd.ms"][0] > 0 and layer["dataio.read_csv.ms"][0] == 0
    assert layer["mailman.project_mailman.bucket_bytes"][0] == 30 * 2 * 64 * 8  # p = 6, 2 blocks
