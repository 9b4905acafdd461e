"""The ``repro bench`` pipeline: record shape, CLI wiring, kernel parity."""

import json

import pytest

from repro.bench.runner import FAMILIES, SCALES, run_bench, write_bench
from repro.cli import main


class TestRunBench:
    def test_record_shape_and_phases(self):
        record = run_bench(
            scale="smoke",
            family_names=["win_move_line", "tie_chain"],
            load=False,
            workers=0,
        )
        assert record["schema"] == "repro-bench/1"
        assert record["scale"] == "smoke"
        assert set(record["families"]) == {"win_move_line", "tie_chain"}
        for family in record["families"].values():
            assert family["ground_s"] >= 0
            assert family["compile_s"] >= 0
            assert family["seed_ground_s"] >= 0
            assert family["ground_speedup"] is not None and family["ground_speedup"] > 0
            for kernel in ("kernel", "seed"):
                phases = family["kernels"][kernel]
                for key in ("init_s", "close_s", "unfounded_s", "tie_s", "run_s"):
                    assert phases[key] >= 0
                assert phases["is_total"] is True
            assert family["speedup"] is not None and family["speedup"] > 0
            # The engine solve's kernel-phase breakdown accompanies every
            # family and stays within the recorded solve time.
            solve_phases = family["solve_phases"]
            assert set(solve_phases) == {
                "close_s",
                "unfounded_s",
                "tie_select_s",
                "tie_apply_s",
                "tie_analysis_s",
                "result_s",
            }
            assert all(v >= 0 for v in solve_phases.values())
            assert sum(solve_phases.values()) <= family["engine_solve_s"] + 1e-6
            # The solution is id-native: nothing in the bench loop reads an
            # atom view before this snapshot, so no decode has been booked.
            assert solve_phases["result_s"] == 0.0
            # Every run differentially verifies the incremental (K, L)
            # sides cache against the full_recompute oracle.
            assert family["tie_sides_checked"] >= 0
            if family["semantics"] == "wf-tb":
                assert family["tie_sides_checked"] > 0
        summary = record["summary"]
        assert (
            summary["min_speedup"]
            <= summary["geomean_speedup"]
            <= summary["max_speedup"]
        )
        assert (
            summary["min_ground_speedup"]
            <= summary["geomean_ground_speedup"]
            <= summary["max_ground_speedup"]
        )

    def test_kernels_reach_identical_models(self):
        # _bench_family raises if the seed and compiled kernels disagree on
        # the final true set; covering every family at smoke scale makes the
        # bench a correctness gate as well as a timing harness.
        record = run_bench(scale="smoke", load=False, workers=0)
        assert set(record["families"]) == set(FAMILIES)
        for family in record["families"].values():
            assert (
                family["kernels"]["kernel"]["true_count"]
                == family["kernels"]["seed"]["true_count"]
            )

    def test_no_baseline_mode(self):
        record = run_bench(
            scale="smoke", family_names=["committee"], baseline=False, load=False, workers=0
        )
        family = record["families"]["committee"]
        assert "seed" not in family["kernels"]
        assert family["speedup"] is None
        assert family["seed_ground_s"] is None
        assert family["ground_speedup"] is None
        # No seed-kernel/grounder speedups; the serving (warm),
        # enumeration (trail-vs-clone), and result-tier (query/encode)
        # summaries are independent of the frozen baselines and survive.
        assert not any(
            k.endswith("_speedup")
            and "warm" not in k
            and "enumerate" not in k
            and "query" not in k
            and "encode" not in k
            for k in record["summary"]
        )

    def test_no_throughput_mode(self):
        record = run_bench(
            scale="smoke",
            family_names=["committee"],
            baseline=False,
            throughput=False,
            enumerate_mode=False,
            load=False,
            results_mode=False,
        )
        assert "throughput" not in record
        assert "enumerate" not in record
        assert "results" not in record
        assert record["summary"] == {}

    def test_results_mode_records_query_and_encode(self):
        record = run_bench(
            scale="smoke",
            family_names=["win_move_line", "committee"],
            baseline=False,
            throughput=False,
            enumerate_mode=False,
            updates=False,
            load=False,
        )
        assert set(record["results"]) == {"win_move_line", "committee"}
        for fam in record["results"].values():
            # Reaching here means the runner's differential checks passed:
            # id-native answers == eager-materialized answers, and the
            # streamed bytes == the buffered json.dumps bytes (it raises
            # on any divergence).
            assert 0 < fam["queried"] <= fam["atoms"]
            assert fam["ids_answers_per_s"] > 0
            assert fam["eager_answers_per_s"] > 0
            assert fam["query_speedup"] > 0
            assert fam["doc_bytes"] > 0
            assert fam["stream_mb_s"] > 0
            assert fam["buffered_mb_s"] > 0
            assert fam["encode_speedup"] > 0
        summary = record["summary"]
        assert (
            summary["min_query_speedup"]
            <= summary["geomean_query_speedup"]
            <= summary["max_query_speedup"]
        )
        assert "geomean_encode_speedup" in summary

    def test_no_results_mode(self):
        record = run_bench(
            scale="smoke",
            family_names=["committee"],
            baseline=False,
            throughput=False,
            enumerate_mode=False,
            updates=False,
            load=False,
            results_mode=False,
        )
        assert "results" not in record
        assert not any("query" in k or "encode" in k for k in record["summary"])

    def test_enumerate_mode_records_models_per_sec(self):
        record = run_bench(
            scale="smoke",
            family_names=["win_move_line", "committee"],
            baseline=False,
            throughput=False,
            load=False,
        )
        # Only tie-breaking families enumerate; wf-only families skip it.
        assert set(record["enumerate"]) == {"committee"}
        fam = record["enumerate"]["committee"]
        assert fam["models"] > 0
        assert fam["models"] <= fam["limit"]
        assert fam["trail_models_per_s"] > 0
        assert fam["clone_models_per_s"] > 0
        assert fam["enumerate_speedup"] > 0
        assert "geomean_enumerate_speedup" in record["summary"]

    def test_throughput_mode_records_serving_metrics(self):
        record = run_bench(
            scale="smoke",
            family_names=["win_move_line", "committee"],
            load=False,
            workers=0,
        )
        assert set(record["throughput"]) == {"win_move_line", "committee"}
        for fam in record["throughput"].values():
            assert fam["cold_start_s"] > 0
            assert fam["warm_start_s"] > 0
            assert fam["warm_speedup"] > 0
            assert fam["artifact_bytes"] > 0
            assert fam["requests_per_s"] > 0
            assert fam["requests"]["batch"] > 0
        summary = record["summary"]
        assert (
            summary["min_warm_speedup"]
            <= summary["geomean_warm_speedup"]
            <= summary["max_warm_speedup"]
        )

    def test_throughput_pool_segment_records_sharding(self):
        record = run_bench(
            scale="smoke",
            family_names=["win_move_line"],
            baseline=False,
            enumerate_mode=False,
            updates=False,
            load=False,
            workers=2,
        )
        pool = record["throughput"]["win_move_line"]["pool"]
        assert pool["workers"] == 2
        # One fresh pool per chunk size, every run cross-checked against
        # the inline batch before its rate is recorded.
        assert set(pool["chunk_req_s"]) == {"1", "2", "4"}
        assert all(rate > 0 for rate in pool["chunk_req_s"].values())
        assert str(pool["best_chunksize"]) in pool["chunk_req_s"]
        assert pool["shard_speedup"] > 0
        assert "geomean_shard_speedup" in record["summary"]

    def test_workers_zero_skips_pool_segment(self):
        record = run_bench(
            scale="smoke",
            family_names=["win_move_line"],
            baseline=False,
            enumerate_mode=False,
            updates=False,
            load=False,
            workers=0,
        )
        assert record["throughput"]["win_move_line"]["pool"] is None
        assert "geomean_shard_speedup" not in record["summary"]

    def test_load_mode_records_concurrent_metrics(self):
        record = run_bench(
            scale="smoke",
            family_names=["committee"],
            baseline=False,
            throughput=False,
            enumerate_mode=False,
            updates=False,
            load_concurrency=8,
            workers=2,
        )
        fam = record["load"]["committee"]
        assert fam["requests"] == 16
        assert fam["concurrency"] == 8
        assert fam["seeds"] > 0  # tie-breaking cycles distinct seeds
        for config in (fam["inline"], fam["workers"]):
            assert config["req_s"] > 0
            assert 0 <= config["p50_ms"] <= config["p99_ms"]
            # The integrity fleet must never shed: max_pending leaves
            # headroom above the client-side in-flight cap.
            assert config["shed"] == 0
            assert 1 <= config["max_depth"] <= fam["concurrency"]
        assert fam["inline"]["workers"] == 0
        assert fam["workers"]["workers"] == 2
        assert fam["load_speedup"] > 0
        assert "geomean_load_speedup" in record["summary"]
        assert record["cpus"] >= 1

    def test_unknown_scale_and_family_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            run_bench(scale="galactic")
        with pytest.raises(ReproError):
            run_bench(scale="smoke", family_names=["nope"])

    def test_tie_families_exercise_tie_phase(self):
        record = run_bench(scale="smoke", family_names=["committee"], load=False, workers=0)
        phases = record["families"]["committee"]["kernels"]["kernel"]
        assert phases["tie_choices"] > 0

    def test_unfounded_family_exercises_unfounded_phase(self):
        record = run_bench(
            scale="smoke", family_names=["unfounded_tower"], load=False, workers=0
        )
        phases = record["families"]["unfounded_tower"]["kernels"]["kernel"]
        assert phases["unfounded_iterations"] > 0


class TestBenchCli:
    def test_bench_subcommand_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--scale",
                "smoke",
                "--families",
                "win_move_line",
                "--output",
                str(out),
                "--no-load",
                "--workers",
                "0",
            ]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["families"]["win_move_line"]["speedup"] is not None
        printed = capsys.readouterr().out
        assert "win_move_line" in printed
        assert str(out) in printed

    def test_default_output_name_embeds_revision(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "bench",
                "--scale",
                "smoke",
                "--families",
                "win_move_line",
                "--no-baseline",
                "--no-load",
                "--workers",
                "0",
            ]
        )
        assert code == 0
        written = list(tmp_path.glob("BENCH_*.json"))
        assert len(written) == 1
        record = json.loads(written[0].read_text())
        assert written[0].name == f"BENCH_{record['revision']}.json"

    def test_scales_are_ordered(self):
        sizes = [SCALES[s] for s in ("smoke", "small", "medium", "large")]
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["run", "game.dl", "--backend", "python"], "--backend"),
        (["serve", "game.dl", "--batch", "requests.jsonl", "--backend", "python"], "--backend"),
        (["server", "game.dl", "--backend", "python"], "--backend"),
        (["bench", "--no-backends"], "--no-backends"),
    ],
    ids=["run", "serve", "server", "bench"],
)
def test_removed_backend_flags_are_rejected(argv, flag, capsys):
    """The kernel-backend flags are gone; argparse refuses them."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestWriteBench:
    def test_write_bench_round_trips(self, tmp_path):
        record = run_bench(
            scale="smoke", family_names=["win_move_line"], baseline=False, load=False, workers=0
        )
        path = write_bench(record, tmp_path / "out.json")
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(record)
        )
