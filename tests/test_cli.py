"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.data.loader import load_database_jsonl


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "db.jsonl"
    code = main(
        [
            "generate",
            "--users", "60",
            "--venues", "150",
            "--vocabulary", "80",
            "--seed", "3",
            "-o", str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_custom_generation(self, dataset_path):
        db = load_database_jsonl(dataset_path)
        assert len(db) == 60

    def test_preset_generation(self, tmp_path, capsys):
        out = tmp_path / "la.jsonl"
        code = main(["generate", "--preset", "la", "--scale", "0.002", "-o", str(out)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert out.exists()

    def test_missing_parameters_rejected(self, tmp_path):
        code = main(["generate", "-o", str(tmp_path / "x.jsonl")])
        assert code == 2


class TestStats:
    def test_prints_table4(self, dataset_path, capsys):
        assert main(["stats", str(dataset_path)]) == 0
        out = capsys.readouterr().out
        assert "#trajectory" in out
        assert "60" in out


class TestQuery:
    def test_atsq(self, dataset_path, capsys):
        code = main(
            [
                "query", str(dataset_path),
                "--k", "3",
                "--query-points", "2",
                "--activities", "1",
                "--depth", "4",
                "--seed", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top-3 (Dmm, 1 shards/thread)" in out
        assert "work:" in out

    def test_fault_flags_apply_to_one_shard(self, dataset_path, capsys):
        """One backend for every ``--shards``: a fault policy on the whole
        index is a one-shard fan-out under that policy, not a refusal."""
        code = main(
            [
                "query", str(dataset_path),
                "--k", "3",
                "--query-points", "2",
                "--activities", "1",
                "--depth", "4",
                "--shards", "1",
                "--task-retries", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top-3 (Dmm, 1 shards/thread)" in out
        assert "#1: trajectory" in out

    def test_oatsq_with_explain(self, dataset_path, capsys):
        code = main(
            [
                "query", str(dataset_path),
                "--k", "2",
                "--query-points", "2",
                "--activities", "1",
                "--depth", "4",
                "--order-sensitive",
                "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Dmom" in out


class TestQueryBatch:
    def test_batch_serves_through_query_service(self, dataset_path, capsys):
        code = main(
            [
                "query", str(dataset_path),
                "--k", "3",
                "--query-points", "2",
                "--activities", "1",
                "--depth", "4",
                "--batch", "6",
                "--workers", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batch of 6 queries" in out
        assert "QPS" in out
        assert "cache hit rate" in out

    def test_batch_order_sensitive(self, dataset_path, capsys):
        code = main(
            [
                "query", str(dataset_path),
                "--k", "2",
                "--query-points", "2",
                "--activities", "1",
                "--depth", "4",
                "--order-sensitive",
                "--batch", "3",
                "--workers", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Dmom" in out


class TestSweep:
    def test_k_sweep(self, dataset_path, capsys):
        code = main(
            ["sweep", str(dataset_path), "--figure", "k", "--queries", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "effect of k" in out
        assert "GAT" in out and "IL" in out

    def test_bad_figure_rejected(self, dataset_path):
        with pytest.raises(SystemExit):
            main(["sweep", str(dataset_path), "--figure", "nope"])


class TestTrace:
    def test_single_query_prints_a_span_tree(self, dataset_path, capsys):
        code = main(
            [
                "trace", str(dataset_path),
                "--k", "3",
                "--query-points", "2",
                "--activities", "1",
                "--depth", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 query," in out
        # The tree renders the query root with its stage children indented.
        assert "query " in out
        for stage in ("retrieve", "validate", "score", "lower_bound"):
            assert f"  {stage}" in out

    def test_sharded_trace_dumps_validating_jsonl(
        self, dataset_path, tmp_path, capsys
    ):
        from repro.obs import read_spans_jsonl, validate_spans

        spans_path = tmp_path / "spans.jsonl"
        code = main(
            [
                "trace", str(dataset_path),
                "--k", "3",
                "--query-points", "2",
                "--activities", "1",
                "--depth", "4",
                "--batch", "2",
                "--shards", "2",
                "--replicas", "2",
                "-o", str(spans_path),
            ]
        )
        assert code == 0
        assert f"wrote" in capsys.readouterr().out
        records = validate_spans(read_spans_jsonl(spans_path))
        roots = [r for r in records if r["parent_id"] is None]
        assert len(roots) == 2 and all(r["name"] == "query" for r in roots)
        shard_tasks = [r for r in records if r["name"] == "shard_task"]
        assert len(shard_tasks) >= 4  # 2 queries x 2 shards
        for rec in shard_tasks:
            assert {"shard", "replica", "attempt", "hedge"} <= set(rec["attrs"])


class TestMetrics:
    def test_prometheus_snapshot_parses(self, dataset_path, capsys):
        from repro.obs import parse_prometheus_text

        code = main(
            [
                "metrics", str(dataset_path),
                "--k", "3",
                "--query-points", "2",
                "--activities", "1",
                "--depth", "4",
                "--batch", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        samples = parse_prometheus_text(out)
        assert samples["repro_queries_total"] == 3.0
        assert samples["repro_query_latency_seconds_count"] == 3.0
        # The per-response cache counts: a series each, hits never above
        # lookups.
        for cache in ("hicl", "apl"):
            hits = samples[f"repro_{cache}_cache_hits_total"]
            assert 0.0 <= hits <= samples[f"repro_{cache}_cache_lookups_total"]
        assert samples["repro_apl_cache_lookups_total"] > 0.0
        assert samples["repro_disk_reads_total"] > 0


class TestQueryReplicated:
    def test_single_query_on_replicated_stack(self, dataset_path, capsys):
        code = main(
            [
                "query", str(dataset_path),
                "--k", "3",
                "--query-points", "2",
                "--activities", "1",
                "--depth", "4",
                "--shards", "2",
                "--replicas", "2",
                "--executor", "serial",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 shards/serial×2 replicas" in out
        assert "work:" in out

    def test_batch_on_replicated_stack(self, dataset_path, capsys):
        code = main(
            [
                "query", str(dataset_path),
                "--k", "3",
                "--query-points", "2",
                "--activities", "1",
                "--depth", "4",
                "--batch", "4",
                "--shards", "2",
                "--replicas", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batch of 4 queries" in out
        assert "2 shards/thread×2 replicas" in out

    def test_replicas_promote_single_shard_onto_sharded_stack(
        self, dataset_path, capsys
    ):
        code = main(
            [
                "query", str(dataset_path),
                "--k", "2",
                "--query-points", "2",
                "--activities", "1",
                "--depth", "4",
                "--shards", "1",
                "--replicas", "2",
                "--executor", "serial",
            ]
        )
        assert code == 0
        assert "1 shards/serial×2 replicas" in capsys.readouterr().out

    def test_bad_replicas_rejected(self, dataset_path):
        assert main(["query", str(dataset_path), "--replicas", "0"]) == 2


class TestServingFlagValidation:
    """``query``/``trace``/``metrics``/``serve-bench`` share their serving
    flags, so they share one validation: exit 2 before the dataset load."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--shards", "0"],
            ["--replicas", "0"],
            ["--workers", "0"],
            ["--batch", "-3"],
            ["--k", "0"],
            ["--deadline-ms", "0"],
            ["--hedge-ms", "0"],
            ["--task-retries", "-1"],
        ],
        ids=lambda flags: flags[0].lstrip("-"),
    )
    @pytest.mark.parametrize("command", ["query", "trace", "metrics", "serve-bench"])
    def test_bad_flags_rejected_by_every_serving_subcommand(
        self, tmp_path, capsys, command, flags
    ):
        # The path does not exist: validation must come before the load.
        assert main([command, str(tmp_path / "never-loaded.jsonl"), *flags]) == 2
        assert flags[0] in capsys.readouterr().err

    def test_zero_retries_passes_validation(self, tmp_path):
        """``--task-retries 0`` is a real setting: it gets past validation
        to the (missing) dataset load."""
        with pytest.raises(FileNotFoundError):
            main(["query", str(tmp_path / "never-loaded.jsonl"), "--task-retries", "0"])

    def test_choices_come_from_the_library(self, capsys):
        from repro.cli import _build_parser
        from repro.shard import EXECUTOR_KINDS
        from repro.shard.router import STRATEGIES

        parser = _build_parser()
        for kind in EXECUTOR_KINDS:
            assert parser.parse_args(["query", "x.jsonl", "--executor", kind]).executor == kind
        for strategy in STRATEGIES:
            args = parser.parse_args(["query", "x.jsonl", "--shard-strategy", strategy])
            assert args.shard_strategy == strategy
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args(["query", "x.jsonl", "--shard-strategy", "range"])
        assert exit_.value.code == 2
        assert "invalid choice: 'range'" in capsys.readouterr().err


class TestServeBench:
    def test_open_loop_smoke_single_service(self, dataset_path, capsys):
        code = main(
            [
                "serve-bench", str(dataset_path),
                "--rate", "30",
                "--duration", "1.0",
                "--arrivals", "poisson",
                "--slo-ms", "400",
                "--concurrency", "4",
                "--workload", "8",
                "--k", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "open-loop poisson @ 30.0 QPS" in out
        assert "offered" in out and "goodput" in out
        # One index is a one-shard fan-out: the same backend line.
        assert "backend: retries" in out

    def test_open_loop_smoke_sharded_with_shedding(self, dataset_path, capsys):
        code = main(
            [
                "serve-bench", str(dataset_path),
                "--rate", "120",
                "--duration", "1.0",
                "--arrivals", "square",
                "--period", "0.5",
                "--slo-ms", "100",
                "--queue-capacity", "8",
                "--concurrency", "2",
                "--shards", "2",
                "--workload", "8",
                "--k", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "open-loop square @ 120.0 QPS" in out
        assert "shed=on" in out
        assert "backend: retries" in out  # sharded stack surfaces fan-out stats

    def test_bad_rate_rejected(self, dataset_path):
        assert main(["serve-bench", str(dataset_path), "--rate", "0"]) == 2
