"""Tests for the command-line interface."""

from dataclasses import fields

import numpy as np
import pytest

from repro.cli import main
from repro.data.generator import CheckInGenerator, GeneratorConfig
from repro.data.loader import load_database
from repro.data.presets import dataset_from_preset
from repro.model.trajectory import TrajectoryColumns


def assert_same_columns(a, b):
    for field in fields(TrajectoryColumns):
        name = field.name
        assert np.array_equal(
            getattr(a.columns, name), getattr(b.columns, name), equal_nan=name == "timestamps"
        ), name


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "db.npz"
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
        db = load_database(dataset_path)
        assert len(db) == 60

    def test_preset_generation(self, tmp_path, capsys):
        """``--preset`` without ``--seed`` writes the preset itself: the
        dataset the benches, the e2e run and the pins generate."""
        out = tmp_path / "la.npz"
        code = main(["generate", "--preset", "la", "--scale", "0.01", "-o", str(out)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert_same_columns(load_database(out), dataset_from_preset("la", 0.01))

    def test_custom_sizes_default_to_seed_7(self, tmp_path):
        out = tmp_path / "custom.npz"
        sizes = ["--users", "6", "--venues", "20", "--vocabulary", "10"]
        assert main(["generate", *sizes, "-o", str(out)]) == 0
        config = GeneratorConfig(n_users=6, n_venues=20, vocabulary_size=10, seed=7)
        assert_same_columns(load_database(out), CheckInGenerator(config).generate())

    def test_missing_parameters_rejected(self, tmp_path):
        code = main(["generate", "-o", str(tmp_path / "x.npz")])
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--scale", "0", "--preset", "la"],
            ["--scale", "1.5", "--preset", "la"],
            ["--scale", "-0.1", "--preset", "la"],
            ["--scale", "nan", "--preset", "la"],
            ["--users", "-3", "--venues", "150", "--vocabulary", "80"],
            ["--venues", "0", "--users", "60", "--vocabulary", "80"],
            ["--vocabulary", "0", "--users", "60", "--venues", "150"],
            ["--users", "0", "--preset", "la"],
        ],
        ids=lambda flags: f"{flags[0].lstrip('-')}={flags[1]}",
    )
    def test_bad_values_rejected_before_generating(self, tmp_path, capsys, flags):
        out = tmp_path / "x.npz"
        assert main(["generate", *flags, "-o", str(out)]) == 2
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()


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
            ["--query-points", "0"],
            ["--activities", "0"],
            ["--depth", "0"],
            ["--executor", "serial", "--workers", "2"],
        ],
        ids=lambda flags: flags[0].lstrip("-"),
    )
    @pytest.mark.parametrize("command", ["query", "trace", "metrics", "serve-bench"])
    def test_bad_flags_rejected_by_every_serving_subcommand(
        self, tmp_path, capsys, command, flags
    ):
        # The path does not exist: validation must come before the load.
        assert main([command, str(tmp_path / "never-loaded.npz"), *flags]) == 2
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("trace", ["--max-spans", "-1"]),
            ("trace", ["--max-spans", "0"]),
            ("serve-bench", ["--slo-ms", "0"]),
            ("serve-bench", ["--slo-ms", "-5", "--deadline-ms", "100"]),
            ("serve-bench", ["--queue-capacity", "0"]),
            ("serve-bench", ["--concurrency", "0"]),
            ("serve-bench", ["--shed-headroom", "0"]),
            ("serve-bench", ["--arrivals", "square", "--period", "0"]),
            ("serve-bench", ["--rate", "0"]),
            ("serve-bench", ["--duration", "-1"]),
            ("serve-bench", ["--workload", "0"]),
        ],
        ids=lambda value: value if isinstance(value, str) else "_".join(value),
    )
    def test_subcommand_flags_rejected_before_the_load(self, tmp_path, capsys, command, flags):
        """Flags only one serving subcommand reads are checked before the
        load too: exit 2 naming the flag, never a traceback after the
        index build."""
        assert main([command, str(tmp_path / "never-loaded.npz"), *flags]) == 2
        bad = flags[-2] if flags[0] == "--arrivals" else flags[0]
        assert bad in capsys.readouterr().err

    def test_sweep_rejects_zero_queries(self, tmp_path, capsys):
        """A sweep of no queries has nothing to time: exit 2 before the
        load instead of printing a table of zeros."""
        assert main(["sweep", str(tmp_path / "never-loaded.npz"), "--queries", "0"]) == 2
        assert "--queries" in capsys.readouterr().err

    def test_zero_retries_passes_validation(self, tmp_path, capsys):
        """``--task-retries 0`` is a real setting: it gets past validation
        to the (missing) dataset load."""
        path = tmp_path / "never-loaded.npz"
        assert main(["query", str(path), "--task-retries", "0"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "--task-retries" not in err

    def test_choices_come_from_the_library(self, capsys):
        from repro.cli import _build_parser
        from repro.shard import EXECUTOR_KINDS
        from repro.shard.router import STRATEGIES

        parser = _build_parser()
        for kind in EXECUTOR_KINDS:
            assert parser.parse_args(["query", "x.npz", "--executor", kind]).executor == kind
        for strategy in STRATEGIES:
            args = parser.parse_args(["query", "x.npz", "--shard-strategy", strategy])
            assert args.shard_strategy == strategy
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args(["query", "x.npz", "--shard-strategy", "range"])
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

    def test_query_shape_flags_reach_the_requests(self, dataset_path, monkeypatch, capsys):
        """``--order-sensitive``, ``--query-points``, ``--activities`` and
        ``--k`` shape every request the open loop submits."""
        import repro.cli as cli

        submitted = []

        def recording(frontend, requests, *args, **kwargs):
            submitted.extend(requests)
            return run_open_loop(frontend, requests, *args, **kwargs)

        run_open_loop = cli.run_open_loop
        monkeypatch.setattr(cli, "run_open_loop", recording)
        code = main(
            [
                "serve-bench", str(dataset_path),
                "--rate", "20",
                "--duration", "0.3",
                "--workload", "3",
                "--k", "2",
                "--query-points", "2",
                "--activities", "1",
                "--order-sensitive",
                "--depth", "4",
            ]
        )
        assert code == 0
        assert len(submitted) == 3
        for request in submitted:
            assert request.order_sensitive and request.k == 2
            assert [len(q.activities) for q in request.query] == [1, 1]

    def test_bad_workload_rejected(self, tmp_path):
        assert main(["serve-bench", str(tmp_path / "never-loaded.npz"), "--workload", "0"]) == 2

    def test_bad_rate_rejected(self, dataset_path):
        assert main(["serve-bench", str(dataset_path), "--rate", "0"]) == 2


def _not_an_npz(path):
    path.write_text("not an image\n")


def _invalid_image(path):
    db = dataset_from_preset("la", 0.002)
    arrays = {field.name: getattr(db.columns, field.name) for field in fields(TrajectoryColumns)}
    np.savez(path, **arrays, vocabulary=np.array(["only"]), name=np.array("bad"))


@pytest.mark.parametrize(
    "command, flags",
    [("stats", []), ("query", ["--depth", "4"]), ("sweep", ["--queries", "1"])],
    ids=["stats", "query", "sweep"],
)
@pytest.mark.parametrize(
    "make", [None, _not_an_npz, _invalid_image], ids=["missing", "not-npz", "invalid"]
)
def test_unreadable_dataset_is_one_stderr_line(tmp_path, capsys, command, flags, make):
    """A dataset that cannot be loaded exits 2 with one line naming it,
    as a bad flag does — never a traceback."""
    path = tmp_path / "db.npz"
    if make is not None:
        make(path)
    assert main([command, str(path), *flags]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert len(err.splitlines()) == 1 and str(path) in err
