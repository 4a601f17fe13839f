"""Tests for the command-line interface (end-to-end session)."""

import pickle
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    """Run generate -> train once; later tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    corpus_path = str(root / "corpus.jsonl")
    model_path = str(root / "verifier.pkl")
    assert (
        main(
            [
                "generate",
                "--legit", "6",
                "--illegit", "44",
                "--seed", "3",
                "-o", corpus_path,
            ]
        )
        == 0
    )
    assert main(["train", corpus_path, "-o", model_path]) == 0
    return corpus_path, model_path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in (
            "generate", "train", "verify", "rank", "serve", "experiments",
        ):
            args = parser.parse_args(
                {
                    "generate": ["generate", "-o", "x"],
                    "train": ["train", "c", "-o", "m"],
                    "verify": ["verify", "m", "c"],
                    "rank": ["rank", "m", "c"],
                    "serve": ["serve", "m", "c"],
                    "experiments": ["experiments"],
                }[command]
            )
            assert args.command == command

    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "m.pkl", "c.jsonl",
                "--host", "0.0.0.0",
                "--port", "0",
                "--tier-config", "tiers.json",
                "--cache-dir", "/tmp/cache",
                "--jobs", "4",
                "--max-queue", "9",
                "--check",
            ]
        )
        assert args.host == "0.0.0.0"
        assert args.port == 0
        assert args.tier_config == "tiers.json"
        assert args.cache_dir == "/tmp/cache"
        assert args.jobs == 4
        assert args.max_queue == 9
        assert args.check is True


class TestCommands:
    def test_generate_writes_corpus(self, cli_artifacts):
        corpus_path, _ = cli_artifacts
        from repro.io import import_corpus

        corpus = import_corpus(corpus_path)
        assert len(corpus) == 50
        assert corpus.labels.sum() == 6

    def test_train_writes_model(self, cli_artifacts):
        _, model_path = cli_artifacts
        from repro.io import load_model

        verifier = load_model(model_path)
        assert verifier.is_fitted

    def test_verify_prints_table(self, cli_artifacts, capsys):
        corpus_path, model_path = cli_artifacts
        assert main(["verify", model_path, corpus_path, "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "pharmacies verified" in out

    def test_rank_prints_pairord(self, cli_artifacts, capsys):
        corpus_path, model_path = cli_artifacts
        assert main(["rank", model_path, corpus_path, "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "pairwise orderedness" in out

    def test_serve_check_binds_and_drains(self, cli_artifacts, capsys, tmp_path):
        corpus_path, model_path = cli_artifacts
        cache_dir = str(tmp_path / "verdicts")
        assert (
            main(
                [
                    "serve", model_path, corpus_path,
                    "--port", "0",
                    "--cache-dir", cache_dir,
                    "--jobs", "2",
                    "--check",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "serving 50 pharmacies" in out
        assert "drained cleanly" in out

    def test_serve_rejects_bad_tier_config(
        self, cli_artifacts, tmp_path, capsys
    ):
        corpus_path, model_path = cli_artifacts
        bad = tmp_path / "tiers.json"
        bad.write_text('{"nope": 1}')
        status = main(
            [
                "serve", model_path, corpus_path,
                "--port", "0",
                "--tier-config", str(bad),
                "--check",
            ]
        )
        assert status == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("repro: error: ")

    def test_experiments_delegates(self, capsys):
        assert main(["experiments", "figure3", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "FIGURE3" in out


class TestShardedCommands:
    """generate --shards writes a directory verify/rank/serve can read."""

    @pytest.fixture(scope="class")
    def sharded_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-shards")
        out = str(root / "corpus")
        assert (
            main(
                [
                    "generate",
                    "--legit", "6",
                    "--illegit", "44",
                    "--seed", "3",
                    "--shards", "4",
                    "-o", out,
                ]
            )
            == 0
        )
        return out

    def test_generate_writes_manifest_and_shards(self, sharded_dir, capsys):
        from pathlib import Path

        root = Path(sharded_dir)
        assert (root / "manifest.json").is_file()
        assert len(list(root.glob("shard-*.jsonl"))) == 4

    def test_verify_reads_sharded_dir(self, cli_artifacts, sharded_dir, capsys):
        _, model_path = cli_artifacts
        assert main(["verify", model_path, sharded_dir, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "50 pharmacies verified" in out

    def test_rank_reads_sharded_dir(self, cli_artifacts, sharded_dir, capsys):
        _, model_path = cli_artifacts
        assert main(["rank", model_path, sharded_dir, "--top", "3"]) == 0
        assert "pairwise orderedness" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["verify", "rank"])
    def test_sharded_pass_parses_each_shard_once(
        self, cli_artifacts, sharded_dir, monkeypatch, capsys, command
    ):
        from repro.data.sharding import ShardedCorpus

        parsed = []
        parse = ShardedCorpus._parse_shard

        def counting(self, shard_index):
            parsed.append(shard_index)
            return parse(self, shard_index)

        monkeypatch.setattr(ShardedCorpus, "_parse_shard", counting)
        _, model_path = cli_artifacts
        assert main([command, model_path, sharded_dir]) == 0
        # Four shards against the reader's 2-shard LRU: rank reads the
        # labels after the pass, from the labels kept at parse time.
        assert sorted(parsed) == [0, 1, 2, 3]

    @pytest.mark.parametrize("command", ["verify", "rank"])
    def test_sharded_pass_builds_no_objects(
        self, cli_artifacts, sharded_dir, monkeypatch, capsys, command
    ):
        from repro.io import SiteRow

        def unexpected(self):
            raise AssertionError("object built on the row path")

        monkeypatch.setattr(SiteRow, "to_site", unexpected)
        monkeypatch.setattr(SiteRow, "to_record", unexpected)
        _, model_path = cli_artifacts
        assert main([command, model_path, sharded_dir]) == 0

    def test_serve_check_on_sharded_dir(self, cli_artifacts, sharded_dir, capsys):
        _, model_path = cli_artifacts
        assert (
            main(
                [
                    "serve", model_path, sharded_dir,
                    "--port", "0",
                    "--check",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "serving 50 pharmacies" in out

    def test_train_on_sharded_dir_is_one_line(self, sharded_dir, tmp_path, capsys):
        model_path = str(tmp_path / "m.pkl")
        assert main(["train", "-o", model_path, sharded_dir]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro: error: cannot read corpus file {sharded_dir}")
        assert ".jsonl" in line
        assert captured.out == ""


class TestErrors:
    """A library error ends a command with one stderr line, no traceback."""

    @pytest.fixture()
    def bad_models(self, tmp_path):
        corrupt = tmp_path / "corrupt.pkl"
        corrupt.write_bytes(b"not a pickle")
        version1 = tmp_path / "version1.pkl"
        version1.write_bytes(
            pickle.dumps(
                {"magic": "repro-model", "format_version": 1, "model": None}
            )
        )
        return {
            "missing": tmp_path / "missing.pkl",
            "corrupt": corrupt,
            "version1": version1,
        }

    @pytest.mark.parametrize("command", ["verify", "rank"])
    @pytest.mark.parametrize(
        "kind,message",
        [
            ("missing", "no such model file"),
            ("corrupt", "corrupt model file"),
            ("version1", "model format version 1 != supported 2"),
        ],
    )
    def test_bad_model_is_one_line(
        self, cli_artifacts, bad_models, capsys, command, kind, message
    ):
        corpus_path, _ = cli_artifacts
        assert main([command, str(bad_models[kind]), corpus_path]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: error: ")
        assert message in line
        assert captured.out == ""

    def test_missing_model_prints_no_traceback(self, bad_models):
        missing = str(bad_models["missing"])
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "verify", missing, "corpus"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines() == [
            f"repro: error: no such model file: {missing}"
        ]
