"""Tests for the command-line interface."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        from repro.experiments.cli import _study_from_args

        args = build_parser().parse_args(["figure1"])
        spec = _study_from_args(args)
        assert spec.context.seed == 0
        assert spec.context.n_samples is None
        assert spec.grid.fraction == 0.2

    def test_table1_n_radii(self):
        from repro.experiments.cli import _study_from_args

        args = build_parser().parse_args(["table1", "--set", "n_radii=2,4"])
        assert _study_from_args(args).solver_param("n_radii") == (2, 4)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])


class TestAliases:
    """The named experiment commands are ``repro run <name>``."""

    SMALL = ["--set", "context=synthetic", "--set", "n_samples=300"]

    @pytest.mark.parametrize("name", ["figure1", "table1", "empirical-game",
                                      "cross-game"])
    def test_alias_parses_as_run(self, name):
        from repro.experiments.cli import _COMMANDS, _study_from_args, cmd_run

        alias = build_parser().parse_args([name] + self.SMALL)
        run = build_parser().parse_args(["run", name] + self.SMALL)
        assert _COMMANDS[name] is cmd_run
        assert _study_from_args(alias) == _study_from_args(run)
        assert {k: v for k, v in vars(alias).items() if k != "command"} == \
            {k: v for k, v in vars(run).items() if k != "command"}

    def test_alias_prints_what_run_prints(self, capsys):
        assert main(["figure1"] + self.SMALL) == 0
        alias = capsys.readouterr().out
        assert main(["run", "figure1"] + self.SMALL) == 0
        run = capsys.readouterr().out
        # The payload table is identical; the provenance footer and the
        # engine stats follow it in both (their timings differ).
        alias_payload, _, alias_rest = alias.partition("Provenance")
        run_payload, _, run_rest = run.partition("Provenance")
        assert "Figure 1" in alias_payload
        assert alias_payload == run_payload
        assert "Engine stats" in alias_rest and "Engine stats" in run_rest

    def test_bare_cross_game_keeps_its_strategy_sets(self):
        from repro.experiments.cli import _study_from_args
        from repro.study import studies

        spec = _study_from_args(build_parser().parse_args(["cross-game"]))
        explicit = studies.cross_game(
            defenses=("radius:0.1", "slab_filter:0.1", "loss_filter:0.1"),
            attacks=("boundary:0.05", "label-flip", "random-noise:0.05"))
        assert spec.fingerprint() == explicit.fingerprint()

    @pytest.mark.parametrize("argv", [
        ["paper-table1", "--seed", "3", "--backend", "cluster",
         "--json", "out.json"],
        ["proposition1", "--n-samples", "300", "--json", "out.json"],
        ["figure1", "--n-samples", "300"],
        ["cross-game", "--defenses", "radius:0.1"],
    ])
    def test_removed_flags_refused(self, argv, tmp_path, monkeypatch,
                                   capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


class TestCommands:
    def test_figure1_runs_and_archives(self, capsys, tmp_path):
        out_path = str(tmp_path / "sweep.json")
        code = main(["figure1", "--set", "n_samples=400", "--out", out_path])
        assert code == 0
        captured = capsys.readouterr().out
        assert "Figure 1" in captured
        from repro.study import study_result_from_json
        restored = study_result_from_json(out_path).payload_object()
        assert restored.poison_fraction == 0.2

    def test_paper_table1_runs(self, capsys):
        code = main(["paper-table1"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "n=2 (paper)" in captured
        assert "51.2%" in captured

    def test_proposition1_runs(self, capsys):
        code = main(["proposition1", "--set", "n_samples=400"])
        assert code == 0
        assert "pure NE exists" in capsys.readouterr().out

    def test_proposition1_needs_one_fraction(self):
        with pytest.raises(SystemExit, match="one poison fraction"):
            main(["proposition1", "--set", "fractions=0.1,0.2"])

    def test_commands_print_engine_stats(self, capsys):
        main(["figure1", "--set", "n_samples=300"])
        out = capsys.readouterr().out
        assert "Engine stats" in out
        assert "cache hits" in out


class TestCrossGame:
    """The cross-family game end to end through the CLI."""

    ARGS = ["cross-game", "--set", "n_samples=300",
            "--set", "defenses=radius:0.1;slab_filter:0.1;"
                     "loss_filter:0.1:n_rounds=1",
            "--set", "attacks=boundary:0.05;label-flip;clean"]

    def test_runs_and_reports(self, capsys):
        code = main(self.ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "Cross-family empirical game" in out
        assert "slab_filter@10.0%" in out
        assert "game value (accuracy):" in out
        assert "Engine stats" in out

    def test_serial_and_process_identical(self, tmp_path, capsys):
        from repro.study import study_result_from_json

        serial_path = str(tmp_path / "serial.json")
        process_path = str(tmp_path / "process.json")
        assert main(self.ARGS + ["--out", serial_path]) == 0
        assert main(self.ARGS + ["--backend", "process", "--jobs", "2",
                                 "--out", process_path]) == 0
        capsys.readouterr()
        serial = study_result_from_json(serial_path)
        process = study_result_from_json(process_path)
        assert serial.payload == process.payload
        assert serial.scenarios == process.scenarios
        assert serial.payload["type"] == "CrossGameResult"
        assert len(serial.payload["data"]["defense_labels"]) == 3

    def test_victim_flag(self, capsys):
        code = main(["cross-game", "--set", "n_samples=300",
                     "--set", "defenses=radius:0.1;percentile_filter:0.1",
                     "--set", "attacks=boundary:0.05",
                     "--set", "victim=logistic"])
        assert code == 0
        assert "victim model:              logistic" in capsys.readouterr().out

    def test_bad_specs_rejected(self):
        with pytest.raises(SystemExit, match="unknown defense kind"):
            main(["cross-game", "--set", "defenses=fortress:0.1",
                  "--set", "attacks=boundary:0.05"])
        with pytest.raises(SystemExit, match="unknown attack kind"):
            main(["cross-game", "--set", "defenses=radius:0.1",
                  "--set", "attacks=warp"])
        with pytest.raises(SystemExit, match="unknown victim kind"):
            main(["cross-game", "--set", "defenses=radius:0.1",
                  "--set", "attacks=boundary:0.05", "--set", "victim=oracle"])
        with pytest.raises(SystemExit, match="not a number"):
            main(["cross-game", "--set", "defenses=radius:lots",
                  "--set", "attacks=boundary:0.05"])


class TestProgressAndCluster:
    """The streaming progress path and the cluster backend flags."""

    def test_progress_streams_round_counts(self, capsys):
        # --progress forces the engine through evaluate_stream's
        # machinery even when stderr is not a terminal.
        code = main(["figure1", "--set", "n_samples=300", "--progress"])
        assert code == 0
        captured = capsys.readouterr()
        assert "figure1: round" in captured.err
        # the final redraw counts every spec of the sweep batch
        assert "round 26/26" in captured.err
        assert "Figure 1" in captured.out

    def test_no_progress_keeps_stderr_clean(self, capsys):
        code = main(["figure1", "--set", "n_samples=300", "--no-progress"])
        assert code == 0
        assert "round" not in capsys.readouterr().err

    def test_progress_results_identical_to_plain(self, tmp_path, capsys):
        plain_path = str(tmp_path / "plain.json")
        streamed_path = str(tmp_path / "streamed.json")
        assert main(["figure1", "--set", "n_samples=300",
                     "--no-progress", "--out", plain_path]) == 0
        assert main(["figure1", "--set", "n_samples=300",
                     "--progress", "--out", streamed_path]) == 0
        capsys.readouterr()
        from repro.study import study_result_from_json

        plain = study_result_from_json(plain_path)
        streamed = study_result_from_json(streamed_path)
        assert plain.payload == streamed.payload
        assert plain.scenarios == streamed.scenarios

    def test_cluster_flags_parse(self):
        args = build_parser().parse_args(
            ["figure1", "--backend", "cluster",
             "--shards", "hostA:7781,hostB:7781"])
        assert args.backend == "cluster"
        assert args.shards == "hostA:7781,hostB:7781"

    def test_repro_cluster_serve_parser(self):
        args = build_parser().parse_args(
            ["repro-cluster", "serve", "--context", "synthetic",
             "--port", "7781", "--jobs", "2"])
        assert args.action == "serve"
        assert args.context == "synthetic"
        assert args.port == 7781

    def test_bad_shards_rejected(self):
        with pytest.raises(SystemExit, match="host:port"):
            main(["figure1", "--set", "n_samples=300",
                  "--backend", "cluster", "--shards", "nonsense"])
