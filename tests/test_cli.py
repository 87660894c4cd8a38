"""CLI tests — each subcommand through ``repro.cli.main``."""

from __future__ import annotations

import csv

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["conquer"])


class TestSolve:
    def test_prints_candidates_and_realized(self, capsys):
        assert main(["solve", "--p", "0.8", "--m", "30"]) == 0
        out = capsys.readouterr().out
        assert "(X,Y)" in out
        assert "ESS" in out
        assert "Euler dynamics reach" in out

    def test_custom_constants(self, capsys):
        assert main(
            ["solve", "--p", "0.5", "--m", "5", "--ra", "100", "--k1", "10",
             "--k2", "2"]
        ) == 0

    def test_invalid_p_reports_error(self, capsys):
        assert main(["solve", "--p", "1.5", "--m", "5"]) == 2
        assert "error:" in capsys.readouterr().err


class TestOptimize:
    def test_prints_optimum(self, capsys):
        assert main(["optimize", "--p", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "optimal m          : 13" in out
        assert "naive cost" in out

    def test_full_sweep_table(self, capsys):
        assert main(["optimize", "--p", "0.8", "--full"]) == 0
        out = capsys.readouterr().out
        assert "<-- optimal" in out

    def test_paper_selection(self, capsys):
        assert main(["optimize", "--p", "0.8", "--selection", "paper"]) == 0
        assert "(paper)" in capsys.readouterr().out


class TestEngineFlags:
    def test_jobs_flag_parsed(self):
        args = build_parser().parse_args(
            ["simulate", "--seeds", "2", "--jobs", "4"]
        )
        assert args.jobs == 4
        assert args.no_cache is False

    def test_jobs_defaults_to_serial(self):
        for command in (
            ["simulate"],
            ["figures"],
            ["sensitivity", "--p", "0.8"],
        ):
            args = build_parser().parse_args(command)
            assert args.jobs is None
            assert args.no_cache is False

    def test_no_cache_flag_parsed(self):
        args = build_parser().parse_args(["figures", "--no-cache"])
        assert args.no_cache is True

    def test_jobs_requires_a_value(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--jobs"])

    def test_flags_not_available_on_analytic_commands(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--p", "0.8", "--m", "3",
                                       "--jobs", "2"])

    def test_simulate_with_jobs_matches_serial(self, capsys):
        argv = ["simulate", "--protocol", "dap", "--p", "0.7", "--buffers", "4",
                "--intervals", "15", "--receivers", "2", "--seeds", "2"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_simulate_no_cache_runs(self, capsys):
        assert main(
            ["simulate", "--intervals", "10", "--receivers", "1",
             "--seeds", "1", "--no-cache"]
        ) == 0


class TestSimulate:
    def test_reports_rates(self, capsys):
        code = main(
            ["simulate", "--protocol", "dap", "--p", "0.7", "--buffers", "4",
             "--intervals", "20", "--receivers", "2", "--seeds", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "authentication rate" in out
        assert "forged accepted     : 0" in out

    def test_clean_run(self, capsys):
        code = main(
            ["simulate", "--intervals", "10", "--receivers", "1", "--seeds", "1"]
        )
        assert code == 0


class TestEngineChoice:
    SIM_ARGS = ["simulate", "--protocol", "dap", "--p", "0.5", "--buffers", "4",
                "--intervals", "15", "--receivers", "3", "--seeds", "2"]

    def test_engine_defaults(self):
        # simulate defaults to None so --scenario can supply the
        # descriptor's engine; the effective fallback is still des.
        assert build_parser().parse_args(["simulate"]).engine is None
        assert build_parser().parse_args(["loadtest"]).engine == "des"

    def test_unknown_engine_rejected_at_parse_time(self):
        for command in (["simulate"], ["loadtest"]):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(command + ["--engine", "quantum"])
            assert excinfo.value.code == 2

    def test_simulate_vectorized_matches_des(self, capsys):
        assert main(self.SIM_ARGS + ["--engine", "des"]) == 0
        des_out = capsys.readouterr().out
        assert main(self.SIM_ARGS + ["--engine", "vectorized"]) == 0
        vectorized_out = capsys.readouterr().out
        assert vectorized_out == des_out

    def test_loadtest_vectorized_matches_des_tallies(self, capsys):
        import json

        argv = ["loadtest", "--receivers", "2", "--intervals", "12",
                "--interval-duration", "0.1", "--p", "0.5", "--seed", "3"]
        assert main(argv) == 0
        des = json.loads(capsys.readouterr().out)
        assert main(argv + ["--engine", "vectorized"]) == 0
        vectorized = json.loads(capsys.readouterr().out)
        for field in ("authentication_rate", "attack_success_rate",
                      "forged_accepted", "peak_buffer_bits", "sent_authentic"):
            assert vectorized[field] == des[field], field
        # Transport artifacts have no in-memory equivalent.
        assert vectorized["datagrams_delivered"] == 0

    def test_loadtest_vectorized_rejects_proxy_only_faults(self, capsys):
        assert main(
            ["loadtest", "--engine", "vectorized", "--jitter", "0.01"]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestFigures:
    def test_writes_all_csvs(self, tmp_path, capsys):
        code = main(
            ["figures", "--out", str(tmp_path), "--points", "8", "--no-plots"]
        )
        assert code == 0
        for name in (
            "fig5_bandwidth.csv",
            "fig6_regimes.csv",
            "fig7_optimal_m.csv",
            "fig8_costs.csv",
        ):
            assert (tmp_path / name).exists(), name

    def test_fig8_csv_content(self, tmp_path):
        main(["figures", "--out", str(tmp_path), "--points", "8", "--no-plots"])
        with (tmp_path / "fig8_costs.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 8
        for row in rows:
            assert float(row["game_cost"]) <= float(row["naive_cost"]) + 1e-6

    def test_plots_printed(self, tmp_path, capsys):
        main(["figures", "--out", str(tmp_path), "--points", "8"])
        out = capsys.readouterr().out
        assert "Fig. 7" in out
        assert "Fig. 8" in out
        assert "Fig. 6 regimes" in out


class TestSensitivity:
    def test_prints_all_constants(self, capsys):
        assert main(["sensitivity", "--p", "0.8"]) == 0
        out = capsys.readouterr().out
        for field in ("ra", "k1", "k2"):
            assert field in out


class TestBoundaries:
    def test_prints_band_edges(self, capsys):
        assert main(["boundaries", "--p", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "11.32" in out
        assert "54.35" in out
        assert "m=30:(X,Y)" in out

    def test_degenerate_p_reports_error(self, capsys):
        assert main(["boundaries", "--p", "1.0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestPortrait:
    def test_prints_portrait(self, capsys):
        assert main(["portrait", "--p", "0.8", "--m", "30", "--grid", "11"]) == 0
        out = capsys.readouterr().out
        assert "@" in out
        assert "rest points" in out


class TestLoadtest:
    ARGS = [
        "loadtest", "--transport", "loopback", "--receivers", "2",
        "--intervals", "12", "--interval-duration", "0.1",
        "--p", "0.5", "--seed", "3",
    ]

    def test_emits_json_report(self, capsys):
        import json

        assert main(self.ARGS) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["transport"] == "loopback"
        assert report["packets_per_second"] > 0
        assert report["latency_p99_us"] >= report["latency_p50_us"] > 0
        assert report["forged_accepted"] == 0

    def test_rejects_jobs_below_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--jobs", "0"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_rejects_non_integer_jobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--jobs", "2.5"])
        assert excinfo.value.code == 2
        assert "expected an integer" in capsys.readouterr().err

    def test_rejects_non_integer_rate(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--rate", "10.5"])
        assert excinfo.value.code == 2
        assert "expected an integer" in capsys.readouterr().err

    def test_rejects_negative_rate(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--rate", "-5"])
        assert excinfo.value.code == 2

    def test_rejects_bad_transport(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadtest", "--transport", "pigeon"])

    def test_config_errors_reported_cleanly(self, capsys):
        # shards > receivers is a library-level ConfigurationError
        assert main(self.ARGS + ["--shards", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parallel_jobs_accepted(self, capsys):
        import json

        assert main(self.ARGS + ["--shards", "2", "--jobs", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["shards"] == 2


class TestServeAttackParsing:
    def test_serve_requires_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_attack_requires_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack"])

    def test_attack_rejects_fractional_rate(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["attack", "--port", "9000", "--rate", "99.5"]
            )
        assert excinfo.value.code == 2

    def test_serve_rejects_port_zero(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--port", "0"])

    def test_attack_runs_against_closed_port(self, capsys):
        assert main([
            "attack", "--port", "45998", "--rate", "40",
            "--duration", "0.25", "--interval-duration", "0.5",
        ]) == 0
        assert "injected 10 forged announcements" in capsys.readouterr().out


class TestProfile:
    def test_emits_json_report_with_nonzero_counters(self, capsys):
        import json

        assert main(["profile", "--preset", "fig5", "--top", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counters"]["crypto.hash"] > 0
        assert report["counters"]["crypto.mac"] > 0
        assert report["counters"]["sim.events"] > 0
        assert report["label"].startswith("scenario:fig5")
        assert len(report["hotspots"]) <= 5

    def test_writes_report_to_out(self, capsys, tmp_path):
        import json

        out = tmp_path / "perf" / "report.json"
        assert main(["profile", "--preset", "smoke", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["counters"]["crypto.hash"] > 0

    def test_repeat_scales_counters(self, capsys):
        import json

        assert main(["profile", "--preset", "smoke"]) == 0
        once = json.loads(capsys.readouterr().out)["counters"]["crypto.hash"]
        assert main(["profile", "--preset", "smoke", "--repeat", "2"]) == 0
        twice = json.loads(capsys.readouterr().out)["counters"]["crypto.hash"]
        assert twice == 2 * once

    def test_rejects_bad_inputs_at_parse_time(self, capsys):
        for argv in (
            ["profile", "--repeat", "0"],
            ["profile", "--repeat", "-2"],
            ["profile", "--top", "0"],
            ["profile", "--interval-duration", "-1.0"],
            ["profile", "--interval-duration", "0"],
            ["profile", "--interval-duration", "nope"],
            ["profile", "--preset", "no-such-preset"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
            capsys.readouterr()


class TestBench:
    def test_writes_json_and_summary(self, capsys, tmp_path):
        import json

        path = tmp_path / "BENCH_crypto.json"
        assert main(
            ["bench", "--json", str(path), "--preset", "smoke", "--repeat", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "keychain flood walks" in out
        assert f"wrote {path}" in out
        document = json.loads(path.read_text())
        assert document["results"]["keychain_walks"]["speedup"] >= 2.0
        assert document["results"]["scenario"]["counters"]["crypto.hash"] > 0

    def test_rejects_bad_inputs_at_parse_time(self, capsys):
        for argv in (
            ["bench", "--repeat", "0"],
            ["bench", "--repeat", "1.5"],
            ["bench", "--preset", "huge"],
            ["bench", "--suite", "cooking"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
            capsys.readouterr()

    def test_sim_suite_writes_parity_checked_speedups(self, capsys, tmp_path):
        import json

        path = tmp_path / "BENCH_sim.json"
        assert main(
            ["bench", "--suite", "sim", "--json", str(path),
             "--preset", "smoke", "--repeat", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "fleet_dap" in out
        document = json.loads(path.read_text())
        assert document["suite"] == "sim"
        for section in document["results"].values():
            assert section["identical_summaries"] is True
            assert section["speedup"] > 1.0

    def test_suite_defaults_json_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["bench", "--suite", "sim", "--preset", "smoke", "--repeat", "1"]
        ) == 0
        assert (tmp_path / "BENCH_sim.json").exists()
        capsys.readouterr()


class TestDurationValidation:
    def test_loadtest_rejects_nonpositive_interval_duration(self, capsys):
        for bad in ("0", "-0.5", "inf"):
            with pytest.raises(SystemExit) as excinfo:
                main(["loadtest", "--interval-duration", bad])
            assert excinfo.value.code == 2, bad
            capsys.readouterr()

    def test_attack_rejects_negative_duration(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["attack", "--port", "45998", "--duration", "-1"])
        assert excinfo.value.code == 2
        assert "positive finite" in capsys.readouterr().err


class TestLint:
    def test_lint_src_is_clean(self, clean_lint_tree, capsys):
        assert main(["lint", str(clean_lint_tree)]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_lint_reports_violations_with_exit_one(self, tmp_path, capsys):
        tree = tmp_path / "repro" / "sim"
        tree.mkdir(parents=True)
        (tree / "dirty.py").write_text(
            "import random\n\n\ndef f():\n    return random.random()\n"
        )
        assert main(["lint", str(tmp_path)]) == 1
        assert "RPL002" in capsys.readouterr().out

    def test_lint_json_format(self, tmp_path, capsys):
        import json

        (tmp_path / "empty.py").write_text("VALUE = 1\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["violations"] == []

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        codes = [line.split()[0] for line in out.splitlines()]
        assert codes == [
            "RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006",
            "RPL009", "RPL010", "RPL011", "RPL012",
        ]

    def test_lint_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err


class TestScenariosSubcommand:
    def test_list_renders_catalog_table(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "scenario catalog" in out
        assert "fig5-t2" in out
        assert "remote-id-t2" in out

    def test_list_filters(self, capsys):
        assert main(["scenarios", "list", "--family", "remote-id"]) == 0
        out = capsys.readouterr().out
        assert "remote-id-t2" in out
        assert "fig5-t2" not in out
        assert main(["scenarios", "list", "--tier", "T3"]) == 0
        out = capsys.readouterr().out
        assert "fig6-evolution-t3" in out
        assert "smoke-t2" not in out

    def test_describe_prints_full_config(self, capsys):
        assert main(["scenarios", "describe", "fig5-t2"]) == 0
        out = capsys.readouterr().out
        assert "tier          : T2" in out
        assert "attack_fraction" in out
        assert "provenance" in out

    def test_describe_unknown_scenario_lists_names(self, capsys):
        assert main(["scenarios", "describe", "no-such"]) == 2
        assert "smoke-t2" in capsys.readouterr().err

    def test_validate_named_subset(self, capsys):
        code = main(
            ["scenarios", "validate", "smoke-t2", "crowdsensing-tesla-t2",
             "--seed", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2/2 scenarios uphold the replay contract" in out
        # The fast path is catalog-complete: every entry (the tesla one
        # included) validates on both engines.
        assert out.count("engines=des+vectorized") == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])


class TestScenarioFlags:
    def test_simulate_scenario_uses_canonical_seeds(self, capsys):
        assert main(["simulate", "--scenario", "smoke-t2"]) == 0
        out = capsys.readouterr().out
        assert "scenario            : smoke-t2 (tier T2, crowdsensing)" in out
        assert "authentication rate" in out

    def test_simulate_scenario_engine_override_matches(self, capsys):
        assert main(
            ["simulate", "--scenario", "smoke-t2", "--engine", "des"]
        ) == 0
        des_out = capsys.readouterr().out
        assert main(
            ["simulate", "--scenario", "smoke-t2", "--engine", "vectorized"]
        ) == 0
        assert capsys.readouterr().out == des_out

    def test_simulate_unknown_scenario_is_clean_error(self, capsys):
        assert main(["simulate", "--scenario", "no-such"]) == 2
        assert "registered scenarios" in capsys.readouterr().err

    def test_unknown_protocol_lists_choices_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--protocol", "nosuch"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for name in ("dap", "tesla_pp", "mu_tesla", "multilevel", "edrp"):
            assert name in err

    def test_loadtest_protocol_choices_are_net_capable_only(self, capsys):
        with pytest.raises(SystemExit):
            main(["loadtest", "--protocol", "multilevel"])
        err = capsys.readouterr().err
        assert "dap" in err and "tesla_pp" in err

    def test_simulate_workload_flag(self, capsys):
        assert main(
            ["simulate", "--workload", "vehicular-beacon", "--intervals",
             "10", "--receivers", "2", "--seeds", "1"]
        ) == 0

    def test_loadtest_scenario_flag(self, capsys):
        import json

        assert main(
            ["loadtest", "--scenario", "smoke-t2", "--intervals", "8",
             "--interval-duration", "0.05"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["forged_accepted"] == 0

    def test_loadtest_scenario_keeps_net_flags_and_seed(self, capsys):
        """--scenario fixes the shape flags only: the net flags and
        --seed still reach the soak."""
        import json
        from dataclasses import asdict, replace

        from repro.net.harness import LoadTestConfig, run_loadtest
        from repro.scenarios import get_scenario

        def run(*flags):
            assert main(["loadtest", "--scenario", "smoke-t2", *flags]) == 0
            report = json.loads(capsys.readouterr().out)
            for name in ("wall_seconds", "packets_per_second",
                         "latency_p50_us", "latency_p99_us"):
                del report[name]
            return report

        plain = run()
        assert plain["datagrams_duplicated"] == 0
        assert plain["packets_injected"] == 60  # the 50% per-interval bursts
        faulty = run("--duplicate", "0.5", "--reorder", "0.5",
                     "--jitter", "0.001", "--rate", "100")
        assert faulty["datagrams_duplicated"] > 0
        assert faulty["datagrams_reordered"] > 0
        assert faulty["packets_injected"] == 100 * 12
        reseeded = run("--seed", "99")
        smoke = get_scenario("smoke-t2").config
        reference = run_loadtest(
            LoadTestConfig(**asdict(replace(smoke, seed=99)))
        ).to_dict()
        assert reseeded == {name: reference[name] for name in reseeded}
        assert reseeded != plain

    def test_figures_scenario_writes_extra_csv(self, tmp_path, capsys):
        assert main(
            ["figures", "--out", str(tmp_path), "--points", "16",
             "--scenario", "smoke-t2"]
        ) == 0
        path = tmp_path / "scenario_smoke-t2.csv"
        assert path.exists()
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert len(rows) >= 2


class TestCluster:
    def test_soak_smoke_writes_report_and_metrics(self, tmp_path, capsys):
        import json

        report = tmp_path / "cluster_report.json"
        metrics = tmp_path / "metrics.jsonl"
        code = main(
            ["cluster", "soak", "--scenario", "crowdsensing-baseline-t0",
             "--workers", "2", "--duration", "60",
             "--metrics", str(metrics), "--report", str(report)]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        document = json.loads(report.read_text())
        assert document["schema_version"] == 1
        assert document["transport"] == "loopback"
        assert document["forged_accepted"] == 0
        assert json.loads(captured.out) == document
        assert "reconciliation: ok" in captured.err
        assert metrics.exists()
        assert metrics.read_text().strip()

    def test_unknown_scenario_exits_2(self, capsys):
        code = main(
            ["cluster", "soak", "--scenario", "no-such-scenario"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "no-such-scenario" in err

    def test_rejects_zero_workers(self, capsys):
        with pytest.raises(SystemExit):
            main(
                ["cluster", "soak", "--scenario",
                 "crowdsensing-baseline-t0", "--workers", "0"]
            )
        assert "positive integer" in capsys.readouterr().err

    def test_rejects_zero_duration(self, capsys):
        with pytest.raises(SystemExit):
            main(
                ["cluster", "soak", "--scenario",
                 "crowdsensing-baseline-t0", "--duration", "0"]
            )

    def test_rejects_negative_stall(self, capsys):
        with pytest.raises(SystemExit):
            main(
                ["cluster", "soak", "--scenario",
                 "crowdsensing-baseline-t0", "--stall", "-1"]
            )
        assert "non-negative" in capsys.readouterr().err

    def test_rejects_malformed_fault_spec(self, capsys):
        code = main(
            ["cluster", "soak", "--scenario", "crowdsensing-baseline-t0",
             "--fault", "not-a-spec"]
        )
        assert code == 2
        assert "fault spec" in capsys.readouterr().err

    def test_cluster_requires_a_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["cluster"])

    def test_worker_rejects_malformed_connect(self, capsys):
        with pytest.raises(SystemExit):
            main(["cluster", "worker", "--connect", "no-port"])
        assert "HOST:PORT" in capsys.readouterr().err

    def test_worker_fails_cleanly_when_coordinator_is_gone(self, capsys):
        # Nothing listens on this port: the daemon must return 1 with a
        # readable error, not raise.
        code = main(
            ["cluster", "worker", "--connect", "127.0.0.1:1",
             "--max-runtime", "5"]
        )
        assert code == 1
        assert "worker error" in capsys.readouterr().out
