"""End-to-end tests of the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.datasets import write_fimi


@pytest.fixture
def fimi_file(tmp_path, small_db):
    p = tmp_path / "small.dat"
    write_fimi(small_db, p)
    return str(p)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", "--algorithm", "nope"])


class TestMineCommand:
    def test_mine_file(self, fimi_file, capsys):
        assert main(["mine", "--file", fimi_file, "--min-support", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "frequent itemsets" in out
        assert "support=" in out

    def test_mine_builtin_dataset(self, capsys):
        code = main(
            ["mine", "--dataset", "chess", "--scale", "0.03", "--min-support", "0.9"]
        )
        assert code == 0
        assert "chess" in capsys.readouterr().out

    def test_mine_each_algorithm(self, fimi_file, capsys):
        for alg in ("borgelt", "fpgrowth", "eclat"):
            assert (
                main(
                    [
                        "mine",
                        "--file",
                        fimi_file,
                        "--min-support",
                        "0.15",
                        "--algorithm",
                        alg,
                    ]
                )
                == 0
            )

    def test_top_truncation(self, fimi_file, capsys):
        main(["mine", "--file", fimi_file, "--min-support", "0.05", "--top", "2"])
        assert "more)" in capsys.readouterr().out

    def test_error_exit_code(self, fimi_file, capsys):
        code = main(["mine", "--file", fimi_file, "--min-support", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["mine", "--min-support", "0.5"],
            ["rules", "--min-support", "0.5"],
            ["figure"],
            ["store", "--store-dir", "{tmp}", "build"],
            ["serve", "--port", "0", "--dataset", "chess", "--scale", "0.01", "--preload"],
        ],
        ids=["mine", "rules", "figure", "store-build", "serve-preload"],
    )
    def test_unreadable_file_exits_2(self, unreadable_fimi, command, tmp_path, capsys):
        argv = [arg.format(tmp=tmp_path / "store") for arg in command]
        assert main(argv + ["--file", unreadable_fimi]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read FIMI file")
        assert "Traceback" not in err

    def test_item_id_past_int64_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.dat"
        path.write_text("1 2\n1 99999999999999999999\n")
        assert main(["mine", "--file", str(path), "--json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: item id")
        assert "Traceback" not in err

    def test_inject_fault_surfaces_typed_error(self, fimi_file, capsys):
        code = main(
            [
                "mine",
                "--file",
                fimi_file,
                "--min-support",
                "0.15",
                "--engine",
                "simulated",
                "--inject-fault",
                "gpusim.alloc:device_oom:on_nth=1",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "injected device OOM" in err

    def test_inject_fault_on_unvisited_site_is_inert(self, fimi_file, capsys):
        # vectorized mining never touches simulator memory
        code = main(
            [
                "mine",
                "--file",
                fimi_file,
                "--min-support",
                "0.15",
                "--inject-fault",
                "gpusim.alloc:device_oom:on_nth=1",
            ]
        )
        assert code == 0
        assert "frequent itemsets" in capsys.readouterr().out

    def test_bad_inject_fault_spec_rejected(self, fimi_file, capsys):
        code = main(
            [
                "mine",
                "--file",
                fimi_file,
                "--min-support",
                "0.15",
                "--inject-fault",
                "nowhere:device_oom:on_nth=1",
            ]
        )
        assert code == 2
        assert "unknown fault site" in capsys.readouterr().err

    @pytest.mark.parametrize("rep", ["closed", "maximal"])
    def test_condensed_representations(self, fimi_file, capsys, rep):
        code = main(
            [
                "mine",
                "--file",
                fimi_file,
                "--min-support",
                "0.1",
                "--representation",
                rep,
            ]
        )
        assert code == 0
        assert f"{rep} representation:" in capsys.readouterr().out

    def test_mine_with_shards(self, fimi_file, capsys):
        code = main(
            ["mine", "--file", fimi_file, "--min-support", "0.15", "--shards", "2"]
        )
        assert code == 0
        assert "frequent itemsets" in capsys.readouterr().out

    def test_mine_with_memory_budget_suffix(self, fimi_file, capsys):
        code = main(
            [
                "mine",
                "--file",
                fimi_file,
                "--min-support",
                "0.15",
                "--memory-budget",
                "64K",
            ]
        )
        assert code == 0
        assert "frequent itemsets" in capsys.readouterr().out

    def test_mine_with_multigpu_devices(self, fimi_file, capsys):
        code = main(
            [
                "mine",
                "--file",
                fimi_file,
                "--min-support",
                "0.15",
                "--engine",
                "multigpu",
                "--devices",
                "3",
            ]
        )
        assert code == 0
        assert "frequent itemsets" in capsys.readouterr().out

    def test_multigpu_matches_vectorized_output(self, fimi_file, capsys):
        def itemset_lines(text):
            # drop the header (wall time and modeled fleet time differ)
            return [
                ln
                for ln in text.splitlines()
                if ln.startswith("  (") and "support=" in ln
            ]

        assert main(["mine", "--file", fimi_file, "--min-support", "0.15"]) == 0
        reference = itemset_lines(capsys.readouterr().out)
        assert (
            main(
                [
                    "mine",
                    "--file",
                    fimi_file,
                    "--min-support",
                    "0.15",
                    "--engine",
                    "multigpu",
                    "--devices",
                    "4",
                ]
            )
            == 0
        )
        fleet = itemset_lines(capsys.readouterr().out)
        assert fleet and fleet == reference

    def test_devices_flag_requires_gpapriori(self, fimi_file, capsys):
        code = main(
            [
                "mine",
                "--file",
                fimi_file,
                "--algorithm",
                "borgelt",
                "--devices",
                "2",
            ]
        )
        assert code == 2
        assert "unknown option 'devices' for algorithm 'borgelt'" in capsys.readouterr().err

    def test_shard_flags_require_gpapriori(self, fimi_file, capsys):
        code = main(
            [
                "mine",
                "--file",
                fimi_file,
                "--algorithm",
                "borgelt",
                "--shards",
                "2",
            ]
        )
        assert code == 2
        assert "unknown option 'shards' for algorithm 'borgelt'" in capsys.readouterr().err

    def test_bad_memory_budget_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", "--memory-budget", "lots"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", "--memory-budget", "-4K"])

    def test_memory_budget_parser_units(self):
        from repro.cli import _parse_bytes

        assert _parse_bytes("4096") == 4096
        assert _parse_bytes("512K") == 512 * 1024
        assert _parse_bytes("4M") == 4 * 1024**2
        assert _parse_bytes("2G") == 2 * 1024**3
        assert _parse_bytes("16kb") == 16 * 1024

    def test_extension_algorithms_available(self, fimi_file, capsys):
        for alg in ("hybrid", "gpu_eclat", "partition"):
            assert (
                main(
                    [
                        "mine",
                        "--file",
                        fimi_file,
                        "--min-support",
                        "0.15",
                        "--algorithm",
                        alg,
                    ]
                )
                == 0
            ), alg


class TestOtherCommands:
    def test_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "GPApriori" in out and "Bodon" in out

    def test_gpapriori_accepts_tuple_locked(self, capsys):
        """The full accepts tuple, locked: a GPAprioriConfig field that
        does not surface here (as `devices` once did not) is invisible
        to `repro algorithms` users."""
        from repro import ALGORITHMS

        assert ALGORITHMS["gpapriori"].accepts == (
            "max_k",
            "config",
            "device",
            "table",
            "block_size",
            "preload_candidates",
            "unroll",
            "plan",
            "engine",
            "workers",
            "aligned",
            "trace_accesses",
            "shards",
            "memory_budget_bytes",
            "layout",
            "dense_threshold",
            "devices",
        )
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "devices" in out

    def test_algorithms_lists_every_registry_key_with_options(self, capsys):
        from repro import ALGORITHMS

        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for key, info in ALGORITHMS.items():
            assert key in out, key
            for option in info.accepts:
                assert option in out, option

    def test_datasets(self, capsys):
        assert main(["datasets", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        for name in ("chess", "pumsb", "accidents", "T40I10D100K"):
            assert name in out

    def test_rules(self, fimi_file, capsys):
        assert (
            main(
                [
                    "rules",
                    "--file",
                    fimi_file,
                    "--min-support",
                    "0.15",
                    "--min-confidence",
                    "0.6",
                ]
            )
            == 0
        )
        assert "rules" in capsys.readouterr().out

    def test_figure(self, fimi_file, capsys):
        code = main(
            [
                "figure",
                "--file",
                fimi_file,
                "--supports",
                "0.2",
                "0.15",
                "--algorithms",
                "gpapriori",
                "cpu_bitset",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "borgelt" in out  # reference auto-added


class TestMineJson:
    def test_json_output_round_trips(self, fimi_file, small_db, capsys):
        import json

        from repro.core.api import mine
        from repro.core.itemset import MiningResult

        assert (
            main(["mine", "--file", fimi_file, "--min-support", "0.15", "--json"])
            == 0
        )
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["format"] == "repro.mining_result/1"
        restored = MiningResult.from_dict(doc)
        assert restored.same_itemsets(mine(small_db, 0.15))

    def test_json_is_comparable_with_serve_result_field(self, fimi_file, small_db, capsys):
        # stripped of run metrics, the CLI document equals what the
        # serve endpoint would put in its "result" field
        import json

        from repro.core.api import mine

        main(["mine", "--file", fimi_file, "--min-support", "0.15", "--json"])
        doc = json.loads(capsys.readouterr().out)
        expected = mine(small_db, 0.15).to_dict(include_metrics=False)
        assert {k: doc[k] for k in expected} == expected


class TestServeParser:
    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--workers", "3",
                "--queue-depth", "9",
                "--cache-bytes", "4M",
                "--registry-bytes", "64M",
                "--cache-ttl", "30",
                "--dataset", "chess",
                "--scale", "0.02",
                "--preload",
            ]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.workers == 3
        assert args.queue_depth == 9
        assert args.cache_bytes == 4 * 1024**2
        assert args.registry_bytes == 64 * 1024**2
        assert args.cache_ttl == 30.0
        assert args.dataset == ["chess"]
        assert args.preload is True

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8750
        assert args.workers == 4
        assert args.queue_depth == 32
        assert args.dataset is None


class TestChaosEnv:
    """Serve-only chaos knob: REPRO_CHAOS_FAULTS / REPRO_CHAOS_SEED."""

    def test_plan_parsed_from_env(self, monkeypatch):
        from repro.cli import _chaos_plan_from_env

        monkeypatch.setenv(
            "REPRO_CHAOS_FAULTS",
            "gpusim.alloc:device_oom:on_nth=1;max_fires=2,"
            "scheduler.worker:worker_crash:rate=0.5",
        )
        monkeypatch.setenv("REPRO_CHAOS_SEED", "9")
        plan = _chaos_plan_from_env()
        assert plan.seed == 9
        assert [s.site for s in plan.specs] == [
            "gpusim.alloc",
            "scheduler.worker",
        ]
        assert plan.specs[0].max_fires == 2
        assert plan.specs[1].rate == 0.5

    def test_unset_env_means_no_chaos(self, monkeypatch):
        from repro.cli import _chaos_plan_from_env

        monkeypatch.delenv("REPRO_CHAOS_FAULTS", raising=False)
        assert _chaos_plan_from_env() is None
