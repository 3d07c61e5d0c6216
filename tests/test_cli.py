"""End-to-end tests for the command-line interface (in-process)."""

from __future__ import annotations

import csv
import json
import random

import pytest

from congestlab.bundles import read_bundle
from congestlab.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main
from congestlab.graphs import random_graph


def _write_random_graph(path, n=24, density=0.15, seed=3):
    g = random_graph(n, density, random.Random(seed))
    path.write_text(g.to_text(), encoding="utf-8")
    return g


class TestGenFamily:
    def test_bundle_round_trip(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        rc = main(
            [
                "gen-family",
                "c4",
                "--n",
                "2",
                "--x",
                "8",
                "--y",
                "8",
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == str(out)
        inst = read_bundle(out)
        assert inst.family == "cycle"
        assert inst.pair.x == "1000" and inst.pair.y == "1000"
        assert (out / "graph.txt").exists()

    def test_generation_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["gen-family", "diamond", "--n", "16", "--seed", "1", "--input-seed", "7"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        for name in ("graph.txt", "meta.json", "inputs.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_forced_intersecting_inputs_share_an_index(self, tmp_path):
        out = tmp_path / "bundle"
        rc = main(
            [
                "gen-family",
                "c4",
                "--n",
                "3",
                "--input-seed",
                "5",
                "--intersecting",
                "yes",
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        inst = read_bundle(out)
        assert any(a == b == "1" for a, b in zip(inst.pair.x, inst.pair.y))

    def test_diamond_family_requires_a_seed(self, tmp_path, capsys):
        rc = main(
            ["gen-family", "diamond", "--n", "16", "--x", "0", "--y", "0", "--out", str(tmp_path / "x")]
        )
        assert rc == EXIT_USAGE
        assert "seed" in capsys.readouterr().err

    def test_diamond_seed_without_slots_is_a_usage_error(self, tmp_path, capsys):
        # Seed 3 keeps no slot at n = 4, so there are no input bits to set.
        rc = main(
            ["gen-family", "diamond", "--n", "4", "--seed", "3", "--input-seed", "1",
             "--out", str(tmp_path / "x")]
        )
        assert rc == EXIT_USAGE
        assert "no usable slots" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_lone_x_without_y_is_a_usage_error(self, tmp_path, capsys):
        rc = main(
            ["gen-family", "c4", "--n", "2", "--x", "8", "--out", str(tmp_path / "x")]
        )
        assert rc == EXIT_USAGE


class TestVerifyFamily:
    def test_diamond_family_requires_a_seed(self, capsys):
        rc = main(["verify-family", "diamond", "--n", "16"])
        assert rc == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

    def test_diamond_seed_without_slots_is_a_usage_error(self, tmp_path, capsys):
        # The seed gen-family rejects; verifying it would check one empty pair.
        out = tmp_path / "report.json"
        rc = main(
            ["verify-family", "diamond", "--n", "4", "--seed", "3", "--json-out", str(out)]
        )
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: seed 3 yields no usable slots at n=4; pick another\n"
        assert not out.exists()
        main(["gen-family", "diamond", "--n", "4", "--seed", "3", "--input-seed", "1",
              "--out", str(tmp_path / "x")])
        assert capsys.readouterr().err == err

    def test_four_cycle_family_verifies_exhaustively(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(
            ["verify-family", "c4", "--n", "2", "--json-out", str(out)]
        )
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["exhaustive"] is True
        assert report["pairs_checked"] == 256

    def test_long_cycle_family_verifies_for_singleton_codes(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(
            [
                "verify-family",
                "c8l",
                "--n",
                "2",
                "--ell",
                "1",
                "--json-out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["passed"] is True

    def test_odd_length_family_verifies_exhaustively(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(
            ["verify-family", "ck", "--n", "2", "--k", "5", "--json-out", str(out)]
        )
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["exhaustive"] is True
        assert report["conditions"]["target_iff_intersect"]["passed"] is True


class TestRunCongest:
    def test_detection_on_a_generated_bundle(self, tmp_path):
        bundle = tmp_path / "bundle"
        main(["gen-family", "c4", "--n", "2", "--x", "8", "--y", "8", "--out", str(bundle)])
        stats_path = tmp_path / "stats.json"
        rc = main(
            [
                "run-congest",
                "--graph",
                str(bundle / "graph.txt"),
                "--program",
                "detect-four-cycle",
                "--cut",
                str(bundle),
                "--stats-out",
                str(stats_path),
            ]
        )
        assert rc == EXIT_OK
        stats = json.loads(stats_path.read_text())
        assert stats["decision"] == 1
        assert stats["rounds_used"] == 8
        assert stats["cut_bound"]["ok"] is True
        assert stats["total_cut_bits"] > 0

    def test_unknown_program_is_a_usage_error(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        _write_random_graph(g, n=6)
        rc = main(["run-congest", "--graph", str(g), "--program", "nonesuch"])
        assert rc == EXIT_USAGE
        assert "unknown program" in capsys.readouterr().err

    def test_flood_with_argument_selects_the_source(self, tmp_path):
        g = tmp_path / "g.txt"
        edge_lines = sorted((min(i, (i + 1) % 8), max(i, (i + 1) % 8)) for i in range(8))
        g.write_text("8 8\n" + "\n".join(f"{u} {v}" for u, v in edge_lines) + "\n")
        stats_path = tmp_path / "s.json"
        rc = main(
            [
                "run-congest",
                "--graph",
                str(g),
                "--program",
                "flood:3",
                "--stats-out",
                str(stats_path),
            ]
        )
        assert rc == EXIT_OK
        assert json.loads(stats_path.read_text())["rounds_used"] == 5

    def test_flood_source_outside_the_graph_is_a_usage_error(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        main(["gen-family", "c4", "--n", "2", "--x", "8", "--y", "8", "--out", str(bundle)])
        args = ["run-congest", "--graph", str(bundle / "graph.txt"), "--max-rounds", "50"]
        for source in ("99", "8", "-1"):
            rc = main(args + ["--program", f"flood:{source}"])
            assert rc == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith(f"error: flood source {source} is not a vertex")
        assert main(args + ["--program", "flood:7"]) == EXIT_OK

    def test_model_violation_is_a_usage_error_naming_program_and_round(
        self, tmp_path, capsys
    ):
        bundle = tmp_path / "bundle"
        main(["gen-family", "c4", "--n", "2", "--x", "8", "--y", "8", "--out", str(bundle)])
        args = ["run-congest", "--graph", str(bundle / "graph.txt")]
        rc = main(args + ["--program", "detect-four-cycle", "--bandwidth", "1"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: program detect-four-cycle: node ")
        assert "in round 0" in err and "Traceback" not in err

    def test_counts_below_one_are_rejected_at_parse_time(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        _write_random_graph(g, n=6)
        run_congest = ["run-congest", "--graph", str(g), "--program", "flood"]
        gen_family = ["gen-family", "c4", "--input-seed", "2", "--intersecting", "yes",
                      "--out", str(tmp_path / "bundle")]
        cases = [
            (run_congest, "--max-rounds", ("-1", "0")),
            (run_congest, "--bandwidth", ("-1", "0")),
            (["verify-family", "c4", "--n", "2"], "--samples", ("-1", "0")),
            (["bench", "--suite", "cycle-protocol"], "--sizes", ("0", "16,-1")),
            (["verify-family", "c4"], "--n", ("-1", "0")),
            (gen_family, "--n", ("-1", "0")),
        ]
        for args, flag, values in cases:
            for value in values:
                with pytest.raises(SystemExit) as info:
                    main(args + [flag, value])
                assert info.value.code == EXIT_USAGE
                err = capsys.readouterr().err
                assert f"{flag}: must be at least 1" in err and "Traceback" not in err


class TestRunProtocol:
    def test_cycle_protocol_on_a_bundle(self, tmp_path):
        bundle = tmp_path / "bundle"
        main(["gen-family", "c4", "--n", "2", "--x", "8", "--y", "8", "--out", str(bundle)])
        out = tmp_path / "protocol.json"
        rc = main(
            [
                "run-protocol",
                "--graph",
                str(bundle / "graph.txt"),
                "--partition",
                str(bundle),
                "--protocol",
                "cycles:4",
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["oracle_match"] is True
        assert payload["within_bound"] is True
        assert payload["listed"]

    def test_unknown_protocol_is_a_usage_error(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        main(["gen-family", "c4", "--n", "2", "--x", "8", "--y", "8", "--out", str(bundle)])
        rc = main(
            [
                "run-protocol",
                "--graph",
                str(bundle / "graph.txt"),
                "--partition",
                str(bundle),
                "--protocol",
                "cliques",
            ]
        )
        assert rc == EXIT_USAGE

    def test_tiny_work_budget_maps_to_the_budget_exit_code(self, tmp_path, monkeypatch):
        bundle = tmp_path / "bundle"
        gen = ["gen-family", "diamond", "--n", "16", "--seed", "1", "--input-seed", "7"]
        main(gen + ["--out", str(bundle)])
        monkeypatch.setenv("CONGESTLAB_WORK_BUDGET", "5")
        rc = main(
            [
                "run-protocol",
                "--graph",
                str(bundle / "graph.txt"),
                "--partition",
                str(bundle),
                "--protocol",
                "diamond",
            ]
        )
        assert rc == EXIT_BUDGET


def _bundle_commands(graph, bundle):
    """run-congest --cut and run-protocol --partition on one graph/bundle pair."""
    return [
        ["run-congest", "--graph", str(graph), "--program", "detect-four-cycle",
         "--cut", str(bundle)],
        ["run-protocol", "--graph", str(graph), "--partition", str(bundle),
         "--protocol", "cycles:4"],
    ]


class TestBundleChecks:
    """--cut and --partition bundles must belong to --graph."""

    @pytest.fixture
    def c4_bundle(self, tmp_path):
        bundle = tmp_path / "c4"
        main(["gen-family", "c4", "--n", "2", "--x", "8", "--y", "8", "--out", str(bundle)])
        return bundle

    @staticmethod
    def _rewrite_meta(bundle, **changes):
        meta = json.loads((bundle / "meta.json").read_text())
        meta.update(changes)
        (bundle / "meta.json").write_text(json.dumps(meta))

    @staticmethod
    def _assert_rejected(commands, capsys, what):
        for argv in commands:
            assert main(argv) == EXIT_USAGE, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("error: ") and what in err, argv[0]

    def test_matching_bundle_is_accepted_as_a_meta_file_too(self, c4_bundle, capsys):
        for argv in _bundle_commands(c4_bundle / "graph.txt", c4_bundle / "meta.json"):
            assert main(argv) == EXIT_OK, argv[0]

    def test_bundle_of_a_smaller_graph_is_rejected(self, tmp_path, c4_bundle, capsys):
        big = tmp_path / "diamond"
        gen = ["gen-family", "diamond", "--n", "16", "--seed", "1", "--input-seed", "7"]
        main(gen + ["--out", str(big)])
        commands = _bundle_commands(big / "graph.txt", c4_bundle)
        self._assert_rejected(commands, capsys, "do not split the 48 graph vertices")

    def test_unsupported_schema_version_is_rejected(self, c4_bundle, capsys):
        self._rewrite_meta(c4_bundle, schema_version=99)
        commands = _bundle_commands(c4_bundle / "graph.txt", c4_bundle)
        self._assert_rejected(commands, capsys, "unsupported schema version 99")

    def test_malformed_side_entries_are_rejected(self, c4_bundle, capsys):
        side_a = json.loads((c4_bundle / "meta.json").read_text())["side_a"]
        self._rewrite_meta(c4_bundle, side_a=[[side_a[0]]] + side_a[1:])
        commands = _bundle_commands(c4_bundle / "graph.txt", c4_bundle)
        self._assert_rejected(commands, capsys, "malformed")

    def test_stored_cut_that_disagrees_with_the_graph_is_rejected(self, c4_bundle, capsys):
        meta = json.loads((c4_bundle / "meta.json").read_text())
        self._rewrite_meta(c4_bundle, cut_edges=meta["cut_edges"][1:])
        commands = _bundle_commands(c4_bundle / "graph.txt", c4_bundle)
        self._assert_rejected(commands, capsys, "stored cut_edges disagree")


class TestRunDiamondListing:
    def test_oracle_check_passes_on_a_random_graph(self, tmp_path):
        g = tmp_path / "g.txt"
        _write_random_graph(g, n=30, density=0.15, seed=11)
        stats_path = tmp_path / "stats.json"
        rc = main(
            [
                "run-diamond-listing",
                "--graph",
                str(g),
                "--check-oracle",
                "--stats-out",
                str(stats_path),
            ]
        )
        assert rc == EXIT_OK
        stats = json.loads(stats_path.read_text())
        assert stats["oracle_match"] is True
        assert stats["total_found"] == stats["oracle_count"]
        assert stats["coverage_counts"] is not None

    def test_repeated_runs_write_identical_bytes(self, tmp_path):
        g = tmp_path / "g.txt"
        _write_random_graph(g, n=26, density=0.2, seed=2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["run-diamond-listing", "--graph", str(g), "--check-oracle"]
        assert main(args + ["--stats-out", str(a)]) == EXIT_OK
        assert main(args + ["--stats-out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_list_out_carries_the_full_listing(self, tmp_path):
        g = tmp_path / "g.txt"
        graph = _write_random_graph(g, n=22, density=0.25, seed=9)
        lst = tmp_path / "list.json"
        rc = main(
            ["run-diamond-listing", "--graph", str(g), "--list-out", str(lst)]
        )
        assert rc == EXIT_OK
        from congestlab.graphs import list_induced_diamonds_naive

        diamonds = json.loads(lst.read_text())["diamonds"]
        assert [tuple(d) for d in diamonds] == sorted(
            list_induced_diamonds_naive(graph)
        )

    def test_bad_fraction_is_a_usage_error(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        _write_random_graph(g, n=10)
        with pytest.raises(SystemExit) as info:
            main(["run-diamond-listing", "--graph", str(g), "--delta", "zero"])
        assert info.value.code == 2


class TestBenchAndReport:
    def test_bench_emits_the_frozen_csv_schema(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(
            [
                "bench",
                "--suite",
                "cycle-protocol",
                "--sizes",
                "10",
                "--densities",
                "0.1,0.2",
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert list(rows[0]) == [
            "schema_version",
            "algorithm",
            "n",
            "params",
            "rounds",
            "cut_bits",
            "payload_bits",
            "bound_bits",
            "found",
            "oracle_found",
            "oracle_seconds",
        ]
        assert len(rows) == 2 * 4  # densities x cycle lengths
        assert all(r["found"] == r["oracle_found"] for r in rows)

    def test_report_merges_deterministically(self, tmp_path, capsys):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        p1.write_text('{"a": 1}')
        p2.write_text('{"b": 2}')
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(["report", "--inputs", str(p1), str(p2), "--out", str(out1)]) == EXIT_OK
        assert main(["report", "--inputs", str(p2), str(p1), "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        merged = json.loads(out1.read_text())
        assert merged["reports"] == {"r1.json": {"a": 1}, "r2.json": {"b": 2}}

    def test_report_embeds_csv_inputs_as_rows(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("schema_version,n,found\n1,10,3\n1,20,0\n")
        extra = tmp_path / "extra.json"
        extra.write_text('{"passed": true}')
        out = tmp_path / "merged.json"
        rc = main(["report", "--inputs", str(sweep), str(extra), "--out", str(out)])
        assert rc == EXIT_OK
        merged = json.loads(out.read_text())
        assert merged["reports"]["extra.json"] == {"passed": True}
        assert merged["reports"]["sweep.csv"] == [
            {"schema_version": "1", "n": "10", "found": "3"},
            {"schema_version": "1", "n": "20", "found": "0"},
        ]
