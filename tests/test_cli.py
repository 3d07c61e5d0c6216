"""End-to-end tests for the command-line interface (in-process)."""

from __future__ import annotations

import csv
import dataclasses
import json
import random
import shlex
import time
from pathlib import Path

import pytest

from congestlab import cli
from congestlab.bundles import read_bundle
from congestlab.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from congestlab.graphs import random_graph
from congestlab.twoparty import cycle_listing_protocol


def _write_random_graph(path, n=24, density=0.15, seed=3):
    g = random_graph(n, density, random.Random(seed))
    path.write_text(g.to_text(), encoding="utf-8")
    return g


# (family, flags, the flag named in the error): each family takes only its
# own flags (--k: cycle, c4, ck; --ell and --m: long-cycle, c8l; --seed:
# diamond), even where its own flags are given too.
FOREIGN_FAMILY_FLAGS = [
    ("long-cycle", ["--k", "7"], "--k"),
    ("ck", ["--k", "5", "--ell", "3", "--m", "2"], "--ell"),
    ("cycle", ["--m", "1"], "--m"),
    ("diamond", ["--seed", "1", "--k", "5"], "--k"),
    ("c4", ["--seed", "3"], "--seed"),
    ("c8l", ["--ell", "1", "--seed", "2"], "--seed"),
]


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

    def test_c4_takes_no_other_cycle_length(self, tmp_path, capsys):
        args = ["gen-family", "c4", "--n", "2", "--x", "8", "--y", "8", "--out"]
        rc = main(args + [str(tmp_path / "k5"), "--k", "5"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--k 5" in err and "cycle or ck" in err
        assert not (tmp_path / "k5").exists()
        assert main(args + [str(tmp_path / "k4"), "--k", "4"]) == EXIT_OK
        assert read_bundle(tmp_path / "k4").params == {"n": 2, "k": 4}

    @pytest.mark.parametrize("family, flags, flag", FOREIGN_FAMILY_FLAGS)
    def test_a_flag_of_another_family_is_a_usage_error(
        self, tmp_path, capsys, family, flags, flag
    ):
        out = tmp_path / "x"
        args = ["gen-family", family, "--n", "2", "--x", "8", "--y", "8", "--out"]
        assert main(args + [str(out), *flags]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {family} takes no {flag}, a ")
        assert not out.exists()

    def test_long_cycle_flags_default_to_one_strand_and_no_padding(self, tmp_path):
        args = ["gen-family", "long-cycle", "--n", "2", "--x", "8", "--y", "8", "--out"]
        assert main(args + [str(tmp_path / "default")]) == EXIT_OK
        assert main(args + [str(tmp_path / "explicit"), "--ell", "1", "--m", "0"]) == EXIT_OK
        for name in ("graph.txt", "meta.json", "inputs.json"):
            default = (tmp_path / "default" / name).read_bytes()
            assert default == (tmp_path / "explicit" / name).read_bytes()

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

    def test_x_that_is_not_hex_is_a_usage_error_naming_it(self, tmp_path, capsys):
        rc = main(
            ["gen-family", "c4", "--n", "2", "--x", "-1", "--y", "0", "--out", str(tmp_path / "x")]
        )
        assert rc == EXIT_USAGE
        assert "not a hex string: '-1'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_lone_x_without_y_is_a_usage_error(self, tmp_path, capsys):
        rc = main(
            ["gen-family", "c4", "--n", "2", "--x", "8", "--out", str(tmp_path / "x")]
        )
        assert rc == EXIT_USAGE

    def test_intersecting_is_rejected_with_explicit_bits(self, tmp_path, capsys):
        args = ["gen-family", "c4", "--n", "2", "--x", "0", "--y", "0", "--out"]
        for choice in ("yes", "no"):
            rc = main(args + [str(tmp_path / choice), "--intersecting", choice])
            assert rc == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "--intersecting" in err
            assert not (tmp_path / choice).exists()
        assert main(args + [str(tmp_path / "any"), "--intersecting", "any"]) == EXIT_OK
        pair = read_bundle(tmp_path / "any").pair
        assert (pair.x, pair.y) == ("0000", "0000")

    def test_random_input_flags_are_rejected_with_explicit_bits(self, tmp_path, capsys):
        args = ["gen-family", "c4", "--n", "2", "--x", "0", "--y", "0", "--out"]
        out = str(tmp_path / "x")
        for flags in (["--input-seed", "5"], ["--input-density", "0.9"]):
            assert main(args + [out, *flags]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err == (
                f"error: {flags[0]} applies to random inputs only; "
                "it cannot be combined with --x/--y\n"
            )
        both = ["--input-seed", "5", "--input-density", "0.9"]
        assert main(args + [out, *both]) == EXIT_USAGE
        assert "--input-seed" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_inputs_need_explicit_bits_or_an_input_seed(self, tmp_path, capsys):
        rc = main(["gen-family", "c4", "--n", "2", "--out", str(tmp_path / "x")])
        assert rc == EXIT_USAGE
        assert "give --x/--y or --input-seed" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_forced_disjoint_inputs_share_no_index(self, tmp_path):
        for seed in range(4):
            out = tmp_path / str(seed)
            rc = main(
                ["gen-family", "c4", "--n", "3", "--input-seed", str(seed),
                 "--input-density", "0.8", "--intersecting", "no", "--out", str(out)]
            )
            assert rc == EXIT_OK
            pair = read_bundle(out).pair
            assert "1" in pair.x
            assert not any(a == b == "1" for a, b in zip(pair.x, pair.y))

    def test_input_density_outside_the_unit_interval_is_rejected(self, tmp_path, capsys):
        args = ["gen-family", "c4", "--n", "2", "--input-seed", "1", "--out"]
        for value in ("2", "-1", "1.5", "nan"):
            with pytest.raises(SystemExit) as info:
                main(args + [str(tmp_path / "x"), "--input-density", value])
            assert info.value.code == EXIT_USAGE
            err = capsys.readouterr().err
            assert "--input-density: must be in [0, 1]" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()
        for value, bits in (("0", "0000"), ("1", "1111")):
            out = tmp_path / value
            assert main(args + [str(out), "--input-density", value]) == EXIT_OK
            pair = read_bundle(out).pair
            assert pair.x == pair.y == bits


class TestVerifyFamily:
    @pytest.mark.parametrize("family, flags, flag", FOREIGN_FAMILY_FLAGS)
    def test_a_flag_of_another_family_is_a_usage_error(
        self, tmp_path, capsys, family, flags, flag
    ):
        out = tmp_path / "report.json"
        args = ["verify-family", family, "--n", "2", "--json-out", str(out)]
        assert main(args + flags) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {family} takes no {flag}, a ")
        assert not out.exists()

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

    def test_c4_takes_no_other_cycle_length(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["verify-family", "c4", "--n", "2", "--k", "6", "--json-out", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--k 6" in err and "cycle or ck" in err
        assert not out.exists()
        rc = main(["verify-family", "c4", "--n", "2", "--k", "4", "--json-out", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["params"] == {"n": 2, "k": 4}

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

    def test_a_sampled_check_runs_as_many_distinct_pairs_as_asked(self, tmp_path):
        # 256 pairs exist at n = 2; the random fill used to repeat some.
        out = tmp_path / "report.json"
        rc = main(
            ["verify-family", "c4", "--n", "2", "--exhaustive", "no", "--samples", "40",
             "--json-out", str(out)]
        )
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["exhaustive"] is False
        assert report["pairs_checked"] == 40

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

    @pytest.mark.parametrize(
        "family, bits",
        [(["c4", "--n", "4"], 16), (["diamond", "--n", "16", "--seed", "0"], 18)],
    )
    def test_an_exhaustive_check_that_cannot_finish_is_refused_at_once(
        self, tmp_path, capsys, family, bits
    ):
        # 4^16 and 4^18 pairs would exhaust memory before the first check.
        out = tmp_path / "report.json"
        t0 = time.perf_counter()
        rc = main(["verify-family", *family, "--exhaustive", "yes", "--json-out", str(out)])
        assert time.perf_counter() - t0 < 1.0
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: an exhaustive check takes at most 9 bits (4^9 pairs), "
            f"this family has {bits}\n"
        )
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty graph text"),
            ("3\n", "bad header line: ['3']"),
            ("3 2\n0 1\n", "header claims 2 edges, found 1"),
            ("3 1\n0 1 2\n", "bad edge line: ['0', '1', '2']"),
            ("3 2\n0 1\n1 0\n", "duplicate edges: header claims 2, got 1"),
        ],
    )
    def test_malformed_graph_text_is_a_usage_error(self, tmp_path, capsys, text, message):
        g = tmp_path / "g.txt"
        g.write_text(text)
        rc = main(["run-congest", "--graph", str(g), "--program", "flood"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_an_argument_to_a_program_that_takes_none_is_a_usage_error(
        self, tmp_path, capsys
    ):
        g = tmp_path / "g.txt"
        _write_random_graph(g, n=6)
        for spec in ("detect-four-cycle:5", "silent:zzz", "constant-one:7"):
            rc = main(["run-congest", "--graph", str(g), "--program", spec])
            assert rc == EXIT_USAGE, spec
            name, _, arg = spec.partition(":")
            assert capsys.readouterr().err == (
                f"error: program {name} takes no argument, got {arg!r}\n"
            )

    def test_a_flood_source_that_is_not_an_integer_is_a_usage_error(
        self, tmp_path, capsys
    ):
        g = tmp_path / "g.txt"
        _write_random_graph(g, n=6)
        for source in ("abc", "1.5", "0x2"):
            rc = main(["run-congest", "--graph", str(g), "--program", f"flood:{source}"])
            assert rc == EXIT_USAGE
            err = capsys.readouterr().err
            assert err == f"error: bad flood source {source!r}: not an integer\n"

    def test_the_simulator_takes_no_seed(self, tmp_path, capsys):
        # The engine draws nothing, so neither simulator command has --seed.
        g = tmp_path / "g.txt"
        _write_random_graph(g, n=6)
        for argv in (
            ["run-congest", "--graph", str(g), "--program", "flood"],
            ["run-diamond-listing", "--graph", str(g)],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv + ["--seed", "0"])
            assert info.value.code == EXIT_USAGE
            assert "unrecognized arguments: --seed 0" in capsys.readouterr().err

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
            (run_congest, "--max-rounds", ("-1", "0", "1000001")),
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
                rule = "at most 1000000" if value == "1000001" else "at least 1"
                assert f"{flag}: must be {rule}" in err and "Traceback" not in err

    def test_a_round_cap_of_one_million_is_accepted(self):
        # Parsing alone: a run to this cap is not made here.
        args = cli.build_parser().parse_args(
            ["run-congest", "--graph", "g.txt", "--program", "silent", "--max-rounds", "1000000"]
        )
        assert args.max_rounds == 1_000_000


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

    def test_a_cycle_listed_twice_is_no_oracle_match(self, tmp_path, monkeypatch):
        def listing_one_cycle_twice(*args, **kwargs):
            res = cycle_listing_protocol(*args, **kwargs)
            return dataclasses.replace(
                res, b_list=tuple(sorted(res.b_list + res.all_listed[:1]))
            )

        monkeypatch.setattr(cli, "cycle_listing_protocol", listing_one_cycle_twice)
        bundle = tmp_path / "bundle"
        main(["gen-family", "c4", "--n", "2", "--x", "8", "--y", "8", "--out", str(bundle)])
        out = tmp_path / "protocol.json"
        rc = main(["run-protocol", "--graph", str(bundle / "graph.txt"), "--partition",
                   str(bundle), "--protocol", "cycles:4", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["listed"][0] == payload["listed"][1]
        assert payload["oracle_match"] is False
        assert rc == EXIT_VERIFY

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

    def test_a_cycle_length_that_is_not_an_integer_is_a_usage_error(
        self, tmp_path, capsys
    ):
        bundle = tmp_path / "bundle"
        main(["gen-family", "c4", "--n", "2", "--x", "8", "--y", "8", "--out", str(bundle)])
        run = ["run-protocol", "--graph", str(bundle / "graph.txt"),
               "--partition", str(bundle), "--protocol"]
        for spec in ("cycles:abc", "cycles:"):
            assert main(run + [spec]) == EXIT_USAGE, spec
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "--protocol" in err, spec

    def test_a_work_budget_below_one_or_not_an_integer_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        bundle = tmp_path / "bundle"
        main(["gen-family", "c4", "--n", "2", "--x", "8", "--y", "8", "--out", str(bundle)])
        run = ["run-protocol", "--graph", str(bundle / "graph.txt"),
               "--partition", str(bundle), "--protocol", "cycles:4"]
        for value in ("abc", "-5", "0"):
            monkeypatch.setenv("CONGESTLAB_WORK_BUDGET", value)
            assert main(run) == EXIT_USAGE, value
            assert "CONGESTLAB_WORK_BUDGET" in capsys.readouterr().err, value

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

    @pytest.mark.parametrize("key", ["schema_version", "side_a", "side_b", "cut_edges"])
    def test_a_missing_key_is_named_with_its_file(self, c4_bundle, capsys, key):
        meta = json.loads((c4_bundle / "meta.json").read_text())
        del meta[key]
        (c4_bundle / "meta.json").write_text(json.dumps(meta))
        for argv in _bundle_commands(c4_bundle / "graph.txt", c4_bundle):
            assert main(argv) == EXIT_USAGE, argv[0]
            err = capsys.readouterr().err
            assert err == f"error: missing key {key} in {c4_bundle / 'meta.json'}\n"


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

    def test_negative_exponents_and_a_zero_constant_are_usage_errors(
        self, tmp_path, capsys
    ):
        # The exponent range has one check, in the decomposition; the
        # parser only reads the fraction.
        g = tmp_path / "g.txt"
        _write_random_graph(g, n=10)
        argv = ["run-diamond-listing", "--graph", str(g)]
        cases = [
            (["--delta", "-1"], "error: delta must be in [0, 2], got -1\n"),
            (["--epsilon=-1/2"], "error: epsilon must be in [0, 2], got -1/2\n"),
        ]
        for flags, line in cases:
            assert main(argv + flags) == EXIT_USAGE, flags
            assert capsys.readouterr().err == line, flags
        with pytest.raises(SystemExit) as info:
            main(argv + ["--min-degree-constant", "0"])
        assert info.value.code == EXIT_USAGE
        assert "argument --min-degree-constant:" in capsys.readouterr().err


    def test_fraction_exponents_reach_the_stats(self, tmp_path):
        g = tmp_path / "g.txt"
        _write_random_graph(g, n=20, density=0.3, seed=4)
        stats_path = tmp_path / "stats.json"
        exponents = ["--delta", "2/3", "--epsilon", "1/3"]
        argv = ["run-diamond-listing", "--graph", str(g), "--stats-out", str(stats_path)]
        assert main(argv + exponents) == EXIT_OK
        stats = json.loads(stats_path.read_text())
        assert stats["parameters"]["delta"] == stats["delta"] == "2/3"
        assert stats["parameters"]["epsilon"] == stats["epsilon"] == "1/3"

    @pytest.mark.parametrize("flag", ["--delta", "--epsilon"])
    def test_an_exponent_above_two_is_refused_at_once(self, tmp_path, capsys, flag):
        # Exact powers with an exponent of 100000, or with a denominator
        # of 10^7, would run for minutes.
        g = tmp_path / "g.txt"
        _write_random_graph(g, n=40, density=0.2, seed=1)
        name = flag.removeprefix("--")
        for value, rule in (
            ("100000", "must be in [0, 2]"),
            ("1/10000000", "must have a denominator of at most 1000"),
        ):
            t0 = time.perf_counter()
            rc = main(["run-diamond-listing", "--graph", str(g), flag, value])
            assert time.perf_counter() - t0 < 1.0
            assert rc == EXIT_USAGE
            assert capsys.readouterr().err == f"error: {name} {rule}, got {value}\n"

    def test_exponents_with_a_common_denominator_above_1000_are_refused_at_once(
        self, tmp_path, capsys
    ):
        # Each denominator is at most 1000, but the heavy phase's
        # n^(2 - delta - epsilon) would have one of 997000.
        g = tmp_path / "g.txt"
        _write_random_graph(g, n=40, density=0.2, seed=1)
        exponents = ["--delta", "833/1000", "--epsilon", "499/997"]
        t0 = time.perf_counter()
        rc = main(["run-diamond-listing", "--graph", str(g), *exponents])
        assert time.perf_counter() - t0 < 1.0
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: delta and epsilon must have a common denominator of at most "
            "1000, got 833/1000 and 499/997\n"
        )


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
            "heavy_charged_rounds",
            "cut_edges",
            "payload_bits",
            "bound_bits",
            "found",
            "oracle_found",
            "oracle_seconds",
        ]
        assert len(rows) == 2 * 4  # densities x cycle lengths
        assert all(r["found"] == r["oracle_found"] for r in rows)

    def test_densities_outside_the_unit_interval_are_usage_errors(self, capsys):
        for densities in ("abc", "2", "0.1,"):
            with pytest.raises(SystemExit) as info:
                main(["bench", "--suite", "cycle-protocol", "--densities", densities])
            assert info.value.code == EXIT_USAGE, densities
            assert "argument --densities:" in capsys.readouterr().err, densities

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

    def test_two_inputs_with_one_file_name_are_a_usage_error(self, tmp_path, capsys):
        paths = [tmp_path / run / "stats.json" for run in ("r1", "r2")]
        for i, path in enumerate(paths):
            path.parent.mkdir()
            path.write_text(f'{{"run": {i}}}')
        out = tmp_path / "merged.json"
        rc = main(["report", "--inputs", *map(str, paths), "--out", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(str(p) in err for p in paths)
        assert not out.exists()

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


# (argv with {tmp} for a scratch directory, what is wrong with its path):
# a missing file, a directory read as a file, an existing file as --out.
UNUSABLE_PATHS = [
    (["report", "--inputs", "{tmp}/missing.json"], "missing"),
    (["report", "--inputs", "{tmp}"], "directory"),
    (["run-congest", "--graph", "{tmp}", "--program", "flood"], "directory"),
    (
        ["gen-family", "c4", "--n", "2", "--x", "8", "--y", "8", "--out", "{tmp}/file"],
        "existing file",
    ),
]


@pytest.mark.parametrize(
    ("argv", "problem"),
    UNUSABLE_PATHS,
    ids=[f"{argv[0]}-{problem}" for argv, problem in UNUSABLE_PATHS],
)
def test_a_path_the_cli_cannot_use_is_a_usage_error(tmp_path, capsys, argv, problem):
    (tmp_path / "file").write_text("")
    rc = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert rc == EXIT_USAGE, problem
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, problem


def test_an_internal_key_error_is_not_a_usage_error(tmp_path, monkeypatch):
    # No input path raises KeyError, so one can only be a fault in the
    # program: it surfaces with its traceback, not as exit 2.
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "list_induced_diamonds_congest", broken)
    g = tmp_path / "g.txt"
    _write_random_graph(g, n=10)
    with pytest.raises(KeyError, match="internal"):
        main(["run-diamond-listing", "--graph", str(g)])


def _readme_commands() -> list[list[str]]:
    """The arguments of each ``congestlab`` line in the README's
    "Command line" block, in order."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("congestlab ")]
    return [shlex.split(line)[1:] for line in lines]


def test_the_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    # Each command runs in a scratch directory, its /tmp/ paths moved there.
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 9
    for argv in commands:
        assert main([arg.replace("/tmp/", f"{tmp_path}/") for arg in argv]) == EXIT_OK, argv
