import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import openblas_threads, plant_zero_ginibre_set, save_channel
from hypothesis import given, settings
from hypothesis import strategies as st

from chanent import channel as chmod
from chanent import cli, matcore, sampler, spectra, tradeoff
from chanent.errors import DomainError


def json_text(obj) -> str:
    """``json.dumps(obj)`` with each string ``"<n digits>"`` written as an integer literal of ``n`` digits.

    Python's int-string limit keeps ``json.dumps`` from writing one of more
    than 4300 digits.
    """
    return re.sub(r'"<(\d+) digits>"', lambda m: "1" + "0" * (int(m[1]) - 1), json.dumps(obj))


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestSweep:
    def test_small_sweep_row_count_and_exit(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(
            ["sweep", "--dims", "2", "--samples", "3", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv_rows(out / "report.csv")
        assert header == cli.CSV_COLUMNS
        assert len(rows) == 1 * 3 * 3 * 9 * 7  # dims * families * samples * |q| * |s|
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == 0
        assert summary["min_gap"] >= -1e-9
        assert set(summary["per_family"]) == {"cptp", "unitary-mixture", "unistochastic"}

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--dims", "2,3", "--samples", "2", "--seed", "11"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_rejects_nonpositive_q(self, tmp_path, capsys):
        code = cli.main(["sweep", "--q", "0,2", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "0" in capsys.readouterr().err

    def test_rejects_unknown_family(self, tmp_path, capsys):
        code = cli.main(["sweep", "--family", "bogus", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("command, family", [("sweep", "psd"), ("sweep", "mat"), ("inequalities", "mat")])
    def test_rejects_matrix_family(self, tmp_path, capsys, command, family):
        # the suite's matrix families are drawn by population but are no channel family
        out = tmp_path / "x"
        assert cli.main([command, "--family", family, "--dims", "2", "--samples", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: unknown family {family!r}\n"
        assert not out.exists()

    def test_single_channel_saturated_row(self, tmp_path):
        ch_path = tmp_path / "identity.json"
        save_channel(sampler.named_channel("identity", 2), ch_path)
        out = tmp_path / "single"
        code = cli.main(
            ["sweep", "--channel", str(ch_path), "--q", "2", "--s", "0", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_csv_rows(out / "report.csv")
        assert len(rows) == 1
        row = rows[0]
        assert row["channel_id"] == "identity" and row["family"] == "file"
        assert row["unital"] == "true" and row["saturated"] == "true"
        assert abs(float(row["gap"])) <= 1e-12

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "dims": [2],
                    "families": ["cptp"],
                    "samples_per_family": 5,
                    "q_grid": [2.0],
                    "s_grid": [0.0, 1.0],
                    "seed": 3,
                }
            )
        )
        out = tmp_path / "cfgrun"
        code = cli.main(["sweep", "--config", str(cfg_path), "--samples", "2", "--out", str(out)])
        assert code == 0
        _, rows = read_csv_rows(out / "report.csv")
        assert len(rows) == 2 * 1 * 2

    def test_config_file_keys_are_optional_and_seed_may_be_0(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dims": [2], "samples_per_family": 1, "seed": 0}))
        out = tmp_path / "cfgrun"
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 0
        defaults = cli.SweepConfig()
        _, rows = read_csv_rows(out / "report.csv")
        assert len(rows) == len(defaults.families) * len(defaults.q_grid) * len(defaults.s_grid)

    def test_rejects_unknown_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dims": [2], "typo_key": 1}))
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_rejects_tolerances_key(self, tmp_path, capsys):
        # the verdict tolerances are constants: a config that loosened the
        # gap tolerance could make any violation pass
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"tolerances": {"gap": 1e300}}))
        out = tmp_path / "x"
        for command in ("sweep", "inequalities"):
            args = [command, "--config", str(cfg_path), "--dims", "2", "--samples", "1", "--out", str(out)]
            assert cli.main(args) == 2
        # a config file is read like a matrix or channel file, so the error names the file
        message = f"config error: could not load config file {str(cfg_path)!r}: unknown config keys: ['tolerances']\n"
        assert capsys.readouterr().err == 2 * message
        assert not out.exists()

    def test_rejects_nan_channel_file(self, tmp_path, capsys):
        ch_path = tmp_path / "nan.json"
        ch_path.write_text(json.dumps({"dim": 2, "kraus": [matcore.matrix_to_json(np.full((2, 2), np.nan))]}))
        assert cli.main(["sweep", "--channel", str(ch_path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "must be finite" in err


    @pytest.mark.parametrize("flag, value", [("--q", "inf"), ("--q", "2,nan"), ("--s", "inf"), ("--s", "-inf,1")])
    def test_rejects_non_finite_orders(self, tmp_path, capsys, flag, value):
        out = str(tmp_path / "x")
        code = cli.main(["sweep", f"{flag}={value}", "--dims", "2", "--samples", "1", "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err

    # an integer order beyond the double range raised OverflowError, a
    # traceback; one of more than 4300 digits failed json.load with a message
    # that named no key, and one of 401 digits was echoed whole
    @pytest.mark.parametrize("key, value", [
        ("samples_per_family", "3"), ("dims", 3), ("q_grid", [2.0, "3"]), ("seed", True),
        pytest.param("q_grid", [10**400], id="q_grid-10**400"),
        pytest.param("s_grid", [-(10**400)], id="s_grid--10**400"),
        pytest.param("q_grid", ["<5000 digits>"], id="q_grid-5000-digits"),
        pytest.param("seed", "<5000 digits>", id="seed-5000-digits"),
    ])
    def test_rejects_mistyped_config_value(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json_text({key: value}))
        out = tmp_path / "x"
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(key) in err and "0" * 20 not in err
        assert not (out / "summary.json").exists() and not (out / "report.csv").exists()

    @pytest.mark.parametrize("flag", ["--config", "--channel"])
    def test_input_file_nested_too_deep_is_a_config_error(self, tmp_path, capsys, flag):
        # json's parser recursed past the interpreter's limit: a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main(["sweep", flag, str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: could not load {flag[2:]} file")

    def test_rejects_unreadable_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert cli.main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2
        assert capsys.readouterr().err.count("config error:") == 2

    @pytest.mark.parametrize("command", ["sweep", "inequalities"])
    def test_rejects_negative_seed(self, tmp_path, capsys, command):
        out = tmp_path / "x"
        assert cli.main([command, "--dims", "2", "--samples", "1", "--seed", "-1", "--out", str(out)]) == 2
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": -5}))
        assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error: seed must be >= 0") == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "inequalities"])
    def test_rejects_more_samples_than_one_index_word(self, tmp_path, capsys, monkeypatch, command):
        # sample indices run below 2**32; the count is refused before any population is built
        def no_population(*args, **kwargs):
            raise AssertionError("population built")

        monkeypatch.setattr(sampler, "population", no_population)
        out = tmp_path / "x"
        assert cli.main([command, "--dims", "2", "--samples", str(2**32 + 1), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: samples_per_family must be <= 2**32, got 4294967297\n"
        assert not (out / "summary.json").exists()
        assert cli.validate_config(cli.SweepConfig(samples_per_family=2**32)).samples_per_family == 2**32

    @pytest.mark.parametrize("flag, key", [
        ("--family=cptp,cptp", "families"),
        ("--family=cptp,named:identity,cptp", "families"),
        ("--dims=2,2", "dims"),
        ("--q=2,2", "q_grid"),
        ("--q=0.5,2,2.0", "q_grid"),
        ("--s=0,-0", "s_grid"),
    ])
    def test_rejects_repeated_entries(self, tmp_path, capsys, flag, key):
        # a repeated entry would write every one of its rows twice
        out = tmp_path / "x"
        args = ["--dims", "2", "--samples", "3", flag, "--out", str(out)]
        assert cli.main(["sweep", *args]) == 2
        if key != "s_grid":  # inequalities has no --s
            assert cli.main(["inequalities", *args]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key} repeats" in err
        assert not out.exists()

    def test_rejects_repeated_entries_in_a_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dims": [3, 2, 3], "samples_per_family": 1}))
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert "config error: dims repeats 3" in capsys.readouterr().err

    @pytest.mark.parametrize("family, dims", [
        ("named:bogus", "2"),
        ("named:depolarizing:2.0", "2"),
        ("named:depolarizing:abc", "2"),
        ("named:amplitude-damping:0.3", "3"),
        ("named:unitary:inf", "2"),
        ("named:unitary:nan", "2"),
        # a parameter the channel does not take was dropped, and the last
        # family ran the identity twice under two labels
        ("named:identity:0.5", "2"),
        ("named:completely-depolarizing:7", "2"),
        ("named:depolarizing:0.5:3", "2"),
        ("named:identity,named:identity:0", "2"),
    ])
    def test_rejects_bad_named_family(self, tmp_path, capsys, family, dims):
        # checked before any sampling: a passing family first writes nothing either
        out = tmp_path / "x"
        args = ["--dims", dims, "--samples", "1", "--family", f"cptp,{family}", "--out", str(out)]
        assert cli.main(["sweep", *args]) == 2
        assert cli.main(["inequalities", *args]) == 2
        err = capsys.readouterr().err
        assert err.count("config error:") == 2 and f"family {family.split(',')[-1]!r}" in err
        assert not out.exists()


    def test_violation_writes_every_row(self, tmp_path, capsys, monkeypatch):
        # a gap tolerance of -10 turns every cell into a violation, the von
        # Neumann ones included, so the first violation is the first cell, at
        # q = 1, and the sweep still evaluates and writes every cell after it
        monkeypatch.setattr(tradeoff, "GAP_TOL", -10.0)
        out = tmp_path / "viol"
        code = cli.main(
            ["sweep", "--dims", "2", "--family", "cptp", "--samples", "2",
             "--q", "1,2", "--s", "0,1", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("BOUND VIOLATION") == 1 and "at q=1.0, s=0.0" in err
        _, rows = read_csv_rows(out / "report.csv")
        cells = [("1.0", "0.0"), ("1.0", "1.0"), ("2.0", "0.0"), ("2.0", "1.0")]
        assert [(row["q"], row["s"]) for row in rows] == cells * 2
        assert len({row["channel_id"] for row in rows}) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == 1 and summary["rows"] == 8 and summary["limit_rows"] == 4
        assert summary["per_family"]["cptp"]["rows"] == 8
        assert summary["min_gap"] == summary["per_family"]["cptp"]["min_gap"] == min(float(row["gap"]) for row in rows)
        name = summary["violation"]["counterexample"]
        assert name == rows[0]["channel_id"] + ".json"
        assert sorted(p.name for p in (out / "counterexamples").iterdir()) == [name]
        # the counterexample's record is the violating row's cell
        report = json.loads((out / "counterexamples" / name).read_text())["report"]
        row = rows[0]
        assert report == {
            "channel_id": row["channel_id"], "q": 1.0, "s": 0.0,
            **{key: float(row[key]) for key in ("map_entropy", "receiver_entropy", "bound_all", "gap")},
            "bound_unital": None,
        }

    @pytest.mark.parametrize("offset, code", [
        (1.5e-9, 1),  # gap -1.5e-9, past GAP_TOL: a violation, and saturated
        (0.5e-9, 0),  # gap -5e-10, within GAP_TOL: rounding, and saturated
        (-5e-8, 0),  # gap +5e-8, within SAT_TOL: saturated
    ])
    def test_planted_bound_offset_meets_the_tolerances(self, tmp_path, capsys, monkeypatch, offset, code):
        # named:identity meets its unital bound, 2 ln d, at (q, s) = (2, 0) to
        # rounding at d = 2 and 3, so raising both bounds by the offset makes the gap -offset
        def raised(*args):
            table = tradeoff.bound_table(*args)
            return dataclasses.replace(table, all_channels=table.all_channels + offset, unital=table.unital + offset)

        monkeypatch.setattr(cli, "bound_table", raised)
        out = tmp_path / "x"
        args = ["--family", "named:identity", "--dims", "2,3", "--q", "2", "--s", "0"]
        assert cli.main(["sweep", *args, "--out", str(out)]) == code
        assert ("BOUND VIOLATION" in capsys.readouterr().err) == (code == 1)
        _, rows = read_csv_rows(out / "report.csv")
        assert [row["dim"] for row in rows] == ["2", "3"]  # every row, the one after a violation included
        for row in rows:
            assert abs(float(row["gap"]) + offset) <= 1e-15 and row["saturated"] == "true", row

    def test_report_has_no_negative_zero(self, tmp_path):
        # these channels' entropies are 0 on whole rows of the grid, which the
        # kernel's arithmetic can give as -0.0
        out = tmp_path / "x"
        args = ["--family", "named:identity,named:completely-depolarizing,named:dephasing:1",
                "--dims", "2,3,4,8,16", "--samples", "1"]
        assert cli.main(["sweep", *args, "--out", str(out)]) == 0
        fields = re.split(rb"[,\r\n]", (out / "report.csv").read_bytes())
        assert len(fields) > 15 * 63 * 13 and b"-0.0" not in fields

    @pytest.mark.parametrize("q", ["1", "1,1.000000001"])
    def test_sweep_at_q_1_alone_runs(self, tmp_path, capsys, q):
        # the von Neumann rows are theorem rows: such a sweep asserts every
        # cell, on sampled channels or a file, and limit_rows counts the
        # rows at q = 1 exactly
        ch_path = tmp_path / "identity.json"
        save_channel(sampler.named_channel("identity", 2), ch_path)
        out = tmp_path / "x"
        for source in (["--dims", "2", "--samples", "1"], ["--channel", str(ch_path)]):
            assert cli.main(["sweep", *source, "--q", q, "--s", "0", "--out", str(out)]) == 0
            assert capsys.readouterr().out.startswith("sweep ok:")
            summary = json.loads((out / "summary.json").read_text())
            assert summary["violations"] == 0 and summary["rows"] > 0
            assert summary["limit_rows"] * len(q.split(",")) == summary["rows"]

    def test_suite_at_q_1_alone_runs(self, tmp_path):
        # as in a sweep: prop1 asserts real inequalities at q = 1
        out = tmp_path / "x"
        assert cli.main(["inequalities", "--dims", "2", "--samples", "1", "--q", "1", "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["checks"]["prop1"]["count"] > 0

    @pytest.mark.parametrize("obj, message", [
        ("x", "a channel must be a JSON object, got string"),
        (matcore.matrix_to_json(np.eye(2)), "a channel object has no key 'dim', which must be an integer >= 1"),
        ({"dim": 2}, "a channel object has no key 'kraus', which must be a list of matrix objects"),
        ({"dim": 2, "kraus": {"re": 1}}, "'kraus' must be a list of matrix objects, got object"),
        ({"dim": 2, "kraus": 1.5}, "'kraus' must be a list of matrix objects, got number"),
        ({"dim": 2, "kraus": [[1, 2]]}, "'kraus' entry 0 must be a matrix object, got [1, 2]"),
        ({"dim": 10**11, "kraus": []}, "system dimension must be in [2, 16], got 100000000000"),
        ({"dim": 2**63, "kraus": []}, f"system dimension must be in [2, 16], got {2**63}"),
        ({"dim": 2, "kraus": []}, "a channel needs at least one Kraus operator"),
    ])
    def test_channel_file_of_a_wrong_shape_names_what_is_wrong(self, tmp_path, capsys, obj, message):
        # these read as "string indices must be integers, not 'str'", "'dim'"
        # and "list indices must be integers or slices, not str"; the sizes
        # were checked after the operators were stacked, so numpy read the
        # two large dimensions as "array is too big" and "Maximum allowed
        # dimension exceeded"
        ch_path = tmp_path / "shape.json"
        ch_path.write_text(json.dumps(obj))
        out = tmp_path / "x"
        assert cli.main(["sweep", "--channel", str(ch_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: could not load channel file {str(ch_path)!r}: {message}\n"
        assert not out.exists()

    def test_dimension_rule_is_one_for_flags_and_channel_files(self, tmp_path, capsys):
        # --dims 17 said "dimension 17 outside the supported range [2, 16]"
        ch_path = tmp_path / "d17.json"
        ch_path.write_text(json.dumps({"dim": 17, "kraus": [matcore.matrix_to_json(np.eye(17))]}))
        assert cli.main(["sweep", "--dims", "17", "--out", str(tmp_path / "x")]) == 2
        flag = capsys.readouterr().err
        assert cli.main(["sweep", "--channel", str(ch_path), "--out", str(tmp_path / "y")]) == 2
        message = "system dimension must be in [2, 16], got 17\n"
        assert flag == f"config error: {message}" and capsys.readouterr().err.endswith(f": {message}")

    def test_channel_file_dim_is_an_integer(self, tmp_path, capsys):
        # "dim": 2.7 ran as d = 2
        ch_path = tmp_path / "frac.json"
        obj = chmod.channel_to_json(sampler.named_channel("identity", 2))
        ch_path.write_text(json.dumps({**obj, "dim": 2.7}))
        out = tmp_path / "x"
        assert cli.main(["sweep", "--channel", str(ch_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'dim' must be an integer >= 1, got 2.7" in err
        assert not out.exists()

    @pytest.mark.parametrize("re, im", [
        (["1e0", 0.0, 0.0, 1.0], [0.0] * 4),
        ([True, 0.0, 0.0, 1.0], [0.0] * 4),
        ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]),
        pytest.param([10**400, 0.0, 0.0, 1.0], [0.0] * 4, id="10**400"),
        pytest.param(["<5000 digits>", 0.0, 0.0, 1.0], [0.0] * 4, id="5000-digits"),
    ])
    def test_input_file_entries_are_json_numbers(self, tmp_path, capsys, re, im):
        # numpy alone reads the first three as the identity, which passes, and
        # raised OverflowError on 10**400, whose message then echoed its 401
        # digits; json.load refused 5000 digits with a message naming no key
        matrix = {"rows": 2, "cols": 2, "re": re, "im": im}
        (tmp_path / "m.json").write_text(json_text(matrix))
        (tmp_path / "ch.json").write_text(json_text({"dim": 2, "kraus": [matrix]}))
        out = tmp_path / "x"
        for argv in (["inequalities", "--matrix", str(tmp_path / "m.json"), "--only", "21in"],
                     ["sweep", "--channel", str(tmp_path / "ch.json")]):
            assert cli.main([*argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "'re' entry 0 must be a number" in err
            assert "0" * 20 not in err
            assert not out.exists()

    @pytest.mark.parametrize("flag, value, cell", [("--s", "1e6", "q=0.3, s=1000000.0"),
                                                   ("--q", "1000", "q=1000.0, s=-2.0")])
    def test_non_finite_cell_is_a_config_error(self, tmp_path, capsys, flag, value, cell):
        out = tmp_path / "x"
        code = cli.main(["sweep", "--dims", "2", "--samples", "1", flag, value, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "not finite" in err
        assert cell in err and "cptp-d2-0000" in err
        assert not (out / "report.csv").exists()

    def test_missing_channel_file_is_a_config_error(self, tmp_path, capsys):
        code = cli.main(["sweep", "--channel", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "nope.json" in err

    def test_non_tp_channel_file_is_a_config_error(self, tmp_path, capsys):
        ch_path = tmp_path / "nontp.json"
        ch_path.write_text(json.dumps({"dim": 2, "kraus": [matcore.matrix_to_json(1.1 * np.eye(2))]}))
        code = cli.main(["sweep", "--channel", str(ch_path), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "trace-preservation" in err

    @pytest.mark.parametrize("text", ["{not json", '{"dim": 2}', "[1, 2]"])
    def test_malformed_channel_file_is_a_config_error(self, tmp_path, capsys, text):
        ch_path = tmp_path / "bad.json"
        ch_path.write_text(text)
        assert cli.main(["sweep", "--channel", str(ch_path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("config error:")


class TestStackedSweep:
    """A sweep over stacks of channels writes what a sweep over stacks of one writes."""

    ARGS = ["sweep", "--dims", "2,3", "--samples", "5", "--seed", "13"]

    @staticmethod
    def run_both(tmp_path, monkeypatch, capsys, args):
        """Exit code, stderr and every output file's bytes, stacked and one channel at a time."""
        results = []
        for entries in (cli.STACK_ENTRIES, 1):  # stacks of a whole (dim, family), and of one channel
            monkeypatch.setattr(cli, "STACK_ENTRIES", entries)
            out = tmp_path / f"entries{entries}"
            code = cli.main([*args, "--out", str(out)])
            files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            results.append((code, capsys.readouterr().err, files))
        assert results[0] == results[1]
        return results[0]

    def test_passing_sweep(self, tmp_path, monkeypatch, capsys):
        code, _, files = self.run_both(tmp_path, monkeypatch, capsys, self.ARGS)
        assert code == 0 and set(files) == {"report.csv", "summary.json"}

    def test_violation_inside_a_stack(self, tmp_path, monkeypatch, capsys):
        # the gap tolerance that makes the first violation fall on a channel
        # that is not the first of its (dim, family) stack
        assert cli.main([*self.ARGS, "--out", str(tmp_path / "ok")]) == 0
        passing = (tmp_path / "ok" / "report.csv").read_bytes()
        _, rows = read_csv_rows(tmp_path / "ok" / "report.csv")
        ids, gaps = [], {}
        for row in rows:
            ids += [row["channel_id"]] if row["channel_id"] not in gaps else []
            gaps[row["channel_id"]] = min(gaps.get(row["channel_id"], np.inf), float(row["gap"]))
        running = [min(gaps[c] for c in ids[: k + 1]) for k in range(len(ids))]
        k = next(k for k in range(1, len(ids)) if running[k] < running[k - 1] and k % 5)
        # a negative tolerance
        tol = -(running[k] + running[k - 1]) / 2
        monkeypatch.setattr(tradeoff, "GAP_TOL", tol)
        code, err, files = self.run_both(tmp_path, monkeypatch, capsys, self.ARGS)
        assert code == 1 and err.count("BOUND VIOLATION") == 1 and ids[k] in err
        # the sweep runs to the end: every row is written, as on the passing run
        assert files["report.csv"] == passing
        summary = json.loads(files["summary.json"])
        families = summary["per_family"].values()
        assert len(families) == 3 and summary["violations"] == 1
        assert summary["rows"] == sum(f["rows"] for f in families) == len(rows)
        assert summary["min_gap"] == min(f["min_gap"] for f in families) == min(gaps.values())
        # the counterexample is the first violated cell in row order
        first = next(row for row in rows if float(row["gap"]) < -tol)
        assert first["channel_id"] == ids[k]
        assert [p for p in files if p.startswith("counterexamples/")] == [f"counterexamples/{ids[k]}.json"]
        report = json.loads(files[f"counterexamples/{ids[k]}.json"])["report"]
        assert (report["q"], report["s"], report["gap"]) == (float(first["q"]), float(first["s"]), float(first["gap"]))

    @pytest.mark.parametrize("flag, value", [("--s", "1e6"), ("--q", "1000")])
    def test_config_errors(self, tmp_path, monkeypatch, capsys, flag, value):
        code, err, files = self.run_both(tmp_path, monkeypatch, capsys, [*self.ARGS, flag, value])
        assert code == 2 and "not finite" in err and "cptp-d2-0000" in err
        assert "report.csv" not in files

    def test_error_after_written_stacks_leaves_no_report(self, tmp_path, monkeypatch, capsys):
        # the rows of the stacks before the error were written already
        calls = []
        original = cli.evaluate_profile

        def evaluate(profile, *args, **kwargs):
            calls.append(profile.channel_id)
            if len(calls) == 3:
                raise DomainError(f"planted error on {profile.channel_id[0]}")
            return original(profile, *args, **kwargs)

        monkeypatch.setattr(cli, "evaluate_profile", evaluate)
        monkeypatch.setattr(cli, "STACK_ENTRIES", 1)
        out = tmp_path / "x"
        assert cli.main([*self.ARGS, "--out", str(out)]) == 2
        assert "planted error on cptp-d2-0002" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_channel_file_stem_is_csv_quoted(self, tmp_path, monkeypatch, capsys):
        ch_path = tmp_path / 'ad,"0.3".json'
        save_channel(sampler.named_channel("amplitude-damping", 2, 0.3), ch_path)
        code, _, files = self.run_both(tmp_path, monkeypatch, capsys, ["sweep", "--channel", str(ch_path)])
        assert code == 0
        lines = files["report.csv"].decode().split("\r\n")
        assert lines[1].startswith('"ad,""0.3""",file,2,false,0.3,-2.0,')
        assert next(csv.reader(lines[1:2]))[0] == 'ad,"0.3"'

    def test_stacks_are_cut_by_dimension_family_and_size(self, tmp_path, monkeypatch):
        sizes = []
        original = cli.profile_channel
        monkeypatch.setattr(cli, "profile_channel", lambda chs, ids: sizes.append(len(chs)) or original(chs, ids))
        # a 1x1 grid at d = 2: D's 16 entries bound the stack
        monkeypatch.setattr(cli, "STACK_ENTRIES", 4 * 16)
        args = ["sweep", "--dims", "2", "--samples", "5", "--family", "cptp,unitary-mixture"]
        assert cli.main([*args, "--q", "2", "--s", "0", "--out", str(tmp_path / "x")]) == 0
        assert sizes == [4, 1, 4, 1]

    def test_large_grids_make_small_stacks(self, tmp_path, monkeypatch):
        # a 40x40 grid at d = 2: the kernel's (n, n_q, n_s) arrays bound the stack
        seen = []
        original = cli.evaluate_profile
        monkeypatch.setattr(cli, "evaluate_profile", lambda *a, **k: seen.append(original(*a, **k)) or seen[-1])
        grid = ",".join(str(0.1 * (i + 1)) for i in range(40))
        args = ["sweep", "--dims", "2", "--samples", "100", "--family", "cptp", "--q", grid, "--s", grid]
        assert cli.main([*args, "--out", str(tmp_path / "x")]) == 0
        assert [g.gap.shape[0] for g in seen] == [40, 40, 20]
        assert all(g.gap.size <= cli.STACK_ENTRIES for g in seen)


class TestFloatTexts:
    """Every float of report.csv is ``repr`` of its double, whichever route wrote it."""

    FLOAT_COLUMNS = ("q", "s", "map_entropy", "receiver_entropy", "sum", "bound_all", "bound_unital", "gap")

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(xs=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40))
    def test_equals_repr(self, xs):
        assert cli._float_texts(np.array(xs, dtype=float)) == [repr(x) for x in xs]

    @pytest.mark.parametrize("x", [
        1e-4, np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0), 5e-324, 1.7976931348623157e308,
        -1e-4, -1e16, 0.0, -0.0, float("inf"), float("-inf"), float("nan"),
    ])
    def test_band_edges(self, x):
        # 0 and the magnitudes [1e-4, 1e16) are orjson's text, all else repr's
        assert cli._float_texts(np.array([x])) == [repr(float(x))]

    def test_empty(self):
        assert cli._float_texts(np.array([])) == []
        assert cli._float_texts(np.zeros((3, 0))) == []

    def test_random_bit_patterns_and_row_major_order(self):
        bits = np.random.default_rng(20).integers(0, 2**64, size=(200, 250), dtype=np.uint64)
        a = bits.view(np.float64)
        assert cli._float_texts(a) == [repr(x) for x in a.ravel().tolist()]
        # a strided view is read in its own row-major order
        assert cli._float_texts(a.T) == [repr(x) for x in a.T.ravel().tolist()]

    def test_report_cells_outside_the_band(self, tmp_path):
        # orders at s = 300 give cells up to 1e+88, and q = 0.3 at d = 3, 4
        # gaps of -1.1e-16: both need repr's exponent notation
        out = tmp_path / "exponents"
        code = cli.main([
            "sweep", "--family", "named:identity,named:completely-depolarizing", "--dims", "2,3,4",
            "--samples", "1", "--q=0.3,0.5,2", "--s=-2,0,1,300", "--out", str(out),
        ])
        assert code == 0
        with open(out / "report.csv", newline="") as fh:
            cells = [row[col] for row in csv.DictReader(fh) for col in self.FLOAT_COLUMNS if row[col]]
        assert len(cells) > 72 * 7
        assert all(cell == repr(float(cell)) for cell in cells)
        assert any("e+" in cell for cell in cells) and any("e-" in cell for cell in cells)


def failing_at(check, entries):
    """``check`` with the given ``(input, order)`` entries of each batch marked failed."""

    def wrapped(*args):
        batch = check(*args)
        passed = batch.passed.copy()
        for i, j in entries:
            passed[i, j] = False
        return dataclasses.replace(batch, passed=passed)

    return wrapped


def failing_on(check, entries):
    """``check`` with the entries ``(matrix, order)`` marked failed wherever that matrix is an input."""

    def wrapped(x, *rest):
        batch = check(x, *rest)
        passed = batch.passed.copy()
        for m, j in entries:
            passed[(x == m).all(axis=(1, 2)), j] = False
        return dataclasses.replace(batch, passed=passed)

    return wrapped


def ginibre_matrix(family, stream, d, index):
    """Matrix number ``index`` of the default suite's ``family`` ("mat" ``G``, "psd" ``G G^dag``) on ``stream``."""
    (*_, x), = sampler.population(cli.DEFAULT_SEED, (d,), (family,), index + 1, stream)
    return x[index]


class TestInequalities:
    def test_default_small_run(self, tmp_path):
        out = tmp_path / "iq"
        code = cli.main(
            ["inequalities", "--dims", "2,3", "--samples", "4", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["checks"]) == {"prop1", "21in", "npqr", "sups", "upkp", "cbn0"}
        for name, entry in summary["checks"].items():
            assert entry["passed"], name
            assert entry["min_slack"] >= -1e-9

    def test_only_cbn0_on_unitary_mixtures(self, tmp_path):
        out = tmp_path / "cbn0"
        code = cli.main(
            [
                "inequalities",
                "--only",
                "cbn0",
                "--family",
                "unitary-mixture",
                "--dims",
                "2,3",
                "--samples",
                "6",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary["checks"]) == ["cbn0"]
        # slack is relative to the unital bound d, so >= 0 means ratio >= d
        assert summary["checks"]["cbn0"]["min_slack"] >= -1e-9

    def test_unknown_check_rejected(self, tmp_path, capsys):
        assert cli.main(["inequalities", "--only", "nope", "--out", str(tmp_path / "x")]) == 2
        assert "nope" in capsys.readouterr().err

    def test_injected_faulty_matrix_fails_with_provenance(self, tmp_path, capsys):
        bad = np.diag([1.0, -1e-3])
        mat_path = tmp_path / "faulty.json"
        mat_path.write_text(json.dumps(matcore.matrix_to_json(bad)))
        out = tmp_path / "fail"
        code = cli.main(
            ["inequalities", "--only", "prop1", "--q", "0.5", "--matrix", str(mat_path), "--out", str(out)]
        )
        assert code == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failure"]["kind"] == "NotPositiveError"
        assert (out / "counterexamples" / "faulty.json").exists()
        assert "NotPositiveError" in capsys.readouterr().err

    def test_channel_check_on_matrix_file_is_a_config_error(self, tmp_path, capsys):
        mat_path = tmp_path / "m.json"
        mat_path.write_text(json.dumps(matcore.matrix_to_json(np.eye(2))))
        out = tmp_path / "none"
        code = cli.main(["inequalities", "--matrix", str(mat_path), "--only", "upkp", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: no check ran")
        assert not (out / "summary.json").exists()

    def test_named_families_reach_the_channel_checks(self, tmp_path):
        # the identity and the completely depolarizing channel saturate the
        # receiver-entropy bound's norm inequalities: each counts once per
        # dimension at the default sample count, as in a sweep
        out = tmp_path / "named"
        code = cli.main([
            "inequalities", "--family", "named:identity,named:completely-depolarizing",
            "--dims", "2,3,4,8,16", "--out", str(out),
        ])
        assert code == 0
        checks = json.loads((out / "summary.json").read_text())["checks"]
        for name in ("upkp", "cbn0"):
            assert checks[name]["count"] == 10 and checks[name]["passed"], name
            assert abs(checks[name]["min_slack"]) <= 1e-12, name

    def test_channel_checks_count_every_family(self, tmp_path):
        # two drawn channels and the one named channel
        out = tmp_path / "both"
        code = cli.main([
            "inequalities", "--family", "cptp,named:identity", "--dims", "2", "--samples", "2",
            "--only", "upkp", "--out", str(out),
        ])
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["checks"]["upkp"]["count"] == 3

    @pytest.mark.parametrize("only, during", [(None, "prop1"), ("npqr", "npqr")])
    def test_error_names_the_check_it_was_raised_in(self, tmp_path, only, during):
        # negative semidefinite: prop1 is the first check to meet it
        mat_path = tmp_path / "negative-small.json"
        mat_path.write_text(json.dumps(matcore.matrix_to_json(np.diag([-1e-12, 0.0]))))
        out = tmp_path / "err"
        args = ["inequalities", "--matrix", str(mat_path), "--out", str(out)]
        assert cli.main(args + (["--only", only] if only else [])) == 1
        failure = json.loads((out / "summary.json").read_text())["failure"]
        assert failure["check"] == "error" and failure["kind"] == "NotPositiveError"
        assert failure["during"] == during
        assert failure["inputs"] == ["negative-small", "negative-small"]

    def test_matrix_file_runs_the_matrix_checks_only(self, tmp_path):
        mat_path = tmp_path / "m.json"
        mat_path.write_text(json.dumps(matcore.matrix_to_json(np.diag([2.0, 1.0]))))
        out = tmp_path / "mat"
        assert cli.main(["inequalities", "--matrix", str(mat_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["checks"]) == {"prop1", "21in", "npqr"}

    def test_missing_matrix_file_is_a_config_error(self, tmp_path, capsys):
        code = cli.main(["inequalities", "--matrix", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "nope.json" in err

    @pytest.mark.parametrize("entry", ["NaN", "Infinity"])
    @pytest.mark.parametrize("check", ["prop1", "21in", "npqr", "sups"])
    def test_non_finite_matrix_file_is_a_config_error(self, tmp_path, capsys, check, entry):
        # json reads NaN and Infinity; a check on them passed with slack 0,
        # failed as a zero matrix, or failed as a violated inequality
        mat_path = tmp_path / "nan.json"
        mat_path.write_text(f'{{"rows": 2, "cols": 2, "re": [{entry}, 0.0, 0.0, 1.0], "im": [0, 0, 0, 0]}}')
        out = tmp_path / "x"
        assert cli.main(["inequalities", "--matrix", str(mat_path), "--only", check, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "must be finite" in err
        assert not out.exists() or not any(out.iterdir())

    # an integer entry beyond the double range raised OverflowError, a traceback
    @pytest.mark.parametrize("text", [
        "{not json", '{"rows": 2}', pytest.param('{"rows": 1, "cols": 1, "re": [1%s], "im": [0]}' % ("0" * 400), id="10**400"),
    ])
    def test_malformed_matrix_file_is_a_config_error(self, tmp_path, capsys, text):
        mat_path = tmp_path / "bad.json"
        mat_path.write_text(text)
        assert cli.main(["inequalities", "--matrix", str(mat_path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("obj, message", [
        ([1, 2], "a matrix must be a JSON object, got list"),
        (None, "a matrix must be a JSON object, got null"),
        ({"dim": 2, "kraus": {"re": 1}}, "a matrix object has no key 'rows', which must be an integer >= 1"),
        ({"rows": 1, "cols": 1, "re": [1.0]}, "a matrix object has no key 'im', which must be a list of numbers"),
    ])
    def test_matrix_file_of_a_wrong_shape_names_what_is_wrong(self, tmp_path, capsys, obj, message):
        # these read as "list indices must be integers or slices, not str" and "'rows'"
        mat_path = tmp_path / "shape.json"
        mat_path.write_text(json.dumps(obj))
        out = tmp_path / "x"
        assert cli.main(["inequalities", "--matrix", str(mat_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: could not load matrix file {str(mat_path)!r}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("sizes, named", [
        ({"rows": 0, "cols": 0, "re": [], "im": []}, "'rows' must be an integer >= 1, got 0"),
        ({"rows": 2.9, "cols": True, "re": [1.0, 2.0], "im": [0.0, 0.0]}, "got 2.9"),
        ({"rows": 2, "cols": True, "re": [1.0, 2.0], "im": [0.0, 0.0]}, "'cols' must be an integer >= 1, got True"),
    ])
    def test_matrix_file_sizes_are_integers_from_1(self, tmp_path, capsys, sizes, named):
        # a 0 x 0 file passed 21in with no slack; 2.9 x true was read as 2 x 1
        mat_path = tmp_path / "sizes.json"
        mat_path.write_text(json.dumps(sizes))
        out = tmp_path / "x"
        assert cli.main(["inequalities", "--matrix", str(mat_path), "--only", "21in", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not out.exists()

    def test_non_square_matrix_file_is_a_config_error(self, tmp_path, capsys):
        # prop1 at an anti-norm order, npqr and sups need a square matrix: a
        # 2 x 3 file is an input they cannot take, not a counterexample
        mat_path = tmp_path / "rect.json"
        mat_path.write_text(json.dumps(matcore.matrix_to_json(np.arange(6.0).reshape(2, 3))))
        out = tmp_path / "rect"
        assert cli.main(["inequalities", "--matrix", str(mat_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: expected a square matrix, got shape (2, 3)\n"
        assert out.is_dir() and not any(out.iterdir())
        # the checks that take its singular values alone still run on it
        for only in (["--only", "21in"], ["--only", "prop1", "--q", "2"]):
            assert cli.main(["inequalities", "--matrix", str(mat_path), *only, "--out", str(out)]) == 0

    @pytest.mark.parametrize("only", [["prop1"], ["prop1", "--q", "0.5"], ["npqr"]])
    def test_non_hermitian_matrix_file_is_a_config_error(self, tmp_path, capsys, only):
        # the anti-norm checks take its eigenvalues: a matrix they cannot
        # decompose is an input they cannot take, not a counterexample
        mat_path = tmp_path / "nh.json"
        mat_path.write_text(json.dumps(matcore.matrix_to_json(np.array([[1.0, 1.0], [0.0, 1.0]]))))
        out = tmp_path / "nh"
        assert cli.main(["inequalities", "--matrix", str(mat_path), "--only", *only, "--out", str(out)]) == 2
        # every check names the file's own deviation
        want = "config error: Hermiticity deviation 1.000e+00 exceeds 1.0e-08 times the largest entry, 1.000e+00\n"
        assert capsys.readouterr().err == want
        assert out.is_dir() and not (out / "summary.json").exists() and not any(out.iterdir())

    def test_zero_matrix_file_is_a_config_error(self, tmp_path, capsys):
        # prop1's interpolation is undefined on a zero matrix
        mat_path = tmp_path / "zero.json"
        mat_path.write_text(json.dumps(matcore.matrix_to_json(np.zeros((2, 2)))))
        out = tmp_path / "zero"
        assert cli.main(["inequalities", "--matrix", str(mat_path), "--only", "prop1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: matrix is zero; the interpolation is undefined\n"
        assert out.is_dir() and not any(out.iterdir())

    def test_non_finite_slack_fails_the_run(self, tmp_path, capsys, monkeypatch):
        # sups with a NaN log ratio (both sides infinite, say): its slack is
        # NaN, so the check fails, with no minimum slack (JSON null, not the
        # non-standard Infinity)
        check = spectra.check_superadditivity

        def overflowing(x, y, q):
            batch = check(x, y, q)
            return spectra._batch(np.full(batch.slack.shape, np.nan), ("<=",) * batch.slack.shape[1], 1e-10)

        monkeypatch.setattr(spectra, "check_superadditivity", overflowing)
        out = tmp_path / "nan-slack"
        code = cli.main(["inequalities", "--dims", "2", "--samples", "1", "--q", "0.5", "--out", str(out)])
        assert code == 1 and "INEQUALITY SUITE FAILED" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)
        assert summary["failure"] == {"check": "sups", "input": "psd-d2-0000", "kind": "inequality-failed"}
        assert summary["checks"]["sups"] == {"count": 1, "min_slack": None, "passed": False}

    @pytest.mark.parametrize("q", ["1e-5", "1e-300", "1e-310"])
    def test_small_q_inequalities_pass(self, tmp_path, q):
        # both anti-norms of sups overflow at 1/q = 1e5 and beyond; their
        # logarithms are compared, and superadditivity holds with a finite
        # slack, also at a subnormal q, where ln(n)/q overflows too
        out = tmp_path / "small-q"
        code = cli.main(["inequalities", "--dims", "2", "--samples", "1", "--q", q, "--out", str(out)])
        assert code == 0
        sups = json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)["checks"]["sups"]
        assert sups["passed"] and 0.0 < sups["min_slack"] <= 1.0

    def test_large_matrix_entries_pass_21in(self, tmp_path):
        # the squares of diag(3e155, 1e155) overflow; 21in compares its sides
        # in logs and reports the slack of diag(3, 1)
        mat_path = tmp_path / "big.json"
        mat_path.write_text(json.dumps(matcore.matrix_to_json(np.diag([3e155, 1e155]))))
        out = tmp_path / "big"
        assert cli.main(["inequalities", "--matrix", str(mat_path), "--only", "21in", "--out", str(out)]) == 0
        check = json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)["checks"]["21in"]
        assert check["passed"] and check["min_slack"] == pytest.approx(1.0 - (10.0 / 12.0) ** 0.5, abs=1e-15)

    @pytest.mark.parametrize("x, errors", [
        (np.diag([1e308, 5e307]), {"prop1": None, "21in": None, "npqr": None}),
        (np.array([[1.7e308, 1e308], [1e308, 1.7e308]]),
         dict.fromkeys(("prop1", "21in", "npqr"), "the spectrum is beyond the double range")),
    ], ids=["psd", "spectrum-beyond-a-double"])
    def test_matrix_at_the_edge_of_the_double_range(self, tmp_path, capsys, x, errors):
        # diag(1e308, 5e307) is PSD and every one-matrix check takes it; the
        # second matrix's largest eigenvalue and singular value, 2.7e308, are
        # beyond a double.  sups takes no --matrix file, whatever its entries
        # (an overflowing sum of two operands: TestBatchErrorsInStackOrder)
        errors = {**errors, "sups": "no check ran for sups: it takes two matrices, not one --matrix file"}
        mat_path = tmp_path / "edge.json"
        mat_path.write_text(json.dumps(matcore.matrix_to_json(x)))
        for only, error in errors.items():
            args = ["inequalities", "--matrix", str(mat_path), "--only", only, "--out", str(tmp_path / only)]
            assert cli.main(args) == (0 if error is None else 2), only
            if error is not None:
                assert capsys.readouterr().err == f"config error: {error}\n", only

    def test_largest_doubles_read_the_slacks_of_the_unit_scale(self, tmp_path):
        # 1e308 diag(1, 0.5) is decomposed with no entry beyond a double
        slacks = {}
        for scale in (1.0, 1e308):
            mat_path = tmp_path / "scaled.json"
            mat_path.write_text(json.dumps(matcore.matrix_to_json(scale * np.diag([1.0, 0.5]))))
            for only in ("prop1", "21in", "npqr"):
                out = tmp_path / only
                assert cli.main(["inequalities", "--matrix", str(mat_path), "--only", only, "--out", str(out)]) == 0
                slacks[scale, only] = json.loads((out / "summary.json").read_text())["checks"][only]["min_slack"]
        for only in ("prop1", "21in", "npqr"):
            assert abs(slacks[1e308, only] - slacks[1.0, only]) <= 1e-15, only

    def test_tiny_matrix_entries_pass_prop1(self, tmp_path):
        # the powers of diag(1e-200, 1e-201) underflow to 0; prop1 compares
        # its sides scaled and reports the slack of diag(1, 0.1)
        mat_path = tmp_path / "tiny.json"
        mat_path.write_text(json.dumps(matcore.matrix_to_json(np.diag([1e-200, 1e-201]))))
        out = tmp_path / "tiny"
        args = ["inequalities", "--matrix", str(mat_path), "--only", "prop1", "--q", "3", "--out", str(out)]
        assert cli.main(args) == 0
        check = json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)["checks"]["prop1"]
        want = spectra.check_prop1(np.diag([1.0, 0.1])[None], 3.0).slack[0, 0]
        assert check["passed"] and check["min_slack"] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("only", ["npqr", "prop1"])
    def test_large_rank_one_matrix_is_psd(self, tmp_path, only):
        # 1e7 v v^dag, lam_max 1.14e9, has an eigenvalue of about -8.7e-8
        # from rounding, 7.7e-17 of lam_max, which the PSD check rejected
        # below an absolute -6.0e-09; 1e150 v v^dag with one entry one ulp
        # off deviates from Hermitian by 3.6e134, within the tolerance
        # relative to its largest entry
        v = np.arange(1, 7) * (1 + 0.5j)
        huge = 1e150 * np.outer(v, v.conj())
        huge[0, 1] = np.nextafter(huge[0, 1].real, np.inf) + 1j * huge[0, 1].imag
        out = tmp_path / "rank1"
        for x in (1e7 * np.outer(v, v.conj()), huge):
            mat_path = tmp_path / "rank1.json"
            mat_path.write_text(json.dumps(matcore.matrix_to_json(x)))
            for orders in (["--q", "0.5"], []):  # an anti-norm order, and the default grid
                argv = ["inequalities", "--matrix", str(mat_path), "--only", only, *orders, "--out", str(out)]
                assert cli.main(argv) == 0

    @pytest.mark.parametrize("q", ["600", "1e300"])
    def test_large_q_inequalities_pass(self, tmp_path, q):
        # every lambda**q of psd-d2-0000 (largest eigenvalue 11.7) overflows;
        # prop1 compares its sides scaled, and the inequality holds
        out = tmp_path / "large-q"
        code = cli.main(["inequalities", "--dims", "2", "--samples", "1", "--q", q, "--out", str(out)])
        assert code == 0
        prop1 = json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)["checks"]["prop1"]
        assert prop1["passed"] and 0.0 < prop1["min_slack"] <= 1.0

    def test_large_q_cell_is_finite(self, tmp_path):
        # every w**600 of this channel's receiver spectrum underflows
        out = tmp_path / "large-q"
        code = cli.main(["sweep", "--dims", "2", "--samples", "1", "--q", "600", "--s", "0", "--out", str(out)])
        assert code == 0
        _, rows = read_csv_rows(out / "report.csv")
        assert [row["channel_id"] for row in rows][1] == "unitary-mixture-d2-0000"
        for row in rows:
            assert np.isfinite(float(row["map_entropy"])) and np.isfinite(float(row["receiver_entropy"]))


class TestInequalityStacks:
    """The suite's stacks hold at most STACK_ENTRIES matrix entries: d**4 per channel, d**2 per matrix."""

    @pytest.mark.parametrize("d, samples, sizes", [
        (2, 130, [130]), (4, 130, [130]), (8, 17, [16, 1]), (16, 2, [1, 1]),
    ])
    def test_channel_stacks(self, tmp_path, monkeypatch, d, samples, sizes):
        seen = []
        original = cli.profile_channel
        monkeypatch.setattr(cli, "profile_channel", lambda chs, ids: seen.append(len(chs)) or original(chs, ids))
        args = ["inequalities", "--dims", str(d), "--samples", str(samples), "--family", "cptp", "--only", "upkp"]
        assert cli.main([*args, "--out", str(tmp_path / "x")]) == 0
        assert seen == sizes

    def test_matrix_stacks_stay_at_stack_size(self, tmp_path, monkeypatch):
        seen = []
        original = spectra.check_prop1
        monkeypatch.setattr(spectra, "check_prop1", lambda x, q: seen.append(len(x)) or original(x, q))
        args = ["inequalities", "--dims", "16", "--samples", "130", "--only", "prop1"]
        assert cli.main([*args, "--out", str(tmp_path / "x")]) == 0
        assert seen == [130]

    def test_150_samples_are_one_stack_per_population(self, tmp_path, monkeypatch):
        seen = []
        original = cli.profile_channel
        monkeypatch.setattr(cli, "profile_channel", lambda chs, ids: seen.append(len(chs)) or original(chs, ids))
        for name in ("check_prop1", "check_two_inf_one", "check_antinorm_monotonicity"):
            check = getattr(spectra, name)
            monkeypatch.setattr(spectra, name, lambda x, *a, _c=check: seen.append(len(x)) or _c(x, *a))
        args = ["inequalities", "--dims", "2,3", "--samples", "150", "--out", str(tmp_path / "x")]
        assert cli.main(args) == 0
        assert seen == [150] * 12


class TestOneProfilePerStack:
    """Both harnesses build ``D`` once per channel stack, inside ``profile_channel``'s receiver spectrum."""

    @pytest.mark.parametrize("command, sizes", [
        # d = 3: D's 81 entries bound both; d = 2: the sweep's 9x7 grid, the suite's 16 entries of D
        ("sweep", [2, 1] * 4),
        ("inequalities", [3, 3, 2, 1, 2, 1]),
    ], ids=["sweep", "inequalities"])
    def test_one_dynamical_build_per_stack(self, tmp_path, monkeypatch, command, sizes):
        seen = []
        original = chmod.dynamical_from_kraus
        monkeypatch.setattr(chmod, "dynamical_from_kraus", lambda ops: seen.append(len(ops)) or original(ops))
        monkeypatch.setattr(cli, "STACK_ENTRIES", 2 * 81)
        args = [command, "--dims", "2,3", "--samples", "3", "--family", "cptp,unitary-mixture"]
        assert cli.main([*args, "--out", str(tmp_path / "x")]) == 0
        assert seen == sizes

    @pytest.mark.parametrize("command", ["sweep", "inequalities"])
    def test_a_named_family_is_one_channel_per_dimension(self, tmp_path, monkeypatch, command):
        # one stack of one per named family and dimension, whatever --samples says, as a --channel file is
        seen = []
        original = cli.profile_channel
        monkeypatch.setattr(cli, "profile_channel", lambda ops, ids: seen.append((ids, len(ops))) or original(ops, ids))
        families = ("named:identity", "named:dephasing:1")
        args = [command, "--dims", "2,3", "--samples", "50", "--family", ",".join(families)]
        assert cli.main([*args, "--out", str(tmp_path / "x")]) == 0
        assert seen == [([f"{family}-d{d}-0000"], 1) for d in (2, 3) for family in families]

    def test_suite_decomposes_no_dynamical_matrix(self, tmp_path, monkeypatch):
        # cbn0 reads D through Tr D and |D|_2 = |K|_2, and no other check reads D's spectrum
        def no_spectrum(*args):
            raise AssertionError("the inequality suite took a spectrum of D")

        monkeypatch.setattr(chmod, "dynamical_spectrum", no_spectrum)
        out = tmp_path / "x"
        assert cli.main(["inequalities", "--dims", "2,3", "--samples", "150", "--out", str(out)]) == 0
        checks = json.loads((out / "summary.json").read_text())["checks"]
        counts = {"21in": 300, "cbn0": 900, "npqr": 900, "prop1": 2700, "sups": 900, "upkp": 900}
        assert {name: entry["count"] for name, entry in checks.items()} == counts
        assert all(entry["passed"] for entry in checks.values())


class TestKrausArrays:
    """Channel stacks stay the Kraus arrays the sampler draws, and seeds are derived once per stack."""

    def test_suite_derives_seeds_once_per_stack(self, tmp_path, monkeypatch):
        derived, passes = [], []
        derive, states = sampler._derive_seeds, sampler._seed_states
        monkeypatch.setattr(sampler, "_derive_seeds", lambda p, i: derived.append((p, list(i))) or derive(p, i))
        monkeypatch.setattr(sampler, "_seed_states", lambda e, n: passes.append(n) or states(e, n))
        # 18 entries: a stack of 4 matrices at d = 2 and of 2 at d = 3, and of one channel
        monkeypatch.setattr(cli, "STACK_ENTRIES", 18)
        args = ["inequalities", "--dims", "2,3", "--samples", "5", "--out", str(tmp_path / "x")]
        assert cli.main(args) == 0

        def stacks(prefix, size):
            return [(prefix, list(range(i, min(i + size, 5)))) for i in range(0, 5, size)]

        # one derivation per stack, of its one prefix and its own indices
        seed = cli.DEFAULT_SEED
        want = [s for stream in range(201, 206) for d in (2, 3) for s in stacks((seed, stream, d), 18 // d**2)]
        want += [s for d in (2, 3) for code in sampler.FAMILY_CODES.values() for s in stacks((seed, 100 + code, d), 1)]
        assert sorted(derived) == sorted(want)
        assert passes.count(2) == len(want)  # a derivation pass makes two words per seed, a stream state eight


class TestInequalityFailures:
    """What the suite reports when a check fails on some inputs of a stack."""

    @staticmethod
    def run(tmp_path, *flags):
        out = tmp_path / "fail"
        code = cli.main(["inequalities", "--dims", "2", "--samples", "10", *flags, "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        files = sorted(p.name for p in (out / "counterexamples").iterdir())
        return code, summary, files, out / "counterexamples"

    # stacks of all ten matrices, and of four: 16 entries, d**2 = 4 per matrix
    @pytest.mark.parametrize("stack_entries", [cli.STACK_ENTRIES, 16])
    # an entry is (input, order column); -1 is the last order, the only one of 21in
    @pytest.mark.parametrize("entries, first", [([(7, 0), (3, -1)], 3), ([(9, -1)], 9)])
    # each one-operand check, with its population and its order count
    @pytest.mark.parametrize("name, function, family, stream, orders", [
        pytest.param("prop1", "check_prop1", "psd", 201, 9, id="prop1"),
        pytest.param("21in", "check_two_inf_one", "mat", 202, 1, id="21in"),
        pytest.param("npqr", "check_antinorm_monotonicity", "psd", 203, 3, id="npqr"),
    ])
    def test_npqr_failure_names_the_first_input_and_writes_its_matrix(
        self, tmp_path, monkeypatch, name, function, family, stream, orders, stack_entries, entries, first
    ):
        marks = [(ginibre_matrix(family, stream, 2, i), j) for i, j in entries]
        monkeypatch.setattr(spectra, function, failing_on(getattr(spectra, function), marks))
        monkeypatch.setattr(cli, "STACK_ENTRIES", stack_entries)
        code, summary, files, ce = self.run(tmp_path, "--only", name)
        assert code == 1
        label = f"{family}-d2-{first:04d}"
        assert summary["failure"] == {"check": name, "input": label, "kind": "inequality-failed"}
        assert summary["checks"][name]["count"] == 10 * orders and not summary["checks"][name]["passed"]
        assert files == [f"{label}.json"]
        written = matcore.matrix_from_json(json.loads((ce / files[0]).read_text()))
        np.testing.assert_array_equal(written, ginibre_matrix(family, stream, 2, first))

    def test_sups_failure_writes_both_operands(self, tmp_path, monkeypatch):
        marks = [(ginibre_matrix("psd", 204, 2, 4), 1)]
        monkeypatch.setattr(spectra, "check_superadditivity", failing_on(spectra.check_superadditivity, marks))
        code, summary, files, ce = self.run(tmp_path, "--only", "sups")
        assert code == 1 and summary["failure"]["input"] == "psd-d2-0004"
        payload = json.loads((ce / "psd-d2-0004.json").read_text())
        assert set(payload) == {"x", "y"}
        np.testing.assert_array_equal(matcore.matrix_from_json(payload["x"]), ginibre_matrix("psd", 204, 2, 4))
        np.testing.assert_array_equal(matcore.matrix_from_json(payload["y"]), ginibre_matrix("psd", 205, 2, 4))

    @pytest.mark.parametrize(
        "upkp, cbn0, named", [(5, 2, "upkp"), (4, 4, "upkp"), (1, 6, "upkp"), (None, 3, "cbn0")]
    )
    def test_channel_failure_is_the_first_in_channel_order(self, tmp_path, monkeypatch, upkp, cbn0, named):
        # each stack's upkp batch is recorded before its cbn0 batch: upkp's
        # first failing channel is named whenever upkp fails in the stack
        monkeypatch.setattr(spectra, "check_superop_norm_bound", failing_at(
            spectra.check_superop_norm_bound, [] if upkp is None else [(upkp, 0)]
        ))
        monkeypatch.setattr(
            spectra, "check_norm_product_chain", failing_at(spectra.check_norm_product_chain, [(cbn0, 0)])
        )
        code, summary, files, ce = self.run(tmp_path, "--family", "cptp")
        index = cbn0 if upkp is None else upkp
        assert code == 1
        assert summary["failure"] == {"check": named, "input": f"cptp-d2-{index:04d}", "kind": "inequality-failed"}
        assert files == [f"cptp-d2-{index:04d}.json"]
        assert chmod.channel_from_json(json.loads((ce / files[0]).read_text())).shape[-1] == 2

    def test_passing_run_builds_no_payloads(self, tmp_path, monkeypatch):
        calls = []
        for module, name in ((matcore, "matrix_to_json"), (chmod, "channel_to_json")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
        out = tmp_path / "ok"
        assert cli.main(["inequalities", "--dims", "2", "--samples", "3", "--out", str(out)]) == 0
        assert calls == []


class TestRunSkeleton:
    """Both subcommands run in one ``cli.Run``: one output directory, one fold, one exit-code rule."""

    SWEEP = ["sweep", "--dims", "2", "--samples", "2"]
    SUITE = ["inequalities", "--dims", "2", "--samples", "2"]

    def test_exit_2_leaves_no_earlier_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "x")
        assert cli.main([*self.SWEEP, "--out", out]) == 0
        assert cli.main([*self.SWEEP, "--s", "1e6", "--out", out]) == 2
        assert "not finite" in capsys.readouterr().err
        assert list((tmp_path / "x").iterdir()) == []

    def test_interrupt_mid_sweep_leaves_no_run_files(self, tmp_path, monkeypatch):
        # the first stack's violation wrote a counterexample, and its rows,
        # before the second stack is interrupted
        calls = []
        original = cli.evaluate_profile

        def interrupted(*args):
            calls.append(args)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return original(*args)

        out = tmp_path / "x"
        assert cli.main([*self.SWEEP, "--out", str(out)]) == 0
        monkeypatch.setattr(tradeoff, "GAP_TOL", -10.0)  # every cell violates
        monkeypatch.setattr(cli, "STACK_ENTRIES", 1)
        monkeypatch.setattr(cli, "evaluate_profile", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main([*self.SWEEP, "--out", str(out)])
        assert len(calls) == 2 and list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep", "inequalities"])
    def test_passing_run_leaves_no_earlier_counterexample(self, tmp_path, monkeypatch, command):
        out = tmp_path / "x"
        if command == "sweep":
            failing = passing = [*self.SWEEP, "--q", "2", "--s", "0"]
            monkeypatch.setattr(tradeoff, "GAP_TOL", -10.0)  # every cell violates
        else:
            bad, good = tmp_path / "bad.json", tmp_path / "good.json"
            bad.write_text(json.dumps(matcore.matrix_to_json(np.diag([1.0, -1e-3]))))
            good.write_text(json.dumps(matcore.matrix_to_json(np.diag([2.0, 1.0]))))
            failing, passing = ["inequalities", "--matrix", str(bad)], ["inequalities", "--matrix", str(good)]
        assert cli.main([*failing, "--out", str(out)]) == 1
        assert any((out / "counterexamples").iterdir())
        monkeypatch.undo()
        assert cli.main([*passing, "--out", str(out)]) == 0
        assert not (out / "counterexamples").exists()

    def test_one_fold_call_adds_a_key_to_both_summaries(self, tmp_path, monkeypatch):
        summaries = {}
        for patched in (False, True):
            if patched:
                fold = cli.Run.fold

                def with_extra(run, key, count, **minima):
                    fold(run, "folded_count", count)  # the one line a new key needs
                    return fold(run, key, count, **minima)

                monkeypatch.setattr(cli.Run, "fold", with_extra)
            for args in (self.SWEEP, self.SUITE):
                out = tmp_path / f"{args[0]}-{patched}"
                assert cli.main([*args, "--out", str(out)]) == 0
                summaries[args[0], patched] = json.loads((out / "summary.json").read_text())
        for command in ("sweep", "inequalities"):
            plain, extra = summaries[command, False], summaries[command, True]
            assert extra.pop("folded_count") > 0
            assert extra == plain

    def test_any_other_error_is_exit_1_with_one_record(self, tmp_path, capsys, monkeypatch):
        def failing(seeds, d, k):
            raise RuntimeError("planted error")

        monkeypatch.setattr(sampler, "_cptp_ops", failing)
        record = {"check": "error", "kind": "RuntimeError", "message": "planted error"}
        # the suite names the check whose stack was being drawn; a sweep has no checks
        for args, during in ((self.SWEEP, {}), (self.SUITE, {"during": "upkp"})):
            out = tmp_path / args[0]
            assert cli.main([*args, "--family", "cptp", "--out", str(out)]) == 1
            assert json.loads((out / "summary.json").read_text())["failure"] == {**record, **during}
            assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "sweep" / "report.csv").exists()

    def test_singular_normalizer_is_exit_1(self, tmp_path, capsys, monkeypatch):
        # a zero Ginibre set: its NaN operators fail the trace-preservation check
        plant_zero_ginibre_set(monkeypatch)
        out = tmp_path / "sweep"
        assert cli.main([*self.SWEEP, "--family", "cptp", "--out", str(out)]) == 1
        assert json.loads((out / "summary.json").read_text())["failure"] == {
            "check": "error", "kind": "NotTracePreservingError",
            "message": f"trace-preservation defect nan exceeds {chmod.TP_TOL:.1e}",
        }
        assert "Traceback" not in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_input_among_the_run_files_is_refused(self, tmp_path, capsys):
        # a suite counterexample is a --matrix file: retesting it into the same
        # directory must not remove it, nor a file a run never writes
        out = tmp_path / "x"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(matcore.matrix_to_json(np.diag([1.0, -1e-3]))))
        assert cli.main(["inequalities", "--matrix", str(bad), "--out", str(out)]) == 1
        written = out / "counterexamples" / "bad.json"
        kept = out / "counterexamples" / "notes.txt"
        kept.write_text("mine")
        before = written.read_text()
        capsys.readouterr()
        assert cli.main(["inequalities", "--matrix", str(written), "--out", str(out)]) == 2
        assert "copy it out of that directory" in capsys.readouterr().err
        assert written.read_text() == before
        assert cli.main([*self.SUITE, "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "counterexamples").iterdir()) == ["notes.txt"]

    def test_error_after_a_violation_keeps_the_violation(self, tmp_path, capsys, monkeypatch):
        def failing_write(*args):
            raise OSError("planted write error")

        monkeypatch.setattr(tradeoff, "GAP_TOL", -10.0)  # every cell violates
        monkeypatch.setattr(cli, "_write_csv", failing_write)
        out = tmp_path / "x"
        assert cli.main([*self.SWEEP, "--q", "2", "--s", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "BOUND VIOLATION" in err and "planted write error" in err and "Traceback" not in err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == 1 and "failure" not in summary
        assert summary["error"] == {"check": "error", "kind": "OSError", "message": "planted write error",
                                    "inputs": ["cptp-d2-0000", "cptp-d2-0001"]}
        assert (out / "counterexamples" / summary["violation"]["counterexample"]).exists()
        assert not (out / "report.csv").exists()

    def test_error_after_a_failed_check_keeps_the_failure(self, tmp_path, monkeypatch):
        def raising(x, y, q):
            raise FloatingPointError("planted sups error")

        marks = [(ginibre_matrix("psd", 203, 2, 0), 0)]
        monkeypatch.setattr(spectra, "check_antinorm_monotonicity", failing_on(spectra.check_antinorm_monotonicity, marks))
        monkeypatch.setattr(spectra, "check_superadditivity", raising)
        out = tmp_path / "x"
        assert cli.main([*self.SUITE, "--out", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failure"] == {"check": "npqr", "input": "psd-d2-0000", "kind": "inequality-failed"}
        assert summary["error"]["kind"] == "FloatingPointError" and summary["error"]["during"] == "sups"
        assert sorted(p.name for p in (out / "counterexamples").iterdir()) == ["psd-d2-0000.json"]

    @pytest.mark.parametrize("command", ["sweep", "inequalities"])
    def test_out_naming_a_file_is_a_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "x"
        out.write_text("not a directory")
        assert cli.main([command, "--dims", "2", "--samples", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: could not make output directory")
        assert out.read_text() == "not a directory"

    @pytest.mark.parametrize("command, during", [("sweep", {}), ("inequalities", {"during": "upkp"})])
    def test_error_names_the_stack_it_was_raised_in(self, tmp_path, capsys, monkeypatch, command, during):
        calls = []
        original = cli.profile_channel

        def failing_second(ops, ids):
            calls.append(ids)
            if len(calls) == 2:
                raise RuntimeError("planted error")
            return original(ops, ids)

        monkeypatch.setattr(cli, "profile_channel", failing_second)
        out = tmp_path / command
        args = [command, "--dims", "2", "--samples", "3", "--family", "cptp,unistochastic", "--out", str(out)]
        assert cli.main(args) == 1
        assert calls[1] == [f"unistochastic-d2-000{i}" for i in range(3)]
        assert json.loads((out / "summary.json").read_text())["failure"] == {
            "check": "error", "kind": "RuntimeError", "message": "planted error",
            "inputs": ["unistochastic-d2-0000", "unistochastic-d2-0002"], **during,
        }
        assert "'inputs': ['unistochastic-d2-0000', 'unistochastic-d2-0002']" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "inequalities"])
    def test_error_while_drawing_names_no_stack(self, tmp_path, monkeypatch, command):
        # the stack drawn before it was evaluated in full; the one being drawn has no ids yet
        def failing(u, d):
            raise RuntimeError("planted error")

        monkeypatch.setattr(sampler, "_unistochastic_ops", failing)
        out = tmp_path / command
        args = [command, "--dims", "2", "--samples", "3", "--family", "cptp,unistochastic", "--out", str(out)]
        assert cli.main(args) == 1
        assert "inputs" not in json.loads((out / "summary.json").read_text())["failure"]


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter, with the caller's count set to 2 for the test and restored after it."""
    found = openblas_threads()
    if found is None:
        pytest.skip("no OpenBLAS is loaded: the pin to one thread does nothing")
    get, put = found
    before = get()
    put(2)
    if get() != 2:
        put(before)
        pytest.skip("this OpenBLAS runs one thread at most")
    yield get
    put(before)


class TestOneBlasThread:
    """A run draws and decomposes on one OpenBLAS thread, and the caller's count is back when it ends."""

    ARGS = ["--dims", "2,3", "--samples", "2"]

    @staticmethod
    def spy(monkeypatch, get, raising=None):
        """The OpenBLAS thread counts ``cli.profile_channel`` runs at, one per call."""
        seen = []
        original = cli.profile_channel

        def spied(ops, ids):
            seen.append(get())
            if raising is not None:
                raise raising
            return original(ops, ids)

        monkeypatch.setattr(cli, "profile_channel", spied)
        return seen

    @pytest.mark.parametrize("command", ["sweep", "inequalities"])
    def test_exit_0(self, tmp_path, monkeypatch, blas_threads, command):
        seen = self.spy(monkeypatch, blas_threads)
        assert cli.main([command, *self.ARGS, "--out", str(tmp_path / "x")]) == 0
        assert len(seen) > 1 and set(seen) == {1}
        assert blas_threads() == 2

    def test_exit_1_on_a_violation(self, tmp_path, monkeypatch, blas_threads):
        monkeypatch.setattr(tradeoff, "GAP_TOL", -10.0)  # every cell violates
        seen = self.spy(monkeypatch, blas_threads)
        assert cli.main(["sweep", *self.ARGS, "--out", str(tmp_path / "x")]) == 1
        assert len(seen) > 1 and set(seen) == {1}
        assert blas_threads() == 2

    def test_exit_2_on_a_domain_error(self, tmp_path, capsys, monkeypatch, blas_threads):
        seen = self.spy(monkeypatch, blas_threads)
        assert cli.main(["sweep", *self.ARGS, "--s", "1e6", "--out", str(tmp_path / "x")]) == 2
        assert "not finite" in capsys.readouterr().err
        assert seen == [1]
        assert blas_threads() == 2

    @pytest.mark.parametrize("command", ["sweep", "inequalities"])
    def test_exception_mid_run(self, tmp_path, monkeypatch, blas_threads, command):
        seen = self.spy(monkeypatch, blas_threads, KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt):
            cli.main([command, *self.ARGS, "--out", str(tmp_path / "x")])
        assert seen == [1]
        assert blas_threads() == 2

    def test_library_calls_outside_a_run_keep_the_callers_count(self, monkeypatch, blas_threads):
        seen = self.spy(monkeypatch, blas_threads)
        (*_, ops), = sampler.population(cli.DEFAULT_SEED, (2,), ("cptp",), 2)
        cli.profile_channel(ops, ["a", "b"])
        assert seen == [2]

    def test_report_does_not_depend_on_the_thread_count(self, tmp_path):
        # at d = 16 the SVDs of D and K are 256 x 256, where OpenBLAS's
        # threaded kernels round differently from its one-thread kernels
        if openblas_threads() is None:
            pytest.skip("no OpenBLAS is loaded: the thread count is not OpenBLAS's")
        src = str(Path(cli.__file__).parents[1])
        reports = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
            out = tmp_path / threads
            argv = ["sweep", "--dims", "16", "--samples", "1", "--family", "cptp,unistochastic", "--out", str(out)]
            done = subprocess.run([sys.executable, "-m", "chanent", *argv], env=env, capture_output=True,
                                  text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            reports.append((out / "report.csv").read_bytes())
        assert reports[0] == reports[1]


def assert_fragment(actual, fragment, path="summary"):
    """Each key of ``fragment`` is in ``actual`` with the same value, nested dicts key by key."""
    for key, want in fragment.items():
        assert key in actual, f"{path}[{key!r}] missing"
        if isinstance(want, dict):
            assert_fragment(actual[key], want, f"{path}[{key!r}]")
        else:
            assert actual[key] == want, f"{path}[{key!r}] = {actual[key]!r}, want {want!r}"


def tiny_weight_keeps_its_digits(out):
    # map eigenvalues 1 - e and e: the q = 0.3 map entropy is ln((1-e)^0.3 + e^0.3)/0.7,
    # 1.8e-4, which reads as saturated if e's digits are lost
    e = 1e-13
    _, rows = read_csv_rows(out / "report.csv")
    row = next(r for r in rows if r["q"] == "0.3")
    assert abs(float(row["map_entropy"]) - math.log((1 - e) ** 0.3 + e**0.3) / 0.7) <= 1e-12, row
    assert row["saturated"] == "false", row


def slacks_match_the_unit_scale(out):
    # every slack is relative: 1e-6 diag(1, 0.1) reads the slacks of diag(1, 0.1)
    unit = out.parent / "unit.json"
    unit.write_text(json.dumps(matcore.matrix_to_json(np.diag([1.0, 0.1]))))
    assert cli.main(["inequalities", "--matrix", str(unit), "--out", str(out.parent / "unit")]) == 0
    scaled, plain = (json.loads((p / "summary.json").read_text())["checks"] for p in (out, out.parent / "unit"))
    assert scaled.keys() == plain.keys() == {"prop1", "21in", "npqr"}
    for name in plain:
        assert abs(scaled[name]["min_slack"] - plain[name]["min_slack"]) <= 1e-12, name


def case(case_id, *argv, files=None, code=0, err="", summary=None, check=None):
    """One row of :data:`CLI_CASES`.

    ``argv`` runs with ``--out`` added, each ``{name}`` in it standing for
    the path of ``files[name]``, a payload written as JSON.  An exit of 2
    must name ``err`` and leave no output directory; any other exit must
    write a ``summary.json`` holding ``summary`` and pass ``check(out)``.
    """
    return pytest.param(argv, files or {}, code, err, summary or {}, check, id=case_id)


# CLI cases with no other home: each row is one run of the console script's
# main, its inputs and what it must leave
CLI_CASES = [
    # the d = 16 routes: the map spectrum of k = 16 and k = 256 Kraus
    # operators, and cbn0's Tr D route, which decomposes no D
    case("sweep-d8-d16", "sweep", "--dims", "8,16", "--samples", "1",
         summary={"rows": 378, "violations": 0}),
    case("cbn0-d16", "inequalities", "--dims", "16", "--samples", "1", "--only", "cbn0",
         summary={"checks": {"cbn0": {"count": 3, "passed": True}}}),
    case("tiny-weight-channel", "sweep", "--channel", "{tiny-weight}", "--q=0.3,0.5", "--s=0",
         files={"tiny-weight": {"dim": 2, "kraus": [
             matcore.matrix_to_json(math.sqrt(1 - 1e-13) * np.eye(2)),
             matcore.matrix_to_json(math.sqrt(1e-13) * np.diag([1.0, -1.0])),
         ]}},
         summary={"rows": 2, "violations": 0}, check=tiny_weight_keeps_its_digits),
    case("named-families", "sweep", "--family", "named:depolarizing:0.3,named:identity", "--dims", "2,3",
         "--samples", "2", summary={"rows": 252, "violations": 0, "per_family": {
             "named:depolarizing:0.3": {"rows": 126, "saturation_count": 0},
             "named:identity": {"rows": 126, "saturation_count": 62},
         }}),
    case("scale-free-slacks", "inequalities", "--matrix", "{micro}",
         files={"micro": matcore.matrix_to_json(1e-6 * np.diag([1.0, 0.1]))}, check=slacks_match_the_unit_scale),
    # a --matrix file is one operand: sups, which takes two, refuses it, as the channel checks do
    *(case(f"matrix-only-{only}", "inequalities", "--matrix", "{psd}", "--only", only,
           files={"psd": matcore.matrix_to_json(np.diag([2.0, 1.0]))}, code=2,
           err=f"config error: no check ran for {only}: it takes {takes}, not one --matrix file\n")
      for only, takes in (("sups", "two matrices"), ("upkp", "the config's channels"))),
    # an empty list value is given, not absent: it is refused by its key's rule
    *(case(f"{command}-empty-{flag.strip('-=')}", command, "--dims", "2", "--samples", "1", flag, code=2,
           err=f"config error: {key} must be nonempty\n")
      for command in ("sweep", "inequalities")
      for flag, key in (("--q=", "q_grid"), ("--s=", "s_grid"), ("--family=", "families"), ("--dims=", "dims"))
      if command == "sweep" or flag != "--s="),
    case("sweep-only-commas-q", "sweep", "--dims", "2", "--samples", "1", "--q=,", code=2,
         err="config error: q_grid must be nonempty\n"),
    case("sweep-unparsable-q", "sweep", "--dims", "2", "--samples", "1", "--q=abc", code=2,
         err="config error: could not parse --q value 'abc': "),
    case("sweep-no-samples", "sweep", "--dims", "2", "--samples", "0", code=2,
         err="config error: samples_per_family must be >= 1, got 0\n"),
    *(case(f"{command}-empty-config", command, "--dims", "2", "--samples", "1", "--config=", code=2,
           err="config error: could not load config file '': ")
      for command in ("sweep", "inequalities")),
]


@pytest.mark.parametrize("argv, files, code, err, summary, check", CLI_CASES)
def test_cli_case(tmp_path, capsys, argv, files, code, err, summary, check):
    paths = {}
    for name, payload in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert cli.main([*(arg.format(**paths) for arg in argv), "--out", str(out)]) == code
    stderr = capsys.readouterr().err
    assert err in stderr if code else stderr == ""
    if code == 2:
        assert not out.exists()
        return
    assert_fragment(json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail), summary)
    if check is not None:
        check(out)


def test_module_entry_point_exit_status(tmp_path):
    # python -m chanent exits with cli.main's code, as the console script does
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for code, samples in ((0, "1"), (2, "0")):
        argv = ["sweep", "--dims", "2", "--samples", samples, "--q", "2", "--s", "0", "--out", str(tmp_path / "out")]
        done = subprocess.run([sys.executable, "-m", "chanent", *argv], env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == code, done.stderr
    assert done.stderr == "config error: samples_per_family must be >= 1, got 0\n"
