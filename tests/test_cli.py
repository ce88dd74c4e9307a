import json

import numpy as np
import pytest

from chanent import cli, matcore, sampler
from chanent.channel import save_channel


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

    def test_rejects_unknown_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dims": [2], "typo_key": 1}))
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert "typo_key" in capsys.readouterr().err


    @pytest.mark.parametrize("flag, value", [("--q", "inf"), ("--q", "2,nan"), ("--s", "inf"), ("--s", "-inf,1")])
    def test_rejects_non_finite_orders(self, tmp_path, capsys, flag, value):
        out = str(tmp_path / "x")
        code = cli.main(["sweep", f"{flag}={value}", "--dims", "2", "--samples", "1", "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err

    @pytest.mark.parametrize(
        "key, value", [("samples_per_family", "3"), ("dims", 3), ("q_grid", [2.0, "3"]), ("seed", True)]
    )
    def test_rejects_mistyped_config_value(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(key) in err

    def test_rejects_unreadable_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert cli.main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2
        assert capsys.readouterr().err.count("config error:") == 2


class TestInequalities:
    def test_default_small_run(self, tmp_path):
        out = tmp_path / "iq"
        code = cli.main(
            ["inequalities", "--dims", "2,3", "--samples", "4", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["checks"]) == set(cli.CHECK_NAMES)
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

    def test_channel_check_without_sampler_family_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "none"
        code = cli.main(
            ["inequalities", "--only", "cbn0", "--family", "named:identity", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: no check ran")
        assert not (out / "summary.json").exists()
