"""Command-line interface: config handling, output formats, exit codes."""
import itertools
import json

import pytest

from fsqkd import cli, scenarios

BASE_CONFIG = """
# reference link
channel.eta_loss_db = 30.0
channel.p_ec = 1e-6
channel.qber_i = 0.01
channel.integration_time_s = 60.0
protocol.pax = 0.7
protocol.pbx = 0.5
protocol.mu1 = 0.5
protocol.mu2 = 0.1
protocol.mu3 = 0.0
protocol.p_mu1 = 0.8
protocol.p_mu2 = 0.13
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "link.cfg"
    path.write_text(BASE_CONFIG)
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKeylength:
    def test_json_output(self, capsys, config_file):
        code, out, err = run_cli(capsys, ["keylength", "--config", config_file])
        assert code == 0
        obj = json.loads(out)
        assert obj["ell"] > 0
        assert obj["params"]["pbx"] == 0.5
        assert set(obj) >= {"ell", "s_x0", "s_x1", "phi_x", "lambda_ec", "qber_x"}

    def test_zero_window_is_success(self, capsys, tmp_path):
        path = tmp_path / "zero.cfg"
        path.write_text(BASE_CONFIG.replace("channel.integration_time_s = 60.0",
                                            "channel.integration_time_s = 0.0"))
        code, out, _ = run_cli(capsys, ["keylength", "--config", str(path)])
        assert code == 0
        assert json.loads(out)["ell"] == 0

    def test_byte_identical_reruns(self, capsys, config_file):
        _, out1, _ = run_cli(capsys, ["keylength", "--config", config_file])
        _, out2, _ = run_cli(capsys, ["keylength", "--config", config_file])
        assert out1 == out2

    def test_csv_format_single_row(self, capsys, config_file):
        code, out, _ = run_cli(capsys, ["keylength", "--config", config_file,
                                        "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == cli.SWEEP_HEADER
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert float(cells[0]) == 30.0
        assert float(cells[1]) == -6.0  # log10 of p_ec
        assert int(cells[4]) > 0

    def test_integers_round_trip(self, capsys, config_file):
        _, out, _ = run_cli(capsys, ["keylength", "--config", config_file])
        obj = json.loads(out)
        assert isinstance(obj["ell"], int)
        assert json.loads(json.dumps(obj))["ell"] == obj["ell"]


class TestConfigErrors:
    def test_unknown_key_named(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG + "\nchannel.warp_factor = 9\n")
        code, out, err = run_cli(capsys, ["keylength", "--config", str(path)])
        assert code == 2
        assert "channel.warp_factor" in err
        assert out == ""  # no partial output

    def test_malformed_line(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("channel.eta_loss_db 30\n")
        code, out, err = run_cli(capsys, ["keylength", "--config", str(path)])
        assert code == 2
        assert out == ""

    def test_missing_required_key(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("channel.eta_loss_db = 30.0\n")
        code, _, err = run_cli(capsys, ["keylength", "--config", str(path)])
        assert code == 2
        assert "channel.p_ec" in err

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, ["keylength", "--config", "/nonexistent.cfg"])
        assert code == 2

    def test_bad_value_type(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG.replace("1e-6", "not-a-number"))
        code, _, err = run_cli(capsys, ["keylength", "--config", str(path)])
        assert code == 2

    # later lines override BASE_CONFIG's; the last row pins the text of an
    # error that the library raises, unchanged from before the config layer
    # stopped re-wrapping it
    @pytest.mark.parametrize("command, lines, stderr", [
        ("keylength", ["protocol.mu1 = 0.3565561566629704",
                       "protocol.mu2 = 0.2586275262140931",
                       "protocol.mu3 = 0.09792863044887731"], None),
        ("keylength", ["ec.method = rate-factor", "ec.f_ec = -1"], None),
        ("sweep", ["ec.f_ec = 0.5", "sweep.eta_loss_db = 30", "sweep.log10_pec = -6",
                   "sweep.qber_i = 0.01", "sweep.tau_s = 60"], None),
        ("worstcase", ["ec.f_ec = 0.5", "worstcase.f = 0.05"], None),
        ("optimize", ["optimize.regime = full", "optimize.max_evals = 0"], None),
        ("optimize", ["optimize.regime = full", "optimize.mu3 = -0.1"], None),
        ("optimize", ["optimize.regime = full", "optimize.restarts = 1",
                      "optimize.tolerance = -1"], None),
        ("optimize", ["optimize.regime = full", "optimize.mu3 = 0.49"], None),
        ("keylength", ["protocol.mu1 = 800"], None),
        ("sweep", ["sweep.eta_loss_db = 30", "sweep.log10_pec = 400",
                   "sweep.qber_i = 0.01", "sweep.tau_s = 60"], None),
        ("budget", ["budget.resolution_db = 1e-300"], None),
        ("keylength", ["channel.p_ec = 0.7"],
         "fsqkd: configuration error: p_ec must be in [0, 0.5), got 0.7\n"),
        ("keylength", ["channel.f_s = 1e300", "channel.integration_time_s = 1e10"],
         "fsqkd: configuration error: "
         "f_s * integration_time_s must be in [0, inf), got inf\n"),
        ("sweep", ["sweep.eta_loss_db = 30", "sweep.log10_pec = -6",
                   "sweep.qber_i = 0.01", "sweep.tau_s = 60, 1e301"],
         "fsqkd: configuration error: "
         "f_s * integration_time_s must be in [0, inf), got inf\n"),
    ], ids=["rounded-denominator", "f_ec-negative", "sweep-f_ec", "worstcase-f_ec",
            "max_evals-zero", "mu3-negative", "tolerance-negative", "mu3-no-room",
            "mu1-overflow", "log10_pec-overflow", "resolution-below-spacing",
            "p_ec-pinned", "pulse-count-overflow", "sweep-pulse-count-overflow"])
    def test_out_of_domain_exits_2(self, capsys, tmp_path, command, lines, stderr):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG + "\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, [command, "--config", str(path)])
        assert code == 2
        assert err.startswith("fsqkd: configuration error:")
        assert out == ""
        if stderr is not None:
            assert err == stderr

    # the lines each command needs beyond BASE_CONFIG
    COMMAND_LINES = {
        "keylength": [],
        "optimize": ["optimize.regime = fixed_pbx", "optimize.pbx = 0.5",
                     "optimize.restarts = 1"],
        "sweep": ["sweep.eta_loss_db = 30", "sweep.log10_pec = -6",
                  "sweep.qber_i = 0.01", "sweep.tau_s = 60"],
        "budget": [],
        "worstcase": ["worstcase.f = 0.05"],
    }

    @pytest.mark.parametrize("command", list(COMMAND_LINES))
    def test_unknown_ec_method_exits_2(self, capsys, tmp_path, command):
        lines = self.COMMAND_LINES[command] + ["ec.method = bogus"]
        if command == "optimize":
            # fixed parameters and an optimize regime are exclusive
            config = BASE_CONFIG.split("protocol.pax")[0]
        else:
            config = BASE_CONFIG
        path = tmp_path / "bad.cfg"
        path.write_text(config + "\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, [command, "--config", str(path)])
        assert code == 2
        assert out == ""
        assert err == "fsqkd: configuration error: unknown EC leakage method 'bogus'\n"

    @pytest.mark.parametrize("key", ["output.format", "output.path"])
    def test_output_keys_exit_2(self, capsys, tmp_path, key):
        # --format and --out choose the output; a config key that looked
        # like it did was accepted and ignored
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG + f"{key} = csv\n")
        code, out, err = run_cli(capsys, ["keylength", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert key in err


class TestFormatFlag:
    # each command's smallest config beyond BASE_CONFIG; optimize and
    # sift-equiv take no protocol section
    ARGV = {
        "optimize": (["optimize.regime = fixed_pbx_and_mu", "optimize.pbx = 0.5",
                      "optimize.mu1 = 0.5", "optimize.mu2 = 0.1",
                      "optimize.restarts = 1", "optimize.max_evals = 50"], False),
        "worstcase": (["worstcase.f = 0.05", "worstcase.grid_points = 2"], True),
        "sift-equiv": (["protocol.pax = 0.9", "protocol.pbx = 0.5"], False),
    }

    @pytest.mark.parametrize("command", list(ARGV))
    def test_csv_rejected_where_there_is_no_table(self, capsys, tmp_path, command):
        lines, with_protocol = self.ARGV[command]
        config = BASE_CONFIG if with_protocol else BASE_CONFIG.split("protocol.pax")[0]
        path = tmp_path / "c.cfg"
        path.write_text(config + "\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(path), "--format", "csv"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "--format" in captured.err
        code, out, _ = run_cli(capsys, [command, "--config", str(path),
                                        "--format", "json"])
        assert code == 0
        assert isinstance(json.loads(out), dict)


class TestJsonConfigAndEnv:
    def test_json_config(self, capsys, tmp_path):
        cfg = {
            "channel": {"eta_loss_db": 30.0, "p_ec": 1e-6, "qber_i": 0.01,
                        "integration_time_s": 60.0},
            "protocol": {"pax": 0.7, "pbx": 0.5, "mu1": 0.5, "mu2": 0.1,
                         "mu3": 0.0, "p_mu1": 0.8, "p_mu2": 0.13},
        }
        path = tmp_path / "link.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, ["keylength", "--config", str(path)])
        assert code == 0
        assert json.loads(out)["ell"] > 0

    def test_env_override(self, capsys, config_file, monkeypatch):
        _, out_base, _ = run_cli(capsys, ["keylength", "--config", config_file])
        monkeypatch.setenv("FSQKD_CHANNEL_ETA_LOSS_DB", "50.0")
        code, out_env, _ = run_cli(capsys, ["keylength", "--config", config_file])
        assert code == 0
        assert json.loads(out_env)["ell"] < json.loads(out_base)["ell"]


class TestSweepCommand:
    def test_csv_grid_rows_in_order(self, capsys, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(BASE_CONFIG + "\n"
                        "sweep.eta_loss_db = 10, 20, 30\n"
                        "sweep.log10_pec = -6, -5, -4\n"
                        "sweep.qber_i = 0.01\n"
                        "sweep.tau_s = 60\n")
        code, out, _ = run_cli(capsys, ["sweep", "--config", str(path)])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == cli.SWEEP_HEADER
        assert len(lines) == 1 + 9
        etas = [float(line.split(",")[0]) for line in lines[1:]]
        assert etas == [10.0, 10.0, 10.0, 20.0, 20.0, 20.0, 30.0, 30.0, 30.0]

    def test_range_syntax_and_out_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(BASE_CONFIG + "\n"
                        "sweep.eta_loss_db = 10:30:10\n"
                        "sweep.log10_pec = -6\n"
                        "sweep.qber_i = 0.01\n"
                        "sweep.tau_s = 60\n")
        out_path = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, ["sweep", "--config", str(path),
                                        "--out", str(out_path)])
        assert code == 0
        assert out == ""
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 3


    def test_rows_equal_keylength_rows(self, capsys, tmp_path):
        # every column but log10_pec, which keylength derives from p_ec
        axes = {"eta_loss_db": [10.0, 27.5, 48.0], "log10_pec": [-6.3, -4.0],
                "qber_i": [0.0, 0.013], "tau_s": [0.0, 60.0]}
        path = tmp_path / "sweep.cfg"
        path.write_text(BASE_CONFIG + "".join(
            f"sweep.{name} = {', '.join(map(repr, values))}\n" for name, values in axes.items()))
        code, out, _ = run_cli(capsys, ["sweep", "--config", str(path), "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 3 * 2 * 2 * 2
        for line, (eta, lp, q, tau) in zip(lines[1:], itertools.product(*axes.values())):
            point = tmp_path / "point.cfg"
            point.write_text(BASE_CONFIG + f"channel.eta_loss_db = {eta!r}\n"
                             f"channel.p_ec = {10.0 ** lp!r}\n"
                             f"channel.qber_i = {q!r}\nchannel.integration_time_s = {tau!r}\n")
            code, single, _ = run_cli(capsys, ["keylength", "--config", str(point),
                                               "--format", "csv"])
            assert code == 0
            header, row = single.splitlines()
            assert header == lines[0]
            cells, want = line.split(","), row.split(",")
            assert cells[:1] + cells[2:] == want[:1] + want[2:]
            assert cells[1] == repr(lp)

    def test_bad_axis_exits_before_any_optimization(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(scenarios, "optimize", lambda *args: calls.append(args))
        path = tmp_path / "sweep.cfg"
        path.write_text("channel.p_ec = 1e-6\nchannel.qber_i = 0.01\n"
                        "channel.integration_time_s = 60\n"
                        "optimize.regime = full\noptimize.restarts = 1\n"
                        "sweep.eta_loss_db = 20, 30\nsweep.log10_pec = -6\n"
                        "sweep.qber_i = 0.01, 0.7\nsweep.tau_s = 60\n")
        code, out, err = run_cli(capsys, ["sweep", "--config", str(path)])
        assert code == 2
        assert out == "" and "qber_i must be in [0, 0.5), got 0.7" in err
        assert calls == []


class TestEntryPoint:
    def test_console_script(self):
        import shutil
        import subprocess
        import sys
        exe = shutil.which("fsqkd")
        if exe is None:
            cmd = [sys.executable, "-m", "fsqkd.cli"]
        else:
            cmd = [exe]
        out = subprocess.run(cmd + ["sift-equiv", "--pax", "0.9", "--pbx", "0.5"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert json.loads(out.stdout)["k_ratio"] == pytest.approx(9.0)


class TestWorstcaseCommand:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        path = tmp_path / "wc.cfg"
        path.write_text(BASE_CONFIG + "\nworstcase.f = 0.05\n")
        _, out1, _ = run_cli(capsys, ["worstcase", "--config", str(path)])
        _, out2, _ = run_cli(capsys, ["worstcase", "--config", str(path)])
        assert out1 == out2

    def test_f_zero_matches_keylength(self, capsys, tmp_path):
        path = tmp_path / "wc.cfg"
        path.write_text(BASE_CONFIG + "\nworstcase.f = 0.0\n")
        code, out_wc, _ = run_cli(capsys, ["worstcase", "--config", str(path)])
        assert code == 0
        wc = json.loads(out_wc)
        _, out_kl, _ = run_cli(capsys, ["keylength", "--config", str(path)])
        kl = json.loads(out_kl)
        assert wc["min_ell"] == kl["ell"] == wc["nominal_ell"]
        assert wc["evaluations"] == 59049


class TestBudgetCommand:
    def test_fixed_params_budget(self, capsys, tmp_path):
        path = tmp_path / "budget.cfg"
        path.write_text(BASE_CONFIG + "\n"
                        "budget.eta_min_db = 5\n"
                        "budget.eta_max_db = 55\n"
                        "budget.resolution_db = 0.5\n")
        code, out, _ = run_cli(capsys, ["budget", "--config", str(path)])
        assert code == 0
        obj = json.loads(out)
        assert obj["max_eta_db"] is not None
        assert 30.0 < obj["max_eta_db"] < 55.0

    def test_csv_format(self, capsys, tmp_path):
        path = tmp_path / "budget.cfg"
        path.write_text(BASE_CONFIG + "\n"
                        "budget.eta_min_db = 5\n"
                        "budget.eta_max_db = 55\n"
                        "budget.resolution_db = 1.0\n")
        code, out, _ = run_cli(capsys, ["budget", "--config", str(path),
                                        "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "max_eta_db,target_bits"


class TestSiftEquivCommand:
    def test_flags_without_config(self, capsys):
        code, out, _ = run_cli(capsys, ["sift-equiv", "--pax", "0.9",
                                        "--pbx", "0.5"])
        assert code == 0
        obj = json.loads(out)
        assert obj["p_x"] == pytest.approx(0.75)
        assert obj["k_ratio"] == pytest.approx(9.0)
        assert obj["f_symmetric"] == pytest.approx(0.625)


class TestOptimizeCommand:
    def test_fixed_mu_regime(self, capsys, tmp_path):
        path = tmp_path / "opt.cfg"
        path.write_text(
            "channel.eta_loss_db = 25.0\n"
            "channel.p_ec = 1e-5\n"
            "channel.qber_i = 0.01\n"
            "channel.integration_time_s = 60.0\n"
            "optimize.regime = fixed_pbx_and_mu\n"
            "optimize.pbx = 0.5\n"
            "optimize.mu1 = 0.5\n"
            "optimize.mu2 = 0.1\n"
            "optimize.mu3 = 0.0\n"
            "optimize.restarts = 3\n")
        code, out, _ = run_cli(capsys, ["optimize", "--config", str(path)])
        assert code == 0
        obj = json.loads(out)
        assert obj["ell"] > 0
        assert obj["regime"] == "fixed_pbx_and_mu"
        assert obj["params"]["pbx"] == 0.5
        # identical numbers to a direct library call
        from fsqkd import (ChannelConditions, OptimizationSpec, Regime,
                           SecurityParams, optimize)
        lib = optimize(
            OptimizationSpec(regime=Regime.FIXED_PBX_AND_MU, pbx=0.5,
                             mu=(0.5, 0.1, 0.0), mu3=0.0, restarts=3, seed=0),
            ChannelConditions(eta_loss_db=25.0, p_ec=1e-5, qber_i=0.01,
                              integration_time_s=60.0),
            SecurityParams())
        assert obj["ell"] == lib.best_ell
        assert obj["params"]["pax"] == lib.best_params.pax

    def test_seed_flag_reproducible(self, capsys, tmp_path):
        path = tmp_path / "opt.cfg"
        path.write_text(
            "channel.eta_loss_db = 25.0\n"
            "channel.p_ec = 1e-5\n"
            "channel.qber_i = 0.01\n"
            "channel.integration_time_s = 60.0\n"
            "optimize.regime = fixed_pbx_and_mu\n"
            "optimize.pbx = 0.5\n"
            "optimize.mu1 = 0.5\n"
            "optimize.mu2 = 0.1\n"
            "optimize.mu3 = 0.0\n"
            "optimize.restarts = 2\n"
            "optimize.max_evals = 500\n")
        _, out1, _ = run_cli(capsys, ["optimize", "--config", str(path), "--seed", "42"])
        _, out2, _ = run_cli(capsys, ["optimize", "--config", str(path), "--seed", "42"])
        assert out1 == out2
        _, out3, _ = run_cli(capsys, ["optimize", "--config", str(path), "--seed", "43"])
        assert json.loads(out3)["seed"] == 43

    @pytest.mark.parametrize("command", [["budget"], ["sweep", "--format", "csv"]])
    def test_seed_flag_equals_config_seed(self, capsys, tmp_path, monkeypatch, command):
        # --seed takes the place of optimize.seed from the file and from
        # FSQKD_OPTIMIZE_SEED, in every command that optimizes
        base = ("channel.p_ec = 1e-5\n"
                "channel.qber_i = 0.01\n"
                "channel.integration_time_s = 60.0\n"
                "optimize.regime = fixed_pbx_and_mu\n"
                "optimize.pbx = 0.5\n"
                "optimize.mu1 = 0.5\n"
                "optimize.mu2 = 0.1\n"
                "optimize.mu3 = 0.0\n"
                "optimize.restarts = 1\n"
                "optimize.max_evals = 40\n"
                "sweep.eta_loss_db = 20, 30\n"
                "sweep.log10_pec = -5\n"
                "sweep.qber_i = 0.01\n"
                "sweep.tau_s = 60\n"
                "budget.eta_min_db = 20\n"
                "budget.eta_max_db = 40\n"
                "budget.resolution_db = 5\n")
        flagged = tmp_path / "flagged.cfg"
        flagged.write_text(base + "optimize.seed = 1\n")
        seeded = tmp_path / "seeded.cfg"
        seeded.write_text(base + "optimize.seed = 7\n")
        monkeypatch.setenv("FSQKD_OPTIMIZE_SEED", "3")
        _, by_flag, _ = run_cli(capsys, [*command, "--config", str(flagged), "--seed", "7"])
        monkeypatch.delenv("FSQKD_OPTIMIZE_SEED")
        _, by_config, _ = run_cli(capsys, [*command, "--config", str(seeded)])
        _, unflagged, _ = run_cli(capsys, [*command, "--config", str(flagged)])
        assert by_flag == by_config != unflagged

    @pytest.mark.parametrize("command", [["keylength"], ["worstcase"], ["sift-equiv"],
                                         ["sweep", "--format", "csv"], ["budget"]])
    def test_seed_flag_rejected_where_nothing_optimizes(self, capsys, tmp_path, command):
        # with fixed protocol parameters no command runs the optimizer, so a
        # seed would be ignored
        path = tmp_path / "fixed.cfg"
        path.write_text(BASE_CONFIG + "sweep.eta_loss_db = 20, 30\n"
                        "sweep.log10_pec = -6\n"
                        "sweep.qber_i = 0.01\n"
                        "sweep.tau_s = 60\n"
                        "budget.eta_min_db = 20\n"
                        "budget.eta_max_db = 40\n"
                        "budget.resolution_db = 5\n"
                        "worstcase.f = 0.1\n")
        code, _, _ = run_cli(capsys, [*command, "--config", str(path)])
        assert code == 0
        code, out, err = run_cli(capsys, [*command, "--config", str(path), "--seed", "7"])
        assert code == 2
        assert out == ""
        assert "--seed" in err
