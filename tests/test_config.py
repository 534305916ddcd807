"""Configuration loading: grammar, coercion, env overrides, builders."""
import json

import pytest

from fsqkd.config import ConfigError, RunConfig, _parse_floatlist


class TestFloatLists:
    def test_comma_list(self):
        assert _parse_floatlist("1, 2.5, -3") == (1.0, 2.5, -3.0)

    def test_range_inclusive_stop(self):
        assert _parse_floatlist("10:30:10") == (10.0, 20.0, 30.0)

    def test_range_with_fractional_step(self):
        vals = _parse_floatlist("-7:-3:0.5")
        assert len(vals) == 9
        assert vals[0] == -7.0
        assert vals[-1] == pytest.approx(-3.0)

    def test_bad_step(self):
        with pytest.raises(ConfigError):
            _parse_floatlist("0:10:-1")
        with pytest.raises(ConfigError):
            _parse_floatlist("0:10")


class TestLoad:
    def test_env_only_config(self):
        cfg = RunConfig.load(None, env={"FSQKD_CHANNEL_P_EC": "1e-5"})
        assert cfg.get("channel.p_ec") == 1e-5

    def test_former_backend_variable_rejected(self):
        # every FSQKD_ name is an override; one without a section is malformed
        with pytest.raises(ConfigError, match="FSQKD_NUMBA"):
            RunConfig.load(None, env={"FSQKD_NUMBA": "0"})

    def test_unknown_env_key_named(self):
        with pytest.raises(ConfigError, match="channel.warp"):
            RunConfig.load(None, env={"FSQKD_CHANNEL_WARP": "9"})

    def test_json_unknown_key_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"channel": {"eta_loss_db": 1.0, "spin": 2}}))
        with pytest.raises(ConfigError, match="channel.spin"):
            RunConfig.load(path, env={})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            RunConfig.load(path, env={})

    def test_env_overrides_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("channel.p_ec = 1e-6\n")
        cfg = RunConfig.load(path, env={"FSQKD_CHANNEL_P_EC": "1e-4"})
        assert cfg.get("channel.p_ec") == 1e-4

    def test_int_coercion_rejects_fractions(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("optimize.restarts = 2.5\n")
        with pytest.raises(ConfigError):
            RunConfig.load(path, env={})

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("channel.p_ec = nan\n")
        with pytest.raises(ConfigError):
            RunConfig.load(path, env={})


BASE = ("channel.eta_loss_db = 30\nchannel.p_ec = 1e-6\n"
        "channel.qber_i = 0.01\nchannel.integration_time_s = 60\n")


class TestBuilders:
    def test_security_beta_override(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(BASE + "security.beta = 0.0\n")
        cfg = RunConfig.load(path, env={})
        assert cfg.security().beta == 0.0

    def test_protocol_p_mu3_derived(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(BASE + "protocol.pax = 0.7\nprotocol.pbx = 0.5\n"
                        "protocol.mu1 = 0.5\nprotocol.mu2 = 0.1\n"
                        "protocol.mu3 = 0\nprotocol.p_mu1 = 0.8\n"
                        "protocol.p_mu2 = 0.13\n")
        cfg = RunConfig.load(path, env={})
        assert cfg.protocol().p_mu[2] == pytest.approx(0.07, rel=1e-12)

    def test_ec_method_validated(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(BASE + "ec.method = magic\n")
        cfg = RunConfig.load(path, env={})
        with pytest.raises(ConfigError, match="magic"):
            cfg.ec_method()

    def test_sweep_rejects_both_policies(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(BASE + "protocol.pax = 0.7\nprotocol.pbx = 0.5\n"
                        "protocol.mu1 = 0.5\nprotocol.mu2 = 0.1\n"
                        "protocol.p_mu1 = 0.8\nprotocol.p_mu2 = 0.13\n"
                        "optimize.regime = full\n"
                        "sweep.eta_loss_db = 10\nsweep.log10_pec = -6\n"
                        "sweep.qber_i = 0.01\nsweep.tau_s = 60\n")
        cfg = RunConfig.load(path, env={})
        with pytest.raises(ConfigError):
            cfg.sweep_spec()
