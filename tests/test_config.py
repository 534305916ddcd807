"""Configuration loading: grammar, coercion, env overrides, builders."""
import dataclasses
import json
import re
import signal
from pathlib import Path

import pytest

from fsqkd import (ChannelConditions, IntensityUncertaintyModel, LossBudgetQuery,
                   OptimizationSpec, ParameterError, Regime, SecurityParams, SweepSpec)
from fsqkd.config import MAX_RANGE_POINTS, SCHEMA, ConfigError, RunConfig, _parse_floatlist


@pytest.fixture
def fail_fast():
    """Turn a parse that runs past a quarter second into a failure, before
    a runaway loop can hang the suite or fill memory."""
    def expire(signum, frame):
        raise TimeoutError("range parsing did not finish within 0.25 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 0.25)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


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

    @pytest.mark.parametrize("text", ["0:10:nan", "nan:10:1", "0:inf:1", "-inf:0:1",
                                      "0:10:inf"])
    def test_non_finite_part_rejected(self, fail_fast, text):
        with pytest.raises(ConfigError, match="finite"):
            _parse_floatlist(text)

    @pytest.mark.parametrize("text", [
        "1e17:2e17:1",   # the step is below the float spacing: v += step stands still
        "1e17:1e17:1",   # no span, but the inclusive-stop slack is 1e8 steps wide
        "0:1e300:1e-300",
        f"0:{MAX_RANGE_POINTS}:1",
    ])
    def test_too_many_points_rejected(self, fail_fast, text):
        with pytest.raises(ConfigError, match=f"more than {MAX_RANGE_POINTS} points"):
            _parse_floatlist(text)

    def test_largest_range_accepted(self):
        vals = _parse_floatlist(f"0:{MAX_RANGE_POINTS - 1}:1")
        assert len(vals) == MAX_RANGE_POINTS
        assert vals[-1] == MAX_RANGE_POINTS - 1

    @pytest.mark.parametrize("text", ["10:55:2.5", "-7:-3:0.5", "0:1:0.1", "5:4:1"])
    def test_range_floats_are_the_accumulated_sum(self, text):
        start, stop, step = map(float, text.split(":"))
        want, v = [], start
        while v <= stop + 1e-9 * max(1.0, abs(stop)):
            want.append(v)
            v += step
        assert _parse_floatlist(text) == tuple(want)


class TestLoad:
    @pytest.mark.parametrize("key, value", [("output.format", "csv"),
                                            ("output.path", "out.csv")])
    def test_output_keys_rejected(self, tmp_path, key, value):
        # output goes through --format and --out; the keys were never read
        path = tmp_path / "c.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            RunConfig.load(path, env={})
        name = "FSQKD_" + key.upper().replace(".", "_")
        with pytest.raises(ConfigError, match=key):
            RunConfig.load(None, env={name: value})

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

    def test_json_int_rejects_fractions(self, tmp_path):
        # a JSON number arrives as a float, not as text
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"optimize": {"restarts": 2.5}}))
        with pytest.raises(ConfigError, match=r"'optimize\.restarts': 2\.5 \(not an integer\)"):
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
        with pytest.raises(ParameterError, match="magic"):
            cfg.security()

    def test_security_reads_the_ec_section(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(BASE + "ec.method = rate-factor\nec.f_ec = 1.3\n")
        sec = RunConfig.load(path, env={}).security()
        assert (sec.ec_method, sec.f_ec) == ("rate-factor", 1.3)

    def test_security_defaults_come_from_the_dataclass(self, tmp_path):
        # every section's unset keys take its dataclass defaults
        path = tmp_path / "c.cfg"
        path.write_text(BASE)
        cfg = RunConfig.load(path, env={})
        assert cfg.security() == SecurityParams()
        channel = ChannelConditions(eta_loss_db=30.0, p_ec=1e-6, qber_i=0.01,
                                    integration_time_s=60.0)
        assert cfg.channel() == channel

        path.write_text(BASE + "optimize.regime = fixed_pbx_and_mu\n"
                        "optimize.pbx = 0.5\noptimize.mu1 = 0.5\noptimize.mu2 = 0.1\n")
        cfg = RunConfig.load(path, env={})
        spec = OptimizationSpec(regime=Regime.FIXED_PBX_AND_MU, pbx=0.5,
                                mu=(0.5, 0.1, OptimizationSpec.mu3))
        assert cfg.opt_spec() == spec
        assert cfg.budget_query() == LossBudgetQuery(conditions=channel, opt_spec=spec)

        path.write_text(BASE + "protocol.pax = 0.7\nprotocol.pbx = 0.5\n"
                        "protocol.mu1 = 0.5\nprotocol.mu2 = 0.1\n"
                        "protocol.p_mu1 = 0.8\nprotocol.p_mu2 = 0.13\n"
                        "worstcase.f = 0.05\n")
        cfg = RunConfig.load(path, env={})
        assert cfg.uncertainty_model() == IntensityUncertaintyModel(
            f=0.05, nominal=cfg.protocol())

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


class TestBooleans:
    # JSON true and false are not numbers; they loaded as 1 and 0
    @pytest.mark.parametrize("key, value", [("channel.eta_loss_db", True),
                                            ("optimize.restarts", True),
                                            ("sweep.tau_s", [60.0, False])])
    def test_json_boolean_rejected(self, tmp_path, key, value):
        section, name = key.split(".")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({section: {name: value}}))
        with pytest.raises(ConfigError, match=f"bad value for '{key}'.*boolean"):
            RunConfig.load(path, env={})


# section -> (builder, the dataclass it returns)
SECTIONS = {
    "channel": ("channel", ChannelConditions),
    "security": ("security", SecurityParams),
    "ec": ("security", SecurityParams),
    "optimize": ("opt_spec", OptimizationSpec),
    "sweep": ("sweep_spec", SweepSpec),
    "budget": ("budget_query", LossBudgetQuery),
    "worstcase": ("uncertainty_model", IntensityUncertaintyModel),
}

# a config every builder accepts: each required key, and a complete protocol
# section (the sweep and budget policy, and the worst case's nominal point)
EVERY_BUILDER = {
    "channel.eta_loss_db": 30.0, "channel.p_ec": 1e-6, "channel.qber_i": 0.01,
    "channel.integration_time_s": 60.0,
    "protocol.pax": 0.7, "protocol.pbx": 0.5, "protocol.mu1": 0.5, "protocol.mu2": 0.1,
    "protocol.p_mu1": 0.8, "protocol.p_mu2": 0.13,
    "sweep.eta_loss_db": [30.0], "sweep.log10_pec": [-6.0], "sweep.qber_i": [0.01],
    "sweep.tau_s": [60.0], "worstcase.f": 0.05,
}

# the optimize section is built under fixed_pbx, a regime that reads pbx; the
# sweep and budget builders reject a regime next to a protocol section
OPTIMIZE_BASE = {"optimize.regime": "fixed_pbx", "optimize.pbx": 0.5}

# a valid value other than its field's default, for every key that fills a field
NON_DEFAULT = {
    "channel.eta_loss_db": 31.5, "channel.p_ec": 2e-6, "channel.qber_i": 0.02,
    "channel.p_ap": 2e-3, "channel.f_s": 2e8, "channel.integration_time_s": 90.0,
    "security.eps_s": 1e-10, "security.eps_c": 1e-14, "security.beta": 25.0,
    "ec.method": "rate-factor", "ec.f_ec": 1.2,
    "optimize.regime": "fixed_pbx", "optimize.pbx": 0.6, "optimize.mu3": 1e-8,
    "optimize.restarts": 3, "optimize.seed": 5, "optimize.max_evals": 500,
    "sweep.eta_loss_db": (10.0, 20.0), "sweep.log10_pec": (-7.0,), "sweep.qber_i": (0.02,),
    "sweep.tau_s": (30.0,),
    "budget.target_bits": 1000, "budget.eta_min_db": 5.0, "budget.eta_max_db": 50.0,
    "budget.resolution_db": 0.5,
    "worstcase.f": 0.1, "worstcase.grid_points": 2,
}


def _load(tmp_path, values: dict) -> RunConfig:
    nested = {}
    for key, value in values.items():
        section, name = key.split(".")
        nested.setdefault(section, {})[name] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(nested))
    return RunConfig.load(path, env={})


def _field(key: str) -> dataclasses.Field:
    cls = SECTIONS[key.split(".")[0]][1]
    return {f.name: f for f in dataclasses.fields(cls)}[SCHEMA[key][1]]


class TestKeyTable:
    def test_every_field_key_has_a_value(self):
        assert set(NON_DEFAULT) == {key for key, (_, field) in SCHEMA.items() if field}

    @pytest.mark.parametrize("key", list(NON_DEFAULT))
    def test_key_lands_in_its_field(self, tmp_path, key):
        value = NON_DEFAULT[key]
        assert value != _field(key).default
        section = key.split(".")[0]
        builder, cls = SECTIONS[section]
        base = {**EVERY_BUILDER, **(OPTIMIZE_BASE if section == "optimize" else {})}
        built = getattr(_load(tmp_path, {**base, key: value}), builder)()
        assert isinstance(built, cls)
        assert getattr(built, SCHEMA[key][1]) == value

    def test_required_keys_are_the_fields_without_default(self):
        required = {key for key in NON_DEFAULT if _field(key).default is dataclasses.MISSING}
        assert required == {"channel.eta_loss_db", "channel.p_ec", "channel.qber_i",
                            "channel.integration_time_s", "sweep.eta_loss_db",
                            "sweep.log10_pec", "sweep.qber_i", "sweep.tau_s", "worstcase.f"}

    @pytest.mark.parametrize("key", [key for key in NON_DEFAULT
                                     if _field(key).default is dataclasses.MISSING])
    def test_missing_required_key_named(self, tmp_path, key):
        cfg = _load(tmp_path, {k: v for k, v in EVERY_BUILDER.items() if k != key})
        with pytest.raises(ConfigError, match=f"^missing required configuration key '{key}'$"):
            getattr(cfg, SECTIONS[key.split(".")[0]][0])()

    def test_unknown_regime_is_a_parameter_error(self, tmp_path):
        cfg = _load(tmp_path, {"optimize.regime": "x"})
        with pytest.raises(ParameterError, match=r"^regime must be one of full, fixed_pbx, "
                                                 r"fixed_pbx_and_mu, got 'x'$"):
            cfg.opt_spec()

    def test_every_key_is_in_the_readme(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert [key for key in SCHEMA if f"`{key}`" not in readme] == []
        # and every key of the README's key table is in SCHEMA, so a deleted
        # key's row cannot stay behind
        table = readme.split("| Key | Type | Fills | Default |")[1].split("\n\n")[0]
        rows = [line.split(" | ")[0] for line in table.splitlines() if line.startswith("| `")]
        listed = re.findall(r"`([a-z_]+\.[a-z0-9_]+)`", "\n".join(rows))
        assert listed and [key for key in listed if key not in SCHEMA] == []
