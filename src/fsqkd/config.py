"""Run configuration: flat dotted-key text files or JSON, plus env overrides.

Text grammar (one assignment per line, ``#`` starts a comment)::

    channel.eta_loss_db = 42.0
    channel.p_ec = 1e-6
    sweep.eta_loss_db = 10, 20, 30        # comma list
    sweep.log10_pec = -7:-3:1             # start:stop:step, stop inclusive

JSON files hold the same keys as nested objects, one level per dot.
Environment variables prefixed ``FSQKD_`` override file values, e.g.
``FSQKD_CHANNEL_P_EC=1e-5`` sets ``channel.p_ec``.  Unknown keys are
rejected by name.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .channel import ChannelConditions, ProtocolParams
from .finitekey import SecurityParams
from .optimize import OptimizationSpec, Regime
from .scenarios import LossBudgetQuery, SweepSpec
from .uncertainty import IntensityUncertaintyModel

ENV_PREFIX = "FSQKD_"

FLOAT, INT, STR, FLOATLIST = "float", "int", "str", "floatlist"

# the most points a start:stop:step range may hold
MAX_RANGE_POINTS = 1_000_000

SCHEMA: dict[str, str] = {
    "channel.eta_loss_db": FLOAT,
    "channel.p_ec": FLOAT,
    "channel.qber_i": FLOAT,
    "channel.p_ap": FLOAT,
    "channel.f_s": FLOAT,
    "channel.integration_time_s": FLOAT,
    "security.eps_s": FLOAT,
    "security.eps_c": FLOAT,
    "security.beta": FLOAT,
    "protocol.pax": FLOAT,
    "protocol.pbx": FLOAT,
    "protocol.mu1": FLOAT,
    "protocol.mu2": FLOAT,
    "protocol.mu3": FLOAT,
    "protocol.p_mu1": FLOAT,
    "protocol.p_mu2": FLOAT,
    "protocol.p_mu3": FLOAT,
    "ec.method": STR,
    "ec.f_ec": FLOAT,
    "optimize.regime": STR,
    "optimize.pbx": FLOAT,
    "optimize.mu1": FLOAT,
    "optimize.mu2": FLOAT,
    "optimize.mu3": FLOAT,
    "optimize.restarts": INT,
    "optimize.seed": INT,
    "optimize.tolerance": FLOAT,
    "optimize.max_evals": INT,
    "sweep.eta_loss_db": FLOATLIST,
    "sweep.log10_pec": FLOATLIST,
    "sweep.qber_i": FLOATLIST,
    "sweep.tau_s": FLOATLIST,
    "budget.target_bits": INT,
    "budget.eta_min_db": FLOAT,
    "budget.eta_max_db": FLOAT,
    "budget.resolution_db": FLOAT,
    "worstcase.f": FLOAT,
    "worstcase.grid_points": INT,
}

class ConfigError(ValueError):
    """Malformed configuration input."""


def _parse_floatlist(text: str) -> tuple[float, ...]:
    text = text.strip()
    if ":" in text and "," not in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range syntax must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigError(f"range parts must be finite, got {text!r}")
        if step <= 0.0:
            raise ConfigError(f"range step must be positive, got {step}")
        # stop is inclusive up to a relative slack; counting the slack too
        # bounds every range whose step is lost below the float spacing
        top = stop + 1e-9 * max(1.0, abs(stop))
        if (top - start) / step > MAX_RANGE_POINTS:
            raise ConfigError(f"range {text!r} has more than {MAX_RANGE_POINTS} points")
        vals = []
        v = start
        while v <= top:
            vals.append(v)
            v += step
        return tuple(vals)
    return tuple(float(p) for p in text.split(",") if p.strip())


def _coerce(key: str, value: Any) -> Any:
    kind = SCHEMA[key]
    try:
        if kind == FLOAT:
            v = float(value)
            if not math.isfinite(v):
                raise ValueError("non-finite")
            return v
        if kind == INT:
            if isinstance(value, str):
                return int(value, 0)
            iv = int(value)
            if iv != value:
                raise ValueError("not an integer")
            return iv
        if kind == FLOATLIST:
            if isinstance(value, (list, tuple)):
                return tuple(float(v) for v in value)
            return _parse_floatlist(str(value))
        return str(value).strip()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc


def _flatten(prefix: str, obj: Any, out: dict[str, Any]) -> None:
    if isinstance(obj, dict):
        for sub, val in obj.items():
            name = f"{prefix}.{sub}" if prefix else str(sub)
            _flatten(name, val, out)
    else:
        out[prefix] = obj


@dataclass
class RunConfig:
    """Validated flat configuration with typed section builders."""

    values: dict[str, Any]

    @classmethod
    def load(cls, path: str | Path | None, env: dict[str, str] | None = None) -> "RunConfig":
        """Read a config file (text or JSON by content), apply env overrides."""
        raw: dict[str, Any] = {}
        if path is not None:
            text = Path(path).read_text()
            stripped = text.lstrip()
            if stripped.startswith("{"):
                try:
                    nested = json.loads(text)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"invalid JSON config: {exc}") from exc
                if not isinstance(nested, dict):
                    raise ConfigError("JSON config must be an object")
                _flatten("", nested, raw)
            else:
                for lineno, line in enumerate(text.splitlines(), start=1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
                    key, value = line.split("=", 1)
                    raw[key.strip()] = value.strip()
        env = os.environ if env is None else env
        for name, value in env.items():
            if not name.startswith(ENV_PREFIX):
                continue
            rest = name[len(ENV_PREFIX):].lower()
            if "_" not in rest:
                raise ConfigError(f"malformed override variable {name!r}")
            section, key = rest.split("_", 1)
            raw[f"{section}.{key}"] = value

        values = {}
        for key, value in raw.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown configuration key {key!r}")
            values[key] = _coerce(key, value)
        return cls(values=values)

    def has(self, key: str) -> bool:
        return key in self.values

    def get(self, key: str, default: Any = None) -> Any:
        return self.values.get(key, default)

    def require(self, key: str) -> Any:
        if key not in self.values:
            raise ConfigError(f"missing required configuration key {key!r}")
        return self.values[key]

    # --- section builders -------------------------------------------------
    # each builder passes only the keys this config sets, so every
    # default is the one its dataclass states
    def _given(self, fields: dict[str, str]) -> dict[str, Any]:
        """Keyword arguments for the ``fields`` (name -> key) that are set."""
        return {name: self.values[key] for name, key in fields.items()
                if key in self.values}

    def channel(self, loss_optional: bool = False) -> ChannelConditions:
        """The channel section; with ``loss_optional`` (the loss is swept or
        searched) a missing ``channel.eta_loss_db`` reads as 0 dB."""
        eta = (self.get("channel.eta_loss_db", 0.0) if loss_optional
               else self.require("channel.eta_loss_db"))
        return ChannelConditions(
            eta_loss_db=eta,
            p_ec=self.require("channel.p_ec"),
            qber_i=self.require("channel.qber_i"),
            integration_time_s=self.require("channel.integration_time_s"),
            **self._given({"p_ap": "channel.p_ap", "f_s": "channel.f_s"}),
        )

    def security(self) -> SecurityParams:
        """The security analysis; keys left unset take its defaults."""
        return SecurityParams(**self._given({
            "eps_s": "security.eps_s", "eps_c": "security.eps_c",
            "beta": "security.beta", "ec_method": "ec.method", "f_ec": "ec.f_ec"}))

    def protocol(self) -> ProtocolParams:
        p1 = self.require("protocol.p_mu1")
        p2 = self.require("protocol.p_mu2")
        p3 = self.get("protocol.p_mu3")
        if p3 is None:
            p3 = 1.0 - p1 - p2
        return ProtocolParams(
            pax=self.require("protocol.pax"),
            pbx=self.require("protocol.pbx"),
            mu=(self.require("protocol.mu1"), self.require("protocol.mu2"),
                self.get("protocol.mu3", 0.0)),
            p_mu=(p1, p2, p3),
        )

    def opt_spec(self) -> OptimizationSpec:
        regime_name = self.require("optimize.regime")
        try:
            regime = Regime(regime_name)
        except ValueError as exc:
            raise ConfigError(f"unknown optimize.regime {regime_name!r}") from exc
        mu = None
        if regime is Regime.FIXED_PBX_AND_MU:
            mu = (self.require("optimize.mu1"), self.require("optimize.mu2"),
                  self.get("optimize.mu3", OptimizationSpec.mu3))
        return OptimizationSpec(regime=regime, mu=mu, **self._given({
            "pbx": "optimize.pbx", "mu3": "optimize.mu3", "restarts": "optimize.restarts",
            "seed": "optimize.seed", "tolerance": "optimize.tolerance",
            "max_evals_per_restart": "optimize.max_evals"}))

    def _fixed_or_optimize(self) -> tuple[ProtocolParams | None, OptimizationSpec | None]:
        """The (params, opt_spec) policy of a sweep or budget.

        A complete protocol section fixes the parameters; an
        ``optimize.regime`` re-optimizes at every point.  Giving both is an
        error; giving neither is left to the spec's own validation.
        """
        fixed = all(self.has(k) for k in
                    ("protocol.pax", "protocol.pbx", "protocol.mu1",
                     "protocol.mu2", "protocol.p_mu1", "protocol.p_mu2"))
        use_opt = self.has("optimize.regime")
        if use_opt and fixed:
            raise ConfigError("give either a protocol section or an optimize.regime, not both")
        return (self.protocol() if fixed else None,
                self.opt_spec() if use_opt else None)

    def sweep_spec(self) -> SweepSpec:
        params, opt_spec = self._fixed_or_optimize()
        return SweepSpec(
            eta_loss_db=self.require("sweep.eta_loss_db"),
            log10_pec=self.require("sweep.log10_pec"),
            qber_i=self.require("sweep.qber_i"),
            tau_s=self.require("sweep.tau_s"),
            params=params, opt_spec=opt_spec,
        )

    def budget_query(self) -> LossBudgetQuery:
        params, opt_spec = self._fixed_or_optimize()
        return LossBudgetQuery(
            conditions=self.channel(loss_optional=True),
            params=params, opt_spec=opt_spec,
            **self._given({"target_bits": "budget.target_bits",
                           "eta_min_db": "budget.eta_min_db",
                           "eta_max_db": "budget.eta_max_db",
                           "resolution_db": "budget.resolution_db"}),
        )

    def uncertainty_model(self) -> IntensityUncertaintyModel:
        return IntensityUncertaintyModel(
            f=self.require("worstcase.f"),
            nominal=self.protocol(),
            **self._given({"grid_points_per_dim": "worstcase.grid_points"}),
        )
