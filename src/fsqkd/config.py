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

``SCHEMA`` is the one table of keys: each key's type and the dataclass
field it fills (``None`` where a builder assembles a tuple: the
``protocol.*`` keys and ``optimize.mu1``/``mu2``).  A key is required
exactly where its field has no default.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields
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

SCHEMA: dict[str, tuple[str, str | None]] = {
    "channel.eta_loss_db": (FLOAT, "eta_loss_db"),
    "channel.p_ec": (FLOAT, "p_ec"),
    "channel.qber_i": (FLOAT, "qber_i"),
    "channel.p_ap": (FLOAT, "p_ap"),
    "channel.f_s": (FLOAT, "f_s"),
    "channel.integration_time_s": (FLOAT, "integration_time_s"),
    "security.eps_s": (FLOAT, "eps_s"),
    "security.eps_c": (FLOAT, "eps_c"),
    "security.beta": (FLOAT, "beta"),
    "protocol.pax": (FLOAT, None),
    "protocol.pbx": (FLOAT, None),
    "protocol.mu1": (FLOAT, None),
    "protocol.mu2": (FLOAT, None),
    "protocol.mu3": (FLOAT, None),
    "protocol.p_mu1": (FLOAT, None),
    "protocol.p_mu2": (FLOAT, None),
    "protocol.p_mu3": (FLOAT, None),
    "ec.method": (STR, "ec_method"),
    "ec.f_ec": (FLOAT, "f_ec"),
    "optimize.regime": (STR, "regime"),
    "optimize.pbx": (FLOAT, "pbx"),
    "optimize.mu1": (FLOAT, None),
    "optimize.mu2": (FLOAT, None),
    "optimize.mu3": (FLOAT, "mu3"),
    "optimize.restarts": (INT, "restarts"),
    "optimize.seed": (INT, "seed"),
    "optimize.max_evals": (INT, "max_evals_per_restart"),
    "sweep.eta_loss_db": (FLOATLIST, "eta_loss_db"),
    "sweep.log10_pec": (FLOATLIST, "log10_pec"),
    "sweep.qber_i": (FLOATLIST, "qber_i"),
    "sweep.tau_s": (FLOATLIST, "tau_s"),
    "budget.target_bits": (INT, "target_bits"),
    "budget.eta_min_db": (FLOAT, "eta_min_db"),
    "budget.eta_max_db": (FLOAT, "eta_max_db"),
    "budget.resolution_db": (FLOAT, "resolution_db"),
    "worstcase.f": (FLOAT, "f"),
    "worstcase.grid_points": (INT, "grid_points_per_dim"),
}

# the keys of a complete protocol section; protocol.mu3 and protocol.p_mu3
# have defaults
_PROTOCOL_KEYS = ("protocol.pax", "protocol.pbx", "protocol.mu1", "protocol.mu2",
                  "protocol.p_mu1", "protocol.p_mu2")

# section -> field -> key, for every key that fills a field
_FIELDS = {section: {field: key for key, (_, field) in SCHEMA.items()
                     if field is not None and key.startswith(section + ".")}
           for section in dict.fromkeys(key.split(".")[0] for key in SCHEMA)}


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
    if key not in SCHEMA:
        raise ConfigError(f"unknown configuration key {key!r}")
    kind = SCHEMA[key][0]
    try:
        if kind == STR:
            return str(value).strip()
        listed = kind == FLOATLIST and isinstance(value, (list, tuple))
        if isinstance(value, bool) or listed and any(isinstance(v, bool) for v in value):
            raise ValueError("a boolean is not a number")
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
        return tuple(map(float, value)) if listed else _parse_floatlist(str(value))
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
            try:
                text = Path(path).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config {str(path)!r}: {exc}") from exc
            if text.lstrip().startswith("{"):
                try:  # text that opens with "{" parses to an object or fails
                    nested = json.loads(text)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"invalid JSON config: {exc}") from exc
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
            raw[rest.replace("_", ".", 1)] = value
        return cls(values={key: _coerce(key, value) for key, value in raw.items()})

    def has(self, key: str) -> bool:
        return key in self.values

    def get(self, key: str, default: Any = None) -> Any:
        return self.values.get(key, default)

    def require(self, key: str) -> Any:
        if key not in self.values:
            raise ConfigError(f"missing required configuration key {key!r}")
        return self.values[key]

    # --- section builders -------------------------------------------------
    def _given(self, cls: type, *sections: str, **defaults: Any) -> dict[str, Any]:
        """Keyword arguments for ``cls`` from the keys of ``sections`` that
        are set, over ``defaults``, so every other default is the one ``cls``
        states.  A key is required exactly where its field has no default."""
        required = {f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING}
        for section in sections:
            for name, key in _FIELDS[section].items():
                if key in self.values or (name in required and name not in defaults):
                    defaults[name] = self.require(key)
        return defaults

    def channel(self, loss_optional: bool = False) -> ChannelConditions:
        """The channel section; with ``loss_optional`` (the loss is swept or
        searched) a missing ``channel.eta_loss_db`` reads as 0 dB."""
        loss = {"eta_loss_db": 0.0} if loss_optional else {}
        return ChannelConditions(**self._given(ChannelConditions, "channel", **loss))

    def security(self) -> SecurityParams:
        """The security analysis; keys left unset take its defaults."""
        return SecurityParams(**self._given(SecurityParams, "security", "ec"))

    def protocol(self) -> ProtocolParams:
        pax, pbx, mu1, mu2, p1, p2 = map(self.require, _PROTOCOL_KEYS)
        return ProtocolParams(pax=pax, pbx=pbx, mu=(mu1, mu2, self.get("protocol.mu3", 0.0)),
                              p_mu=(p1, p2, self.get("protocol.p_mu3", 1.0 - p1 - p2)))

    def opt_spec(self) -> OptimizationSpec:
        spec = self._given(OptimizationSpec, "optimize")
        pair = ("optimize.mu1", "optimize.mu2")  # the fixed intensity triple's first two
        if spec.get("regime") == Regime.FIXED_PBX_AND_MU:
            spec["mu"] = (*map(self.require, pair), self.get("optimize.mu3", OptimizationSpec.mu3))
        elif any(map(self.has, pair)):
            raise ConfigError(f"{' and '.join(pair)} are read only by regime fixed_pbx_and_mu")
        return OptimizationSpec(**spec)

    def _fixed_or_optimize(self) -> tuple[ProtocolParams | None, OptimizationSpec | None]:
        """The (params, opt_spec) policy of a sweep or budget.

        A complete protocol section fixes the parameters; an
        ``optimize.regime`` re-optimizes at every point.  Giving both is an
        error; giving neither is left to the spec's own validation.
        """
        fixed = all(map(self.has, _PROTOCOL_KEYS))
        use_opt = self.has("optimize.regime")
        if use_opt and fixed:
            raise ConfigError("give either a protocol section or an optimize.regime, not both")
        return (self.protocol() if fixed else None,
                self.opt_spec() if use_opt else None)

    def sweep_spec(self) -> SweepSpec:
        params, opt_spec = self._fixed_or_optimize()
        return SweepSpec(**self._given(SweepSpec, "sweep"), params=params, opt_spec=opt_spec)

    def budget_query(self) -> LossBudgetQuery:
        params, opt_spec = self._fixed_or_optimize()
        return LossBudgetQuery(conditions=self.channel(loss_optional=True), params=params,
                               opt_spec=opt_spec, **self._given(LossBudgetQuery, "budget"))

    def uncertainty_model(self) -> IntensityUncertaintyModel:
        # worstcase.f is required before the protocol section is read
        return IntensityUncertaintyModel(**self._given(IntensityUncertaintyModel, "worstcase"),
                                         nominal=self.protocol())
