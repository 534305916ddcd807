"""Command-line front end.

Subcommands: ``keylength``, ``optimize``, ``sweep``, ``budget``,
``worstcase``, ``sift-equiv``.  Inputs come from a config file
(``--config``), overridable through ``FSQKD_*`` environment variables;
results go to stdout or ``--out`` as JSON, or as CSV from ``keylength``,
``sweep`` and ``budget``.  Exit codes: 0 success (a zero key length is a
valid answer), 2 configuration or usage error, 3 internal numeric failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
from pathlib import Path

from .channel import ParameterError, ProtocolParams
from .config import ConfigError, RunConfig
from .finitekey import KeyLengthResult, key_length_for_channel
from .optimize import optimize
from .scenarios import _columns, _sweep_table, max_loss, sifting_equivalence
from .uncertainty import worst_case_key_length

SWEEP_HEADER = ("eta_loss_db,log10_pec,qber_i,tau_s,ell,s_x0,s_x1,phi_x,"
                "lambda_ec,pax,pbx,mu1,mu2,mu3,p_mu1,p_mu2,p_mu3")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _num(x) -> str:
    """Round-trippable text for a number (ints stay ints)."""
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


_JSON_FIELDS = ("ell", "raw", "s_x0", "s_x1", "phi_x", "lambda_ec", "qber_x", "reason")
_CSV_FIELDS = ("ell", "s_x0", "s_x1", "phi_x", "lambda_ec")
_AXES = ("eta_loss_db", "log10_pec", "qber_i", "tau_s")


def _result_obj(result: KeyLengthResult, params: ProtocolParams) -> dict:
    return {**{name: getattr(result, name) for name in _JSON_FIELDS},
            "params": dataclasses.asdict(params)}


def _table_text(fmt: str, axes, params, columns: dict[str, list]) -> str:
    """CSV or JSON text of a key-length table, row-major over ``axes``.

    ``params`` is one ``ProtocolParams`` for every row or a list of one per
    row, and ``columns`` maps each ``KeyLengthResult`` field to its values
    (``scenarios._grid_table``), ints and floats, whose ``repr`` is their
    ``_num`` text.  Each axis value and each params set is formatted once."""
    def per_row(text):
        one = isinstance(params, ProtocolParams)
        return itertools.repeat(text(params)) if one else map(text, params)

    if fmt == "json":
        rows = zip(zip(*(columns[name] for name in _JSON_FIELDS)), per_row(dataclasses.asdict),
                   itertools.product(*axes))
        return _dump_json([{**dict(zip(_JSON_FIELDS, values)), "params": p,
                            **dict(zip(_AXES, point))} for values, p, point in rows])
    points = itertools.product(*([_num(v) for v in axis] for axis in axes))
    cells = per_row(lambda p: ",".join(map(_num, (p.pax, p.pbx, *p.mu, *p.p_mu))))
    return "\n".join((SWEEP_HEADER, *map(",".join, zip(
        map(",".join, points), *(map(repr, columns[name]) for name in _CSV_FIELDS), cells))))


def _emit(text: str, out_path: str | None) -> None:
    if not out_path:
        sys.stdout.write(text + "\n")
        return
    try:
        Path(out_path).write_text(text + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write --out: {exc}") from exc


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsqkd",
        description="Finite-key secure key length engine for efficient "
                    "decoy-state BB84 over lossy free-space channels.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="config file (text or JSON)")
    common.add_argument("--out", type=str, default=None, help="output path (stdout when absent)")
    common.add_argument("--seed", type=int, default=None, help="optimizer seed override")

    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_, formats, help_text) in _SUBCOMMANDS.items():
        commands[name] = sub.add_parser(name, parents=[common], help=help_text)
        commands[name].add_argument("--format", choices=formats, default=None)
    commands["sift-equiv"].add_argument("--pax", type=float, default=None)
    commands["sift-equiv"].add_argument("--pbx", type=float, default=None)
    return parser


def _cmd_keylength(cfg: RunConfig, args) -> str:
    channel, params, sec = cfg.channel(), cfg.protocol(), cfg.security()
    result = key_length_for_channel(params, channel, sec)
    if args.format == "csv":
        lp = math.log10(channel.p_ec) if channel.p_ec > 0 else float("-inf")
        point = (channel.eta_loss_db, lp, channel.qber_i, channel.integration_time_s)
        return _table_text("csv", [[v] for v in point], params, _columns([result]))
    return _dump_json(_result_obj(result, params))


def _cmd_optimize(cfg: RunConfig, args) -> str:
    channel, sec, spec = cfg.channel(), cfg.security(), cfg.opt_spec()
    res = optimize(spec, channel, sec)
    return _dump_json({**_result_obj(res.result, res.best_params), "evaluations": res.evaluations,
                       "regime": spec.regime.value, "seed": spec.seed})


def _cmd_sweep(cfg: RunConfig, args) -> str:
    base, sec, spec = cfg.channel(loss_optional=True), cfg.security(), cfg.sweep_spec()
    return _table_text(args.format or "csv",
                       (spec.eta_loss_db, spec.log10_pec, spec.qber_i, spec.tau_s),
                       *_sweep_table(spec, base, sec))


def _cmd_budget(cfg: RunConfig, args) -> str:
    sec = cfg.security()
    res = max_loss(cfg.budget_query(), sec)
    if args.format == "csv":
        val = "" if res.max_eta_db is None else _num(res.max_eta_db)
        return f"max_eta_db,target_bits\n{val},{res.target_bits}"
    return _dump_json(dataclasses.asdict(res))


def _cmd_worstcase(cfg: RunConfig, args) -> str:
    channel, sec, model = cfg.channel(), cfg.security(), cfg.uncertainty_model()
    res = worst_case_key_length(model, channel, sec)
    return _dump_json({**dataclasses.asdict(res), "f": model.f,
                       "grid_points_per_dim": model.grid_points_per_dim})


def _cmd_sift_equiv(cfg: RunConfig, args) -> str:
    pax = args.pax if args.pax is not None else cfg.require("protocol.pax")
    pbx = args.pbx if args.pbx is not None else cfg.require("protocol.pbx")
    return _dump_json(dataclasses.asdict(sifting_equivalence(pax, pbx)))


# name -> handler, the output formats it can write, help text
_SUBCOMMANDS = {
    "keylength": (_cmd_keylength, ("json", "csv"),
                  "key length for fixed protocol parameters"),
    "optimize": (_cmd_optimize, ("json",),
                 "maximize the key length over free protocol parameters"),
    "sweep": (_cmd_sweep, ("json", "csv"),
              "key length over a grid of channel conditions"),
    "budget": (_cmd_budget, ("json", "csv"),
               "largest loss meeting a key-length target"),
    "worstcase": (_cmd_worstcase, ("json",),
                  "minimum key length under intensity uncertainty"),
    "sift-equiv": (_cmd_sift_equiv, ("json",),
                   "symmetric basis bias equivalent to an asymmetric pair"),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        if args.seed is not None:  # over the file and FSQKD_OPTIMIZE_SEED
            if not (args.command == "optimize" or (
                    args.command in ("sweep", "budget") and cfg.has("optimize.regime"))):
                raise ConfigError(
                    f"--seed seeds the optimizer, which {args.command} does not run here; "
                    "use it with optimize, or with sweep or budget and an optimize.regime")
            cfg.values["optimize.seed"] = args.seed
        _emit(_SUBCOMMANDS[args.command][0](cfg, args), args.out)
    except (ConfigError, ParameterError) as exc:
        print(f"fsqkd: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # numeric or internal failure; no partial output
        print(f"fsqkd: internal error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
