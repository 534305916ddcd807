"""Command-line front end.

Subcommands: ``keylength``, ``optimize``, ``sweep``, ``budget``,
``worstcase``, ``sift-equiv``.  Inputs come from a config file
(``--config``), overridable through ``FSQKD_*`` environment variables;
results go to stdout or ``--out`` as JSON or CSV.  Exit codes: 0 success
(a zero key length is a valid answer), 2 configuration error, 3 internal
numeric failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .channel import ParameterError, ProtocolParams
from .config import ConfigError, RunConfig
from .finitekey import KeyLengthResult, key_length_for_channel
from .optimize import optimize
from .scenarios import SweepRow, max_loss, sifting_equivalence, sweep
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


def _result_obj(result: KeyLengthResult, params: ProtocolParams) -> dict:
    return {
        "ell": result.ell,
        "raw": result.raw,
        "s_x0": result.s_x0,
        "s_x1": result.s_x1,
        "phi_x": result.phi_x,
        "lambda_ec": result.lambda_ec,
        "qber_x": result.qber_x,
        "reason": result.reason,
        "params": {
            "pax": params.pax, "pbx": params.pbx,
            "mu": list(params.mu), "p_mu": list(params.p_mu),
        },
    }


def _sweep_csv_row(row: SweepRow) -> str:
    r, p = row.result, row.params
    cells = [row.eta_loss_db, row.log10_pec, row.qber_i, row.tau_s,
             r.ell, r.s_x0, r.s_x1, r.phi_x, r.lambda_ec,
             p.pax, p.pbx, p.mu[0], p.mu[1], p.mu[2],
             p.p_mu[0], p.p_mu[1], p.p_mu[2]]
    return ",".join(_num(c) for c in cells)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsqkd",
        description="Finite-key secure key length engine for efficient "
                    "decoy-state BB84 over lossy free-space channels.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="config file (text or JSON)")
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--out", type=str, default=None, help="output path (stdout when absent)")
    common.add_argument("--seed", type=int, default=None, help="optimizer seed override")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("keylength", parents=[common],
                   help="key length for fixed protocol parameters")
    sub.add_parser("optimize", parents=[common],
                   help="maximize the key length over free protocol parameters")
    sub.add_parser("sweep", parents=[common],
                   help="key length over a grid of channel conditions")
    sub.add_parser("budget", parents=[common],
                   help="largest loss meeting a key-length target")
    sub.add_parser("worstcase", parents=[common],
                   help="minimum key length under intensity uncertainty")
    se = sub.add_parser("sift-equiv", parents=[common],
                        help="symmetric basis bias equivalent to an asymmetric pair")
    se.add_argument("--pax", type=float, default=None)
    se.add_argument("--pbx", type=float, default=None)
    return parser


def _cmd_keylength(cfg: RunConfig, args) -> str:
    channel = cfg.channel()
    params = cfg.protocol()
    sec = cfg.security()
    method, f_ec = cfg.ec_method()
    result = key_length_for_channel(params, channel, sec,
                                    ec_method=method, f_ec=f_ec)
    if args.format == "csv":
        import math
        row = SweepRow(channel.eta_loss_db, math.log10(channel.p_ec) if channel.p_ec > 0 else float("-inf"),
                       channel.qber_i, channel.integration_time_s, params, result)
        return SWEEP_HEADER + "\n" + _sweep_csv_row(row)
    return _dump_json(_result_obj(result, params))


def _cmd_optimize(cfg: RunConfig, args) -> str:
    channel = cfg.channel()
    sec = cfg.security()
    method, f_ec = cfg.ec_method()
    spec = cfg.opt_spec(seed_override=args.seed)
    res = optimize(spec, channel, sec, ec_method=method, f_ec=f_ec)
    obj = _result_obj(res.result, res.best_params)
    obj["evaluations"] = res.evaluations
    obj["regime"] = spec.regime.value
    obj["seed"] = spec.seed
    return _dump_json(obj)


def _cmd_sweep(cfg: RunConfig, args) -> str:
    base = cfg.channel(loss_optional=True)
    sec = cfg.security()
    method, f_ec = cfg.ec_method()
    spec = cfg.sweep_spec(seed_override=args.seed)
    rows = sweep(spec, base, sec, ec_method=method, f_ec=f_ec)
    if args.format == "json":
        return _dump_json([{**_result_obj(r.result, r.params),
                            "eta_loss_db": r.eta_loss_db,
                            "log10_pec": r.log10_pec,
                            "qber_i": r.qber_i, "tau_s": r.tau_s}
                           for r in rows])
    return "\n".join([SWEEP_HEADER] + [_sweep_csv_row(r) for r in rows])


def _cmd_budget(cfg: RunConfig, args) -> str:
    sec = cfg.security()
    method, f_ec = cfg.ec_method()
    query = cfg.budget_query(seed_override=args.seed)
    res = max_loss(query, sec, ec_method=method, f_ec=f_ec)
    obj = {"max_eta_db": res.max_eta_db, "target_bits": res.target_bits,
           "monotone_bracket": res.monotone_bracket,
           "probes": [[eta, ell] for eta, ell in res.probes]}
    if args.format == "csv":
        head = "max_eta_db,target_bits"
        val = "" if res.max_eta_db is None else _num(res.max_eta_db)
        return head + "\n" + f"{val},{res.target_bits}"
    return _dump_json(obj)


def _cmd_worstcase(cfg: RunConfig, args) -> str:
    channel = cfg.channel()
    sec = cfg.security()
    method, f_ec = cfg.ec_method()
    model = cfg.uncertainty_model()
    res = worst_case_key_length(model, channel, sec, ec_method=method, f_ec=f_ec)
    return _dump_json({"min_ell": res.min_ell, "nominal_ell": res.nominal_ell,
                       "argmin": res.argmin, "argmin_index": res.argmin_index,
                       "evaluations": res.evaluations, "f": model.f,
                       "grid_points_per_dim": model.grid_points_per_dim})


def _cmd_sift_equiv(cfg: RunConfig, args) -> str:
    pax = args.pax if args.pax is not None else cfg.require("protocol.pax")
    pbx = args.pbx if args.pbx is not None else cfg.require("protocol.pbx")
    eq = sifting_equivalence(pax, pbx)
    return _dump_json({"p_x": eq.p_x, "k_ratio": eq.k_ratio,
                       "f_asymmetric": eq.f_asymmetric,
                       "f_symmetric": eq.f_symmetric})


_COMMANDS = {
    "keylength": _cmd_keylength,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "budget": _cmd_budget,
    "worstcase": _cmd_worstcase,
    "sift-equiv": _cmd_sift_equiv,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        text = _COMMANDS[args.command](cfg, args)
    except (ConfigError, ParameterError, FileNotFoundError) as exc:
        print(f"fsqkd: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # numeric or internal failure; no partial output
        print(f"fsqkd: internal error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(text, args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
