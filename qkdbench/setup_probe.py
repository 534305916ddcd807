"""Cold-start probe: import fsqkd, answer one small query of a workload's kind.

Run as ``python3 qkdbench/setup_probe.py <workload> <workdir>`` with the
engine's ``src`` directory on ``PYTHONPATH``.  Exits 0 when the answer is
well formed.  The benchmark times this whole process as ``setup_s``, so
work moved out of import and into the first call still shows.
"""
import sys
from pathlib import Path


def main(workload: str, workdir: Path) -> int:
    import fsqkd

    channel = fsqkd.ChannelConditions(eta_loss_db=30.0, p_ec=1e-6, qber_i=0.01,
                                      integration_time_s=1800.0)
    params = fsqkd.ProtocolParams(pax=0.7, pbx=0.7, mu=(0.5, 0.15, 1e-9),
                                  p_mu=(0.7, 0.2, 0.1))
    sec = fsqkd.SecurityParams()
    if workload == "design_opt":
        res = fsqkd.optimize(fsqkd.OptimizationSpec(restarts=1), channel, sec)
        return 0 if res.best_ell > 0 else 1
    if workload == "worstcase_grid":
        model = fsqkd.IntensityUncertaintyModel(f=0.05, nominal=params,
                                                grid_points_per_dim=2)
        res = fsqkd.worst_case_key_length(model, channel, sec)
        return 0 if res.evaluations == 2 ** 10 else 1
    import fsqkd.cli

    cfg = workdir / f"probe-{workload}.cfg"
    out = workdir / f"probe-{workload}.csv"
    cfg.write_text("channel.p_ec = 1e-6\nchannel.qber_i = 0.01\n"
                   "channel.integration_time_s = 1800\n"
                   "protocol.pax = 0.7\nprotocol.pbx = 0.7\nprotocol.mu1 = 0.5\n"
                   "protocol.mu2 = 0.15\nprotocol.mu3 = 1e-9\n"
                   "protocol.p_mu1 = 0.7\nprotocol.p_mu2 = 0.2\n"
                   "sweep.eta_loss_db = 20, 30\nsweep.log10_pec = -6\n"
                   "sweep.qber_i = 0.01\nsweep.tau_s = 1800\n")
    rc = fsqkd.cli.main(["sweep", "--config", str(cfg), "--format", "csv",
                         "--out", str(out)])
    return 0 if rc == 0 and len(out.read_text().splitlines()) == 3 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], Path(sys.argv[2])))
