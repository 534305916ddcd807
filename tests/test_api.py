"""The public API: ``fsqkd.__all__`` is pinned, every name resolves, the
README lists it, and the chain modules define no public callable outside
it (the estimation chain's steps live in ``fsqkd._kernels``)."""
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fsqkd

PUBLIC = [
    "BlockCounts", "ChannelConditions", "IntensityUncertaintyModel",
    "KeyLengthResult", "LossBudgetQuery", "LossBudgetResult",
    "OptimizationResult", "OptimizationSpec", "ParameterError",
    "ProtocolParams", "Regime", "SecurityParams", "SiftingEquivalence",
    "SweepRow", "SweepSpec", "WorstCaseResult", "binary_entropy",
    "chernoff_delta", "detection_probability", "ec_leakage",
    "error_probability", "expected_block_counts", "key_length_for_channel",
    "key_length_for_intensities", "max_loss", "optimize", "secure_key_length",
    "sifting_equivalence", "skr_vs_time", "sweep", "transmittance_from_loss",
    "using_numba", "worst_case_key_length",
]

# public module-level callables that are not re-exported by the package
MODULE_ONLY = {"fsqkd.optimize": {"minimize"}}


# the settings of a search; a new one is an edit here
SPEC_FIELDS = ["regime", "pbx", "mu", "mu3", "restarts", "seed", "max_evals_per_restart"]


def test_all_is_pinned():
    assert fsqkd.__all__ == PUBLIC


def test_optimization_spec_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(fsqkd.OptimizationSpec)] == SPEC_FIELDS


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_name_resolves(name):
    assert getattr(fsqkd, name) is not None


@pytest.mark.parametrize("module", ["fsqkd.finitekey", "fsqkd.optimize", "fsqkd.uncertainty"])
def test_no_unlisted_public_callables(module):
    # the package attribute fsqkd.optimize is the function, not the module
    mod = importlib.import_module(module)
    defined = {name for name, value in vars(mod).items()
               if not name.startswith("_") and callable(value)
               and getattr(value, "__module__", None) == module}
    assert defined - set(PUBLIC) == MODULE_ONLY.get(module, set())


@pytest.mark.parametrize("module", ["fsqkd.finitekey", "fsqkd.optimize", "fsqkd.scenarios",
                                    "fsqkd.uncertainty"])
def test_leakage_model_is_chosen_in_security_params_only(module):
    # the leakage estimate is a field of the security analysis; no other
    # public signature may take it apart from the SecurityParams it belongs to
    mod = importlib.import_module(module)
    found = {}
    for name, value in vars(mod).items():
        if (name.startswith("_") or not callable(value)
                or getattr(value, "__module__", None) != module):
            continue
        params = set(inspect.signature(value).parameters) & {"ec_method", "f_ec"}
        if params:
            found[name] = params
    expected = {"SecurityParams": {"ec_method", "f_ec"}} if module == "fsqkd.finitekey" else {}
    assert found == expected


def test_readme_lists_the_public_api():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library API", 1)[1].split("\n## ", 1)[0]
    listing = next(p for p in section.split("\n\n") if p.startswith("* "))
    assert sorted(re.findall(r"`(\w+)`", listing)) == sorted(PUBLIC)


def test_scipy_optimize_never_imported(tmp_path):
    # the optimizer is fsqkd's own simplex; its minimize stays a module
    # attribute so that it can be wrapped
    config = tmp_path / "opt.cfg"
    config.write_text("channel.eta_loss_db = 25.0\n"
                      "channel.p_ec = 1e-5\n"
                      "channel.qber_i = 0.01\n"
                      "channel.integration_time_s = 60.0\n"
                      "optimize.regime = fixed_pbx\n"
                      "optimize.pbx = 0.5\n"
                      "optimize.restarts = 1\n"
                      "optimize.max_evals = 60\n")
    src = str(Path(fsqkd.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, fsqkd, fsqkd.cli\n"
            "spec = fsqkd.OptimizationSpec(restarts=1, max_evals_per_restart=60)\n"
            "channel = fsqkd.ChannelConditions(eta_loss_db=25.0, p_ec=1e-5, qber_i=0.01,\n"
            "                                  integration_time_s=60.0)\n"
            "fsqkd.optimize(spec, channel, fsqkd.SecurityParams())\n"
            "assert 'scipy.optimize' not in sys.modules, 'imported by fsqkd.optimize'\n"
            f"assert fsqkd.cli.main(['optimize', '--config', {str(config)!r}]) == 0\n"
            "assert 'scipy.optimize' not in sys.modules, 'imported by the optimize command'\n"
            "assert callable(sys.modules['fsqkd.optimize'].minimize)\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, stdout=subprocess.DEVNULL)
