"""The public API: ``fsqkd.__all__`` is pinned, every name resolves, the
README lists it, and the chain modules define no public callable outside
it (the estimation chain's steps live in ``fsqkd._kernels``)."""
import importlib
import re
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
MODULE_ONLY = {"fsqkd.uncertainty": {"bounds_ell_array", "grid_key_lengths"}}


def test_all_is_pinned():
    assert fsqkd.__all__ == PUBLIC


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


def test_readme_lists_the_public_api():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library API", 1)[1].split("\n## ", 1)[0]
    listing = next(p for p in section.split("\n\n") if p.startswith("* "))
    assert sorted(re.findall(r"`(\w+)`", listing)) == sorted(PUBLIC)
