"""Smoke test of the in-process A/B timing tool, ``tools/abtime.py``: one
pair on two queries, with the checkout itself as the parent."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_pair_on_two_queries_against_the_tree_itself(tmp_path):
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "abtime.py"), "--parent-tree", str(ROOT),
         "--workload", "design_opt", "--seed", "0", "--queries", "2", "--pairs", "1",
         "--repeats", "1", "--json", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    block = json.loads(out.read_text())
    # the first two design_opt queries of seed 0 are FULL optimize queries
    kinds = ["optimize/full"]
    assert block["queries"] == {"optimize/full": 2}
    for field in ("parent_ms", "change_ms", "parent_min_ms", "change_min_ms"):
        assert list(block[field]) == kinds and block[field]["optimize/full"] > 0.0
    assert block["change_wins"]["optimize/full"] in ("0 of 1", "1 of 1")
    counts = block["counts"]
    assert counts["parent"] == counts["change"]
    assert counts["change"]["optimize/full"]["evaluations"] > 0
    assert counts["change"]["optimize/full"]["binom_ppf_calls"] > 0
    assert block["counts_repeat"] is True
    digests = block["answers_sha256"]
    assert digests["parent"] == digests["change"] and len(digests["change"]["optimize/full"]) == 64
    assert block["results_equal"] is True
    assert "what" in block and block["command"].startswith("python3 tools/abtime.py")
