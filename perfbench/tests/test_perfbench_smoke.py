"""Smoke test of the benchmark itself: every workload at its smallest rung,
traced and untraced, emits exactly the metrics BENCHMARK.json names, with
their units, and no fit fails.  Also checks the benchmark's own exact tree
elimination against epkit's brute-force enumeration."""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smallest_rung_emits_every_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, out.stderr
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exact_tree_matches_enumeration(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    from loopy_ladder import exact_tree

    from epkit import enumerate_discrete
    from epkit.experiments import frustrated_cycle_network, random_tree_network

    for seed in range(4):
        net = random_tree_network(7, 4, seed)
        marginals, log_z = exact_tree(net)
        ref_marginals, ref_log_z = enumerate_discrete(net)
        assert log_z == pytest.approx(ref_log_z, abs=1e-10)
        for v, _ in net.variables:
            assert np.allclose(marginals[v], ref_marginals[v], atol=1e-12)
    with pytest.raises(ValueError):
        exact_tree(frustrated_cycle_network())
