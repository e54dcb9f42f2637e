"""Golden outputs: every default and damped CLI run, one clutter run at d = 2
(the default runs visit only at d = 1), one at w = 0 (where every term of
the importance sampler's likelihood takes the max form, which the data of
no other run reach), one BPM run at slack 1 (the default runs have zero
slack, so none reaches the probit visit), one loopy run with cardinalities
up to 10 (the default runs stop at 4, so no message or cavity there has
the 8 or more entries that numpy sums pairwise) and one on the fixed cycle3
network (fitted once, its rows written under each seed), against the CSV
and sidecar checked in under tests/golden/.  The slack 1 run needs scipy,
as every BPM run with slack does, and is skipped without it.

Text columns, `operations`, `converged` and `sweeps` must match exactly.
The two error columns may move by rounding, at most max(1e-12, 1e-9 x
value); sidecars must be equal once parsed.  A change that moves a result
on purpose regenerates the files, and says which rows moved and why, by
running from the repository root:

    for k in clutter bpm loopy; do
      PYTHONPATH=src python -m epkit.cli $k --out tests/golden/${k}_default.csv
      PYTHONPATH=src python -m epkit.cli $k --damping 0.5 --schedule random:3 \\
        --seed-range 1..5 --out tests/golden/${k}_damped.csv
    done
    PYTHONPATH=src python -m epkit.cli clutter \\
      --config tests/golden/clutter_d2.config.json --seed-range 1..5 \\
      --out tests/golden/clutter_d2.csv
    PYTHONPATH=src python -m epkit.cli clutter \\
      --config tests/golden/clutter_w0.config.json --seed-range 1..3 \\
      --out tests/golden/clutter_w0.csv
    PYTHONPATH=src python -m epkit.cli bpm \\
      --config tests/golden/bpm_slack1.config.json --seed-range 1..5 \\
      --out tests/golden/bpm_slack1.csv
    PYTHONPATH=src python -m epkit.cli loopy \\
      --config tests/golden/loopy_card10.config.json --seed-range 1..5 \\
      --out tests/golden/loopy_card10.csv
    PYTHONPATH=src python -m epkit.cli loopy \\
      --config tests/golden/loopy_cycle3.config.json --seed-range 1..3 \\
      --out tests/golden/loopy_cycle3.csv
"""
import csv
import json
import math
from pathlib import Path

import pytest

from epkit.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"
VARIANTS = {"default": [],
            "damped": ["--damping", "0.5", "--schedule", "random:3",
                       "--seed-range", "1..5"],
            "d2": ["--config", str(GOLDEN / "clutter_d2.config.json"),
                   "--seed-range", "1..5"],
            "w0": ["--config", str(GOLDEN / "clutter_w0.config.json"),
                   "--seed-range", "1..3"],
            "slack1": ["--config", str(GOLDEN / "bpm_slack1.config.json"),
                       "--seed-range", "1..5"],
            "card10": ["--config", str(GOLDEN / "loopy_card10.config.json"),
                       "--seed-range", "1..5"],
            "cycle3": ["--config", str(GOLDEN / "loopy_cycle3.config.json"),
                       "--seed-range", "1..3"]}
RUNS = [(kind, variant) for kind in ("clutter", "bpm", "loopy")
        for variant in ("default", "damped")] + [("clutter", "d2"),
                                                 ("clutter", "w0"),
                                                 ("bpm", "slack1"),
                                                 ("loopy", "card10"),
                                                 ("loopy", "cycle3")]
ERROR_COLUMNS = ("log_evidence_error", "mean_error")


def _error_matches(got: str, want: str) -> bool:
    g, w = float(got), float(want)
    if not math.isfinite(w):
        return got == want
    return abs(g - w) <= max(1e-12, 1e-9 * abs(w))


@pytest.mark.parametrize("kind, variant", RUNS)
def test_cli_output_matches_golden(tmp_path, kind, variant):
    if variant == "slack1":
        pytest.importorskip("scipy")
    name = f"{kind}_{variant}.csv"
    out = tmp_path / name
    assert cli_main([kind, *VARIANTS[variant], "--out", str(out)]) == 0
    got = list(csv.reader(out.read_text().splitlines()))
    want = list(csv.reader((GOLDEN / name).read_text().splitlines()))
    assert got[0] == want[0]
    assert len(got) == len(want)
    errors = [want[0].index(c) for c in ERROR_COLUMNS]
    for g, w in zip(got[1:], want[1:]):
        exact = [k for k in range(len(w)) if k not in errors]
        assert [g[k] for k in exact] == [w[k] for k in exact], (g, w)
        assert all(_error_matches(g[k], w[k]) for k in errors), (g, w)
    meta = name + ".meta.json"
    assert json.loads((tmp_path / meta).read_text()) \
        == json.loads((GOLDEN / meta).read_text())
