"""Golden outputs: each `tests/golden/<kind>_<variant>.config.json` is one CLI
run, `epkit <kind> --config <file>`, whose CSV and sidecar are checked in
beside it as `<kind>_<variant>.csv` and `.csv.meta.json`.  The files are
the one list of golden runs.  Besides each default run (`{}`) and each
damped run (damping 0.5 on the random:3 schedule, seeds 1..5) they hold one
clutter run at d = 2 (the default runs visit only at d = 1), one at w = 0
(where every term of the importance sampler's likelihood takes the max
form, which the data of no other run reach), one BPM run at slack 1 (the
default runs have zero slack, so none reaches the probit visit), one loopy
run with cardinalities up to 10 (the default runs stop at 4, so no message
or cavity there has the 8 or more entries that numpy sums pairwise) and one
on the fixed cycle3 network (fitted once, its rows written under each
seed).  A run with slack > 0 needs scipy, as every BPM run with slack does,
and is skipped without it.

Text columns, `operations`, `converged` and `sweeps` must match exactly.
The two error columns may move by rounding, at most max(1e-12, 1e-9 x
value); sidecars must be equal once parsed.  A change that moves a result
on purpose regenerates the files, and says which rows moved and why, by
running from the repository root:

    for config in tests/golden/*.config.json; do
      name=$(basename "$config" .config.json)
      PYTHONPATH=src python -m epkit.cli "${name%%_*}" --config "$config" \\
        --out "tests/golden/$name.csv"
    done
"""
import csv
import json
import math
from pathlib import Path

import pytest

from epkit.cli import _load_config, build_parser
from epkit.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"
RUNS = sorted(p.name.removesuffix(".config.json") for p in GOLDEN.glob("*.config.json"))
ERROR_COLUMNS = ("log_evidence_error", "mean_error")


def _error_matches(got: str, want: str) -> bool:
    g, w = float(got), float(want)
    if not math.isfinite(w):
        return got == want
    return abs(g - w) <= max(1e-12, 1e-9 * abs(w))


@pytest.mark.parametrize("run", RUNS, ids=lambda run: run.replace("_", "-", 1))
def test_cli_output_matches_golden(tmp_path, run):
    config = GOLDEN / f"{run}.config.json"
    if json.loads(config.read_text()).get("slack", 0.0) > 0.0:
        pytest.importorskip("scipy")
    name = f"{run}.csv"
    out = tmp_path / name
    assert cli_main([run.split("_")[0], "--config", str(config), "--out", str(out)]) == 0
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


def test_damped_flags_build_the_damped_config():
    # the flag form of a damped run is the config its file describes
    flags = ["--damping", "0.5", "--schedule", "random:3", "--seed-range", "1..5"]
    parser = build_parser()
    for kind in ("clutter", "bpm", "loopy"):
        config = ["--config", str(GOLDEN / f"{kind}_damped.config.json")]
        assert _load_config(kind, parser.parse_args([kind, *flags])) \
            == _load_config(kind, parser.parse_args([kind, *config]))
