"""Experiment runners and CLI: determinism, row structure, validation,
and end-to-end surfacing of engine properties."""
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit.cli import main as cli_main
from epkit.engine import EPOptions
from epkit.experiments import (
    ConfigError,
    ExperimentConfig,
    builtin_bpm_dataset,
    config_from_dict,
    oracle_check_battery,
    run_bpm_experiment,
    run_clutter_experiment,
    run_experiment,
    run_loopy_experiment,
    write_results,
)
from epkit.factorgraph import load_network


def clutter_config(**kw):
    base = dict(kind="clutter", seeds=(1, 2), n=8,
                ep_options=EPOptions(tolerance=1e-6, max_sweeps=30),
                importance_samples=(1000,))
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_requires_seeds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="clutter", seeds=())

    def test_oracle_bound(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="clutter", n=21)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="gibbs")

    def test_from_dict_round_trips_options(self):
        cfg = config_from_dict({
            "kind": "clutter", "seeds": [3], "n": 6,
            "ep_options": {"tolerance": 1e-7, "max_sweeps": 12,
                           "schedule": {"kind": "random", "seed": 4}},
        })
        assert cfg.ep_options.tolerance == 1e-7
        assert cfg.ep_options.max_sweeps == 12
        assert cfg.ep_options.schedule.kind == "random"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            config_from_dict({"kind": "clutter", "wobble": 3})

    @pytest.mark.parametrize("doc, name", [
        ({"dataset_path": 5}, "dataset_path"), ({"dataset_path": ["a"]}, "dataset_path"),
        ({"network": 5}, "network"), ({"w": True}, "w"), ({"w": "0.5"}, "w"),
        ({"ep_options": {"tolerance": True}}, "tolerance"),
        ({"ep_options": {"tolerance": "1e-3"}}, "tolerance"),
        ({"ep_options": {"damping": True}}, "damping"),
        ({"ep_options": {"damping": None}}, "damping")],
        ids=["dataset-path-int", "dataset-path-list", "network-int", "w-bool", "w-str",
             "tolerance-bool", "tolerance-str", "damping-bool", "damping-null"])
    def test_wrong_types_rejected_by_name(self, doc, name):
        with pytest.raises(ConfigError, match=f"^{name} must be .*, got "):
            config_from_dict({"kind": "bpm", **doc})

    @pytest.mark.parametrize("bad", [(), (0,), (-3,), (1000, 0), 1.5, (1.5,),
                                     True, (True,), 1000, "1000"])
    @pytest.mark.parametrize("kind", ["clutter", "bpm"])
    def test_importance_samples_validated(self, kind, bad):
        with pytest.raises(ConfigError, match="importance_samples"):
            ExperimentConfig(kind=kind, importance_samples=bad)
        doc_value = list(bad) if isinstance(bad, tuple) else bad
        with pytest.raises(ConfigError, match="importance_samples"):
            config_from_dict({"kind": kind, "importance_samples": doc_value})


class TestClutterExperiment:
    def test_row_inventory(self):
        rows = run_clutter_experiment(clutter_config())
        methods = {r.method for r in rows}
        assert methods == {"oracle", "adf", "ep", "importance"}
        for seed in (1, 2):
            per_seed = [r for r in rows if r.seed == seed]
            assert any(r.method == "adf" for r in per_seed)
            ep_rows = [r for r in per_seed if r.method == "ep"]
            assert ep_rows[0].checkpoint == "sweep1"
            assert len(ep_rows) == ep_rows[0].sweeps

    def test_first_ep_checkpoint_equals_adf_row(self):
        rows = run_clutter_experiment(clutter_config(seeds=tuple(range(1, 6))))
        for seed in range(1, 6):
            adf = next(r for r in rows if r.seed == seed and r.method == "adf")
            ep1 = next(r for r in rows if r.seed == seed and r.method == "ep"
                       and r.checkpoint == "sweep1")
            assert ep1.log_evidence_error == pytest.approx(
                adf.log_evidence_error, abs=1e-12)
            assert ep1.mean_error == pytest.approx(adf.mean_error, abs=1e-12)

    def test_nonconverged_rows_hit_sweep_budget(self):
        rows = run_clutter_experiment(clutter_config(
            seeds=tuple(range(1, 9)),
            ep_options=EPOptions(tolerance=1e-6, max_sweeps=7)))
        for r in rows:
            if r.method == "ep" and not r.converged:
                assert r.sweeps == 7

    def test_conjugate_rows_near_exact(self):
        rows = run_clutter_experiment(clutter_config(w=0.0))
        for r in rows:
            if r.method in ("adf", "ep"):
                assert r.log_evidence_error <= 1e-10
                assert r.mean_error <= 1e-10

    def test_metrics_finite(self):
        for r in run_clutter_experiment(clutter_config()):
            assert math.isfinite(r.log_evidence_error)
            assert math.isfinite(r.mean_error)


class TestDeterminism:
    def test_byte_identical_files(self, tmp_path):
        cfg = clutter_config()
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(cfg, run_experiment(cfg), out_a)
        write_results(cfg, run_experiment(cfg), out_b)
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.csv.meta.json").read_bytes() \
            == (tmp_path / "b.csv.meta.json").read_bytes()

    def test_csvs_do_not_depend_on_blas_threads(self, tmp_path):
        """Importance sampling sums over its draws with numpy reductions, so
        the clutter importance rows and a sampled (slack > 0, d = 3) BPM
        truth read the same under one and two BLAS threads."""
        cfg = tmp_path / "slack.json"
        cfg.write_text(json.dumps({"slack": 1.0}))
        runs = {"clutter": ["clutter", "--seed-range", "7..12"],
                "bpm": ["bpm", "--seed-range", "1..3", "--config", str(cfg)]}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            for name, argv in runs.items():
                subprocess.run([sys.executable, "-m", "epkit.cli", *argv, "--out",
                                str(tmp_path / f"{name}{threads}.csv")],
                               env=env, check=True, capture_output=True)
        for name in runs:
            assert (tmp_path / f"{name}1.csv").read_bytes() \
                == (tmp_path / f"{name}2.csv").read_bytes()

    def test_sidecar_echoes_config(self, tmp_path):
        cfg = clutter_config()
        out = tmp_path / "r.csv"
        write_results(cfg, run_experiment(cfg), out)
        meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
        assert meta["config"]["kind"] == "clutter"
        assert meta["config"]["n"] == 8
        assert meta["version"]


class TestBpmExperiment:
    def test_builtin_three_point(self):
        cfg = ExperimentConfig(kind="bpm", seeds=(1,),
                               ep_options=EPOptions(tolerance=1e-8,
                                                    max_sweeps=100),
                               importance_samples=(2000, 50000))
        rows = run_bpm_experiment(cfg)
        ep_rows = [r for r in rows if r.method == "ep"
                   and r.checkpoint.startswith("sweep")]
        assert ep_rows[-1].converged
        # converged EP sits close to the exact Bayes point
        assert ep_rows[-1].mean_error < 0.05
        adf = next(r for r in rows if r.method == "adf"
                   and r.checkpoint == "final")
        assert ep_rows[0].mean_error == pytest.approx(adf.mean_error, abs=1e-12)
        train_rows = [r for r in rows if r.checkpoint == "train_error"]
        assert {r.method for r in train_rows} == {"adf", "ep"}
        for r in train_rows:
            assert r.mean_error == 0.0  # separable set, both methods solve it
            assert math.isnan(r.log_evidence_error)

    def test_empty_dataset_distance_is_sampling_noise(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,x2,label\n")
        cfg = ExperimentConfig(kind="bpm", seeds=(1,),
                               dataset_path=str(path), add_bias=False,
                               importance_samples=(200000,))
        rows = run_bpm_experiment(cfg)
        ep = [r for r in rows if r.method == "ep" and r.checkpoint != "train_error"]
        # one empty sweep; posterior is the prior, and its distance to the
        # sampled prior mean is tiny
        assert [r.checkpoint for r in ep] == ["sweep1"]
        assert ep[-1].mean_error < 0.02

    @staticmethod
    def _sampler_counts(monkeypatch):
        """The sample counts of every importance_sampler call the BPM
        experiment makes, and of each count of its nested_importance_sampler
        calls."""
        from epkit import experiments
        counts = []
        sampler, nested = experiments.importance_sampler, experiments.nested_importance_sampler

        def counted(log_likelihood, prior_mean, prior_cov, samples, seed, **kwargs):
            counts.append(samples)
            return sampler(log_likelihood, prior_mean, prior_cov, samples, seed,
                           **kwargs)

        def counted_nested(log_likelihood, prior_mean, prior_cov, nested_counts, seed,
                           **kwargs):
            counts.extend(nested_counts)
            return nested(log_likelihood, prior_mean, prior_cov, nested_counts, seed,
                          **kwargs)
        monkeypatch.setattr(experiments, "importance_sampler", counted)
        monkeypatch.setattr(experiments, "nested_importance_sampler", counted_nested)
        return counts

    def test_step_likelihood_truth_is_exact(self, monkeypatch):
        counts = self._sampler_counts(monkeypatch)
        cfg = ExperimentConfig(kind="bpm", seeds=(1, 2),
                               importance_samples=(500, 2000, 8000))
        rows = run_bpm_experiment(cfg)
        oracle = [r for r in rows if r.method == "oracle"]
        assert [(r.checkpoint, r.operations) for r in oracle] == [("exact", 0)] * 2
        assert sorted(counts) == [500, 500, 2000, 2000]
        assert {r.checkpoint for r in rows if r.method == "importance"} \
            == {"samples500", "samples2000"}
        # data and truth are the same for every seed, and so are the errors
        fits = [[(r.method, r.checkpoint, r.log_evidence_error, r.mean_error)
                 for r in rows if r.seed == seed and r.method in ("adf", "ep")
                 and r.checkpoint != "train_error"]
                for seed in (1, 2)]
        assert fits[0] == fits[1]

    @pytest.mark.parametrize("case", ["slack", "d4"])
    def test_sampled_truth_with_slack_or_above_three_dimensions(
            self, monkeypatch, tmp_path, case):
        counts = self._sampler_counts(monkeypatch)
        if case == "slack":
            cfg = ExperimentConfig(kind="bpm", seeds=(1,), slack=1.0,
                                   importance_samples=(500, 2000))
        else:
            path = tmp_path / "d4.csv"
            path.write_text("x1,x2,x3,x4,label\n1,0,0,0,1\n0,1,0,0,-1\n")
            cfg = ExperimentConfig(kind="bpm", seeds=(1,), dataset_path=str(path),
                                   add_bias=False, importance_samples=(500, 2000))
        rows = run_bpm_experiment(cfg)
        oracle = next(r for r in rows if r.method == "oracle")
        assert (oracle.checkpoint, oracle.operations) \
            == ("samples2000", 2000 * (5 if case == "slack" else 6))
        assert sorted(counts) == [500, 2000]

    def test_unreadable_dataset(self):
        cfg = ExperimentConfig(kind="bpm", seeds=(1,),
                               dataset_path="/nonexistent/file.csv")
        with pytest.raises(ConfigError, match="unreadable"):
            run_bpm_experiment(cfg)

    def test_builtin_dataset_shape(self):
        ds = builtin_bpm_dataset()
        assert ds.points.shape == (3, 3)  # bias column appended
        assert np.array_equal(ds.points[:, 2], np.ones(3))


class TestLoopyExperiment:
    def test_tree_rows_near_exact(self):
        cfg = ExperimentConfig(kind="loopy", seeds=(1, 2), n_vars=6,
                               ep_options=EPOptions(tolerance=1e-12,
                                                    max_sweeps=60))
        rows = run_loopy_experiment(cfg)
        ep_rows = [r for r in rows if r.method == "ep"]
        assert ep_rows
        for r in ep_rows:
            assert r.mean_error <= 1e-10
            assert r.log_evidence_error <= 1e-10

    def test_frustrated_cycle_row_reported(self):
        cfg = ExperimentConfig(kind="loopy", seeds=(1,), network="cycle3",
                               ep_options=EPOptions(tolerance=1e-8,
                                                    max_sweeps=30))
        rows = run_loopy_experiment(cfg)
        ep_rows = [r for r in rows if r.method == "ep"]
        assert ep_rows
        for r in ep_rows:
            if not r.converged:
                assert r.sweeps == 30

    def test_single_factor_network_from_document(self, tmp_path):
        doc = {"variables": [{"id": "a", "cardinality": 2}],
               "factors": [{"id": "f", "scope": ["a"], "table": [0.4, 0.6]}]}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        cfg = ExperimentConfig(kind="loopy", seeds=(1,), network=str(path),
                               ep_options=EPOptions(tolerance=1e-10,
                                                    max_sweeps=10))
        rows = run_loopy_experiment(cfg)
        for r in rows:
            assert r.mean_error <= 1e-12
            assert r.log_evidence_error <= 1e-12

    def test_network_beyond_the_enumeration_bound_writes_nan_cells(self, tmp_path):
        # 10^8 joint states: BK-ADF and EP still run, but there is no truth
        path = tmp_path / "net.json"
        path.write_text(json.dumps({
            "variables": [{"id": f"v{i}", "cardinality": 10} for i in range(8)],
            "factors": [{"id": f"f{i}", "scope": [f"v{i}"],
                         "table": [float(k + 1) for k in range(10)]}
                        for i in range(8)]}))
        rows = run_loopy_experiment(ExperimentConfig(kind="loopy", seeds=(1, 2),
                                                     network=str(path)))
        assert len(rows) == 2 * 2 * 8
        for r in rows:
            assert math.isnan(r.log_evidence_error) and math.isnan(r.mean_error)

    def test_other_enumeration_errors_propagate(self, monkeypatch):
        # only the named bound error means "too many joint states"
        from epkit import experiments

        def broken(net):
            raise ValueError("operands could not be broadcast together")
        monkeypatch.setattr(experiments, "enumerate_discrete", broken)
        with pytest.raises(ValueError, match="could not be broadcast"):
            run_loopy_experiment(ExperimentConfig(kind="loopy", seeds=(1,), n_vars=3))

    def test_network_file_is_read_once(self, tmp_path, monkeypatch):
        from epkit import experiments
        path = tmp_path / "net.json"
        path.write_text(json.dumps({
            "variables": [{"id": "a", "cardinality": 2}],
            "factors": [{"id": "f", "scope": ["a"], "table": [0.4, 0.6]}]}))
        calls = []
        monkeypatch.setattr(experiments, "load_network",
                            lambda p: calls.append(p) or load_network(p))
        run_loopy_experiment(ExperimentConfig(kind="loopy", seeds=(1, 2, 3),
                                              network=str(path)))
        assert calls == [path]


class TestSeedInvariantFits:
    """A fit that depends only on the data and options (every BPM fit, and
    loopy on a fixed network) runs once per run, at the first seed after its
    truth; a fit on per-seed data runs once per seed."""

    NAMES = ("importance_sampler", "run_adf", "run_ep", "loopy_ep", "bk_adf",
             "enumerate_discrete")

    @pytest.fixture
    def calls(self, monkeypatch):
        from epkit import experiments
        calls = []
        for name in self.NAMES:
            def counted(*args, _name=name, _fn=getattr(experiments, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(experiments, name, counted)
        return calls

    @staticmethod
    def _per_seed(rows):
        """Each seed's fit rows as CSV values, less the seed."""
        out = {}
        for r in rows:
            if r.method in ("adf", "ep"):
                out.setdefault(r.seed, []).append(r.csv_values()[2:])
        return list(out.values())

    def test_bpm_fits_once(self, calls):
        rows = run_bpm_experiment(ExperimentConfig(kind="bpm", seeds=(1, 2, 3)))
        assert calls == ["run_adf", "run_ep"]
        first, *others = self._per_seed(rows)
        assert all(o == first for o in others)

    def test_bpm_with_slack_fits_once_after_the_first_truth(self, calls):
        pytest.importorskip("scipy")
        run_bpm_experiment(ExperimentConfig(kind="bpm", seeds=(1, 2, 3), slack=1.0,
                                            importance_samples=(500, 2000)))
        assert calls == ["importance_sampler", "run_adf", "run_ep",
                         "importance_sampler", "importance_sampler"]

    def test_loopy_fixed_network_fits_once(self, calls):
        rows = run_loopy_experiment(ExperimentConfig(kind="loopy", seeds=(1, 2, 3),
                                                     network="cycle3"))
        assert calls == ["bk_adf", "loopy_ep", "enumerate_discrete"]
        first, *others = self._per_seed(rows)
        assert all(o == first for o in others)

    def test_per_seed_data_fits_every_seed(self, calls):
        run_loopy_experiment(ExperimentConfig(kind="loopy", seeds=(1, 2, 3)))
        assert calls == ["bk_adf", "loopy_ep", "enumerate_discrete"] * 3
        calls.clear()
        run_clutter_experiment(clutter_config(seeds=(1, 2, 3)))
        assert calls == ["run_adf", "run_ep"] * 3


class TestOracleBattery:
    def test_all_pass(self):
        results = oracle_check_battery(cases=40, seed=7)
        assert {r.name for r in results} == {
            "clutter-moment-match-vs-quadrature",
            "bpm-moment-match-vs-quadrature",
            "bpm-fused-visit-vs-dense",
            "quadrature-self-consistency",
            "probit-ratio-vs-naive-quotient",
            "probit-kernels-vs-scipy",
            "loopy-tree-vs-enumeration",
            "bpm-exact-step-vs-importance",
        }
        for r in results:
            assert r.passed, f"{r.name}: worst {r.worst} > tol {r.tolerance}"


class TestCli:
    def test_clutter_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = cli_main(["clutter", "--seed-range", "1..2", "--out", str(out),
                         "--tolerance", "1e-6", "--max-sweeps", "20"])
        assert code == 0
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header == ("experiment,seed,method,checkpoint,operations,"
                          "log_evidence_error,mean_error,converged,sweeps")
        assert (tmp_path / "res.csv.meta.json").exists()

    def test_config_file_with_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 6, "seeds": [1, 2, 3],
                                        "importance_samples": [500]}))
        out = tmp_path / "o.csv"
        code = cli_main(["clutter", "--config", str(cfg_path),
                         "--seed-range", "4..5", "--out", str(out)])
        assert code == 0
        seeds = {ln.split(",")[1] for ln in out.read_text().splitlines()[1:]}
        assert seeds == {"4", "5"}

    def test_seed_list_and_sequential_schedule(self, tmp_path):
        # a seed list, and --schedule sequential over a config's random one
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"ep_options": {"schedule": {"kind": "random", "seed": 3}}}))
        out, plain = tmp_path / "o.csv", tmp_path / "plain.csv"
        assert cli_main(["loopy", "--config", str(cfg_path), "--seed-range", "1,3,5",
                         "--schedule", "sequential", "--out", str(out)]) == 0
        assert cli_main(["loopy", "--seed-range", "1,3,5", "--out", str(plain)]) == 0
        assert out.read_bytes() == plain.read_bytes()
        assert {ln.split(",")[1] for ln in out.read_text().splitlines()[1:]} \
            == {"1", "3", "5"}
        config = json.loads((tmp_path / "o.csv.meta.json").read_text())["config"]
        assert config["seeds"] == [1, 3, 5]
        assert config["ep_options"]["schedule"] == {"kind": "sequential", "seed": 0}

    def test_bad_seed_range_exits_1(self, capsys):
        assert cli_main(["clutter", "--seed-range", "two..five"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_schedule_exits_1(self, capsys):
        assert cli_main(["clutter", "--schedule", "zigzag"]) == 1

    def test_bad_config_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"methods": ["vb"]}))
        assert cli_main(["clutter", "--config", str(cfg_path)]) == 1

    @pytest.mark.parametrize("kind, flags, doc", [
        ("clutter", ["--tolerance", "inf"], None),
        ("clutter", ["--tolerance", "nan"], None),
        ("clutter", ["--damping", "0"], None),
        ("clutter", ["--max-sweeps", "0"], None),
        ("clutter", ["--schedule", "random:x"], None),
        ("clutter", [], {"ep_options": {"schedule": {"kind": "zigzag"}}}),
        ("clutter", [], {"w": 2}),
        ("clutter", [], {"n": -1}),
        ("clutter", [], {"n": 2.5}),
        ("loopy", [], {"n_vars": 0}),
        ("loopy", [], {"max_cardinality": 1}),
        ("clutter", [], {"seeds": ["a"]}),
        ("clutter", [], {"seeds": [-1]}),
        ("clutter", [], {"ep_options": {"schedule": {"kind": "random", "seed": "x"}}}),
        ("clutter", [], {"ep_options": {"schedule": {"kind": "random", "seed": -2}}}),
        ("clutter", [], {"x_true": []}),
        ("clutter", [], {"x_true": ["a"]}),
        ("clutter", [], {"x_true": [1e400]}),
        ("clutter", [], {"x_true": [1e155]}),
        ("clutter", [], {"x_true": [2.0, 1e160]}),
        ("bpm", [], {"slack": math.nan}),
        ("bpm", [], {"slack": math.inf}),
        ("bpm", [], {"slack": -1}),
        ("bpm", [], {"slack": 1e-300}),
        ("bpm", [], {"slack": 1e300}),
        ("bpm", [], {"add_bias": "yes"}),
        ("clutter", [], {"ep_options": {"max_sweeps": 2.5}}),
        ("clutter", [], {"timings": True}),
        ("bpm", [], {"dataset_path": 5}),
        ("bpm", [], {"dataset_path": ["a"]}),
        ("loopy", [], {"network": 5}),
        ("clutter", [], {"w": True}),
        ("clutter", [], {"w": "0.5"}),
        ("clutter", [], {"ep_options": {"tolerance": True}}),
        ("clutter", [], {"ep_options": {"tolerance": "1e-3"}}),
        ("clutter", [], {"ep_options": {"damping": True}}),
        ("clutter", [], {"ep_options": {"damping": None}}),
    ], ids=["tolerance-inf", "tolerance-nan", "damping-0", "max-sweeps-0",
            "schedule-random-x", "schedule-zigzag", "w-2", "n-minus-1",
            "n-2.5", "n-vars-0", "max-cardinality-1", "seeds-str",
            "seeds-negative", "schedule-seed-str", "schedule-seed-negative",
            "x-true-empty", "x-true-str", "x-true-inf", "x-true-1e155",
            "x-true-norm-1e160", "slack-nan", "slack-inf", "slack-negative",
            "slack-overflows-directions", "slack-underflows-directions",
            "add-bias-str", "max-sweeps-float", "timings-key",
            "dataset-path-int", "dataset-path-list", "network-int", "w-bool",
            "w-str", "tolerance-bool", "tolerance-str", "damping-bool",
            "damping-null"])
    def test_bad_input_exits_1_with_error_line(self, tmp_path, capsys, kind,
                                               flags, doc):
        if doc is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(doc))
            flags = flags + ["--config", str(cfg_path)]
        out = tmp_path / "o.csv"
        assert cli_main([kind, *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("kind, doc, content", [
        ("bpm", {}, "x1,x2,label\n1,2,3\n"),
        ("bpm", {}, "x1,x2,y\n1,2,1\n"),
        ("bpm", {}, "x1,x2,label\nnan,2,1\n"),
        ("bpm", {}, "x1,x2,label\n1,1,1\n-1,-1,1\n1,-1,-1\n-1,1,-1\n"),
        ("bpm", {"add_bias": False}, "x1,x2,label\n0,0,1\n"),
        ("bpm", {"add_bias": False}, "x1,x2,x3,x4,label\n1,0,0,0,1\n1,0,0,0,-1\n"),
        ("bpm", {}, ""),
        ("bpm", {}, None),
        ("bpm", {}, "dir"),
        ("bpm", {"slack": 1.0, "add_bias": False}, "x1,x2,label\n1,1,1\n0,0,1\n"),
        ("loopy", {}, None),
        ("loopy", {}, "dir"),
        ("loopy", {}, "{"),
        ("loopy", {}, '{"factors": []}'),
        ("loopy", {}, '{"variables": [], "factors": '
                      '[{"id": "f", "scope": ["a"], "table": [1.0]}]}'),
    ], ids=["dataset-label-3", "dataset-header", "dataset-nan", "dataset-nonseparable",
            "dataset-zero-row", "dataset-nonseparable-d4", "dataset-empty-file",
            "dataset-missing", "dataset-dir", "dataset-zero-row-with-slack",
            "network-missing", "network-dir", "network-bad-json", "network-no-variables",
            "network-unknown-variable"])
    def test_bad_input_file_exits_1_naming_it(self, tmp_path, capsys, kind, doc,
                                              content):
        path = tmp_path / "input"
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_text(content)
        doc = dict(doc, **{"dataset_path" if kind == "bpm" else "network": str(path)})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        assert cli_main([kind, "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert not out.exists()

    def test_underflowing_truth_evidence_stays_finite(self, tmp_path):
        # with slack 1e-6 every truth draw's log likelihood lies far below
        # -745, so the linear evidence underflows to 0; the run still scores
        # every row in log domain
        path = tmp_path / "data.csv"
        path.write_text("x1,x2,label\n1,0,1\n1,0,-1\n0,1,1\n0,1,-1\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"slack": 1e-6, "add_bias": False,
                                        "dataset_path": str(path)}))
        out = tmp_path / "o.csv"
        assert cli_main(["bpm", "--config", str(cfg_path), "--seed-range", "1..2",
                         "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert {r["method"] for r in rows} == {"oracle", "adf", "ep", "importance"}
        assert all(math.isfinite(float(r[c])) for r in rows
                   for c in ("log_evidence_error", "mean_error")
                   if r["checkpoint"] != "train_error" or c == "mean_error")

    @pytest.mark.parametrize("out", ["missing/o.csv", "."])
    def test_unwritable_out_exits_1_before_running(self, tmp_path, capsys,
                                                   monkeypatch, out):
        from epkit import cli
        monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("ran"))
        assert cli_main(["loopy", "--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_timings_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["clutter", "--timings"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [["--cases", "0"], ["--cases", "-3"],
                                       ["--seed", "-1"]])
    def test_oracle_check_refuses_vacuous_runs(self, capsys, flags):
        assert cli_main(["oracle-check", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "PASS" not in captured.out

    def test_oracle_check_exit_zero(self, capsys):
        assert cli_main(["oracle-check", "--cases", "8"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_oracle_check_failure_exits_2(self, capsys, monkeypatch):
        from epkit import cli
        from epkit.experiments import BatteryResult
        monkeypatch.setattr(
            cli, "oracle_check_battery",
            lambda cases, seed: [BatteryResult("rigged", 1.0, 1e-8)])
        assert cli_main(["oracle-check"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_loopy_subcommand(self, tmp_path):
        out = tmp_path / "loopy.csv"
        code = cli_main(["loopy", "--seed-range", "1..1", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) > 1

    def test_bpm_subcommand(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"importance_samples": [2000, 20000]}))
        out = tmp_path / "bpm.csv"
        code = cli_main(["bpm", "--config", str(cfg_path),
                         "--seed-range", "1..1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        methods = {ln.split(",")[2] for ln in lines[1:]}
        assert {"adf", "ep", "importance", "oracle"} <= methods

    def test_thin_cone_importance_rows_need_no_traceback(self, tmp_path, capsys):
        # a zero-slack d = 4 set separable only through a thin cone: an
        # importance count whose prefix has no draw of nonzero likelihood
        # gets a row of infinite errors and the other counts keep their
        # estimates, while a seed whose truth draw has no such draw (seed 2)
        # still exits 1 with an error line
        path = tmp_path / "thin.csv"
        path.write_text("x1,x2,x3,x4,label\n1,0,0,0,1\n0,1,0,0,1\n0,0,1,0,1\n"
                        "0,0,0,1,1\n1,-8,-8,-8,1\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset_path": str(path), "add_bias": False}))
        out = tmp_path / "o.csv"
        argv = ["bpm", "--config", str(cfg_path), "--out", str(out), "--seed-range"]
        assert cli_main(argv + ["1..3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and "seed 2" in err
        assert not out.exists()
        assert cli_main(argv + ["1..1"]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        errors = {r[3]: (float(r[5]), float(r[6])) for r in rows if r[2] == "importance"}
        assert errors["samples1000"] == (math.inf, math.inf)
        assert all(math.isfinite(e) for e in errors["samples10000"])

    # Importing any part of scipy, or numpy.polynomial (the quadrature
    # oracles' Gauss-Legendre rule), costs start-up time and memory that
    # every CLI run and benchmark pass would pay; only slack > 0 likelihoods
    # and oracle-check need them.
    _DEFERRED_MODULES = ("sorted(m for m in sys.modules "
                      "if m.startswith(('scipy', 'numpy.polynomial')))")

    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, epkit; print({self._DEFERRED_MODULES})"],
            capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_default_runs_load_no_scipy(self, tmp_path):
        script = (
            "import sys\n"
            "from epkit.cli import main\n"
            "for kind in ('clutter', 'bpm', 'loopy'):\n"
            "    out = sys.argv[1] + '/' + kind + '.csv'\n"
            "    assert main([kind, '--seed-range', '1..2', '--out', out]) == 0\n"
            f"print({self._DEFERRED_MODULES})\n")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "[]"
        assert sorted(p.name for p in tmp_path.glob("*.csv")) \
            == ["bpm.csv", "clutter.csv", "loopy.csv"]

    def test_contradictory_network_names_it_and_the_factor(self, tmp_path, capsys):
        # two unary observations of one variable that contradict each other
        path = tmp_path / "net.json"
        path.write_text(json.dumps({
            "variables": [{"id": "a", "cardinality": 2}],
            "factors": [{"id": "obs1", "scope": ["a"], "table": [1, 0]},
                        {"id": "obs2", "scope": ["a"], "table": [0, 1]}]}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"network": str(path)}))
        out = tmp_path / "o.csv"
        assert cli_main(["loopy", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: bad network {path}: contradictory evidence at factor 'obs2'\n"
        assert not out.exists()

    def test_scipy_paths_without_scipy_exit_1(self, tmp_path):
        # oracle-check and slack > 0 need scipy; without it each run stops
        # with one error line before any seed, and writes no CSV
        (tmp_path / "cfg.json").write_text(json.dumps({"slack": 1.0}))
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from epkit.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
        for argv in (["oracle-check"],
                     ["bpm", "--config", str(tmp_path / "cfg.json"),
                      "--out", str(tmp_path / "o.csv")]):
            proc = subprocess.run([sys.executable, "-c", script, *argv],
                                  capture_output=True, text=True)
            assert proc.returncode == 1
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ") \
                and "scipy" in lines[0], proc.stderr
            assert "PASS" not in proc.stdout
        assert not list(tmp_path.glob("o.csv*"))

    def test_console_entry_point(self, tmp_path):
        # the installed script must behave like the module entry point
        proc = subprocess.run(
            [sys.executable, "-m", "epkit.cli", "oracle-check", "--cases", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout


@st.composite
def _cli_runs(draw):
    """(kind, config document, input files) for one CLI run of any
    experiment: tiny clutter sets up to overflow-sized x_true, BPM sets with
    zero rows and extreme slacks, and binary networks with zero entries."""
    kind = draw(st.sampled_from(["clutter", "bpm", "loopy"]))
    doc = {"seeds": [draw(st.integers(0, 100))], "importance_samples": [10, 100],
           "ep_options": {"damping": draw(st.sampled_from([1.0, 0.5])),
                          "max_sweeps": draw(st.integers(1, 5))}}
    files = {}
    if kind == "clutter":
        d = draw(st.integers(1, 2))
        doc.update(x_true=draw(st.lists(st.floats(-1e160, 1e160), min_size=d, max_size=d)),
                   n=draw(st.integers(0, 6)), w=draw(st.floats(0.0, 1.0)))
    elif kind == "bpm":
        k = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                             min_size=1, max_size=4))
        lines = [",".join([f"x{j}" for j in range(k)] + ["label"])]
        lines += [",".join(map(str, r + [draw(st.sampled_from([-1, 1]))])) for r in rows]
        files["data.csv"] = "\n".join(lines) + "\n"
        doc.update(dataset_path="data.csv", add_bias=False,
                   slack=draw(st.sampled_from([0.0, 1e-300, 1e-3, 1.0, 1e300])))
    else:
        n = draw(st.integers(1, 3))
        scopes = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                        unique=True), min_size=1, max_size=4))
        factors = [{"id": f"f{j}", "scope": [f"v{i}" for i in scope],
                    "table": draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]),
                                           min_size=2 ** len(scope),
                                           max_size=2 ** len(scope)))}
                   for j, scope in enumerate(scopes)]
        files["net.json"] = json.dumps({
            "variables": [{"id": f"v{i}", "cardinality": 2} for i in range(n)],
            "factors": factors})
        doc["network"] = "net.json"
    return kind, doc, files


class TestCliContract:
    # Any config either runs (exit 0, a CSV whose EP rows stop within
    # max_sweeps and whose ADF and EP error cells are numbers) or is refused
    # with one `error:` line and no CSV; nothing raises, and a RuntimeWarning,
    # which would print to stderr too, counts as a failure.
    @settings(max_examples=300, deadline=None)
    @given(_cli_runs())
    def test_exits_0_with_valid_csv_or_1_with_one_error_line(self, run):
        kind, doc, files = run
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for name, text in files.items():
                (Path(tmp) / name).write_text(text)
            for key in ("dataset_path", "network"):
                if key in doc:
                    doc[key] = str(Path(tmp) / doc[key])
            cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "o.csv"
            cfg.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([kind, "--config", str(cfg), "--out", str(out)])
            if code == 1:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), lines
                assert not out.exists()
                return
            assert code == 0
            rows = list(csv.DictReader(out.read_text().splitlines()))
            max_sweeps = doc["ep_options"]["max_sweeps"]
            for r in rows:
                if r["method"] == "ep":
                    assert 1 <= int(r["sweeps"]) <= max_sweeps, r
                if r["method"] in ("adf", "ep"):
                    float(r["log_evidence_error"]), float(r["mean_error"])

    @pytest.mark.parametrize("kind, flags, doc, value", [
        ("clutter", ["--seed-range", "1,1"], None, "seeds must not repeat a value, got 1"),
        ("bpm", [], {"importance_samples": [1000, 1000]},
         "importance_samples must not repeat a value, got 1000"),
        ("clutter", ["--seed-range", "3,4,3"], {"importance_samples": [10, 100]},
         "seeds must not repeat a value, got 3"),
    ], ids=["seed-range-1-1", "importance-samples-1000-1000", "seed-list-3-4-3"])
    def test_repeated_seed_or_count_refused_naming_it(self, tmp_path, capsys, kind,
                                                      flags, doc, value):
        # a repeat would write every row of that seed or count twice, under
        # the same keys
        if doc is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            flags = flags + ["--config", str(cfg)]
        out = tmp_path / "o.csv"
        assert cli_main([kind, *flags, "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and value in lines[0]
        assert not out.exists()
