"""Smoke tests: every experiment driver runs end-to-end at reduced size.

The benchmark suite runs the full-scale versions with shape assertions;
these tests guarantee ``pytest tests/`` alone exercises each driver's
code path (with the smallest/fastest parameters each accepts).
"""

import pytest

from repro.config import RunConfig

SMALL = ("products",)
QUICK = RunConfig(batch_size=128, num_gpus=2)


class TestEvaluationDrivers:
    def test_fig01(self):
        from repro.experiments import fig01_breakdown

        result = fig01_breakdown.run(datasets=SMALL,
                                     frameworks=("dgl",), config=QUICK)
        assert len(result.rows) == 1

    def test_fig03(self):
        from repro.experiments import fig03_stepwise

        result = fig03_stepwise.run(models=("gcn",), config=QUICK)
        assert len(result.rows) == 4

    def test_tab01(self):
        from repro.experiments import tab01_left_memory

        result = tab01_left_memory.run(datasets=SMALL)
        assert result.rows[0][0] == "PR"

    def test_tab02(self):
        from repro.experiments import tab02_cache_hits

        result = tab02_cache_hits.run(datasets=SMALL, config=QUICK,
                                      max_edges=2000)
        assert 0.0 <= result.rows[0][1] <= 1.0

    def test_tab04(self):
        from repro.experiments import tab04_match_degree

        result = tab04_match_degree.run(datasets=SMALL, config=QUICK,
                                        num_batches=4)
        assert 0.0 < result.rows[0][1] <= 1.0

    def test_fig09(self):
        from repro.experiments import fig09_overall

        result = fig09_overall.run(
            datasets=SMALL, models=("gcn",),
            frameworks=("dgl", "fastgl"), include_pyg=False, config=QUICK,
        )
        assert result.rows[0][-1] > 0  # speedup column

    def test_fig10_sweep(self):
        from repro.experiments import fig10_memory_io

        result = fig10_memory_io.run_sweep(ratios=(0.0, 1.0), config=QUICK)
        assert len(result.rows) == 2

    def test_fig10_reorder(self):
        from repro.experiments import fig10_memory_io

        result = fig10_memory_io.run_reorder(
            datasets=SMALL, config=RunConfig(batch_size=128, num_gpus=1)
        )
        assert result.rows[0][2] <= result.rows[0][1]

    def test_tab07(self):
        from repro.experiments import tab07_random_walk

        result = tab07_random_walk.run(
            datasets=SMALL,
            config=RunConfig(batch_size=128, num_gpus=1, fanouts=(5,)),
            num_walks=4,
        )
        assert result.rows[0][1] > 0

    def test_fig11(self):
        from repro.experiments import fig11_compute

        result = fig11_compute.run(datasets=SMALL,
                                   frameworks=("dgl", "gnnadvisor",
                                               "fastgl"),
                                   config=QUICK)
        assert len(result.rows) == 1

    def test_fig12(self):
        from repro.experiments import fig12_roofline

        result = fig12_roofline.run(config=QUICK)
        assert {row[0] for row in result.rows} == {
            "dgl", "gnnadvisor", "fastgl"
        }

    def test_fig13(self):
        from repro.experiments import fig13_sample_time

        result = fig13_sample_time.run(datasets=SMALL,
                                       frameworks=("pyg", "dgl", "gnnlab",
                                                   "fastgl"),
                                       config=QUICK)
        assert result.rows[0][5] > 1  # x_pyg

    def test_tab08(self):
        from repro.experiments import tab08_idmap

        result = tab08_idmap.run(datasets=SMALL,
                                 config=RunConfig(batch_size=128,
                                                  num_gpus=1))
        assert result.rows[0][3] > 1.0

    def test_fig15(self):
        from repro.experiments import fig15_ablation

        result = fig15_ablation.run(datasets=SMALL, config=QUICK)
        assert result.rows[-1][1] > result.rows[0][1]

    def test_tab09(self):
        from repro.experiments import tab09_memory

        result = tab09_memory.run(datasets=SMALL,
                                  config=RunConfig(batch_size=128,
                                                   num_gpus=1))
        assert result.rows[0][1] > 0


class TestExtensionDrivers:
    def test_grace_hopper(self):
        from repro.experiments import ext_future

        result = ext_future.run_grace_hopper("products", config=QUICK)
        assert len(result.rows) == 4

    def test_multimachine(self):
        from repro.experiments import ext_future

        result = ext_future.run_multimachine("products", machines=(1, 2),
                                             config=QUICK)
        assert result.rows[0][3] > 1.0

    def test_sampler_generality(self):
        from repro.experiments import ext_future

        result = ext_future.run_sampler_generality(
            "products", config=RunConfig(batch_size=64, num_gpus=1)
        )
        assert len(result.rows) == 3


class TestCli:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out and "tab08" in out

    def test_unknown_experiment_rejected(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_jobs_on_one_unsharded_experiment_rejected(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["ext_fleet_routing", "--jobs", "4"])
        err = capsys.readouterr().err
        assert "--jobs" in err
        assert "'ext_serve', 'ext_serve_window'" in err

    def test_run_one_writes_output(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["tab03", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "tab03.txt").exists()
        assert "RTX 3090" in capsys.readouterr().out
