import csv
import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from uavris import experiments
from uavris.agent import DdpgHyperparams
from uavris.cli import main
from uavris.env import Objective
from uavris.experiments import (
    ExperimentSpec,
    SpecError,
    emit_plot_script,
    load_spec,
    run_algorithm,
    run_fairness,
    run_onebit_table,
    run_pmax_sweep,
    save_spec,
)
from uavris.metrics import dbm_to_watts


def tiny_spec(**overrides):
    base = dict(
        iterations=30,
        seeds=(0,),
        rolling_window=10,
        ddpg=DdpgHyperparams(hidden_dims=(16, 16), batch_size=8, warmup_steps=4),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestSpecValidation:
    def test_defaults_valid(self):
        spec = ExperimentSpec()
        assert spec.experiment == "pmax_sweep"
        assert spec.algorithms == ("IC", "ORESOU", "JOINT_DRL", "RANDOM")

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            ({"experiment": "nope"}, "experiment"),
            ({"objective": "maximize"}, "objective"),
            ({"algorithms": ("IC", "GREEDY")}, "algorithms"),
            ({"algorithms": ()}, "algorithms"),
            ({"seeds": ()}, "seeds"),
            ({"p_max_grid_dbm": (70.0,)}, "p_max_grid_dbm"),
            ({"iterations": 0}, "iterations"),
            ({"rolling_window": 0}, "rolling_window"),
        ],
    )
    def test_invalid_specs_name_field(self, kwargs, fragment):
        with pytest.raises(SpecError) as exc:
            ExperimentSpec(**kwargs)
        assert fragment in str(exc.value)


class TestLoadSaveSpec:
    def test_load_minimal(self, tmp_path):
        p = tmp_path / "spec.yaml"
        p.write_text("experiment: fairness\nseeds: [3, 4]\n")
        spec = load_spec(p)
        assert spec.experiment == "fairness"
        assert spec.seeds == (3, 4)

    def test_scenario_db_aliases(self, tmp_path):
        p = tmp_path / "spec.yaml"
        p.write_text(
            "scenario:\n  noise_power_dbm: -90\n  rician_bs_ris_db: 20\n"
        )
        spec = load_spec(p)
        assert spec.scenario.noise_power == pytest.approx(1e-12)
        assert spec.scenario.rician_bs_ris == pytest.approx(100.0)

    @pytest.mark.parametrize("alias_first", [True, False])
    @pytest.mark.parametrize(
        "alias,field",
        [
            ("noise_power_dbm: -90", "noise_power: 1.0e-13"),
            ("rician_bs_ris_db: 20", "rician_bs_ris: 10.0"),
            ("rician_ris_uav_db: 20", "rician_ris_uav: 10.0"),
        ],
    )
    def test_scenario_alias_and_field_both_given(self, tmp_path, alias, field, alias_first):
        # neither key may silently win over the other, in either order
        lines = [alias, field] if alias_first else [field, alias]
        p = tmp_path / "spec.yaml"
        p.write_text("scenario:\n" + "".join(f"  {line}\n" for line in lines))
        with pytest.raises(SpecError) as exc:
            load_spec(p)
        for line in lines:
            assert f"scenario.{line.split(':')[0]}" in str(exc.value)

    @pytest.mark.parametrize("line", ["p_max: 10.0", "p_max_dbm: 40"])
    def test_scenario_p_max_rejected(self, tmp_path, line):
        # every cell sets the power from the grid or the command line
        p = tmp_path / "spec.yaml"
        p.write_text(f"scenario:\n  {line}\n")
        with pytest.raises(SpecError, match=f"^scenario.{line.split(':')[0]}: ") as exc:
            load_spec(p)
        assert "p_max_grid_dbm" in str(exc.value)
        assert "--p-max-dbm" in str(exc.value)

    @pytest.mark.parametrize("value", ["5", "[]", '"x"'])
    def test_scenario_not_a_mapping_is_spec_error(self, tmp_path, value):
        p = tmp_path / "spec.yaml"
        p.write_text(f"scenario: {value}\n")
        with pytest.raises(SpecError, match="^scenario: "):
            load_spec(p)

    def test_null_sections_mean_defaults(self, tmp_path):
        p = tmp_path / "spec.yaml"
        p.write_text("scenario:\nddpg: null\n")
        assert load_spec(p) == ExperimentSpec()

    def test_ddpg_overrides(self, tmp_path):
        p = tmp_path / "spec.yaml"
        p.write_text("ddpg:\n  hidden_dims: [32, 32]\n  batch_size: 16\n")
        spec = load_spec(p)
        assert spec.ddpg.hidden_dims == (32, 32)
        assert spec.ddpg.batch_size == 16

    @pytest.mark.parametrize(
        "line",
        [
            "batch_size: 0",
            "hidden_dims: [32, 0]",
            "actor_lr: -1",
            "noise_decay: 1.5",
            "warmup_steps: -3",
            "buffer_capacity: 0",
        ],
    )
    def test_invalid_ddpg_value_is_spec_error(self, tmp_path, line):
        p = tmp_path / "spec.yaml"
        p.write_text(f"ddpg:\n  {line}\n")
        field = line.split(":")[0]
        with pytest.raises(SpecError, match=f"^ddpg: {field} "):
            load_spec(p)

    def test_batch_larger_than_buffer_is_spec_error(self, tmp_path):
        # a ring smaller than one batch never fills a batch: no update ever runs
        p = tmp_path / "spec.yaml"
        p.write_text("ddpg:\n  batch_size: 32\n  buffer_capacity: 16\n")
        with pytest.raises(SpecError) as exc:
            load_spec(p)
        assert "ddpg.batch_size" in str(exc.value)
        assert "ddpg.buffer_capacity" in str(exc.value)
        p.write_text("ddpg:\n  batch_size: 32\n  buffer_capacity: 32\n")
        assert load_spec(p).ddpg.buffer_capacity == 32

    @pytest.mark.parametrize("value", ["5", "[]"])
    def test_ddpg_not_a_mapping_is_spec_error(self, tmp_path, value):
        p = tmp_path / "spec.yaml"
        p.write_text(f"ddpg: {value}\n")
        with pytest.raises(SpecError, match="^ddpg: "):
            load_spec(p)

    def test_unknown_top_level_field(self, tmp_path):
        p = tmp_path / "spec.yaml"
        p.write_text("experimnt: fairness\n")
        with pytest.raises(SpecError) as exc:
            load_spec(p)
        assert "experimnt" in str(exc.value)

    def test_unknown_scenario_field(self, tmp_path):
        p = tmp_path / "spec.yaml"
        p.write_text("scenario:\n  n_antennas: 8\n")
        with pytest.raises(SpecError) as exc:
            load_spec(p)
        assert "n_antennas" in str(exc.value)

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "spec.yaml"
        p.write_text("experiment: fairness\nseeds: [1, 2\n")
        with pytest.raises(SpecError) as exc:
            load_spec(p)
        assert "line" in str(exc.value)

    def test_round_trip(self, tmp_path):
        spec = tiny_spec(experiment="onebit_table", one_bit=True)
        out = tmp_path / "round.yaml"
        save_spec(spec, out)
        assert load_spec(out) == spec
        assert "p_max" not in yaml.safe_load(out.read_text())["scenario"]


class TestSpecValueTypes:
    # each value of the wrong type is named in a SpecError, never a traceback
    @pytest.mark.parametrize(
        "text,field",
        [
            ("seeds: 3", "seeds"),
            ("p_max_grid_dbm: 45", "p_max_grid_dbm"),
            ("iterations: '10'", "iterations"),
            ("scenario: {noise_power_dbm: x}", "scenario.noise_power_dbm"),
            ('one_bit: "no"', "one_bit"),
            ("one_bit: 1", "one_bit"),
            ("iterations: 10.5", "iterations"),
            ("iterations: true", "iterations"),
            ("output_dir: 5", "output_dir"),
            ("scenario: {n_bs_antennas: 4.0}", "scenario.n_bs_antennas"),
            ("scenario: {pathloss_enabled: 'no'}", "scenario.pathloss_enabled"),
            ("scenario: {bs_position: [0, 0]}", "scenario.bs_position"),
            ("scenario: {element_spacing_x: wide}", "scenario.element_spacing_x"),
            ("seeds: [a]", "seeds"),
            ("ddpg: {hidden_dims: [16.0, 16.0]}", "ddpg.hidden_dims"),
        ],
    )
    def test_wrong_type_is_spec_error(self, tmp_path, text, field):
        p = tmp_path / "spec.yaml"
        p.write_text(text + "\n")
        with pytest.raises(SpecError, match=f"^{field}: "):
            load_spec(p)
        result = CliRunner().invoke(main, ["validate-config", "--config", str(p)])
        assert result.exit_code == 1
        assert f"spec error: {field}: " in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    def test_every_config_loads_and_round_trips(self, tmp_path):
        paths = sorted((Path(__file__).parents[1] / "configs").glob("*.yaml"))
        assert paths
        for path in paths:
            spec = load_spec(path)
            save_spec(spec, tmp_path / path.name)
            assert load_spec(tmp_path / path.name) == spec


class TestRunAlgorithm:
    def test_random_dispatch(self):
        spec = tiny_spec()
        trace = run_algorithm("RANDOM", spec.scenario, 20, seed=0)
        assert trace.algorithm == "RANDOM"
        assert trace.n_steps == 20

    def test_training_dispatch(self):
        spec = tiny_spec()
        trace = run_algorithm(
            "IC", spec.scenario, 20, seed=0, hyper=spec.ddpg
        )
        assert trace.algorithm == "IC"
        assert trace.n_steps == 20


class TestStudies:
    def test_fairness_csv(self, tmp_path):
        spec = tiny_spec(experiment="fairness", output_dir=str(tmp_path))
        out = run_fairness(spec, p_max_dbm=35.0)
        rows = read_csv(out)
        # both objectives, one seed, 30 steps each
        assert len(rows) == 2 * 30
        assert {r["objective"] for r in rows} == {"max_min_sinr", "max_sum_rate"}
        assert "rolling_sinr_uav1_db" in rows[0]
        assert rows[0]["p_max_dbm"] == "35"

    def test_fairness_wrong_experiment(self):
        with pytest.raises(SpecError):
            run_fairness(tiny_spec(experiment="pmax_sweep"))

    def test_pmax_sweep_csv(self, tmp_path):
        spec = tiny_spec(
            output_dir=str(tmp_path),
            algorithms=("IC", "RANDOM"),
            p_max_grid_dbm=(30.0, 45.0),
            seeds=(0, 1),
        )
        out = run_pmax_sweep(spec)
        rows = read_csv(out)
        # 2 algs x 2 powers x (2 seeds + mean)
        assert len(rows) == 2 * 2 * 3
        means = [r for r in rows if r["seed"] == "mean"]
        assert len(means) == 4
        for m in means:
            cell = [
                float(r["best_min_sinr_db"])
                for r in rows
                if r["seed"] != "mean"
                and r["algorithm"] == m["algorithm"]
                and r["p_max_dbm"] == m["p_max_dbm"]
            ]
            assert float(m["best_min_sinr_db"]) == pytest.approx(np.mean(cell), abs=1e-4)

    def test_pmax_sweep_deterministic(self, tmp_path):
        spec = tiny_spec(
            output_dir=str(tmp_path / "a"), algorithms=("RANDOM",), p_max_grid_dbm=(45.0,)
        )
        first = run_pmax_sweep(spec).read_text()
        spec2 = tiny_spec(
            output_dir=str(tmp_path / "b"), algorithms=("RANDOM",), p_max_grid_dbm=(45.0,)
        )
        assert run_pmax_sweep(spec2).read_text() == first

    def test_onebit_table_csv(self, tmp_path):
        spec = tiny_spec(
            experiment="onebit_table", output_dir=str(tmp_path), algorithms=("RANDOM",)
        )
        out = run_onebit_table(spec, p_max_dbm=45.0)
        rows = read_csv(out)
        # 1 alg x (1 seed + mean) x 3 modes
        assert len(rows) == 6
        modes = {r["mode"] for r in rows}
        assert modes == {"continuous", "one_bit", "difference"}
        mean = {r["mode"]: float(r["min_sinr_db"]) for r in rows if r["seed"] == "mean"}
        assert mean["difference"] == pytest.approx(
            mean["continuous"] - mean["one_bit"], abs=1e-4
        )


def _reference_fairness(spec, p_max_dbm=35.0):
    """run_fairness as the hand-written loop nest the cell runner replaced."""
    config = spec.scenario.with_p_max(dbm_to_watts(p_max_dbm))
    rows = []
    for objective in (Objective.MAX_SUM_RATE, Objective.MAX_MIN_SINR):
        for seed in spec.seeds:
            trace = experiments.run_algorithm(
                "JOINT_DRL", config, spec.iterations, seed,
                objective=objective.value, one_bit=spec.one_bit, hyper=spec.ddpg,
            )
            rows.extend(experiments._trace_rows(trace, p_max_dbm, spec.rolling_window))
    return experiments._write_csv(spec, experiments._per_step_header(spec.scenario.n_uav), rows)


def _reference_pmax_sweep(spec):
    rows = []
    for algorithm in spec.algorithms:
        for p_dbm in spec.p_max_grid_dbm:
            config = spec.scenario.with_p_max(dbm_to_watts(p_dbm))
            cell = []
            for seed in spec.seeds:
                trace = experiments.run_algorithm(
                    algorithm, config, spec.iterations, seed,
                    objective=spec.objective, one_bit=spec.one_bit, hyper=spec.ddpg,
                )
                cell.append(trace.final_best_min_sinr_db)
                rows.append([algorithm, p_dbm, seed, trace.final_best_min_sinr_db])
            rows.append([algorithm, p_dbm, "mean", float(np.mean(cell))])
    header = ["algorithm", "p_max_dbm", "seed", "best_min_sinr_db"]
    return experiments._write_csv(spec, header, rows)


def _reference_onebit_table(spec, p_max_dbm=45.0):
    config = spec.scenario.with_p_max(dbm_to_watts(p_max_dbm))
    rows = []
    for algorithm in spec.algorithms:
        by_mode = {}
        for one_bit in (False, True):
            vals = []
            for seed in spec.seeds:
                trace = experiments.run_algorithm(
                    algorithm, config, spec.iterations, seed,
                    objective=spec.objective, one_bit=one_bit, hyper=spec.ddpg,
                )
                vals.append(trace.final_best_min_sinr_db)
            by_mode[one_bit] = vals
        for i, seed in enumerate(spec.seeds):
            c, o = by_mode[False][i], by_mode[True][i]
            rows.append([algorithm, seed, p_max_dbm, "continuous", c])
            rows.append([algorithm, seed, p_max_dbm, "one_bit", o])
            rows.append([algorithm, seed, p_max_dbm, "difference", c - o])
        c_mean, o_mean = float(np.mean(by_mode[False])), float(np.mean(by_mode[True]))
        rows.append([algorithm, "mean", p_max_dbm, "continuous", c_mean])
        rows.append([algorithm, "mean", p_max_dbm, "one_bit", o_mean])
        rows.append([algorithm, "mean", p_max_dbm, "difference", c_mean - o_mean])
    header = ["algorithm", "seed", "p_max_dbm", "mode", "min_sinr_db"]
    return experiments._write_csv(spec, header, rows)


class TestStudiesMatchLoopNests:
    """Each study runs the same cells, in the same order, and writes the
    same bytes as its hand-written loop nest."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = experiments.run_algorithm

        def recording(algorithm, config, iterations, seed, **kwargs):
            calls.append((algorithm, config, iterations, seed, kwargs))
            return original(algorithm, config, iterations, seed, **kwargs)

        monkeypatch.setattr(experiments, "run_algorithm", recording)
        return calls

    @pytest.mark.parametrize(
        "experiment,study,reference",
        [
            ("fairness", run_fairness, _reference_fairness),
            ("pmax_sweep", run_pmax_sweep, _reference_pmax_sweep),
            ("onebit_table", run_onebit_table, _reference_onebit_table),
        ],
    )
    def test_same_calls_and_bytes(self, tmp_path, calls, experiment, study, reference):
        spec = tiny_spec(
            experiment=experiment,
            iterations=25,
            seeds=(0, 1),
            p_max_grid_dbm=(20.0, 45.0),
            output_dir=str(tmp_path / "study"),
        )
        got = study(spec).read_bytes()
        study_calls = list(calls)
        calls.clear()
        ref_spec = dataclasses.replace(spec, output_dir=str(tmp_path / "reference"))
        assert reference(ref_spec).read_bytes() == got
        assert study_calls == calls
        assert len(calls) == {"fairness": 4, "pmax_sweep": 16, "onebit_table": 16}[experiment]


class TestEmitPlotScript:
    @pytest.fixture
    def sweep_csv(self, tmp_path):
        spec = tiny_spec(
            output_dir=str(tmp_path), algorithms=("RANDOM",), p_max_grid_dbm=(45.0,)
        )
        return run_pmax_sweep(spec)

    def test_script_written_and_runs(self, sweep_csv):
        script = emit_plot_script(sweep_csv)
        assert script.name == "pmax_sweep.plot.py"
        # the script plots with matplotlib, the optional `dev` extra
        pytest.importorskip("matplotlib")
        proc = subprocess.run(
            [sys.executable, script.name],
            cwd=script.parent,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (script.parent / "pmax_sweep.png").exists()

    def test_fairness_kind(self, tmp_path):
        spec = tiny_spec(experiment="fairness", output_dir=str(tmp_path), iterations=10)
        out = run_fairness(spec)
        script = emit_plot_script(out)
        assert "SINR-vs-step" in script.read_text()

    def test_onebit_kind(self, tmp_path):
        spec = tiny_spec(
            experiment="onebit_table",
            output_dir=str(tmp_path),
            algorithms=("RANDOM",),
            iterations=10,
        )
        script = emit_plot_script(run_onebit_table(spec))
        assert "one-bit comparison" in script.read_text()

    def test_unknown_columns_rejected(self, tmp_path):
        p = tmp_path / "odd.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            emit_plot_script(p)
