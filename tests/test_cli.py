import csv

import pytest
from click.testing import CliRunner

from uavris.cli import main


@pytest.fixture
def runner():
    return CliRunner()


SMALL_OPTS = ["--iterations", "20", "--seed", "0"]
SMALL_SPEC = """\
iterations: 20
seeds: [0]
rolling_window: 10
algorithms: [RANDOM]
ddpg:
  hidden_dims: [16, 16]
  batch_size: 8
  warmup_steps: 4
"""


def write_spec(tmp_path, text=SMALL_SPEC, name="spec.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestHelp:
    def test_group_help(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for cmd in ("fairness", "pmax-sweep", "onebit-table", "validate-config"):
            assert cmd in result.output

    def test_command_help(self, runner):
        result = runner.invoke(main, ["pmax-sweep", "--help"])
        assert result.exit_code == 0
        assert "--config" in result.output


class TestPmaxSweep:
    def test_runs_and_writes(self, runner, tmp_path):
        cfg = write_spec(tmp_path, SMALL_SPEC + "p_max_grid_dbm: [45]\n")
        out = tmp_path / "results"
        result = runner.invoke(
            main, ["pmax-sweep", "--config", cfg, "--out", str(out)] + SMALL_OPTS
        )
        assert result.exit_code == 0, result.output
        assert (out / "pmax_sweep.csv").exists()
        assert (out / "pmax_sweep.plot.py").exists()
        with open(out / "pmax_sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["algorithm"] for r in rows} == {"RANDOM"}


class TestOnebitTable:
    def test_runs(self, runner, tmp_path):
        cfg = write_spec(tmp_path)
        out = tmp_path / "results"
        result = runner.invoke(
            main, ["onebit-table", "--config", cfg, "--out", str(out)] + SMALL_OPTS
        )
        assert result.exit_code == 0, result.output
        assert (out / "onebit_table.csv").exists()

    def test_one_bit_flag_is_usage_error(self, runner, tmp_path):
        # the table runs both phase modes, so the flag would be ignored
        cfg = write_spec(tmp_path)
        result = runner.invoke(main, ["onebit-table", "--config", cfg, "--one-bit"] + SMALL_OPTS)
        assert result.exit_code == 2
        assert "--one-bit" in result.output


class TestFairness:
    def test_runs(self, runner, tmp_path):
        cfg = write_spec(tmp_path)
        out = tmp_path / "results"
        result = runner.invoke(
            main,
            ["fairness", "--config", cfg, "--out", str(out), "--p-max-dbm", "35"]
            + SMALL_OPTS,
        )
        assert result.exit_code == 0, result.output
        assert (out / "fairness.csv").exists()


@pytest.mark.parametrize("command", ["fairness", "onebit-table"])
@pytest.mark.parametrize("p_max_dbm", ["200", "-300", "nan"])
def test_p_max_dbm_out_of_range(runner, tmp_path, command, p_max_dbm):
    # the same [0, 60] dBm bound as every p_max_grid_dbm entry, checked
    # before any cell runs, so nothing is written
    out = tmp_path / "results"
    result = runner.invoke(
        main,
        [command, "--config", write_spec(tmp_path), "--out", str(out), f"--p-max-dbm={p_max_dbm}"]
        + SMALL_OPTS,
    )
    assert result.exit_code == 1
    assert "spec error: p_max_dbm: " in result.output
    assert not out.exists()


class TestValidateConfig:
    def test_valid(self, runner, tmp_path):
        cfg = write_spec(tmp_path)
        result = runner.invoke(main, ["validate-config", "--config", cfg])
        assert result.exit_code == 0
        assert "valid" in result.output

    def test_invalid_field_nonzero_exit(self, runner, tmp_path):
        cfg = write_spec(tmp_path, "bogus_field: 1\n")
        result = runner.invoke(main, ["validate-config", "--config", cfg])
        assert result.exit_code != 0
        assert "bogus_field" in result.output

    @pytest.mark.parametrize("value", ["5", "[]", '"x"'])
    def test_scenario_not_a_mapping(self, runner, tmp_path, value):
        cfg = write_spec(tmp_path, f"scenario: {value}\n")
        result = runner.invoke(main, ["validate-config", "--config", cfg])
        assert result.exit_code == 1
        assert "spec error: scenario: " in result.output
        assert isinstance(result.exception, SystemExit)

    def test_parse_error_nonzero_exit(self, runner, tmp_path):
        cfg = write_spec(tmp_path, "seeds: [1, 2\n")
        result = runner.invoke(main, ["validate-config", "--config", cfg])
        assert result.exit_code != 0

    def test_normalized_round_trip(self, runner, tmp_path):
        cfg = write_spec(tmp_path)
        norm = tmp_path / "norm.yaml"
        result = runner.invoke(
            main, ["validate-config", "--config", cfg, "--normalized", str(norm)]
        )
        assert result.exit_code == 0
        assert norm.exists()
        second = runner.invoke(main, ["validate-config", "--config", str(norm)])
        assert second.exit_code == 0

    def test_missing_file(self, runner, tmp_path):
        result = runner.invoke(
            main, ["validate-config", "--config", str(tmp_path / "nope.yaml")]
        )
        assert result.exit_code != 0


class TestSeedOverride:
    def test_seed_option_overrides_spec(self, runner, tmp_path):
        cfg = write_spec(tmp_path, SMALL_SPEC.replace("[0]", "[0, 1, 2]"))
        out = tmp_path / "results"
        result = runner.invoke(
            main,
            ["onebit-table", "--config", cfg, "--out", str(out), "--iterations", "15",
             "--seed", "7"],
        )
        assert result.exit_code == 0, result.output
        with open(out / "onebit_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["seed"] for r in rows} == {"7", "mean"}
