"""Command-line entry points for the experiment studies."""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import click
import yaml

from .experiments import (
    ExperimentSpec,
    SpecError,
    emit_plot_script,
    load_spec,
    run_fairness,
    run_onebit_table,
    run_pmax_sweep,
    save_spec,
)


def _spec_from_options(config, experiment, seeds, out, iterations, one_bit) -> ExperimentSpec:
    """The spec the command runs.  A spec that names no study takes the
    command's; one that names another is rejected by the study's runner
    before any cell runs."""
    spec, updates = ExperimentSpec(), {"experiment": experiment}
    if config is not None:
        spec = load_spec(config)
        if "experiment" in (yaml.safe_load(Path(config).read_text(encoding="utf-8")) or {}):
            updates = {}
    if seeds:
        updates["seeds"] = tuple(seeds)
    if out is not None:
        updates["output_dir"] = out
    if iterations is not None:
        updates["iterations"] = iterations
    if one_bit:
        updates["one_bit"] = True
    return dataclasses.replace(spec, **updates)


def _common_options(fn):
    fn = click.option("--config", type=click.Path(exists=True, dir_okay=False),
                      default=None, help="experiment spec YAML file")(fn)
    fn = click.option("--seed", "seeds", type=int, multiple=True,
                      help="seed (repeatable); overrides the spec's seed list")(fn)
    fn = click.option("--out", type=click.Path(file_okay=False), default=None,
                      help="output directory for CSVs and plot scripts")(fn)
    fn = click.option("--iterations", type=int, default=None,
                      help="iterations per run; overrides the spec")(fn)
    return fn


# onebit-table runs both phase modes, so only the other studies take this
_one_bit_option = click.option("--one-bit", is_flag=True, help="restrict RIS phases to {0, pi}")


@click.group()
def main():
    """Multi-RIS massive-MIMO downlink optimization experiments."""


def _run(runner, experiment, config, seeds, out, iterations, one_bit=False, **kwargs):
    try:
        spec = _spec_from_options(config, experiment, seeds, out, iterations, one_bit)
        csv_path = runner(spec, **kwargs)
        script = emit_plot_script(csv_path)
    except SpecError as exc:
        raise click.ClickException(f"spec error: {exc}")
    except (ValueError, OSError) as exc:
        raise click.ClickException(f"run error: {exc}")
    click.echo(f"wrote {csv_path}")
    click.echo(f"wrote {script}")


@main.command()
@_common_options
@_one_bit_option
@click.option("--p-max-dbm", type=float, default=35.0, show_default=True)
def fairness(config, seeds, out, iterations, one_bit, p_max_dbm):
    """Compare max-sum-rate and max-min-SINR objectives step by step."""
    _run(run_fairness, "fairness", config, seeds, out, iterations, one_bit,
         p_max_dbm=p_max_dbm)


@main.command("pmax-sweep")
@_common_options
@_one_bit_option
def pmax_sweep(config, seeds, out, iterations, one_bit):
    """Best min-SINR of every algorithm over a grid of power budgets."""
    _run(run_pmax_sweep, "pmax_sweep", config, seeds, out, iterations, one_bit)


@main.command("onebit-table")
@_common_options
@click.option("--p-max-dbm", type=float, default=45.0, show_default=True)
def onebit_table(config, seeds, out, iterations, p_max_dbm):
    """Continuous vs one-bit RIS comparison table."""
    _run(run_onebit_table, "onebit_table", config, seeds, out, iterations,
         p_max_dbm=p_max_dbm)


@main.command("validate-config")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--normalized", type=click.Path(dir_okay=False), default=None,
              help="write the validated spec back out to this path")
def validate_config(config, normalized):
    """Parse and validate a spec file; exit nonzero on any problem."""
    try:
        spec = load_spec(config)
    except SpecError as exc:
        raise click.ClickException(f"spec error: {exc}")
    if normalized:
        save_spec(spec, normalized)
        click.echo(f"wrote {normalized}")
    click.echo(f"{config}: valid ({spec.experiment}, {len(spec.seeds)} seeds)")


if __name__ == "__main__":
    sys.exit(main())
