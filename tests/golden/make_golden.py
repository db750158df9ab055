"""Regenerate the golden CLI outputs that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/golden/make_golden.py

Runs every command of ``COMMANDS`` through ``run_cli`` and keeps each command's data
artifacts in ``tests/golden/<name>/`` (``manifest.json`` is left out: it records wall time
and versions). The data commands read a grouped 248 x 260 panel drawn by ``simulate_panel``
and written by ``export_csv``; it is regenerated on every run, so it is not kept. A change
that alters golden bytes on purpose reruns this script and names each changed file.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from sparsefactors import Panel, SimConfig, export_csv, simulate_panel
from sparsefactors.cli import run_cli

GOLDEN = Path(__file__).resolve().parent

_SIMULATE = ["simulate", "--N", "100", "--T", "100", "--r", "3", "--alpha", "0.9,0.75,0.6",
             "--reps", "40", "--seed", "13"]
COMMANDS = {  # name -> argv; "{panel}" stands for the panel CSV
    "simulate_workers1": _SIMULATE + ["--workers", "1"],
    "simulate_workers2_standardized": _SIMULATE + ["--workers", "2", "--standardize"],
    "simulate_wz": _SIMULATE + ["--tasks", "wz"],
    "estimate": ["estimate", "--data", "{panel}"],
    "strengths": ["strengths", "--data", "{panel}"],
    "select_r": ["select-r", "--data", "{panel}"],
    "rolling": ["rolling", "--data", "{panel}", "--window", "120", "--methods", "wz,bn,ed,ah"],
    "heatmap": ["heatmap", "--data", "{panel}", "--start", "t061", "--end", "t200", "--r", "2"],
}


def write_panel(path: Path) -> None:
    """The data commands' input: a three-factor panel of 248 series in 13 groups, 260 periods."""
    panel, _ = simulate_panel(SimConfig(N=248, T=260, r=3, alpha=(0.9, 0.8, 0.7), seed=27))
    groups = tuple(1 + 13 * i // panel.n_series for i in range(panel.n_series))
    grouped = Panel(panel.values, panel.series_ids, panel.time_ids, group_ids=groups)
    path.write_text(export_csv(grouped), encoding="utf-8")


def run_commands(outdir: Path) -> None:
    """Run every command into ``outdir/<name>``, reading a panel written to ``outdir``."""
    outdir.mkdir(parents=True, exist_ok=True)
    panel = outdir / "panel.csv"
    write_panel(panel)
    for name, argv in COMMANDS.items():
        args = [a.format(panel=panel) for a in argv] + ["--out", str(outdir / name)]
        status = run_cli(args)
        if status != 0:
            raise RuntimeError(f"{name}: exit status {status}")


def artifacts(directory: Path) -> list:
    """The data artifacts of one command's output directory, by name."""
    return sorted(p.name for p in directory.iterdir() if p.name != "manifest.json")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run_commands(Path(tmp))
        for name in COMMANDS:
            target = GOLDEN / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir()
            for file in artifacts(Path(tmp) / name):
                shutil.copyfile(Path(tmp) / name / file, target / file)
            print(f"{target.relative_to(GOLDEN.parent.parent)}: {', '.join(artifacts(target))}",
                  file=sys.stderr)


if __name__ == "__main__":
    main()
