import hashlib
import inspect
import json
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from sparsefactors import SimConfig, export_csv, run_replications, simulate_panel
from sparsefactors.cli import run_cli

DATA = Path(__file__).parent / "data"


def write_panel_csv(path, n=40, t=60, seed=0):
    cfg = SimConfig(N=n, T=t, r=2, alpha=(0.9, 0.7), seed=seed)
    panel, _ = simulate_panel(cfg)
    path.write_text(export_csv(panel), encoding="utf-8")
    return path


def digest_dir(d, skip=("manifest.json",)):
    out = {}
    for p in sorted(d.iterdir()):
        if p.name in skip:
            continue
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestSimulateCommand:
    def test_writes_report_tables_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli([
            "simulate", "--N", "40", "--T", "40", "--r", "2", "--alpha", "0.9,0.7",
            "--seed", "11", "--reps", "4", "--rmax", "4", "--out", str(out),
        ])
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert {"report.json", "manifest.json", "factor_counts.csv",
                "estimation.csv", "support_recovery.csv", "strengths.csv"} <= names
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["config"]["seed"] == 11
        assert "wall_time_s" in manifest
        assert "numpy" in manifest["versions"]
        report = json.loads((out / "report.json").read_text())
        assert report["aggregates"]["replications"] == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["simulate", "--N", "36", "--T", "36", "--r", "2", "--alpha", "0.9,0.7",
                "--seed", "5", "--reps", "3", "--rmax", "4"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert digest_dir(out1) == digest_dir(out2)

    def test_worker_counts_agree(self, tmp_path):
        base = ["simulate", "--N", "36", "--T", "36", "--r", "2", "--alpha", "0.9,0.7",
                "--seed", "9", "--reps", "6", "--rmax", "4"]
        out1, out2 = tmp_path / "w1", tmp_path / "w8"
        assert run_cli(base + ["--workers", "1", "--out", str(out1)]) == 0
        assert run_cli(base + ["--workers", "8", "--out", str(out2)]) == 0
        assert digest_dir(out1) == digest_dir(out2)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {"N": 36, "T": 36, "r": 2, "alpha": [0.9, 0.7], "seed": 3, "reps": 2}
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli(["simulate", "--config", str(cfg_path), "--reps", "3",
                        "--rmax", "4", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["aggregates"]["replications"] == 3  # flag beat the config file

    def test_missing_seed_is_drawn_and_recorded(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["simulate", "--N", "36", "--T", "36", "--r", "1", "--alpha", "0.9",
                        "--reps", "1", "--rmax", "3", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert isinstance(manifest["seed"], int)

    def test_manifest_defaults_are_the_library_defaults(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["simulate", "--N", "36", "--T", "36", "--r", "1", "--alpha", "0.9",
                        "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        run = inspect.signature(run_replications).parameters
        expected = {f.name: f.default for f in fields(SimConfig) if f.default is not MISSING}
        expected.update(rmax=run["rmax"].default, c=run["c_multiplier"].default,
                        tasks=sorted(run["tasks"].default), workers=run["workers"].default,
                        reps=100)
        assert set(config) == set(expected) | {"N", "T", "r", "alpha", "seed"}
        assert {key: config[key] for key in expected} == expected

    def test_invalid_range_is_user_error(self, tmp_path, capsys):
        code = run_cli(["simulate", "--N", "36", "--T", "36", "--r", "2",
                        "--alpha", "0.7,0.9", "--reps", "1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestDataCommands:
    def test_select_r_outputs(self, tmp_path):
        data = write_panel_csv(tmp_path / "panel.csv")
        out = tmp_path / "sel"
        code = run_cli(["select-r", "--data", str(data), "--rmax", "5",
                        "--methods", "wz,bn,ed,ah", "--out", str(out)])
        assert code == 0
        lines = (out / "r_hat.csv").read_text().splitlines()
        assert lines[0] == "wz,bn,ed,ah"
        assert len(lines[1].split(",")) == 4
        diags = json.loads((out / "diagnostics.json").read_text())
        assert set(diags) == {"wz", "bn", "ed", "ah"}

    def test_estimate_outputs(self, tmp_path):
        data = write_panel_csv(tmp_path / "panel.csv")
        out = tmp_path / "est"
        code = run_cli(["estimate", "--data", str(data), "--r", "2", "--out", str(out)])
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert {"factors.csv", "loadings.csv", "eigenvalues.csv",
                "screened_loadings.csv", "strengths.json", "manifest.json"} <= names
        strengths = json.loads((out / "strengths.json").read_text())
        assert len(strengths["alpha_hat"]) == 2

    def test_strengths_outputs(self, tmp_path):
        data = write_panel_csv(tmp_path / "panel.csv")
        out = tmp_path / "str"
        assert run_cli(["strengths", "--data", str(data), "--r", "2", "--out", str(out)]) == 0
        payload = json.loads((out / "strengths.json").read_text())
        assert payload["counts"] and payload["labels"]

    def test_rolling_outputs_and_determinism(self, tmp_path):
        data = write_panel_csv(tmp_path / "panel.csv", n=30, t=70)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["rolling", "--data", str(data), "--window", "50", "--rmax", "4",
                "--methods", "wz,bn"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert digest_dir(out1) == digest_dir(out2)
        lines = (out1 / "rolling.csv").read_text().splitlines()
        assert len(lines) == 1 + (70 - 50 + 1)

    def test_heatmap_outputs(self, tmp_path):
        data = write_panel_csv(tmp_path / "panel.csv")
        out = tmp_path / "hm"
        assert run_cli(["heatmap", "--data", str(data), "--r", "2", "--out", str(out)]) == 0
        text = (out / "heatmap.csv").read_text()
        assert text.startswith("#")

    def test_inputs_are_not_mutated(self, tmp_path):
        data = write_panel_csv(tmp_path / "panel.csv")
        before = hashlib.sha256(data.read_bytes()).hexdigest()
        run_cli(["select-r", "--data", str(data), "--rmax", "4", "--out", str(tmp_path / "o")])
        assert hashlib.sha256(data.read_bytes()).hexdigest() == before

    def test_tcodes_pipeline(self, tmp_path):
        rng = np.random.default_rng(1)
        # strictly positive series so log codes are valid
        from sparsefactors import Panel

        vals = np.exp(rng.normal(size=(20, 40)) * 0.1).cumsum(axis=1) + 1.0
        panel = Panel(vals, [f"s{i}" for i in range(20)], [f"t{j}" for j in range(40)])
        data = tmp_path / "panel.csv"
        data.write_text(export_csv(panel))
        tcodes = tmp_path / "tcodes.csv"
        tcodes.write_text("series,code\n" + "\n".join(f"s{i},5" for i in range(20)) + "\n")
        out = tmp_path / "o"
        assert run_cli(["select-r", "--data", str(data), "--tcodes", str(tcodes),
                        "--rmax", "4", "--out", str(out)]) == 0

    def test_missing_data_flag(self, tmp_path, capsys):
        assert run_cli(["select-r", "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unreadable_input(self, tmp_path, capsys):
        assert run_cli(["select-r", "--data", str(tmp_path / "missing.csv"),
                        "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # single-line diagnostic

    def test_unknown_flag_exits_one(self, tmp_path):
        assert run_cli(["select-r", "--nonsense", "1"]) == 1

    def test_unknown_subcommand_exits_one(self):
        assert run_cli(["frobnicate"]) == 1


class TestStrengthsRecordMultiplier:
    def test_estimate_records_the_c_it_used(self, tmp_path):
        data = write_panel_csv(tmp_path / "panel.csv")
        payload = {}
        for c in ("1", "2"):
            out = tmp_path / f"c{c}"
            assert run_cli(["estimate", "--data", str(data), "--r", "2", "--c", c,
                            "--out", str(out)]) == 0
            payload[c] = json.loads((out / "strengths.json").read_text())
        assert payload["2"]["c_multiplier"] == 2.0
        assert payload["1"]["c_multiplier"] == 1.0
        assert payload["2"]["threshold"] == pytest.approx(2.0 * payload["1"]["threshold"],
                                                          rel=1e-15)

    def test_strengths_command_records_the_c_it_used(self, tmp_path):
        data = write_panel_csv(tmp_path / "panel.csv")
        out = tmp_path / "s"
        assert run_cli(["strengths", "--data", str(data), "--r", "2", "--c", "1.5",
                        "--out", str(out)]) == 0
        assert json.loads((out / "strengths.json").read_text())["c_multiplier"] == 1.5


SIM = ["simulate", "--N", "36", "--T", "36", "--r", "2", "--alpha", "0.9,0.7",
       "--seed", "1", "--reps", "2", "--rmax", "4"]


@pytest.mark.parametrize(
    "argv, code, fragment",
    [
        (SIM + ["--reps", "0"], 1, "R must be positive, got 0"),
        (SIM + ["--rmax", "0"], 1, "rmax must be positive, got 0"),
        (SIM + ["--c", "0"], 1, "c must be positive, got 0"),
        (SIM + ["--c", "-1"], 1, "c must be positive, got -1"),
        (SIM + ["--workers", "0"], 1, "workers must be positive, got 0"),
        (SIM + ["--burn-in", "0"], 1, "burn_in must be at least 50, got 0"),
        (["estimate", "--rmax", "60"], 1, "rmax must be in [1, 40], got 60"),
        (["estimate", "--rmax", "0"], 1, "rmax must be in [1, 40], got 0"),
        (["estimate", "--r", "0"], 1, "r must be in [1, 40], got 0"),
        (["estimate", "--r", "2", "--c", "0"], 1, "c must be positive, got 0"),
        (["strengths", "--rmax", "60"], 1, "rmax must be in [1, 40], got 60"),
        (["strengths", "--r", "2", "--c", "0"], 1, "c must be positive, got 0"),
        (["select-r", "--rmax", "0"], 1, "rmax must be in [1, 40], got 0"),
        (["rolling", "--window", "0"], 1, "window must be at least 10 periods, got 0"),
        (["rolling", "--window", "30", "--rmax", "0"], 1, "rmax must be in [1, 30], got 0"),
        (["rolling", "--window", "30", "--c", "0"], 1, "c must be positive, got 0"),
        (["heatmap", "--r", "2", "--c", "0"], 1, "c must be positive, got 0"),
        (["select-r", "--data", str(DATA / "latin1_panel.csv")], 1,
         "latin1_panel.csv is not UTF-8 text (byte 14)"),
        (["select-r", "--data", str(DATA)], 1, "data: Is a directory"),
        (["select-r", "--tcodes", str(DATA / "tcodes_not_integer.csv")], 1,
         "tcodes_not_integer.csv, row 2: 'x'"),
        (["select-r", "--tcodes", str(DATA / "tcodes_out_of_range.csv")], 1,
         "tcodes_out_of_range.csv, row 2: code 9 is not in 1..7"),
        (["select-r", "--tcodes", str(DATA / "tcodes_no_code.csv")], 1,
         "tcodes_no_code.csv, row 2: no transformation code"),
        (["heatmap", "--r", "0"], 1, "r must be in [1, 40], got 0"),
        (["strengths", "--r", "0"], 1, "r must be in [1, 40], got 0"),
        (SIM + ["--alpha", "0.9,x"], 1, "invalid value for alpha: '0.9,x'"),
        (SIM + ["--N", "-5"], 1, "N must be at least 4, got -5"),
        (["simulate", "--config", str(DATA / "config_list.json")], 1,
         "config_list.json must hold a JSON object, not list"),
        (["simulate", "--config", str(DATA / "config_scalar_alpha.json")], 1,
         "invalid value for alpha: 0.9"),
        (["simulate", "--config", str(DATA / "config_standardize_string.json")], 1,
         "standardize must be true or false, got 'no'"),
        (["simulate", "--config", str(DATA / "config_support_mode_unknown.json")], 1,
         "support_mode must be 'random' or 'contiguous', got 'weird'"),
        (["simulate", "--config", str(DATA / "config_range_length.json")], 1,
         "contiguous_ranges[1] must be integers (start, stop) within [0, 36], expected 12 units"),
        (SIM + ["--c", "nan"], 1, "c must be finite, got nan"),
        (SIM + ["--T", "2"], 1, "rmax must be at most min(N, T) = 2, got 4"),
        (SIM + ["--T", "1", "--tasks", "fit"], 1, "r must be at most min(N, T) = 1, got 2"),
        (SIM + ["--seed", "-1"], 1, "seed must be non-negative, got -1"),
        (["estimate", "--r", "2", "--c", "inf"], 1, "c must be finite, got inf"),
        (SIM + ["--T", "10", "--rmax", "8"], 1,
         "rmax must be at most min(N, T) - 5 = 5 for 'ed' (it reads rmax + 5 eigenvalues), got 8"),
        (["select-r", "--rmax", "36"], 1, "rmax must be at most min(N, T) - 5 = 35 for 'ed'"),
    ],
)
def test_explicit_values_are_never_replaced_by_defaults(tmp_path, capsys, argv, code, fragment):
    if argv[0] != "simulate" and "--data" not in argv:
        argv = argv + ["--data", str(write_panel_csv(tmp_path / "panel.csv"))]
    assert run_cli(argv + ["--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert fragment in err


def test_non_finite_cell_drops_the_series(tmp_path, capsys):
    data = write_panel_csv(tmp_path / "panel.csv")
    lines = data.read_text().splitlines()
    cells = lines[4].split(",")
    cells[7] = "inf"
    lines[4] = ",".join(cells)
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert run_cli(["select-r", "--data", str(data), "--rmax", "4", "--out", str(out)]) == 0
    assert f"dropped series {cells[0]}: " in capsys.readouterr().err


def test_unwritable_output_directory_exits_one(tmp_path, capsys):
    data = write_panel_csv(tmp_path / "panel.csv")
    assert run_cli(["select-r", "--data", str(data), "--rmax", "4", "--out", str(data)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write output directory {data}")


def _fuzz_bytes():
    """Arbitrary bytes, mixed with byte strings built from CSV-shaped tokens."""
    st = pytest.importorskip("hypothesis.strategies")
    tokens = [b",", b"\n", b"\r", b'"', b" ", b"series", b"code", b"group", b"s0", b"s1", b"t1",
              b"0", b"1", b"5", b"9", b"x", b"-2.5", b"1e308", b"1e999", b"inf", b"nan",
              b"\x00", b"\xff", b"\xc3\xa9"]
    return st.binary(max_size=400) | st.lists(st.sampled_from(tokens), max_size=120).map(b"".join)


@pytest.mark.parametrize("flag", ["--data", "--tcodes"])
def test_arbitrary_input_bytes_never_exit_two(flag):
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(_fuzz_bytes())
    def check(payload):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            data = tmp / "fuzz.bin" if flag == "--data" else write_panel_csv(tmp / "panel.csv")
            argv = ["select-r", "--data", str(data), "--out", str(tmp / "o")]
            if flag == "--tcodes":
                argv += ["--tcodes", str(tmp / "fuzz.bin")]
            (tmp / "fuzz.bin").write_bytes(payload)
            assert run_cli(argv) in (0, 1)

    check()
