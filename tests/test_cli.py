"""Command-line surface: exit codes, CSV outputs, determinism."""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from masa_kit.cli import main


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestDumpDecay:
    def test_single_token_grid_writes_one(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run_cli("dump-decay", "--height", "1", "--width", "1",
                       "--gamma", "0.5", "--out", str(out)) == 0
        assert out.read_text() == "1\n"

    def test_two_by_two_matrix_values(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli("dump-decay", "--height", "2", "--width", "2",
                       "--gamma", "0.5", "--out", str(out)) == 0
        rows = read_csv(out)
        values = [[float(v) for v in row] for row in rows]
        expected = [[1, 0.5, 0.5, 0.25], [0.5, 1, 0.25, 0.5],
                    [0.5, 0.25, 1, 0.5], [0.25, 0.5, 0.5, 1]]
        np.testing.assert_array_equal(values, expected)

    def test_values_round_trip_at_full_precision(self, tmp_path):
        out = tmp_path / "d.csv"
        run_cli("dump-decay", "--height", "3", "--width", "3", "--gamma", "0.37",
                "--out", str(out))
        from masa_kit import GridShape, decay_manhattan_2d
        expected = decay_manhattan_2d(GridShape(3, 3), 0.37).data
        values = np.array([[float(v) for v in row] for row in read_csv(out)])
        np.testing.assert_array_equal(values, expected)

    def test_decomposed_flag_writes_axial_factors(self, tmp_path):
        out = tmp_path / "d.csv"
        run_cli("dump-decay", "--height", "2", "--width", "3", "--gamma", "0.5",
                "--out", str(out), "--decomposed")
        assert (tmp_path / "d_h.csv").exists()
        assert (tmp_path / "d_w.csv").exists()
        h_rows = read_csv(tmp_path / "d_h.csv")
        assert len(h_rows) == 2 and len(h_rows[0]) == 2

    def test_kron_check_reports_sub_tolerance_diff(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run_cli("dump-decay", "--height", "4", "--width", "5", "--gamma", "0.9",
                       "--out", str(out), "--kron-check") == 0
        printed = capsys.readouterr().out
        assert "factorization max abs diff" in printed
        diff = float(printed.split("factorization max abs diff:")[1].strip().splitlines()[0])
        assert diff < 1e-12

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli("dump-decay", "--height", "3", "--width", "4", "--gamma", "0.71",
                    "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_fails_with_diagnostic(self, tmp_path, capsys):
        code = run_cli("dump-decay", "--height", "2", "--width", "2", "--gamma", "0.5",
                       "--out", str(tmp_path / "missing_dir" / "d.csv"))
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_bad_gamma_fails_nonzero(self, tmp_path, capsys):
        code = run_cli("dump-decay", "--height", "2", "--width", "2", "--gamma", "1.5",
                       "--out", str(tmp_path / "d.csv"))
        assert code != 0
        assert "error:" in capsys.readouterr().err


class TestModelStats:
    def test_preset_stats_print_params_and_flops(self, capsys):
        assert run_cli("model-stats", "--preset", "rmt-t") == 0
        out = capsys.readouterr().out
        assert "parameters:" in out and "flops:" in out
        assert "stage4" in out

    def test_config_file_input(self, tmp_path, capsys):
        from masa_kit import preset_config
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(preset_config("tiny").to_json())
        assert run_cli("model-stats", "--config", str(cfg_path), "--resolution", "32") == 0
        assert "parameters: 287914" in capsys.readouterr().out

    def test_unknown_preset_is_a_usage_error_listing_presets(self, capsys):
        assert run_cli("model-stats", "--preset", "rmt-xxl") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "rmt-t" in lines[0]


class TestScaling:
    def test_ratios_and_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run_cli("scaling", "--modes", "full,decomposed,vanilla",
                       "--sides", "4,8", "--head-dim", "8", "--repeats", "3",
                       "--out", str(out)) == 0
        rows = read_csv(out)
        assert rows[0] == ["mode", "height", "width", "head_dim", "macs", "wall_ns", "workers"]
        body = rows[1:]
        assert len(body) == 6
        macs = {(r[0], int(r[1])): int(r[4]) for r in body}
        assert macs[("full", 8)] == 16 * macs[("full", 4)]
        assert macs[("decomposed", 8)] == 8 * macs[("decomposed", 4)]
        assert macs[("vanilla", 4)] == macs[("full", 4)]
        assert macs[("decomposed", 4)] < macs[("full", 4)]
        assert all(int(r[5]) > 0 for r in body)

    def test_sides_are_capped_with_message(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run_cli("scaling", "--modes", "decomposed", "--sides", "4,5000",
                       "--head-dim", "2", "--repeats", "3", "--out", str(out)) == 0
        assert "capped" in capsys.readouterr().err
        rows = read_csv(out)
        assert max(int(r[1]) for r in rows[1:]) == 96

    def test_side_below_two_rejected(self, tmp_path, capsys):
        code = run_cli("scaling", "--sides", "1,4", "--repeats", "3",
                       "--out", str(tmp_path / "b.csv"))
        assert code != 0

    def test_too_few_repeats_rejected(self, tmp_path):
        code = run_cli("scaling", "--sides", "4", "--repeats", "2",
                       "--out", str(tmp_path / "b.csv"))
        assert code != 0

    def test_stable_apart_from_wall_time(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli("scaling", "--modes", "full", "--sides", "4", "--head-dim", "4",
                    "--repeats", "3", "--seed", "1", "--out", str(path))
        strip = lambda rows: [r[:5] + r[6:] for r in rows]
        assert strip(read_csv(a)) == strip(read_csv(b))


class TestTrainDemo:
    def test_short_run_is_deterministic_and_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli("train-demo", "--seed", "3", "--steps", "4", "--samples", "8",
                    "--eval-interval", "2", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()
        rows = read_csv(a)
        assert rows[0] == ["step", "loss", "train_accuracy"]
        assert [r[0] for r in rows[1:]] == ["2", "4"]


def _tiny_config_text(edit):
    from masa_kit import preset_config
    doc = preset_config("tiny").to_json_dict()
    edit(doc)
    return json.dumps(doc)


_CONFIG = ["model-stats", "--config", "{dir}/cfg.json"]


@pytest.mark.parametrize("argv,config_text,named", [
    pytest.param(["model-stats", "--config", "{dir}/absent.json"], None, "absent.json",
                 id="config-missing-file"),
    pytest.param(_CONFIG, "{not json", "cfg.json", id="config-invalid-json"),
    pytest.param(_CONFIG, "[1, 2]", "stages", id="config-not-an-object"),
    pytest.param(_CONFIG, _tiny_config_text(lambda d: d.pop("num_classes")), "num_classes",
                 id="config-missing-key"),
    pytest.param(_CONFIG, _tiny_config_text(lambda d: d["stages"][2].pop("decay_b")), "decay_b",
                 id="config-missing-stage-key"),
    pytest.param(_CONFIG, _tiny_config_text(lambda d: d["stages"][0].update(blocks="x")), "blocks",
                 id="config-non-numeric-blocks"),
    pytest.param(_CONFIG, _tiny_config_text(lambda d: d.update(stages=3)), "stages",
                 id="config-stages-not-a-list"),
    pytest.param(_CONFIG, _tiny_config_text(lambda d: d["stages"][0].update(ffn_ratio=float("inf"))),
                 "ffn_ratio", id="config-infinite-ffn-ratio"),
    pytest.param(_CONFIG, _tiny_config_text(lambda d: d["stages"][1].update(heads=0)), "head",
                 id="config-zero-heads"),
    pytest.param(_CONFIG, _tiny_config_text(lambda d: d.update(input_resolution=36)), "32",
                 id="config-resolution-36"),
    pytest.param(_CONFIG, _tiny_config_text(lambda d: d["stages"][0].update(decomposed="false")),
                 "decomposed", id="config-string-bool"),
    pytest.param(_CONFIG, _tiny_config_text(lambda d: d.update(num_classes=2.7)), "num_classes",
                 id="config-fractional-num-classes"),
    pytest.param(_CONFIG, _tiny_config_text(lambda d: d["stages"][3].update(heads=True)), "heads",
                 id="config-bool-heads"),
    pytest.param(_CONFIG, _tiny_config_text(lambda d: d["stages"][1].update(ffn_ratio="2")),
                 "ffn_ratio", id="config-string-ffn-ratio"),
    pytest.param(["scaling", "--sides", "a,b", "--out", "{dir}/b.csv"], None, "--sides",
                 id="scaling-non-numeric-sides"),
    pytest.param(["scaling", "--head-dim", "0", "--out", "{dir}/b.csv"], None, "--head-dim",
                 id="scaling-zero-head-dim"),
    pytest.param(["scaling", "--head-dim", "-3", "--out", "{dir}/b.csv"], None, "--head-dim",
                 id="scaling-negative-head-dim"),
    pytest.param(["scaling", "--modes", "", "--out", "{dir}/b.csv"], None, "--modes",
                 id="scaling-empty-modes"),
    pytest.param(["scaling", "--modes", " , ", "--out", "{dir}/b.csv"], None, "--modes",
                 id="scaling-blank-modes"),
    pytest.param(["scaling", "--sides", "", "--out", "{dir}/b.csv"], None, "--sides",
                 id="scaling-empty-sides"),
    pytest.param(["train-demo", "--eval-interval", "0", "--out", "{dir}/m.csv"], None,
                 "eval_interval", id="train-demo-zero-eval-interval"),
    pytest.param(["train-demo", "--steps", "-3", "--out", "{dir}/m.csv"], None, "--steps",
                 id="train-demo-negative-steps"),
    pytest.param(["train-demo", "--steps", "0", "--out", "{dir}/m.csv"], None, "--steps",
                 id="train-demo-zero-steps"),
    pytest.param(["train-demo", "--samples", "0", "--out", "{dir}/m.csv"], None, "--samples",
                 id="train-demo-zero-samples"),
    pytest.param(["train-demo", "--seed", "-1", "--out", "{dir}/m.csv"], None, "--seed",
                 id="train-demo-negative-seed"),
    pytest.param(["scaling", "--seed", "-1", "--out", "{dir}/b.csv"], None, "--seed",
                 id="scaling-negative-seed"),
    pytest.param(["dump-decay", "--height", "x", "--width", "2", "--gamma", "0.5",
                  "--out", "{dir}/d.csv"], None, "--height", id="usage-non-numeric-height"),
    pytest.param(["scaling"], None, "--out", id="usage-missing-required-flag"),
    pytest.param([], None, "command", id="usage-no-subcommand"),
])
def test_bad_input_gives_one_error_line_and_exit_1(tmp_path, argv, config_text, named):
    if config_text is not None:
        (tmp_path / "cfg.json").write_text(config_text)
    proc = subprocess.run([sys.executable, "-m", "masa_kit"] + [a.format(dir=tmp_path) for a in argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert named in lines[0]


def test_bench_record_rejects_nonpositive_counts():
    from masa_kit.cli import BenchRecord
    from masa_kit import MasaKitError

    record = BenchRecord(mode="full", height=4, width=4, head_dim=8,
                         macs=8192, wall_ns=100, workers="default")
    assert record.row()[0] == "full"
    with pytest.raises(MasaKitError):
        BenchRecord(mode="full", height=4, width=4, head_dim=8,
                    macs=0, wall_ns=100, workers="default")
    with pytest.raises(MasaKitError):
        BenchRecord(mode="full", height=4, width=4, head_dim=8,
                    macs=8192, wall_ns=0, workers="default")


def test_module_entry_point_smoke(tmp_path):
    out = tmp_path / "d.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "masa_kit", "dump-decay", "--height", "2", "--width", "2",
         "--gamma", "0.5", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()


def test_console_script_is_installed():
    """The `masa-kit` script declared in pyproject.toml runs `main`.

    The declaration is read from pyproject.toml and called the way the wrapper
    that pip installs calls it, so the check holds in a source checkout too.
    Wherever an installed `masa-kit` is on PATH, that executable is run as well.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "masa-kit" in scripts
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "sys.argv[0] = 'masa-kit'\n"
        f"fn = EntryPoint(name='masa-kit', value={scripts['masa-kit']!r},"
        " group='console_scripts').load()\n"
        "sys.exit(fn())\n"
    )
    commands = [[sys.executable, "-c", wrapper, "--help"]]
    installed = shutil.which("masa-kit")
    if installed:
        commands.append([installed, "--help"])
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "dump-decay" in proc.stdout
