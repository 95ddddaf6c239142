"""Command-line surface: exit codes, CSV outputs, determinism."""

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masa_kit import MasaKitError, cli, preset_config, train
from masa_kit.blocks import PRESET_NAMES
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

    def test_preset_is_accounted_at_its_own_resolution(self, capsys):
        assert run_cli("model-stats", "--preset", "tiny") == 0
        out = capsys.readouterr().out
        assert "resolution: 32x32" in out and "flops:      1425664 MACs" in out

    @pytest.mark.parametrize("flag,shown", [([], "64x64"), (["--resolution", "96"], "96x96")],
                             ids=["config", "flag-overrides"])
    def test_config_resolution_is_the_default(self, tmp_path, capsys, flag, shown):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(preset_config("tiny", input_resolution=64).to_json())
        assert run_cli("model-stats", "--config", str(cfg_path), *flag) == 0
        assert capsys.readouterr().out.startswith(f"resolution: {shown}\n")

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
    pytest.param(_CONFIG, _tiny_config_text(lambda d: d["stages"][1].update(channels=-32, ffn_ratio=-2)),
                 "channels", id="config-negative-channels"),
    pytest.param(_CONFIG, "[" * 100000 + "]" * 100000, "cfg.json", id="config-deeply-nested"),
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
    pytest.param(_CONFIG, _tiny_config_text(lambda d: d["stages"][1].update(decay_a=5, decay_b=1)),
                 "cfg.json", id="config-decay-bounds-reversed"),
    pytest.param(_CONFIG, _tiny_config_text(lambda d: d["stages"][0].update(decay_a=float("nan"))),
                 "cfg.json", id="config-nan-decay-bound"),
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
def test_bad_input_gives_one_error_line_and_exit_1(tmp_path, src_env, argv, config_text, named):
    if config_text is not None:
        (tmp_path / "cfg.json").write_text(config_text)
    proc = subprocess.run([sys.executable, "-m", "masa_kit"] + [a.format(dir=tmp_path) for a in argv],
                          env=src_env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert named in lines[0]


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_thread_count_gives_one_error_line_and_is_not_forwarded(src_env, value):
    # only small values: a large valid count would start that many BLAS threads
    env = {k: v for k, v in src_env.items() if k not in _BLAS_VARS}
    env["MASA_KIT_THREADS"] = value
    proc = subprocess.run([sys.executable, "-m", "masa_kit", "model-stats", "--preset", "tiny"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == f"error: MASA_KIT_THREADS must be a positive integer, got '{value}'\n"
    assert proc.stdout == ""
    proc = subprocess.run([sys.executable, "-c", "import os, masa_kit; "
                           f"print([os.environ.get(v) for v in {_BLAS_VARS!r}])"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[None, None, None, None]\n"


def test_closed_stdout_gives_one_error_line_and_exit_1(src_env):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "masa_kit", "model-stats", "--preset", "tiny"],
                              env=src_env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: standard output was closed\n"


_SCIPY_SPECIAL_PROBE = """
import contextlib, io, json, sys
import numpy as np
import masa_kit as mk
from masa_kit.cli import main

out, loaded = sys.argv[1], {}
def note(step):
    loaded[step] = "scipy.special" in sys.modules
note("import")
mk.build_backbone(mk.preset_config("tiny"), 0)
note("build_backbone")
mk.count_flops(mk.preset_config("tiny"), 64)
note("count_flops")
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["model-stats", "--preset", "tiny"]) == 0
    note("model-stats")
    assert main(["dump-decay", "--height", "3", "--width", "3", "--gamma", "0.5", "--out", out]) == 0
    note("dump-decay")
    assert main(["scaling", "--sides", "2", "--head-dim", "2", "--repeats", "3", "--out", out]) == 0
    note("scaling")
mk.gelu(mk.Tensor(np.zeros(2)))
note("gelu")
print(json.dumps(loaded))
"""


def test_scipy_special_loads_with_the_first_gelu_only(tmp_path, src_env):
    # scipy.special is the largest import of the package; only work that runs a GELU pays it
    proc = subprocess.run([sys.executable, "-c", _SCIPY_SPECIAL_PROBE, str(tmp_path / "o.csv")],
                          env=src_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": False, "build_backbone": False,
                                       "count_flops": False, "model-stats": False,
                                       "dump-decay": False, "scaling": False, "gelu": True}


def _refuse(*args, **kwargs):
    raise AssertionError("the command started work before checking --out")


@pytest.mark.parametrize("argv", [
    ["train-demo", "--steps", "1", "--samples", "1"],
    ["scaling", "--sides", "4", "--head-dim", "2", "--repeats", "3"],
], ids=["train-demo", "scaling"])
def test_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(train, "train_loop", _refuse)
    for mode in list(cli._BENCH_KERNELS):
        monkeypatch.setitem(cli._BENCH_KERNELS, mode, _refuse)
    out = tmp_path / "missing_dir" / "m.csv"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}"), captured.err
    assert captured.out == ""
    assert not out.parent.exists()


def test_out_check_leaves_no_file_and_keeps_an_existing_one(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise MasaKitError("training failed")

    monkeypatch.setattr(train, "train_loop", fail)
    fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
    existing.write_text("old\n")
    for out in (fresh, existing):
        assert main(["train-demo", "--steps", "1", "--samples", "1", "--out", str(out)]) == 1
    assert not fresh.exists()
    assert existing.read_text() == "old\n"


# Each flag's values: first those a run accepts, then those it must refuse. All
# are bounded, so any run that succeeds is small.
_FLAG_VALUES = {
    "--height": (["1", "3", "8"], ["-1", "0"]),
    "--width": (["2", "8"], ["-1", "0"]),
    "--gamma": (["0.5", "0.9"], ["0", "1", "1.5", "-0.5", "nan", "inf"]),
    "--decomposed": None,
    "--kron-check": None,
    "--preset": (list(PRESET_NAMES), ["rmt-xxl"]),
    "--config": (["{dir}/cfg.json"], ["{dir}/bad.json", "{dir}/absent.json"]),
    "--resolution": (["32", "64"], ["36", "0", "-32"]),
    "--modes": (["full", "decomposed,vanilla"], ["", "bogus"]),
    "--sides": (["2", "4,8"], ["", "1", "a,b"]),
    "--head-dim": (["1", "8"], ["-1", "0"]),
    "--repeats": (["3"], ["2"]),
    "--seed": (["0", "3"], ["-1"]),
    "--steps": (["1", "2"], ["-1", "0"]),
    "--samples": (["1", "4"], ["0"]),
    "--eval-interval": (["1", "2"], ["0"]),
    "--out": (["{dir}/o.csv"], ["{dir}/missing/o.csv", "{dir}"]),
}
_COMMAND_FLAGS = {
    "dump-decay": ["--height", "--width", "--gamma", "--out", "--decomposed", "--kron-check"],
    "model-stats": ["--preset", "--config", "--resolution"],
    "scaling": ["--modes", "--sides", "--head-dim", "--repeats", "--gamma", "--seed", "--out"],
    "train-demo": ["--seed", "--steps", "--samples", "--eval-interval", "--out"],
}
# Flags whose defaults would make a long run; these values come first, so a later draw can override them.
_SMALL_DEFAULTS = {"scaling": ["--sides", "2,4"], "train-demo": ["--steps", "1", "--samples", "2"]}
_JUNK = ["", "-", "--", "x", "-x", "--bogus", "-1", "0", "--st", "dump", "scaling"]


def _flag_item(flag, accepted_only=False):
    if _FLAG_VALUES[flag] is None:
        return st.just([flag])
    good, bad = _FLAG_VALUES[flag]
    return st.sampled_from(good if accepted_only else good + bad).map(lambda v: [flag, v])


_STRAY_ITEM = st.one_of(st.sampled_from(_JUNK).map(lambda t: [t]),
                        st.sampled_from(sorted(_FLAG_VALUES)).flatmap(_flag_item))


@st.composite
def _argv(draw):
    """A subcommand (or none), most of its own flags, maybe stray tokens, in any order."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS) + [None]))
    items = []
    for flag in _COMMAND_FLAGS.get(command, []):
        pick = draw(st.integers(0, 5))  # 0 leaves the flag out, 1 takes any value
        if pick:
            items.append(draw(_flag_item(flag, accepted_only=pick > 1)))
    if draw(st.booleans()):
        items += draw(st.lists(_STRAY_ITEM, min_size=1, max_size=3))
    items = draw(st.permutations(items))
    head = [command] + _SMALL_DEFAULTS.get(command, []) if command else []
    return head + [token for item in items for token in item]


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
def test_any_argv_exits_0_or_1_with_one_error_line(tmp_path_factory, argv):
    """``main`` returns 0, or 1 with exactly one ``error:`` line, and lets no exception out.

    ``--help`` is left out: it ends in argparse's ``SystemExit(0)``, which the
    console-script test covers.
    """
    workdir = tmp_path_factory.getbasetemp() / "cli-argv"
    workdir.mkdir(exist_ok=True)
    (workdir / "cfg.json").write_text(preset_config("tiny").to_json())
    (workdir / "bad.json").write_text("{not json")
    argv = [token.format(dir=workdir) for token in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), argv
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err.getvalue())


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


def test_module_entry_point_smoke(tmp_path, src_env):
    out = tmp_path / "d.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "masa_kit", "dump-decay", "--height", "2", "--width", "2",
         "--gamma", "0.5", "--out", str(out)],
        env=src_env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()


def test_console_script_is_installed(src_env):
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
        proc = subprocess.run(command, env=src_env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "dump-decay" in proc.stdout
