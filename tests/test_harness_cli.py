import filecmp
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import fedsim
from fedsim.algorithms import MetricsRow
from fedsim.cli import build_parser, main
from fedsim.config import make_link_process, parse_config, reference_config
from fedsim.errors import ConfigError
from fedsim.harness import (FIG3_LINK, RunOutput, build_objective, config_hash,
                            read_metrics_csv, reproduce_fig2, reproduce_fig3, run_simulation,
                            write_metrics_csv, write_run_outputs)
from fedsim.link_model import ActiveSet, TraceRound, build_trace, read_trace_csv, write_trace_csv
from fedsim.objectives import (ClientData, FederatedDataset, QuadraticObjective,
                               generate_synthetic, load_dataset_csv, save_dataset_csv)
from fedsim.streams import GENERATOR_ID, SeededStream

FAST_COUNTEREXAMPLE = """
experiment = counterexample
algorithm = {alg}
link = halves:0.9,0.1
seed = {seed}
m = 6
d = 4
T = 40
s = 5
eta = 0.01
"""

FAST_SYNTHETIC = """
experiment = synthetic
algorithm = fedpbc
link = zipf:3,2000,0.1
seed = 5
m = 4
T = 12
s = 2
samples_per_client = 20
"""


def write_config(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def manifest_without_walltime(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data.pop("wall_time_sec")
    return data


def test_quadratic_metrics_csv_is_the_separate_terms_bytes(tmp_path, monkeypatch):
    """The one measurement call writes the metrics.csv bytes that the train
    loss and the global gradient, each formed on its own, write."""
    cfg_path = write_config(tmp_path, FAST_COUNTEREXAMPLE.format(alg="fedavg", seed=9))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "one")]) == 0

    def separate_terms(self, x):
        # The run measures a window of models, the columns of x, at once.
        terms = []
        for col in x.T:
            diffs = col[:, None] - self.targets
            terms.append((float(0.5 * (diffs * diffs).sum() / self.num_clients),
                          col - self.targets.mean(axis=1)))
        losses, grads = zip(*terms)
        return np.array(losses), np.array(grads).T

    monkeypatch.setattr(QuadraticObjective, "loss_and_gradient", separate_terms)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "two")]) == 0
    assert filecmp.cmp(tmp_path / "one" / "metrics.csv", tmp_path / "two" / "metrics.csv",
                       shallow=False)


def test_simulate_writes_metrics_and_manifest(tmp_path):
    cfg_path = write_config(tmp_path, FAST_COUNTEREXAMPLE.format(alg="fedpbc", seed=3))
    out_dir = tmp_path / "run"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    rows = read_metrics_csv(out_dir / "metrics.csv")
    assert len(rows) == 40
    assert all(r.test_accuracy is None for r in rows)  # empty column for quadratic
    manifest = manifest_without_walltime(out_dir / "manifest.json")
    assert manifest["completed"] is True
    assert manifest["root_seed"] == 3
    assert manifest["end_round"] == 40
    assert manifest["prng"] == f"{GENERATOR_ID}; numpy {np.__version__}"
    # manifest embeds the canonical config: it is sufficient to re-execute
    again = parse_config(manifest["config_text"])
    assert config_hash(again) == manifest["config_hash"]


def test_generator_id_names_the_link_draw_rule():
    # Pinned together: a new link draw rule changes these members, and the
    # GENERATOR_ID that every manifest records must then name that rule.
    trace = build_trace(make_link_process("uniform:0.5", 4), 4, SeededStream(0).child("links"))
    assert [r.active.members for r in trace] == [(2,), (), (1,), (0, 2)]
    zipf = build_trace(make_link_process("zipf:3,30,0.1", 4), 3, SeededStream(0).child("links"))
    assert [r.p.tolist() for r in zipf] == [[28 / 30, 0.1, 0.1, 0.1], [22 / 29, 6 / 29, 0.1, 0.1],
                                            [28 / 30, 0.1, 0.1, 0.1]]
    assert GENERATOR_ID.endswith("link round t of m clients reads uniforms t*m..t*m+m-1 "
                                 "of one 'bern' stream; zipf p rounds are the rows of one "
                                 "multinomial(n, pvals, size=T) on one 'p' stream")


def test_simulate_byte_identical_reruns(tmp_path):
    cfg_path = write_config(tmp_path, FAST_COUNTEREXAMPLE.format(alg="fedavg", seed=9))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert filecmp.cmp(out1 / "metrics.csv", out2 / "metrics.csv", shallow=False)
    assert manifest_without_walltime(out1 / "manifest.json") == \
        manifest_without_walltime(out2 / "manifest.json")


def test_simulate_synthetic_has_accuracy(tmp_path):
    cfg_path = write_config(tmp_path, FAST_SYNTHETIC)
    out_dir = tmp_path / "syn"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    rows = read_metrics_csv(out_dir / "metrics.csv")
    assert all(r.test_accuracy is not None and 0 <= r.test_accuracy <= 1 for r in rows)
    assert all(math.isfinite(r.train_loss) for r in rows)


def test_seed_env_override_recorded(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, FAST_COUNTEREXAMPLE.format(alg="fedavg", seed=3))
    out_env = tmp_path / "env"
    monkeypatch.setenv("FEDSIM_SEED", "77")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_env)]) == 0
    monkeypatch.delenv("FEDSIM_SEED")
    manifest = manifest_without_walltime(out_env / "manifest.json")
    assert manifest["root_seed"] == 77
    assert manifest["seed_source"] == "env"

    out_77 = tmp_path / "cfg77"
    cfg77 = write_config(tmp_path, FAST_COUNTEREXAMPLE.format(alg="fedavg", seed=77), "c77.txt")
    assert main(["simulate", "--config", str(cfg77), "--out", str(out_77)]) == 0
    assert filecmp.cmp(out_env / "metrics.csv", out_77 / "metrics.csv", shallow=False)


def test_divergent_run_keeps_partial_csv(tmp_path):
    text = FAST_COUNTEREXAMPLE.format(alg="fedavg", seed=3).replace(
        "eta = 0.01", "eta = 3.0").replace("s = 5", "s = 60")
    cfg_path = write_config(tmp_path, text)
    out_dir = tmp_path / "div"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == 2
    manifest = manifest_without_walltime(out_dir / "manifest.json")
    assert manifest["completed"] is False
    assert manifest["failure_round"] is not None
    rows = read_metrics_csv(out_dir / "metrics.csv")
    assert len(rows) == manifest["end_round"]


def test_overflowing_server_model_diverges_at_its_round(tmp_path):
    # Each client's one step lands finite (near 6.9e307 and 1.4e308), but
    # their sum overflows: the run ends at round 0, without numpy's warning,
    # before the infinite server model is multicast.
    text = ("experiment = counterexample\nalgorithm = fedpbc\nlink = uniform:1\nseed = 5\n"
            "m = 2\nd = 1\nT = 3\ns = 1\neta = 7e307\n")
    cfg_path = write_config(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    manifest = manifest_without_walltime(tmp_path / "o" / "manifest.json")
    assert manifest["failure_round"] == 0 and manifest["end_round"] == 1
    rows = read_metrics_csv(tmp_path / "o" / "metrics.csv")
    assert len(rows) == 1 and math.isfinite(rows[0].grad_norm)


def test_metrics_schema_is_stable(tmp_path):
    quad = write_config(tmp_path, FAST_COUNTEREXAMPLE.format(alg="fedavg", seed=4), "q.txt")
    syn = write_config(tmp_path, FAST_SYNTHETIC, "s.txt")
    for name, cfg_path in (("q", quad), ("s", syn)):
        out = tmp_path / f"schema_{name}"
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        with open(out / "metrics.csv", encoding="utf-8") as fh:
            assert fh.readline().rstrip() == \
                "round,grad_norm,consensus_error,train_loss,test_accuracy,active_count"


@pytest.mark.parametrize("row, message", [
    ("0,1.0,2.0", "expected 6 fields, got 3"),
    ("0,1.0,2.0,3.0,,4,5", "expected 6 fields, got 7"),
    ("", "expected 6 fields, got 1"),
    ("0,abc,2.0,3.0,0.5,4", "malformed field"),
    ("0,1.0,2.0,3.0,0.5,4.5", "malformed field"),
    ("x,1.0,2.0,3.0,,4", "malformed field"),
])
def test_read_metrics_csv_rejects_bad_row(tmp_path, row, message):
    path = tmp_path / "metrics.csv"
    path.write_text("round,grad_norm,consensus_error,train_loss,test_accuracy,active_count\n"
                    "0,1.0,2.0,3.0,0.5,4\n" + row + "\n1,1.0,2.0,3.0,0.5,4\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match=f"metrics line 3: {message}"):
        read_metrics_csv(path)


def test_mixing_cli_reference_values(tmp_path, capsys):
    assert main(["mixing", "--p", "0.5,0.5"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    round_rec = records[0]
    assert round_rec["rho"] == pytest.approx(0.75, abs=1e-9)
    assert round_rec["ergodicity_bound"] == pytest.approx(0.99560546875)
    assert round_rec["rho_within_bound"] and round_rec["entries_above_lower_bound"]
    assert np.allclose(round_rec["entries"], [[0.875, 0.125], [0.125, 0.875]])
    summary = records[-1]
    assert summary["type"] == "summary"
    assert summary["rho_max_within_bound"]


def test_mixing_cli_time_varying_file(tmp_path, capsys):
    p_file = tmp_path / "p.csv"
    p_file.write_text("0.5,0.5\n0.9,0.9\n0.5,1.0\n", encoding="utf-8")
    assert main(["mixing", "--p-file", str(p_file)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 4
    rhos = [r["rho"] for r in records if r["type"] == "round"]
    summary = records[-1]
    assert summary["rho_max"] == pytest.approx(max(rhos))
    assert summary["rho_product_diagnostic"] == pytest.approx(np.prod(rhos))


def test_oracle_cli_weights_and_limit(tmp_path, capsys):
    u_file = tmp_path / "u.csv"
    # two clients in R^2: rows are client target vectors
    u_file.write_text("0,0\n2,2\n", encoding="utf-8")
    assert main(["oracle", "--p", "1,0.5", "--u", str(u_file)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records[0]["w"] == pytest.approx([0.75, 0.25], abs=1e-12)
    assert records[1]["point"] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert records[1]["distance_to_optimum"] == pytest.approx(np.sqrt(0.5), abs=1e-9)


def test_oracle_cli_uniform_weights(capsys):
    assert main(["oracle", "--p", "0.3,0.3,0.3"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records[0]["w"] == pytest.approx([1 / 3] * 3, abs=1e-12)


def test_main_calls_in_one_process_are_fresh_calls(tmp_path, capsys):
    """The parser is built once per process; no argument of one call
    carries into the next."""
    assert build_parser() is build_parser()
    out = tmp_path / "mixing.jsonl"
    assert main(["mixing", "--p", "0.5,0.5", "--out", str(out)]) == 0
    written = out.read_text(encoding="utf-8")
    assert capsys.readouterr().out == ""
    assert main(["mixing", "--p", "0.5,0.25"]) == 0
    assert out.read_text(encoding="utf-8") == written
    round_rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert round_rec["entries"][0][1] != json.loads(written.splitlines()[0])["entries"][0][1]
    assert main(["oracle", "--p", "1,0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["w"] == pytest.approx([0.75, 0.25], abs=1e-12)
    with pytest.raises(SystemExit) as exc:
        main(["mixing", "--p", "0.5", "--no-such-option"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    again = tmp_path / "again.jsonl"
    assert main(["mixing", "--p", "0.5,0.5", "--out", str(again)]) == 0
    assert again.read_text(encoding="utf-8") == written
    assert capsys.readouterr().out == ""


def assert_cli_error(capsys, argv):
    """The command exits 1 with an ``error:`` line and no traceback."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    return err


@pytest.mark.parametrize("base", [0.1, 0.3, 0.5])
def test_mixing_cli_near_uniform_p_file(tmp_path, capsys, base):
    # A clustered spectrum: these vectors used to exhaust the eigensolver.
    p = base * (1.0 + 0.01 * np.arange(60) / 59)
    p_file = tmp_path / "p.csv"
    p_file.write_text(",".join(f"{v:.17g}" for v in p) + "\n", encoding="utf-8")
    assert main(["mixing", "--p-file", str(p_file)]) == 0
    round_rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert round_rec["rho_within_bound"] and round_rec["entries_above_lower_bound"]


def test_simulate_rejects_nan_link_probability(tmp_path, capsys):
    text = FAST_COUNTEREXAMPLE.format(alg="fedavg", seed=1).replace(
        "halves:0.9,0.1", "static:nan,0.5,0.5,0.5,0.5,0.5")
    cfg_path = write_config(tmp_path, text)
    assert_cli_error(capsys, ["simulate", "--config", str(cfg_path),
                              "--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("a", ["1.01", "1.5", "2.6"])
def test_simulate_runs_small_zipf_exponents(tmp_path, a):
    cfg_path = write_config(tmp_path, FAST_SYNTHETIC.replace("zipf:3,", f"zipf:{a},"))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    # The p rounds that run drew, rebuilt on its link stream.
    trace = build_trace(make_link_process(f"zipf:{a},2000,0.1", 4), 12,
                        SeededStream(5).child("sim", "links"))
    rows = read_metrics_csv(tmp_path / "run" / "metrics.csv")
    assert [r.active_count for r in rows] == [len(r.active) for r in trace]
    for row in trace:
        assert np.all(row.p >= 0.1) and np.all(row.p <= 1.0)


@pytest.mark.parametrize("a", ["1", "0.5", "nan"])
def test_simulate_rejects_zipf_exponent_at_most_one(tmp_path, capsys, a):
    cfg_path = write_config(tmp_path, FAST_SYNTHETIC.replace("zipf:3,", f"zipf:{a},"))
    assert_cli_error(capsys, ["simulate", "--config", str(cfg_path),
                              "--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()


def run_python(code):
    """Run ``code`` in a fresh interpreter on this package's source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedsim.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_simulate_rejects_a_zipf_draw_count_beyond_int64(tmp_path, capsys):
    cfg_path = write_config(tmp_path, FAST_SYNTHETIC.replace("zipf:3,2000,", f"zipf:3,{2**63},"))
    err = assert_cli_error(capsys, ["simulate", "--config", str(cfg_path),
                                    "--out", str(tmp_path / "run")])
    assert len(err.splitlines()) == 1 and "zipf sample count" in err


def test_simulate_runs_the_largest_zipf_draw_count(tmp_path):
    # One multinomial draw per round: n costs neither time nor memory.
    cfg_path = write_config(tmp_path, FAST_SYNTHETIC.replace("zipf:3,2000,", f"zipf:3,{2**63 - 1},")
                            .replace("T = 12", "T = 3"))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    assert len(read_metrics_csv(tmp_path / "run" / "metrics.csv")) == 3


def test_simulate_rejects_a_nul_in_a_config_string(tmp_path, capsys):
    cfg_path = write_config(tmp_path, FAST_COUNTEREXAMPLE.format(alg="fedavg", seed=1)
                            + f"out = {tmp_path}/a\0b\n")
    err = assert_cli_error(capsys, ["simulate", "--config", str(cfg_path)])
    assert err == "error: key 'out' must not contain a NUL character\n"


def test_only_a_zipf_link_imports_scipy_special(tmp_path):
    counterexample = write_config(tmp_path, FAST_COUNTEREXAMPLE.format(alg="fedavg", seed=1),
                                  "halves.cfg")
    synthetic = write_config(tmp_path, FAST_SYNTHETIC, "zipf.cfg")
    cases = {
        "": False,
        "main(['mixing', '--p', '0.5,0.5'])": False,
        f"main(['simulate', '--config', {str(counterexample)!r}, "
        f"'--out', {str(tmp_path / 'halves')!r}])": False,
        f"main(['simulate', '--config', {str(synthetic)!r}, "
        f"'--out', {str(tmp_path / 'zipf')!r}])": True,
    }
    for call, loaded in cases.items():
        proc = run_python("import sys\nfrom fedsim.cli import main\n"
                          f"assert {call or 0} == 0\n"
                          "print('scipy.special' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(loaded), call


@pytest.mark.parametrize("rows", ["1e308,1e308\n-1e308,1e308\n", "1.7e308\n1.7e308\n"],
                         ids=["limit-distance", "optimum"])
def test_oracle_overflowing_targets_are_an_error_line(tmp_path, rows):
    u_file = tmp_path / "u.csv"
    u_file.write_text(rows, encoding="utf-8")
    proc = run_python("import sys\nfrom fedsim.cli import main\n"
                      f"sys.exit(main(['oracle', '--p', '0.9,0.1', '--u', {str(u_file)!r}]))")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


def test_simulate_rejects_seed_outside_64_bits(tmp_path, capsys):
    cfg_path = write_config(tmp_path, FAST_COUNTEREXAMPLE.format(alg="fedavg", seed=2**64))
    assert_cli_error(capsys, ["simulate", "--config", str(cfg_path),
                              "--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()


def test_simulate_rejects_negative_seed_override(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path, FAST_COUNTEREXAMPLE.format(alg="fedavg", seed=3))
    monkeypatch.setenv("FEDSIM_SEED", "-5")
    assert_cli_error(capsys, ["simulate", "--config", str(cfg_path),
                              "--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value", [("alpha", "nan"), ("beta", "nan"), ("alpha", "inf")])
def test_simulate_rejects_non_finite_variance(tmp_path, capsys, key, value):
    cfg_path = write_config(tmp_path, FAST_SYNTHETIC + f"{key} = {value}\n")
    assert_cli_error(capsys, ["simulate", "--config", str(cfg_path),
                              "--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["mixing", "oracle"])
def test_cli_rejects_nan_probability(capsys, command):
    assert_cli_error(capsys, [command, "--p", "0.5,nan"])


@pytest.mark.parametrize("option", ["--p", "--p-file", "--u"])
def test_cli_rejects_malformed_float(tmp_path, capsys, option):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.5,abc\n", encoding="utf-8")
    argv = {"--p": ["oracle", "--p", "0.5,abc"],
            "--p-file": ["oracle", "--p-file", str(bad)],
            "--u": ["oracle", "--p", "0.5,0.5", "--u", str(bad)]}[option]
    assert_cli_error(capsys, argv)


def test_mixing_cli_rejects_ragged_p_file(tmp_path, capsys):
    # The first row of another length is named at its line; blank lines
    # are skipped but counted.
    p_file = tmp_path / "p.csv"
    p_file.write_text("0.5,0.5\n\n  \n0.5,0.5,0.5\n0.5\n", encoding="utf-8")
    err = assert_cli_error(capsys, ["mixing", "--p-file", str(p_file)])
    assert err == f"error: {p_file} line 4: expected 2 fields, got 3\n"


def test_p_file_skips_blank_lines(tmp_path, capsys):
    p_file = tmp_path / "p.csv"
    p_file.write_text("0.5,0.5\n0.9,0.1\n", encoding="utf-8")
    assert main(["mixing", "--p-file", str(p_file)]) == 0
    plain = capsys.readouterr().out
    p_file.write_text("\n0.5,0.5\n \n0.9,0.1\n\n", encoding="utf-8")
    assert main(["mixing", "--p-file", str(p_file)]) == 0
    assert capsys.readouterr().out == plain
    p_file.write_text("\n \n", encoding="utf-8")
    err = assert_cli_error(capsys, ["mixing", "--p-file", str(p_file)])
    assert err == f"error: no probability rows found in {p_file}\n"


@pytest.mark.parametrize("rows", ["0,0\n1,1\n2,2\n", "0,0\n1\n", "nan,1\n2,3\n"],
                         ids=["row-count", "ragged", "non-finite"])
def test_oracle_cli_rejects_malformed_targets(tmp_path, capsys, rows):
    u_file = tmp_path / "u.csv"
    u_file.write_text(rows, encoding="utf-8")
    assert_cli_error(capsys, ["oracle", "--p", "0.5,0.5", "--u", str(u_file)])


def test_simulate_runs_the_config_it_records(tmp_path, capsys):
    text = FAST_COUNTEREXAMPLE.format(alg="fedpbc", seed=3).replace(
        "halves:0.9,0.1", "static:" + ",".join(["0.5"] * 8)).replace("m = 6", "m = 8")
    with_scale = write_config(tmp_path, text + "scale = 0.5\n", "with_scale.txt")
    assert "unknown key 'scale'" in assert_cli_error(
        capsys, ["simulate", "--config", str(with_scale), "--out", str(tmp_path / "run")])
    cfg = parse_config(text)
    out = run_simulation(cfg)
    assert out.result.final_state.num_clients == 8
    assert len(out.rows) == out.manifest["end_round"] == 40
    assert parse_config(out.manifest["config_text"]) == cfg


GENDATA = ["gendata", "--alpha", "1", "--beta", "1", "--m", "2", "--samples", "4"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{tmp}/missing.cfg"],
    GENDATA + ["--seed", "1", "--out", "{tmp}/nodir/g.csv"],
    ["simulate", "--config", "{tmp}/through_file.cfg"],
    ["simulate", "--config", "{tmp}/through_file.cfg", "--out", "{tmp}/plain/flag"],
    ["mixing", "--p", "0.5,0.5", "--out", "{tmp}/nodir/x.jsonl"],
    GENDATA + ["--seed", "-1", "--out", "{tmp}/g.csv"],
    GENDATA + ["--seed", str(2**64), "--out", "{tmp}/g.csv"],
    ["simulate", "--config", "{tmp}/not_utf8"],
    ["mixing", "--p-file", "{tmp}/not_utf8"],
    ["oracle", "--p", "0.5,0.5", "--u", "{tmp}/not_utf8"],
], ids=["missing-config", "gendata-no-dir", "out-through-file", "out-flag-through-file",
        "mixing-no-dir", "gendata-negative-seed", "gendata-seed-2^64",
        "config-not-utf8", "p-file-not-utf8", "targets-not-utf8"])
def test_cli_file_and_seed_errors(tmp_path, capsys, monkeypatch, argv):
    # Each fails before any round runs: simulate creates its output
    # directory first.  (A read-only directory cannot stand in for the
    # regular file here, since a superuser may write into it.)
    def no_run(*args, **kwargs):
        raise AssertionError("run_simulation called")

    monkeypatch.setattr("fedsim.cli.run_simulation", no_run)
    (tmp_path / "plain").write_text("", encoding="utf-8")
    (tmp_path / "not_utf8").write_bytes(b"0.5,0.5\n\xff\n")
    write_config(tmp_path, FAST_COUNTEREXAMPLE.format(alg="fedavg", seed=1)
                 + f"out = {tmp_path / 'plain' / 'run'}\n", "through_file.cfg")
    assert_cli_error(capsys, [arg.format(tmp=tmp_path) for arg in argv])


# Each input with a valid line 1 and a non-UTF-8 byte on line 2: a library
# reader, or the CLI arguments that read it ("{path}" is the file).
NOT_UTF8_INPUTS = {
    "metrics": (b"round,grad_norm,consensus_error,train_loss,test_accuracy,active_count\n",
                read_metrics_csv),
    "trace": (b"round,client,p,active\n", read_trace_csv),
    "dataset": (b"synthetic-v1,1,1,1,7\n", load_dataset_csv),
    "config": (b"experiment = counterexample\n", ["simulate", "--config", "{path}"]),
    "p-file": (b"0.5,0.5\n", ["mixing", "--p-file", "{path}"]),
    "targets": (b"0,0\n", ["oracle", "--p", "0.5,0.5", "--u", "{path}"]),
}


@pytest.mark.parametrize("kind", NOT_UTF8_INPUTS)
def test_non_utf8_input_is_one_config_error_naming_the_path(tmp_path, capsys, kind):
    line1, reader = NOT_UTF8_INPUTS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(line1 + b"0,\xff,1\n")
    message = f"{path}: not UTF-8 text (invalid start byte)"
    if callable(reader):
        with pytest.raises(ConfigError) as info:
            reader(path)
        assert str(info.value) == message
    else:
        argv = [arg.format(path=path) for arg in reader]
        assert assert_cli_error(capsys, argv) == f"error: {message}\n"


# A number spelled with Python's "_" digit separator, which int() and float()
# read ("1_0" as 10, "0_5" as 5), at each place fedsim reads a number: a
# config value and link spec, FEDSIM_SEED, a numeric flag, a --p, --p-file or
# --u field, and an int and a float field of each library reader.  "{tmp}" is
# the test directory; the files are written there first.
RUN_CONFIG = FAST_COUNTEREXAMPLE.format(alg="fedavg", seed=3)
SEPARATOR_FILES = {
    "seed.cfg": FAST_COUNTEREXAMPLE.format(alg="fedavg", seed="1_0"),
    "good.cfg": RUN_CONFIG,
    "static.cfg": RUN_CONFIG.replace("halves:0.9,0.1", "static:0.5,0.5,1_0e-1,0.3,0.5,0.5"),
    "halves.cfg": RUN_CONFIG.replace("halves:0.9,0.1", "halves:0.9,1_0e-1"),
    "uniform.cfg": RUN_CONFIG.replace("halves:0.9,0.1", "uniform:1_0e-1"),
    "zipf.cfg": RUN_CONFIG.replace("halves:0.9,0.1", "zipf:3,2_000,0.1"),
    "p.csv": "0.5,1_0e-1\n",
    "u.csv": "1_0,2\n3,4\n",
}
SIMULATE = ["simulate", "--out", "{tmp}/run", "--config"]
SEPARATOR_CLI = {
    "config-value": SIMULATE + ["{tmp}/seed.cfg"],
    "env-seed": SIMULATE + ["{tmp}/good.cfg"],
    "link-static": SIMULATE + ["{tmp}/static.cfg"],
    "link-halves": SIMULATE + ["{tmp}/halves.cfg"],
    "link-uniform": SIMULATE + ["{tmp}/uniform.cfg"],
    "link-zipf": SIMULATE + ["{tmp}/zipf.cfg"],
    "p": ["mixing", "--p", "1_0e-1,0.5"],
    "p-file": ["oracle", "--p-file", "{tmp}/p.csv"],
    "u": ["oracle", "--p", "0.5,0.5", "--u", "{tmp}/u.csv"],
}
# A repeated flag's last value wins, so each case ends in the flag it spells.
SEPARATOR_FLAGS = {
    **{f"gendata{flag}": GENDATA + ["--seed", "1", "--out", "{tmp}/g.csv", flag, "1_0"]
       for flag in ("--alpha", "--beta", "--m", "--seed", "--samples")},
    **{f"{command}{flag}": [command, "--out", "{tmp}/fig", flag, value]
       for command in ("reproduce-fig2", "reproduce-fig3")
       for flag, value in (("--scale", "0_1"), ("--seed", "1_0"))},
}
METRICS_LINE = b"round,grad_norm,consensus_error,train_loss,test_accuracy,active_count\n"
SEPARATOR_READERS = {
    "metrics-int": (read_metrics_csv, METRICS_LINE + b"1_0,1,0,0,,1\n"),
    "metrics-float": (read_metrics_csv, METRICS_LINE + b"0,1,0,0,0_5,1\n"),
    "trace-int": (read_trace_csv, b"round,client,p,active\n0,0,0.5,0_1\n"),
    "trace-float": (read_trace_csv, b"round,client,p,active\n0,0,0_5,1\n"),
    "dataset-int": (load_dataset_csv, b"synthetic-v1,1,1,1,1_0\n"),
    "dataset-float": (load_dataset_csv, b"synthetic-v1,1,1,1,7\n0,train,1,"
                      + b",".join([b"0_5"] * 60) + b"\n"),
}


@pytest.mark.parametrize("case", [*SEPARATOR_CLI, *SEPARATOR_FLAGS, *SEPARATOR_READERS])
def test_numbers_with_digit_separators_are_refused_everywhere(tmp_path, capsys, monkeypatch,
                                                               case):
    for name, text in SEPARATOR_FILES.items():
        write_config(tmp_path, text, name)
    if case in SEPARATOR_READERS:
        reader, data = SEPARATOR_READERS[case]
        (tmp_path / "in.csv").write_bytes(data)
        with pytest.raises(ConfigError, match=r" line \d+: "):
            reader(tmp_path / "in.csv")
        return
    monkeypatch.setenv("FEDSIM_SEED", "1_0" if case == "env-seed" else "3")
    argv = [arg.format(tmp=tmp_path) for arg in {**SEPARATOR_CLI, **SEPARATOR_FLAGS}[case]]
    if case in SEPARATOR_CLI:
        err = assert_cli_error(capsys, argv)
        assert err.count("\n") == 1
    else:
        with pytest.raises(SystemExit) as info:
            main(argv)
        err = capsys.readouterr().err
        assert info.value.code == 2 and err.startswith("usage: fedsim")
        assert "error: argument " in err and "invalid " in err and "Traceback" not in err
    for made in ("run", "fig", "g.csv"):
        assert not (tmp_path / made).exists()


@pytest.mark.parametrize("target, argv", [
    ("run_simulation", ["simulate", "--config", "{tmp}/run.cfg", "--out", "{tmp}/run"]),
    ("generate_synthetic", GENDATA + ["--seed", "1", "--out", "{tmp}/g.csv"]),
], ids=["simulate", "gendata"])
def test_cli_out_of_memory_is_an_error_line(tmp_path, capsys, monkeypatch, target, argv):
    # A huge samples_per_client or --samples ends in a refused allocation (a
    # Zipf draw count allocates nothing).  It is raised here, not provoked: a
    # host that overcommits memory may kill the process instead of refusing it.
    write_config(tmp_path, FAST_COUNTEREXAMPLE.format(alg="fedavg", seed=1), "run.cfg")
    numpy_message = "Unable to allocate 7.28 TiB for an array with shape (10**12,)"
    for message, shown in [(numpy_message, numpy_message), ("", "allocation refused")]:
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(f"fedsim.cli.{target}", refuse)
        err = assert_cli_error(capsys, [arg.format(tmp=tmp_path) for arg in argv])
        assert err == f"error: out of memory: {shown}\n"


def test_gendata_cli_roundtrip(tmp_path):
    out = tmp_path / "data.csv"
    assert main(["gendata", "--alpha", "1", "--beta", "1", "--m", "3",
                 "--seed", "21", "--samples", "12", "--out", str(out)]) == 0
    ds = load_dataset_csv(out)
    assert ds.num_clients == 3 and ds.seed == 21


def test_gendata_writes_the_dataset_simulate_trains_on(tmp_path):
    out = tmp_path / "data.csv"
    assert main(["gendata", "--alpha", "0.5", "--beta", "2", "--m", "3",
                 "--seed", "21", "--samples", "12", "--out", str(out)]) == 0
    cfg = reference_config("synthetic", "fedavg", "uniform:0.5", 21, m=3, alpha=0.5, beta=2.0,
                           samples_per_client=12)
    run = build_objective(cfg, SeededStream(cfg.seed)).dataset
    saved = load_dataset_csv(out)
    assert saved.seed == run.seed and saved.num_clients == run.num_clients
    for a, b in zip(saved.clients, run.clients):
        assert np.array_equal(a.train_x, b.train_x) and np.array_equal(a.train_y, b.train_y)
        assert np.array_equal(a.test_x, b.test_x) and np.array_equal(a.test_y, b.test_y)


def test_reproduce_fig2_smoke(tmp_path):
    result = reproduce_fig2(0.1, tmp_path / "fig2", seed=77)
    table = (tmp_path / "fig2" / "comparison.csv").read_text(encoding="utf-8")
    assert len(table.splitlines()) == 17  # header + 4 pairs x 4 variants
    # At scale 0.1 the fixed reference step size leaves a visible
    # transient, so the smoke check is directional only; the quantitative
    # gates run in the acceptance suite at its own scale.
    eq = {r["algorithm"]: r for r in result["summary"]
          if r["p0"] == r["p1"] == 0.9 and r["local_compute"] == "all"}
    assert eq["fedavg"]["final_grad_norm"] == pytest.approx(
        eq["fedpbc"]["final_grad_norm"], rel=0.25)
    skew = {r["algorithm"]: r for r in result["summary"]
            if (r["p0"], r["p1"]) == (0.9, 0.1) and r["local_compute"] == "all"}
    assert skew["fedpbc"]["final_grad_norm"] < 0.7 * skew["fedavg"]["final_grad_norm"]
    assert skew["fedavg"]["oracle_gap"] > 1.0
    # trace is shared: manifests of both algorithms carry one checksum
    tag = "p09-01"
    manifests = [manifest_without_walltime(tmp_path / "fig2" / f"{tag}_{alg}_all_manifest.json")
                 for alg in ("fedavg", "fedpbc")]
    assert manifests[0]["trace_sha256"] == manifests[1]["trace_sha256"]
    assert manifests[0]["trace_sha256"]
    # Each run is the config-default setup at scale 0.1, with its grid cell's
    # algorithm, local computation and link.
    base = reference_config("counterexample", "fedavg", "uniform:0.5", 77, scale=0.1,
                            out=str(tmp_path / "fig2"))
    for alg, mode in product(("fedavg", "fedpbc"), ("all", "active_only")):
        manifest = manifest_without_walltime(
            tmp_path / "fig2" / f"p05-01_{alg}_{mode}_manifest.json")
        assert parse_config(manifest["config_text"]) == replace(
            base, algorithm=alg, local_compute=mode, link="halves:0.5,0.1")


def test_reproduce_fig3_smoke(tmp_path, monkeypatch):
    generated = []
    monkeypatch.setattr("fedsim.harness.generate_synthetic",
                        lambda *args: generated.append(args) or generate_synthetic(*args))
    summary = reproduce_fig3(0.1, tmp_path / "fig3", seed=5)
    assert len(generated) == 1  # one dataset, shared by both runs
    assert math.isfinite(summary["fedavg"]["train_loss"])
    assert math.isfinite(summary["fedpbc"]["train_loss"])
    assert (tmp_path / "fig3" / "fedavg_metrics.csv").exists()
    assert (tmp_path / "fig3" / "fedpbc_metrics.csv").exists()
    assert (tmp_path / "fig3" / "summary.json").exists()
    on_disk = json.loads((tmp_path / "fig3" / "summary.json").read_text(encoding="utf-8"))
    for key in ("fedpbc_train_loss_leq_fedavg", "fedpbc_test_accuracy_geq_fedavg"):
        assert key not in summary and key not in on_disk
    assert set(on_disk["fedpbc"]) == {"train_loss", "test_accuracy"}
    base = reference_config("synthetic", "fedavg", FIG3_LINK, 5, scale=0.1,
                            out=str(tmp_path / "fig3"))
    assert (base.m, base.T) == (on_disk["m"], on_disk["T"]) == (15, 300)
    for alg in ("fedavg", "fedpbc"):
        manifest = manifest_without_walltime(tmp_path / "fig3" / f"{alg}_manifest.json")
        assert parse_config(manifest["config_text"]) == replace(base, algorithm=alg)
    # The shared dataset is the one a lone run generates from the seed.
    alone = run_simulation(replace(base, algorithm="fedpbc"),
                           trace=read_trace_csv(tmp_path / "fig3" / "trace.csv"))
    write_run_outputs(tmp_path / "alone", alone, name="fedpbc")
    assert filecmp.cmp(tmp_path / "alone" / "fedpbc_metrics.csv",
                       tmp_path / "fig3" / "fedpbc_metrics.csv", shallow=False)


# Every file kind written from literal inputs, against its exact bytes.  No
# number here comes out of a BLAS call, so the bytes hold on any host.

def test_metrics_file_bytes(tmp_path):
    path = tmp_path / "metrics.csv"
    digest = write_metrics_csv(path, [MetricsRow(0, 1.5, 0.25, 2.0, None, 3),
                                      MetricsRow(1, 0.1, 1e-300, -0.0, 0.875, 0)])
    assert path.read_bytes() == (
        b"round,grad_norm,consensus_error,train_loss,test_accuracy,active_count\n"
        b"0,1.5,0.25,2,,3\n"
        b"1,0.10000000000000001,1e-300,-0,0.875,0\n")
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_trace_file_bytes(tmp_path):
    path = tmp_path / "trace.csv"
    digest = write_trace_csv(path, [
        TraceRound(round=0, p=np.array([0.5, 0.1]), active=ActiveSet((1,))),
        TraceRound(round=1, p=np.array([1.0, 0.25]), active=ActiveSet(()))])
    assert path.read_bytes() == (b"round,client,p,active\n"
                                 b"0,0,0.5,0\n0,1,0.10000000000000001,1\n"
                                 b"1,0,1,0\n1,1,0.25,0\n")
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_trace_member_out_of_range_writes_no_file(tmp_path):
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="client id 2 out of range for m=2"):
        write_trace_csv(path, [
            TraceRound(round=0, p=np.array([0.5, 0.1]), active=ActiveSet((1,))),
            TraceRound(round=1, p=np.array([1.0, 0.25]), active=ActiveSet((0, 2)))])
    assert not path.exists()


def test_comparison_file_bytes(tmp_path, monkeypatch):
    # One grid pair; FedAvg diverges (an empty distance), FedPBC ends 12 from
    # the predicted point, which lies 5 from the optimum.
    class Weights:
        def limit_point(self, targets):
            return np.array([3.0, 0.0])

    class Objective:
        targets = None

        def global_optimum(self):
            return np.array([0.0, 4.0])

    def run(cfg, *, objective, trace, trace_sha):
        if cfg.algorithm == "fedavg":
            return RunOutput(None, [MetricsRow(0, 0.5, 0.0, 1.0, None, 2)], {}, 2)
        final = SimpleNamespace(final_state=SimpleNamespace(global_model=np.array([3.0, 12.0])))
        return RunOutput(final, [MetricsRow(0, 0.1, 0.0, 1.0, None, 2)], {}, 0)

    monkeypatch.setattr("fedsim.harness.FIG2_GRID", ((0.9, 0.5),))
    monkeypatch.setattr("fedsim.harness.build_objective", lambda cfg, root: Objective())
    monkeypatch.setattr("fedsim.harness.fedavg_limit_integral", lambda p: Weights())
    monkeypatch.setattr("fedsim.harness.run_simulation", run)
    result = reproduce_fig2(0.1, tmp_path, seed=3)
    assert (tmp_path / "comparison.csv").read_bytes() == (
        b"p0,p1,algorithm,local_compute,final_grad_norm,oracle_gap,"
        b"final_global_distance_to_prediction\n"
        b"0.90000000000000002,0.5,fedavg,all,0.5,5,\n"
        b"0.90000000000000002,0.5,fedavg,active_only,0.5,5,\n"
        b"0.90000000000000002,0.5,fedpbc,all,0.10000000000000001,5,12\n"
        b"0.90000000000000002,0.5,fedpbc,active_only,0.10000000000000001,5,12\n")
    assert result["summary"][0] == {
        "p0": 0.9, "p1": 0.5, "algorithm": "fedavg", "local_compute": "all",
        "final_grad_norm": 0.5, "oracle_gap": 5.0, "final_global_distance_to_prediction": None}


def test_dataset_file_bytes(tmp_path):
    path = tmp_path / "data.csv"
    digest = save_dataset_csv(path, FederatedDataset(
        clients=[ClientData(train_x=np.full((1, 60), 0.5), train_y=np.array([3]),
                            test_x=np.array([[-1.0] * 59 + [0.1]]), test_y=np.array([9]))],
        alpha=1.0, beta=0.25, seed=7))
    assert path.read_bytes() == (
        b"synthetic-v1,1,0.25,1,7\n"
        + b"0,train,3," + b",".join([b"0.5"] * 60) + b"\n"
        + b"0,test,9," + b",".join([b"-1"] * 59) + b",0.10000000000000001\n")
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_manifest_file_bytes(tmp_path):
    manifest = {"artifact": "fedsim 0.1.0", "root_seed": 7, "completed": False,
                "failure_round": None, "trace_sha256": None, "wall_time_sec": 0.1}
    paths = write_run_outputs(tmp_path, RunOutput(None, [], manifest, 2), name="x")
    assert paths == {"metrics": str(tmp_path / "x_metrics.csv"),
                     "manifest": str(tmp_path / "x_manifest.json")}
    assert (tmp_path / "x_manifest.json").read_bytes() == (
        b'{\n  "artifact": "fedsim 0.1.0",\n  "root_seed": 7,\n  "completed": false,\n'
        b'  "failure_round": null,\n  "trace_sha256": null,\n  "wall_time_sec": 0.1\n}\n')
    assert (tmp_path / "x_metrics.csv").read_bytes() == (
        b"round,grad_norm,consensus_error,train_loss,test_accuracy,active_count\n")
