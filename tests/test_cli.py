import ast
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from test_stacks import oracle_cmd_verify

import skewchain
from skewchain import chains, cli, example, objects, skew
from skewchain.chains import Reading, compute_chain
from skewchain.cli import build_parser, main, parse_grid
from skewchain.example import CSV_HEADER, example_channels, rho_theta
from skewchain.objects import (
    Convention,
    completeness_residual,
    mix_kraus,
    random_channel,
    random_density,
    random_unitary,
    validate_channel,
)
from skewchain.serialize import save_channel, save_state


@pytest.fixture()
def example_files(tmp_path):
    state = tmp_path / "state.json"
    ch1 = tmp_path / "ch1.json"
    ch2 = tmp_path / "ch2.json"
    save_state(state, rho_theta(1.0))
    n1, n2 = example_channels(0.5, 0.5)
    save_channel(ch1, n1)
    save_channel(ch2, n2)
    return state, ch1, ch2


def read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


class TestParseGrid:
    def test_range(self):
        assert parse_grid("0:1:3") == [0.0, 0.5, 1.0]

    def test_single_value(self):
        assert parse_grid("0.5") == [0.5]
        assert parse_grid("0.5:0.5:1") == [0.5]

    def test_rejects_out_of_range(self):
        with pytest.raises(Exception):
            parse_grid("0:1.5:3")

    def test_rejects_bad_count(self):
        with pytest.raises(Exception):
            parse_grid("0:1:0")


class TestBounds:
    def test_worked_example_report(self, tmp_path, example_files):
        state, ch1, ch2 = example_files
        out = tmp_path / "report.txt"
        code = main(["bounds", "--state", str(state), "--channel1", str(ch1),
                     "--channel2", str(ch2), "--out", str(out), "--tol", "1e-9"])
        assert code == 0
        report = read_report(out)
        assert float(report["product"]) == pytest.approx(0.02144660940672623, abs=1e-8)
        assert float(report["lemma1"]) == pytest.approx(0.0031407832308854556, abs=1e-8)
        assert float(report["S21"]) == pytest.approx(0.01687015286276604, abs=1e-8)
        csv_lines = out.with_suffix(".csv").read_text().splitlines()
        assert csv_lines[0].startswith("t,product,sum,I1,I2,I3,I4,S21")
        assert len(csv_lines) == 2

    def test_incoherent_inputs_all_zero(self, tmp_path):
        state = tmp_path / "state.json"
        save_state(state, rho_theta(0.5))
        n1, n2 = example_channels(0.5, 0.5)
        ch1, ch2 = tmp_path / "c1.json", tmp_path / "c2.json"
        save_channel(ch1, n1)
        save_channel(ch2, n2)
        out = tmp_path / "report.txt"
        code = main(["bounds", "--state", str(state), "--channel1", str(ch1),
                     "--channel2", str(ch2), "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert float(report["product"]) == 0.0
        assert float(report["I4"]) == 0.0

    def test_malformed_channel_exits_2(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        save_state(state, rho_theta(1.0))
        bad = tmp_path / "bad.json"
        k = np.eye(4) * np.sqrt(0.9)  # completeness off by 0.1
        doc = {"dim": 4,
               "kraus": [[[[float(z.real), float(z.imag)] for z in row] for row in k]],
               "convention": "row_sum"}
        bad.write_text(json.dumps(doc))
        good = tmp_path / "good.json"
        save_channel(good, example_channels(0.5, 0.5)[0])
        out = tmp_path / "report.txt"
        code = main(["bounds", "--state", str(state), "--channel1", str(bad),
                     "--channel2", str(good), "--out", str(out)])
        assert code == 2
        message = capsys.readouterr().err
        assert "row_sum" in message
        assert "0.1" in message or "1.000e-01" in message

    def test_missing_state_file_exits_2(self, tmp_path, example_files):
        _, ch1, ch2 = example_files
        out = tmp_path / "report.txt"
        code = main(["bounds", "--state", str(tmp_path / "nope.json"),
                     "--channel1", str(ch1), "--channel2", str(ch2), "--out", str(out)])
        assert code == 2


def _argv(case, tmp_path, files):
    state, ch1, ch2 = files
    inputs = ["--state", str(state), "--channel1", str(ch1), "--channel2", str(ch2)]
    small = tmp_path / "small.json"
    save_channel(small, random_channel(3, 2, Convention.COLUMN_SUM, seed=1))
    not_object = tmp_path / "not_object.json"
    not_object.write_text("[1, 2]")
    kraus_not_list = tmp_path / "kraus_not_list.json"
    channel_doc = json.loads(ch1.read_text())
    kraus_not_list.write_text(json.dumps({**channel_doc, "kraus": 5}))
    state_doc = json.loads(state.read_text())
    nan_state = {**state_doc, "matrix": [[[float("nan"), 0.0]] + row[1:]
                                         for row in state_doc["matrix"]]}
    matrix_object = tmp_path / "matrix_object.json"
    matrix_object.write_text(json.dumps({"dim": 4, "matrix": {"re": 1}}))
    one = tmp_path / "one.json"  # the one-by-one identity channel
    one.write_text(json.dumps({"dim": 1, "kraus": [[[[1.0, 0.0]]]], "convention": "row_sum"}))
    bad = _bad_file(case, tmp_path)  # the row's malformed input, named in its message
    contents = {
        "bounds_state_nan": json.dumps(nan_state).encode(),  # a NaN literal, which json writes
        "invariance_truncated_channel": ch1.read_bytes()[:100],
        "bounds_channel_not_utf8": b"\xff\xfe",
        "invariance_empty_state": b"",
        "bounds_state_without_matrix": json.dumps({"dim": 4}).encode(),
        "bounds_state_not_pairs": json.dumps({"dim": 2, "matrix": [[0.5, 0], [0, 0.5]]}).encode(),
        "invariance_channel_not_complete": json.dumps({**channel_doc,  # one of two operators
                                                       "kraus": channel_doc["kraus"][:1]}).encode(),
        "bounds_state_ragged": json.dumps({**state_doc, "matrix": [state_doc["matrix"][0][:3]]
                                           + state_doc["matrix"][1:]}).encode(),
        "invariance_kraus_mixed_shapes": json.dumps({
            **channel_doc, "kraus": [channel_doc["kraus"][0],
                                     [row[:3] for row in channel_doc["kraus"][1][:3]]]}).encode(),
        "bounds_dim_is_string": json.dumps({**state_doc, "dim": "4"}).encode(),
        "invariance_dim_is_true": json.dumps({"dim": True, "matrix": [[[1.0, 0.0]]]}).encode(),
        "example_out_is_file": b"",
    }
    if case in contents:
        bad.write_bytes(contents[case])
    out = str(tmp_path / "out" / "r.txt")
    return {
        "verify_negative_seed": ["verify", "--dims", "2", "--instances", "1", "--seed", "-1",
                                 "--out", str(tmp_path / "v.txt")],
        "verify_nan_tol": ["verify", "--dims", "2", "--instances", "1", "--tol", "nan",
                           "--out", str(tmp_path / "v.txt")],
        "invariance_nan_tol": ["invariance", *inputs, "--trials", "1", "--tol", "nan",
                               "--out", str(tmp_path / "inv.txt")],
        "bounds_unwritable_out": ["bounds", *inputs,
                                  "--out", str(tmp_path / "missing" / "report.txt")],
        "bounds_dim_mismatch": ["bounds", "--state", str(state), "--channel1", str(small),
                                "--channel2", str(ch2), "--out", str(tmp_path / "r.txt")],
        "verify_non_integer_dims": ["verify", "--dims", "2,x", "--instances", "1",
                                    "--out", str(tmp_path / "v.txt")],
        "bounds_state_not_object": ["bounds", "--state", str(not_object), "--channel1", str(ch1),
                                    "--channel2", str(ch2), "--out", str(tmp_path / "r.txt")],
        "invariance_kraus_not_list": ["invariance", "--state", str(state),
                                      "--channel1", str(kraus_not_list), "--channel2", str(ch2),
                                      "--trials", "1", "--out", str(tmp_path / "inv.txt")],
        "invariance_dim_mismatch": ["invariance", "--state", str(state), "--channel1", str(small),
                                    "--channel2", str(ch2), "--trials", "1",
                                    "--out", str(tmp_path / "inv.txt")],
        "bounds_out_is_csv": ["bounds", *inputs, "--out", str(tmp_path / "out" / "r.csv")],
        "bounds_state_nan": ["bounds", "--state", str(bad), "--channel1", str(ch1),
                             "--channel2", str(ch2), "--out", out],
        "invariance_truncated_channel": ["invariance", "--state", str(state),
                                         "--channel1", str(bad), "--channel2", str(ch2),
                                         "--trials", "1", "--out", out],
        "bounds_channel_not_utf8": ["bounds", "--state", str(state), "--channel1", str(ch1),
                                    "--channel2", str(bad), "--out", out],
        "invariance_empty_state": ["invariance", "--state", str(bad), "--channel1", str(ch1),
                                   "--channel2", str(ch2), "--trials", "1", "--out", out],
        "bounds_state_without_matrix": ["bounds", "--state", str(bad), "--channel1", str(ch1),
                                        "--channel2", str(ch2), "--out", out],
        "invariance_matrix_is_object": ["invariance", "--state", str(matrix_object),
                                        "--channel1", str(ch1), "--channel2", str(ch2),
                                        "--trials", "1", "--out", out],
        "bounds_state_not_pairs": ["bounds", "--state", str(bad), "--channel1", str(ch1),
                                   "--channel2", str(ch2), "--out", out],
        "invariance_channel_not_complete": ["invariance", "--state", str(state),
                                            "--channel1", str(ch1), "--channel2", str(bad),
                                            "--trials", "1", "--out", out],
        "bounds_state_ragged": ["bounds", "--state", str(bad), "--channel1", str(ch1),
                                "--channel2", str(ch2), "--out", out],
        "invariance_kraus_mixed_shapes": ["invariance", "--state", str(state),
                                          "--channel1", str(bad), "--channel2", str(ch2),
                                          "--trials", "1", "--out", out],
        "bounds_dim_is_string": ["bounds", "--state", str(bad), "--channel1", str(ch1),
                                 "--channel2", str(ch2), "--out", out],
        "invariance_dim_is_true": ["invariance", "--state", str(bad), "--channel1", str(one),
                                   "--channel2", str(one), "--trials", "1", "--out", out],
        "invariance_zero_trials": ["invariance", *inputs, "--trials", "0", "--out", out],
        "verify_zero_instances": ["verify", "--dims", "2", "--instances", "0", "--out", out],
        "bounds_zero_tol": ["bounds", *inputs, "--tol", "0", "--out", out],
        "invariance_negative_tol": ["invariance", *inputs, "--trials", "1", "--tol", "-1",
                                    "--out", out],
        "example_bad_grid": ["example", "--theta", "0.5", "--p", "0:1", "--q", "0.5",
                             "--out", str(tmp_path / "out" / "figs")],
        "example_out_is_file": ["example", "--theta", "0.5", "--p", "0.5", "--q", "0.5",
                                "--out", str(bad)],  # mkdir fails: the OSError path
    }[case]


def _bad_file(case, tmp_path):
    return tmp_path / f"{case}.json"


class TestBadInputExits2:
    # each row once ended in a traceback, in exit 1 or 3, or in a message that
    # did not name the bad file
    prefixed = {  # errors of the matrix parser and the validators, prefixed with the file
        "bounds_state_not_pairs": "matrix must be a nested array of [re, im] pairs",
        "invariance_channel_not_complete": "Kraus completeness violated under row_sum",
        "bounds_state_ragged": "matrix must be a nested array of [re, im] pairs",
        "invariance_kraus_mixed_shapes":
            "matrices must be nested arrays of [re, im] pairs, all of one shape",
        "bounds_dim_is_string": '"dim" must be an integer >= 1, got "4"',
        "invariance_dim_is_true": '"dim" must be an integer >= 1, got true'}

    @pytest.mark.parametrize("case", ["verify_negative_seed", "verify_nan_tol",
                                      "invariance_nan_tol", "bounds_unwritable_out",
                                      "bounds_dim_mismatch", "verify_non_integer_dims",
                                      "bounds_state_not_object", "invariance_kraus_not_list",
                                      "invariance_dim_mismatch",
                                      "bounds_out_is_csv", "bounds_state_nan",
                                      "invariance_truncated_channel", "bounds_channel_not_utf8",
                                      "invariance_empty_state", "bounds_state_without_matrix",
                                      "invariance_matrix_is_object", "bounds_state_not_pairs",
                                      "invariance_channel_not_complete", "bounds_state_ragged",
                                      "invariance_kraus_mixed_shapes", "bounds_dim_is_string",
                                      "invariance_dim_is_true", "invariance_zero_trials",
                                      "verify_zero_instances", "bounds_zero_tol",
                                      "invariance_negative_tol", "example_bad_grid",
                                      "example_out_is_file"])
    def test_one_error_line_and_exit_2(self, tmp_path, example_files, capsys, case):
        (tmp_path / "out").mkdir()
        code = main(_argv(case, tmp_path, example_files))
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert list((tmp_path / "out").iterdir()) == []  # nothing written
        if _bad_file(case, tmp_path).exists():
            assert str(_bad_file(case, tmp_path)) in err
        if case in self.prefixed:
            assert f"{_bad_file(case, tmp_path)}: {self.prefixed[case]}" in err

    def test_unwritable_out_names_the_given_path(self, tmp_path, example_files, capsys):
        # the same failure prints the same line, naming --out, not a temporary file
        argv = _argv("bounds_unwritable_out", tmp_path, example_files)
        errs = []
        for _ in range(2):
            assert main(argv) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == ("error: cannot write output: [Errno 2] No such file or "
                                      f"directory: '{tmp_path / 'missing' / 'report.txt'}'\n")

    @staticmethod
    def exit_code_sites(source):
        """``(function, site)`` for each ``return 2``, each ``except`` naming
        ``ConfigError`` and each ``except`` that returns an int, in the
        top-level functions of ``source``."""
        def returns_int(node):
            return isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) \
                and type(node.value.value) is int

        sites = []
        for func in ast.parse(source).body:
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if returns_int(node) and node.value.value == 2:
                    sites.append((func.name, "return 2"))
                elif isinstance(node, ast.ExceptHandler):
                    if node.type is not None and any(
                            isinstance(name, ast.Name) and name.id == "ConfigError"
                            for name in ast.walk(node.type)):
                        sites.append((func.name, "except ConfigError"))
                    if any(returns_int(inner) for inner in ast.walk(node)):
                        sites.append((func.name, "except returns an int"))
        return sites

    def test_only_main_maps_errors_to_exit_codes(self):
        # the subcommands raise, and main alone prints the error line and
        # picks the exit code
        assert self.exit_code_sites("def cmd_x():\n    try:\n        pass\n"
                                    "    except (OSError, ConfigError):\n        return 2\n"
                                    "    except ValueError:\n        return 3\n") \
            == [("cmd_x", "except ConfigError"), ("cmd_x", "except returns an int"),
                ("cmd_x", "except returns an int"), ("cmd_x", "return 2")]
        sites = self.exit_code_sites(Path(cli.__file__).read_text())
        assert [site for site in sites if site[0].startswith("cmd_")] == []
        assert [name for name, site in sites
                if site == "except returns an int" and name != "main"] == []
        assert ("main", "return 2") in sites  # the scan sees them at all
        assert ("main", "except returns an int") in sites


    @pytest.mark.parametrize("command", ["bounds", "invariance"])
    def test_dim_mismatch_names_both_dims(self, tmp_path, example_files, capsys, command):
        (tmp_path / "out").mkdir()
        assert main(_argv(f"{command}_dim_mismatch", tmp_path, example_files)) == 2
        assert capsys.readouterr().err == \
            "error: input rejected: state dim 4 vs channel dims 3, 4\n"


class TestRefusedFlags:
    # the (2, 1) search is always exact, so no --perm steers it, no --budget
    # sizes it and no seed feeds it: bounds takes no --seed, and verify's
    # --seed seeds its instances only; verify reports both readings, so it
    # takes no --s-reading.  Each flag is a usage error that writes nothing.
    @pytest.mark.parametrize("command, flag", [
        ("verify", ["--perm", "sampled"]), ("verify", ["--perm", "exhaustive"]),
        ("verify", ["--s-reading", "product"]), ("verify", ["--s-reading", "as-printed"]),
        ("bounds", ["--perm", "sampled"]), ("bounds", ["--budget", "3"]),
        ("bounds", ["--seed", "1"]), ("verify", ["--budget", "3"]),
        ("verify", ["--budget", "-1"])],
        ids=["verify_perm_sampled", "verify_perm_exhaustive", "verify_s_reading",
             "verify_s_reading_as_printed", "bounds_perm_sampled", "bounds_budget",
             "bounds_seed", "verify_budget", "verify_negative_budget"])
    def test_usage_error_and_exit_2(self, tmp_path, example_files, capsys, command, flag):
        state, ch1, ch2 = example_files
        argv = {"verify": ["verify", "--dims", "2", "--instances", "1"],
                "bounds": ["bounds", "--state", str(state), "--channel1", str(ch1),
                           "--channel2", str(ch2)]}[command]
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out", str(out / "r.txt"), *flag])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert f"usage: skewchain {command}" in err  # the subcommand's own usage
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["verify", "invariance"])
    def test_seed_still_seeds_the_instances(self, tmp_path, example_files, command):
        state, ch1, ch2 = example_files
        argv = {"verify": ["verify", "--dims", "2", "--instances", "2"],
                "invariance": ["invariance", "--state", str(state), "--channel1", str(ch1),
                               "--channel2", str(ch2), "--trials", "2"]}[command]
        out = tmp_path / "r.txt"
        assert main([*argv, "--seed", "7", "--out", str(out)]) == 0
        assert read_report(out)["seed"] == "7"


class TestGridLimit:
    # a grid count or a table's row count above cli._MAX_ROWS = 2^18 is
    # refused before any grid or table is built
    class Built(Exception):
        pass

    @pytest.fixture()
    def nothing_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise self.Built()

        monkeypatch.setattr(np, "linspace", refuse)
        monkeypatch.setattr(cli, "sweep", refuse)

    @pytest.mark.parametrize("flags, message", [
        (["--theta", "0:1:100000000000000000000"],
         "grid '0:1:100000000000000000000': count must be <= 262144"),
        (["--t", "0:1:262145"], "grid '0:1:262145': count must be <= 262144"),
        (["--p", "0:1:513", "--q", "0:1:512"],
         "the surface would have 262656 rows (--p x --q x --t) > 262144"),
        (["--p", "0:1:64", "--q", "0:1:64", "--t", "0:1:65"],
         "the surface would have 266240 rows (--p x --q x --t) > 262144"),
        (["--theta", "0:1:131073", "--t", "0:1:2", "--p", "0.5", "--q", "0.5"],
         "the curve would have 262146 rows (--theta x --t) > 262144"),
    ], ids=["theta_count", "t_count", "surface", "surface_over_t", "curve"])
    def test_example_refuses_oversized_tables(self, tmp_path, capsys, nothing_built,
                                              flags, message):
        out = tmp_path / "figs"
        assert main(["example", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--p", "0:1:512", "--q", "0:1:512"],
                                       ["--theta", "0:1:131072", "--t", "0:1:2",
                                        "--p", "0.5", "--q", "0.5"]],
                             ids=["defaults", "surface_at_limit", "curve_at_limit"])
    def test_example_tables_at_the_limit_get_through(self, tmp_path, monkeypatch, flags):
        def refuse(*args, **kwargs):
            raise self.Built()

        monkeypatch.setattr(cli, "sweep", refuse)
        with pytest.raises(self.Built):
            main(["example", *flags, "--out", str(tmp_path / "figs")])

    def test_bounds_refuses_an_oversized_t_grid(self, tmp_path, example_files, capsys,
                                                nothing_built):
        state, ch1, ch2 = example_files
        out = tmp_path / "r.txt"
        assert main(["bounds", "--state", str(state), "--channel1", str(ch1),
                     "--channel2", str(ch2), "--t", "0:1:262145", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: grid '0:1:262145': count must be <= 262144\n"
        assert not out.exists()


def _special_zeros(path):
    """Rewrite the document at ``path`` with each exact-zero matrix entry
    replaced, in turn, by an integer literal, -0.0 or a subnormal."""
    doc = json.loads(path.read_text())
    specials = iter([0, -0.0, 5e-324, -1e-310, 0.0] * 1000)

    def rewrite(obj):
        if isinstance(obj, list):
            return [rewrite(item) for item in obj]
        return next(specials) if obj == 0 else obj

    for key in ("matrix", "kraus"):
        if key in doc:
            doc[key] = rewrite(doc[key])
    path.write_text(json.dumps(doc, indent=1) + "\n")


class TestInputBytesArePinned:
    # sha256 of the outputs for inputs read from files, generated by the
    # program before the loaders decoded each document in one flat pass
    @staticmethod
    def instance(tmp_path, state, channels, special_zeros=False):
        files = [tmp_path / name for name in ("state.json", "ch1.json", "ch2.json")]
        save_state(files[0], state)
        for path, channel in zip(files[1:], channels):
            save_channel(path, channel)
        if special_zeros:
            for path in files:
                _special_zeros(path)
        return ["--state", str(files[0]), "--channel1", str(files[1]), "--channel2", str(files[2])]

    @staticmethod
    def random(d, n):
        return random_density(d, d // 2, seed=170 + d), (
            random_channel(d, n, Convention.COLUMN_SUM, seed=171 + d),
            random_channel(d, n, Convention.ROW_SUM, seed=172 + d))

    @staticmethod
    def digests(out):
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out.parent.iterdir())}

    @staticmethod
    def run_fresh(argv, blas_threads):
        """The CLI on ``argv`` in a fresh process, with BLAS pinned to
        ``blas_threads`` threads, or at its default thread count for None."""
        env = {name: value for name, value in os.environ.items()
               if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(skewchain.__file__).parents[1])
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        code = "import sys; from skewchain.cli import main; sys.exit(main(sys.argv[1:]))"
        subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True, timeout=300)

    BOUNDS_D32_SHA256 = {
        "r.csv": "f2a6d92a01e1d5be95c873a4ab3cd4a0f170396a0dd542302ef0cf2b8001517d",
        "r.txt": "d1d03e7b2cd3592082ae3969d7da9a14c098cff2e366b257043ebc1b40861c88"}

    @pytest.mark.parametrize("case", ["d32", "d4_special_zeros", "d1_t3", "d4_as_printed_t3"])
    def test_bounds(self, tmp_path, case):
        # d1_t3 runs no search: no perm_opt or mixed lines, and a nan perm_opt
        # in the CSV; d4_as_printed_t3 reports the as-printed optimum, and its
        # verdict checks the product one.  Both were pinned before ``bounds``
        # read its stage's columns in place of a per-instance record
        extra = []
        if case == "d32":
            inputs = self.instance(tmp_path, *self.random(32, 16))
        elif case == "d4_special_zeros":
            inputs = self.instance(tmp_path, rho_theta(0.9), example_channels(0.3, 0.7),
                                   special_zeros=True)
        elif case == "d1_t3":
            inputs = self.instance(tmp_path, random_density(1, 1, seed=171), (
                random_channel(1, 1, Convention.COLUMN_SUM, seed=172),
                random_channel(1, 1, Convention.ROW_SUM, seed=173)))
        else:
            inputs = self.instance(tmp_path, *self.random(4, 3))
            extra = ["--s-reading", "as-printed"]
        out = tmp_path / "out" / "r.txt"
        out.parent.mkdir()
        assert main(["bounds", *inputs, *extra, "--t", "0:1:3", "--out", str(out)]) == 0
        assert self.digests(out) == {
            "d32": self.BOUNDS_D32_SHA256,
            "d4_special_zeros": {
                "r.csv": "c7a6b221a2b14ac1232fdb75a1912770a392f733fd66173e639c8aa0d68717d2",
                "r.txt": "47a2360559d764b571d5026d363c0048890642d711790711ec13e008a6495a84"},
            "d1_t3": {
                "r.csv": "e40cc93d01934c76fb963c246018bfdbb0e1c0408099ff0d40d1ea351927a54c",
                "r.txt": "6de863057b2e70e4d8647474f67cdf21360600fc9ed2e826eb5bbc403fcf3f66"},
            "d4_as_printed_t3": {
                "r.csv": "61307bb014bc5f1778fe911bd8f06c05816bc647687e74a72f926ce079dd35dc",
                "r.txt": "e63599902ca5091527d94480e6eb24b54af760c9161442971def5a1940e2a01c"},
        }[case]

    @pytest.mark.parametrize("blas_threads", ["1", None])
    def test_bounds_bytes_do_not_depend_on_blas_threads(self, tmp_path, blas_threads):
        # d32 in a fresh process, at one BLAS thread as the benchmark runs it,
        # or at the default thread count; the inputs are written here, at the
        # default count, because the QR of random_channel at n d = 512 rows
        # gives other last bits at one thread
        inputs = self.instance(tmp_path, *self.random(32, 16))
        out = tmp_path / "out" / "r.txt"
        out.parent.mkdir()
        self.run_fresh(["bounds", *inputs, "--t", "0:1:3", "--out", str(out)], blas_threads)
        assert self.digests(out) == self.BOUNDS_D32_SHA256

    INVARIANCE_SHA256 = "121b9a4b0d2ad29eb8c4d19ddea162112af91767c892bc3b78b1ec91837199f0"

    def test_invariance(self, tmp_path):
        inputs = self.instance(tmp_path, *self.random(32, 8))
        out = tmp_path / "out" / "inv.txt"
        out.parent.mkdir()
        assert main(["invariance", *inputs, "--trials", "2", "--out", str(out)]) == 0
        assert self.digests(out) == {"inv.txt": self.INVARIANCE_SHA256}

    @pytest.mark.parametrize("blas_threads", ["1", None])
    def test_invariance_bytes_do_not_depend_on_blas_threads(self, tmp_path, blas_threads):
        # the run in a fresh process, with BLAS pinned to one thread or at its
        # default thread count
        inputs = self.instance(tmp_path, *self.random(32, 8))
        out = tmp_path / "out" / "inv.txt"
        out.parent.mkdir()
        self.run_fresh(["invariance", *inputs, "--trials", "2", "--out", str(out)], blas_threads)
        assert self.digests(out) == {"inv.txt": self.INVARIANCE_SHA256}


class TestPassesTheLoadedKrausStacks:
    @pytest.mark.parametrize("command", ["bounds", "invariance"])
    def test_chain_stage_reads_the_loaded_operators(self, tmp_path, monkeypatch, command):
        # the loaded families reach chain_stage as they were loaded, not as copies
        files = [tmp_path / name for name in ("state.json", "ch1.json", "ch2.json")]
        save_state(files[0], random_density(4, 3, seed=1))
        for path, seed in zip(files[1:], (2, 3)):
            save_channel(path, random_channel(4, 3, Convention.COLUMN_SUM, seed=seed))
        loaded, calls = [], []
        real_load, real_stage = cli.load_channel, chains.chain_stage

        def load(*args, **kwargs):
            loaded.append(real_load(*args, **kwargs))
            return loaded[-1]

        def stage(*args):
            calls.append(args)
            return real_stage(*args)

        monkeypatch.setattr(cli, "load_channel", load)
        for module in (cli, chains):
            monkeypatch.setattr(module, "chain_stage", stage)
        extra = ["--trials", "2"] if command == "invariance" else []
        assert main([command, "--state", str(files[0]), "--channel1", str(files[1]),
                     "--channel2", str(files[2]), "--out", str(tmp_path / "r.txt"), *extra]) == 0
        assert len(loaded) == 2 and calls
        assert any(np.shares_memory(args[1], loaded[0].operators)
                   and np.shares_memory(args[2], loaded[1].operators) for args in calls)


class TestDerivesEachInstanceOnce:
    # chain_stage computes every chain quantity of an instance in its one
    # pass; the readers (verdict, invariance base, sweeps, report) only read it
    @staticmethod
    def counting(monkeypatch):
        """The instance count of each call, per kernel."""
        calls = {"_i_values": [], "_lattice_values": [], "_optimize": []}
        for name in calls:
            real = getattr(chains, name)

            def counted(*args, _name=name, _real=real):
                calls[_name].append(len(args[0]))
                return _real(*args)

            monkeypatch.setattr(chains, name, counted)
        return calls

    def test_verify(self, tmp_path, monkeypatch):
        calls = self.counting(monkeypatch)
        assert main(["verify", "--dims", "2", "--instances", "2",
                     "--out", str(tmp_path / "v.txt")]) == 0
        # two passes for the chunk, whose instances have the Kraus counts
        # (1, 1) and (2, 1): both instances, then their invariance trials;
        # both readings per pass, and one (2, 1) search over the two instances
        assert calls == {"_i_values": [2, 2], "_lattice_values": [2, 2, 2, 2], "_optimize": [2]}

    def test_bounds(self, tmp_path, example_files, monkeypatch):
        # the report's optimum is the one the verdict checks, so one (2, 1)
        # search serves both
        state, ch1, ch2 = example_files
        calls = self.counting(monkeypatch)
        assert main(["bounds", "--state", str(state), "--channel1", str(ch1),
                     "--channel2", str(ch2), "--out", str(tmp_path / "r.txt")]) == 0
        assert calls == {"_i_values": [1], "_lattice_values": [1, 1], "_optimize": [1]}

    def test_bounds_as_printed(self, tmp_path, example_files, monkeypatch):
        # the report's optimum is the as-printed one, and the verdict checks
        # the product reading's: one search per reading
        state, ch1, ch2 = example_files
        calls = self.counting(monkeypatch)
        assert main(["bounds", "--state", str(state), "--channel1", str(ch1),
                     "--channel2", str(ch2), "--s-reading", "as-printed",
                     "--out", str(tmp_path / "r.txt")]) == 0
        assert calls == {"_i_values": [1], "_lattice_values": [1, 1], "_optimize": [1, 1]}

    def test_example(self, tmp_path, monkeypatch):
        calls = self.counting(monkeypatch)
        frames = []  # the instance count of each frame_stack call
        real = skew.frame_stack

        def counted(sqrt_rhos, operators):
            frames.append(len(sqrt_rhos))
            return real(sqrt_rhos, operators)

        for module in (chains, example):
            monkeypatch.setattr(module, "frame_stack", counted)
        assert main(["example", "--theta", "0:1:3", "--p", "0:1:12", "--q", "0:1:12",
                     "--out", str(tmp_path / "figs")]) == 0
        # passes of at most 128 points: the 144-point surface, the 3-point
        # curve, then the report's 3 x 9 x 9 subsampled grid; the report reads
        # no I value, so it computes none
        blocks = [128, 16, 3, 128, 115]
        assert calls == {"_i_values": [128, 16, 3],
                         "_lattice_values": [n for n in blocks for _ in range(2)],
                         "_optimize": []}
        # each family's frames once per distinct (theta, p) and (theta, q)
        assert frames == [12, 12, 3, 3, 27, 27]


class TestGeneratesEachChunkInFixedPasses:
    # verify_instances hashes a chunk's seeds once per derivation level, whatever
    # Kraus counts it holds: the derived seeds, four parts per instance; the
    # trials' unitary seeds with the words of every state and channel; the
    # trials' unitaries' words.  Each generator draws its real and imaginary
    # parts in one call.
    @staticmethod
    def passes_and_draws(monkeypatch):
        """The entropy count of each hash pass of a 20-instance chunk at d = 3,
        and the generators that drew Gaussians, in draw order."""
        passes = []
        real = objects.seeding_words

        def counted(entropies, *args):
            passes.append(len(entropies))
            return real(entropies, *args)

        drawn = []

        class Counted(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                drawn.append(self)
                return super().standard_normal(*args, **kwargs)

        monkeypatch.setattr(objects, "seeding_words", counted)
        monkeypatch.setattr(np.random, "Generator", Counted)
        # at d = 3 both channels of the 20 instances take each Kraus count 1..4
        objects.verify_instances(5, 3, range(20))
        return passes, drawn

    def test_verify_chunk(self, monkeypatch):
        passes, drawn = self.passes_and_draws(monkeypatch)
        assert passes == [4 * 20, 2 * 20 + 3 * 20, 2 * 20]
        # one draw by each state, channel and trial unitary's generator
        assert len(drawn) == len({id(gen) for gen in drawn}) == 5 * 20


class TestVerify:
    def test_small_suite_passes(self, tmp_path):
        out = tmp_path / "verdict.txt"
        code = main(["verify", "--dims", "2,3", "--instances", "5", "--seed", "42",
                     "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert report["hard_passed"] == "True"
        assert report["hard_failures"] == "0"
        assert int(report["instances_total"]) == 10
        assert "check.anchor_endpoint_eq_cross_term[product].worst_deviation" in report
        assert "check.anchor_endpoint_eq_cross_term[as_printed].worst_deviation" in report

    def test_small_suite_matches_the_benchmark_golden(self, tmp_path):
        # the byte contract of the verdict, at the benchmark's verify-small configuration
        golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "verify-small.txt"
        out = tmp_path / "verdict.txt"
        assert main(["verify", "--instances", "40", "--seed", "0", "--out", str(out)]) == 0
        assert out.read_bytes() == golden.read_bytes()

    def test_builds_no_state_or_channel_object(self, tmp_path, monkeypatch):
        # the generators and the Kraus mixing return stacks, which verify
        # reads as they are: no DensityMatrix or KrausChannel is built
        def refuse(*args, **kwargs):
            raise AssertionError("verify built a state or channel object")

        argv = ["verify", "--dims", "3", "--instances", "20"]
        want = tmp_path / "want.txt"
        assert main(argv + ["--out", str(want)]) == 0
        for module in (skewchain, chains, cli, example, objects, skew):
            for name in ("DensityMatrix", "KrausChannel"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        out = tmp_path / "verdict.txt"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == want.read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        argv = ["verify", "--dims", "2,3", "--instances", "4", "--seed", "7"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_spellings_of_one_dims_list_give_the_same_bytes(self, tmp_path):
        # the verdict names the parsed dims, not the flag's text
        verdicts = []
        for k, dims in enumerate(["2,3", " 2, 3", "2,,3,", "0_2,3"]):
            out = tmp_path / f"v{k}.txt"
            assert main(["verify", "--dims", dims, "--instances", "2", "--out", str(out)]) == 0
            verdicts.append(out.read_bytes())
        assert verdicts == verdicts[:1] * 4
        assert read_report(tmp_path / "v0.txt")["dims"] == "2,3"

    def test_absurdly_small_tol_exits_1(self, tmp_path):
        out = tmp_path / "verdict.txt"
        code = main(["verify", "--dims", "3", "--instances", "3", "--seed", "1",
                     "--tol", "1e-18", "--out", str(out)])
        assert code == 1
        assert out.exists()
        report = read_report(out)
        assert report["hard_passed"] == "False"

    # SeedSequence splits a seed into 32-bit words, so any non-negative seed works
    @pytest.mark.parametrize("seed", [2 ** 64, 10 ** 23])
    def test_seeds_of_several_words_exit_0(self, tmp_path, seed):
        argv = ["verify", "--dims", "1,2,3", "--instances", "6", "--seed", str(seed)]
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        assert main(argv + ["--out", str(got)]) == 0
        assert oracle_cmd_verify(build_parser().parse_args(argv + ["--out", str(want)])) == 0
        assert got.read_bytes() == want.read_bytes()

    def test_zero_instances_exits_2(self, tmp_path):
        code = main(["verify", "--dims", "2", "--instances", "0",
                     "--out", str(tmp_path / "v.txt")])
        assert code == 2

    def test_bad_dims_exits_2(self, tmp_path):
        code = main(["verify", "--dims", "", "--instances", "3",
                     "--out", str(tmp_path / "v.txt")])
        assert code == 2

    @pytest.mark.parametrize("dims", ["18446744073709551616", str(2 ** 63 - 1), "129", "2,129"])
    def test_oversized_dims_are_refused_before_any_allocation(self, tmp_path, capsys,
                                                               monkeypatch, dims):
        # one instance's d x d state must fit in one chunk of CHUNK_ENTRIES
        # entries, so d is at most 128; no state of any listed d is generated
        class Allocated(Exception):
            pass

        def refuse(d, *args):
            raise Allocated(d)

        monkeypatch.setattr(objects, "densities_from_words", refuse)
        out = tmp_path / "v.txt"
        assert main(["verify", "--dims", dims, "--instances", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: bad dims list {dims!r}: need integers in 1..128\n"
        assert not out.exists()
        with pytest.raises(Allocated) as info:  # the largest accepted dimension gets through
            main(["verify", "--dims", "128", "--instances", "1", "--out", str(out)])
        assert info.value.args == (128,)

    @pytest.mark.parametrize("dims, repeated", [("2,2", 2), ("3,2,4,02", 2), ("1, 5,1", 1)])
    def test_repeated_dims_are_refused_before_any_allocation(self, tmp_path, capsys,
                                                             monkeypatch, dims, repeated):
        # a repeated dimension's instances are one set, certified once, so
        # counting them twice would overstate instances_total
        def refuse(*args):
            raise AssertionError("a state was generated")

        monkeypatch.setattr(objects, "densities_from_words", refuse)
        out = tmp_path / "v.txt"
        assert main(["verify", "--dims", dims, "--instances", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: bad dims list {dims!r}: dimension {repeated} is repeated\n"
        assert not out.exists()


class TestExampleCommand:
    def test_small_grids_write_all_artifacts(self, tmp_path):
        out = tmp_path / "figs"
        code = main(["example", "--out", str(out), "--theta", "0:1:5",
                     "--p", "0:1:4", "--q", "0:1:4"])
        assert code == 0
        for name in ("figure1.csv", "figure2.csv", "figure3.csv", "figure4.csv",
                     "discrepancy_report.csv"):
            assert (out / name).exists()
        fig1 = (out / "figure1.csv").read_text().splitlines()
        assert fig1[0] == CSV_HEADER
        assert len(fig1) == 1 + 4 * 4          # theta fixed at 1, p x q grid
        fig3 = (out / "figure3.csv").read_text().splitlines()
        assert len(fig3) == 1 + 5              # theta grid, p = q = 1/2

    def test_single_point_midpoint_grid(self, tmp_path):
        out = tmp_path / "figs"
        code = main(["example", "--out", str(out), "--theta", "0.5:0.5:1",
                     "--p", "0.5:0.5:1", "--q", "0.5:0.5:1"])
        assert code == 0
        fig3 = (out / "figure3.csv").read_text().splitlines()
        assert len(fig3) == 2
        fields = fig3[1].split(",")
        idx = CSV_HEADER.split(",").index("product")
        assert float(fields[idx]) == 0.0

    def test_out_of_range_grid_exits_2(self, tmp_path):
        code = main(["example", "--out", str(tmp_path / "figs"), "--theta", "0:1.5:3"])
        assert code == 2

    def test_small_grids_match_the_benchmark_golden(self, tmp_path):
        # the byte contract of the example CSVs, at the benchmark's example-small grids
        golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "example-small.json"
        manifest = json.loads(golden.read_text())
        out = tmp_path / "figs"
        assert main(["example", "--theta", "0:1:21", "--p", "0:1:11", "--q", "0:1:11",
                     "--out", str(out)]) == 0
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in manifest} == manifest

    def test_default_grids_match_the_pinned_digests(self, tmp_path):
        # the byte contract of the example CSVs, at the CLI's default grids
        out = tmp_path / "figs"
        assert main(["example", "--out", str(out)]) == 0
        surface = "d07c930084c99eb6e04e79ced1e7f631d140c520f0f166792c4bb92a8f06f47c"
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in out.iterdir()} == {
            "figure1.csv": surface, "figure2.csv": surface, "figure4.csv": surface,
            "figure3.csv": "ae8ba68c07ba2a7f0c958f1597a421499f8180b98c8a0bba2c3dbc5284014c5b",
            "discrepancy_report.csv":
                "61615afca0e58e31cfdc45a32dd59a1d737baff60f374a8e18994beacbe7b695"}

    def test_small_grids_build_no_per_point_object(self, tmp_path, monkeypatch):
        # the sweeps and the report validate their states and channels as
        # arrays and read stages: no channel, state, grid point or chain object
        def refuse(*args, **kwargs):
            raise AssertionError("example built a per-point object")

        for module, name in ((objects, "KrausChannel"), (objects, "DensityMatrix"),
                             (chains, "compute_chain")):
            monkeypatch.setattr(module, name, refuse)
        golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "example-small.json"
        manifest = json.loads(golden.read_text())
        out = tmp_path / "figs"
        assert main(["example", "--theta", "0:1:21", "--p", "0:1:11", "--q", "0:1:11",
                     "--out", str(out)]) == 0
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in manifest} == manifest

    @pytest.mark.parametrize("case", ["as-printed", "as-printed-t3", "as-printed-11x7x5"])
    def test_failing_grids_keep_count_and_bytes(self, tmp_path, capsys, case):
        # exit code, failure count and CSV bytes where hard invariants fail, on
        # the t axis and on an 11 x 7 x 5 grid
        run = json.loads(Path(__file__).with_name("example_failing_runs.json").read_text())[case]
        out = tmp_path / "figs"
        assert main(["example", *run["argv"], "--out", str(out)]) == run["exit"]
        assert capsys.readouterr().err == run["stderr"]
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in run["sha256"]} == run["sha256"]
        assert sorted(path.name for path in out.iterdir()) == sorted(run["sha256"])

    @pytest.mark.parametrize("flag", [["--perm", "sampled"], ["--budget", "3"], ["--seed", "1"],
                                      ["--budget", "-1"]],
                             ids=["perm", "budget", "seed", "negative_budget"])
    def test_search_flags_are_refused(self, tmp_path, capsys, flag):
        # perm_opt is S21 on this family for every label pair, so no search
        # runs and none of the flags that steer one is taken
        out = tmp_path / "figs"
        with pytest.raises(SystemExit) as info:
            main(["example", "--theta", "0.5", "--p", "0.5", "--q", "0.5", "--out", str(out),
                  *flag])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert "usage: skewchain example" in err  # the subcommand's own usage
        assert not out.exists()


# (d, n1, n2, trials, CHUNK_ENTRIES or None): after the unmixed stage, the
# trials in one pass; in passes of 2 (a patched constant), the
# last one partial; of 32, then 8; of 4, then 1; of 4, then 1, at d = 32; of
# one each
INVARIANCE_CASES = [(4, 4, 3, 20, None), (4, 3, 2, 9, 96), (8, 8, 5, 40, None),
                    (16, 16, 9, 5, None), (32, 4, 3, 5, None), (32, 16, 8, 2, None)]


def one_trial_at_a_time(rho, ch1, ch2, trials, seed):
    """The invariance deviations computed trial by trial: the columns of the
    ``compute_chain`` stage of the ``mix_kraus``ed channels of each trial, both
    readings, and Python's ``max`` of ``|mixed - base|`` per quantity."""
    def values(a, b):
        stage = compute_chain(rho, a, b)
        return {"product": stage.products.tolist(), "sum": stage.sums.tolist(),
                "i_values": stage.i_values[0].tolist(),
                "s_values": stage.lattices[Reading.PRODUCT][0].tolist(),
                "s_values_as_printed": stage.lattices[Reading.AS_PRINTED][0].tolist(),
                "cross_term": stage.cross_terms.tolist()}

    base = values(ch1, ch2)
    devs = dict.fromkeys(base, 0.0)
    derived = iter(objects.derive_seeds(objects.trial_entropies([seed], range(trials))))
    for u, v in zip(derived, derived):
        mixed = values(mix_kraus(ch1, random_unitary(ch1.n, u)),
                       mix_kraus(ch2, random_unitary(ch2.n, v)))
        for name in base:
            devs[name] = max([devs[name], *(abs(a - b) for a, b in zip(mixed[name], base[name]))])
    return devs


class TestInvariance:
    def test_worked_example_passes(self, tmp_path, example_files):
        state, ch1, ch2 = example_files
        out = tmp_path / "inv.txt"
        code = main(["invariance", "--state", str(state), "--channel1", str(ch1),
                     "--channel2", str(ch2), "--trials", "20", "--seed", "3",
                     "--tol", "1e-9", "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert report["passed"] == "True"
        assert float(report["max_deviation"]) <= 1e-9

    def test_zero_tol_exits_1(self, tmp_path):
        # floating noise in the mixed recomputation always exceeds tol = 0
        state = tmp_path / "state.json"
        save_state(state, random_density(3, 3, seed=5))
        c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
        save_channel(c1, random_channel(3, 3, Convention.COLUMN_SUM, seed=6))
        save_channel(c2, random_channel(3, 2, Convention.COLUMN_SUM, seed=7))
        out = tmp_path / "inv.txt"
        code = main(["invariance", "--state", str(state), "--channel1", str(c1),
                     "--channel2", str(c2), "--trials", "3", "--seed", "8",
                     "--tol", "0", "--out", str(out)])
        assert code == 1

    def test_seeds_trials_in_two_passes(self, tmp_path, monkeypatch):
        # each pass of trials hashes its unitary seeds in one hash pass and
        # their generators' words in a second; here the 20 trials are one
        # pass.  The report keeps the bytes of the one-unitary-at-a-time loop
        files = [tmp_path / name for name in ("state.json", "c1.json", "c2.json")]
        save_state(files[0], random_density(4, 2, seed=31))
        save_channel(files[1], random_channel(4, 3, Convention.COLUMN_SUM, seed=32))
        save_channel(files[2], random_channel(4, 2, Convention.ROW_SUM, seed=33))
        argv = ["invariance", "--state", str(files[0]), "--channel1", str(files[1]),
                "--channel2", str(files[2]), "--trials", "20", "--seed", "9"]
        passes = []
        real = objects.seeding_words

        def counted(entropies, *args):
            entropies = list(entropies)
            passes.append(len(entropies))
            return real(entropies, *args)

        with monkeypatch.context() as patched:
            for module in (objects, chains):  # each module's binding of the one kernel
                patched.setattr(module, "seeding_words", counted)
            assert main(argv + ["--out", str(tmp_path / "got.txt")]) == 0
        assert passes == [40, 40]

        monkeypatch.setattr(cli, "kraus_invariance_check", one_trial_at_a_time)
        assert main(argv + ["--out", str(tmp_path / "want.txt")]) == 0
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()

    @staticmethod
    def case(monkeypatch, d, n1, n2, trials, entries):
        """The instance of a ``test_matches_one_trial_at_a_time`` case and the
        oracle's deviations on it."""
        if entries is not None:
            monkeypatch.setattr(chains, "CHUNK_ENTRIES", entries)
        rho = random_density(d, max(1, d // 2), seed=40 + d)
        ch1 = random_channel(d, n1, Convention.COLUMN_SUM, seed=41 + d)
        ch2 = random_channel(d, n2, Convention.ROW_SUM, seed=42 + d)
        return (rho, ch1, ch2), one_trial_at_a_time(rho, ch1, ch2, trials, d)

    @staticmethod
    def assert_same_deviations(got, want):
        assert [(name, repr(v)) for name, v in got.items()] == \
            [(name, repr(v)) for name, v in want.items()]

    @pytest.mark.parametrize("d, n1, n2, trials, entries", INVARIANCE_CASES)
    def test_matches_one_trial_at_a_time(self, monkeypatch, d, n1, n2, trials, entries):
        instance, want = self.case(monkeypatch, d, n1, n2, trials, entries)
        sizes, drawn = [], []  # the instance count of each stage pass, of each unitary stack
        real_stage, real_unitaries = chains.chain_stage, chains.unitaries_from_words

        def counted(roots, ops1, ops2):
            sizes.append(len(roots))
            return real_stage(roots, ops1, ops2)

        def counted_unitaries(n, words):
            drawn.append(len(words))
            return real_unitaries(n, words)

        monkeypatch.setattr(chains, "chain_stage", counted)
        monkeypatch.setattr(chains, "unitaries_from_words", counted_unitaries)
        got = chains.kraus_invariance_check(*instance, trials, seed=d)
        block = max(1, chains.CHUNK_ENTRIES // (max(n1, n2) * d * d))
        trial_passes = [block] * (trials // block) + [trials % block] * (trials % block > 0)
        # the passes may run in any order on several CPUs; each draws its
        # own trials' unitaries, one stack per side
        assert sorted(sizes) == sorted([1] + trial_passes)
        assert sorted(drawn) == sorted(trial_passes * 2)
        self.assert_same_deviations(got, want)

    @pytest.mark.parametrize("d, n1, n2, trials, entries", INVARIANCE_CASES)
    def test_same_bytes_on_any_cpu_count(self, monkeypatch, d, n1, n2, trials, entries):
        instance, want = self.case(monkeypatch, d, n1, n2, trials, entries)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(chains, "_cpus", lambda: cpus)
            self.assert_same_deviations(chains.kraus_invariance_check(*instance, trials, seed=d), want)

    def test_one_cpu_or_one_pass_starts_no_thread(self, monkeypatch):
        d, _, _, trials, _ = case = INVARIANCE_CASES[1]  # five passes of trials
        instance, want = self.case(monkeypatch, *case)

        def refused(*args, **kwargs):
            raise AssertionError("a thread was constructed")

        monkeypatch.setattr(chains, "_cpus", lambda: 1)
        monkeypatch.setattr(threading, "Thread", refused)
        self.assert_same_deviations(chains.kraus_invariance_check(*instance, trials, seed=d), want)
        monkeypatch.setattr(chains, "_cpus", lambda: 3)
        assert chains._run_passes(lambda k: k + 10, 1) == [10]

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_caller_runs_passes_beside_at_most_cpus_minus_one_helpers(self, monkeypatch, cpus):
        real_thread, started = threading.Thread, []

        def counted(*args, **kwargs):
            started.append(real_thread(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(chains, "_cpus", lambda: cpus)
        monkeypatch.setattr(threading, "Thread", counted)
        # each of the first ``cpus`` passes waits for all of them, so they run
        # on ``cpus`` threads at once: the helpers and the caller
        barrier, ran_on = threading.Barrier(cpus, timeout=30), {}

        def run(k):
            if k < cpus:
                barrier.wait()
            ran_on[k] = threading.get_ident()
            return k + 10

        assert chains._run_passes(run, 2 * cpus) == [k + 10 for k in range(2 * cpus)]
        assert len(started) == cpus - 1 and not any(t.is_alive() for t in started)
        assert threading.get_ident() in ran_on.values()
        for count in range(1, cpus + 2):
            started.clear()
            assert chains._run_passes(lambda k: k, count) == list(range(count))
            assert len(started) == min(cpus, count) - 1

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_lowest_failing_pass_raises_and_no_thread_outlives(self, monkeypatch, cpus):
        # passes 2 and 4 fail, pass 2 after pass 4 in time where they overlap;
        # pass 2's error surfaces as in the serial loop, after every helper ended
        d, _, _, trials, _ = case = INVARIANCE_CASES[1]  # five passes of trials
        instance, _ = self.case(monkeypatch, *case)
        monkeypatch.setattr(chains, "_cpus", lambda: cpus)
        real = chains._run_passes
        done = []

        def failing(run, count):
            def run_k(k):
                if k == 2:
                    time.sleep(0.005)
                if k in (2, 4):
                    raise ValueError(f"pass {k}")
                stage = run(k)
                done.append(k)
                return stage

            return real(run_k, count)

        monkeypatch.setattr(chains, "_run_passes", failing)
        before = threading.enumerate()
        for _ in range(20):
            done.clear()
            with pytest.raises(ValueError, match="^pass 2$"):
                chains.kraus_invariance_check(*instance, trials, seed=d)
            assert threading.enumerate() == before
            assert {0, 1} <= set(done)
            if cpus == 1:
                assert done == [0, 1]

    def test_memory_barely_grows_with_the_trials(self, monkeypatch):
        # each pass's stage is dropped once its row of deviations is taken, so
        # only the trials' seeds and rows grow with the trial count.  At d = 32
        # with two Kraus operators a side, a pass holds 8 trials, and a stage
        # holds about 25 KiB per trial: keeping every pass's stage until one
        # final fold peaked about 2 990 KiB higher at 128 trials than at 8,
        # and the fold per pass 45 KiB.  The bound is 1 KiB per added trial.
        monkeypatch.setattr(chains, "_cpus", lambda: 1)  # one pass in flight
        instance = (random_density(32, 32, seed=61),
                    random_channel(32, 2, Convention.COLUMN_SUM, seed=62),
                    random_channel(32, 2, Convention.ROW_SUM, seed=63))
        chains.kraus_invariance_check(*instance, 8, seed=0)  # caches filled before measuring
        peaks = []
        for trials in (8, 128):
            tracemalloc.start()
            try:
                chains.kraus_invariance_check(*instance, trials, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < (128 - 8) * 1024

    def test_seeding_memory_does_not_grow_with_the_trials(self, monkeypatch):
        # each pass seeds its own trials, so no seed or word of a later pass
        # exists before it runs.  At d = 32 with two Kraus operators a side
        # (8 trials per pass), seeding every trial up front peaked about
        # 330 KiB higher at 1 024 trials than at 8, and seeding per pass
        # 47 KiB: each of the 128 passes keeps its row of six deviations
        # until the final fold.  The bound is 96 KiB in all
        monkeypatch.setattr(chains, "_cpus", lambda: 1)  # one pass in flight
        instance = (random_density(32, 32, seed=61),
                    random_channel(32, 2, Convention.COLUMN_SUM, seed=62),
                    random_channel(32, 2, Convention.ROW_SUM, seed=63))
        chains.kraus_invariance_check(*instance, 8, seed=0)  # caches filled before measuring
        peaks = []
        for trials in (8, 1024):
            tracemalloc.start()
            try:
                chains.kraus_invariance_check(*instance, trials, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 96 * 1024, peaks

    def test_channels_at_the_completeness_tolerance_pass(self, tmp_path):
        # invariance loads its inputs at 1e-9.  Each channel here is scaled to
        # a residual just within it, so a mixed family's residual, the input's
        # plus rounding, may exceed 1e-9: mixing keeps completeness, and it is
        # not checked again
        files = [tmp_path / name for name in ("state.json", "c1.json", "c2.json")]
        save_state(files[0], random_density(4, 4, seed=1))
        for path, seed in zip(files[1:], (2, 3)):
            ops = np.array(random_channel(4, 4, Convention.COLUMN_SUM, seed=seed).operators)
            lo, hi = 1.0, 1.0 + 2e-9  # the largest scale whose residual is at most 1e-9
            for _ in range(60):
                mid = (lo + hi) / 2
                if completeness_residual(ops * np.sqrt(mid), Convention.COLUMN_SUM) <= 1e-9:
                    lo = mid
                else:
                    hi = mid
            save_channel(path, validate_channel(ops * np.sqrt(lo), Convention.COLUMN_SUM, 1e-9))
        out = tmp_path / "inv.txt"
        assert main(["invariance", "--state", str(files[0]), "--channel1", str(files[1]),
                     "--channel2", str(files[2]), "--trials", "20", "--out", str(out)]) == 0
        assert read_report(out)["passed"] == "True"

    def test_zero_trials_exits_2(self, tmp_path, example_files):
        state, ch1, ch2 = example_files
        code = main(["invariance", "--state", str(state), "--channel1", str(ch1),
                     "--channel2", str(ch2), "--trials", "0",
                     "--out", str(tmp_path / "inv.txt")])
        assert code == 2

    def test_too_many_trials_exits_2_before_any_allocation(self, tmp_path, example_files,
                                                           capsys, monkeypatch):
        # the refusal comes before the inputs are loaded or any trial is seeded
        def refused(*args, **kwargs):
            raise AssertionError("work done before the refusal")

        state, ch1, ch2 = example_files
        argv = ["invariance", "--state", str(state), "--channel1", str(ch1),
                "--channel2", str(ch2), "--out", str(tmp_path / "inv.txt"), "--trials"]
        with monkeypatch.context() as patched:
            patched.setattr(chains, "trial_entropies", refused)
            patched.setattr(cli, "_load_instance", refused)
            assert main(argv + [str(2 ** 18 + 1)]) == 2
        assert capsys.readouterr().err == f"error: trials must be <= {2 ** 18}\n"
        assert not (tmp_path / "inv.txt").exists()
        # the bound itself is accepted; no trial runs here
        monkeypatch.setattr(cli, "kraus_invariance_check",
                            lambda rho, ch1, ch2, trials, seed: {"product": float(trials)})
        assert main(argv + [str(2 ** 18)]) == 1  # 2^18 > tol
        assert read_report(tmp_path / "inv.txt")["trials"] == str(2 ** 18)

    @pytest.mark.parametrize("flag", [["--perm", "sampled"], ["--budget", "3"],
                                      ["--s-reading", "product"]])
    def test_search_and_reading_flags_are_refused(self, tmp_path, example_files, capsys, flag):
        # the check reports both readings and runs no search, so it takes none
        # of the flags that steer one
        state, ch1, ch2 = example_files
        out = tmp_path / "inv.txt"
        with pytest.raises(SystemExit) as info:
            main(["invariance", "--state", str(state), "--channel1", str(ch1),
                  "--channel2", str(ch2), "--trials", "1", "--out", str(out), *flag])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert "usage: skewchain invariance" in err  # the subcommand's own usage
        assert not out.exists()
