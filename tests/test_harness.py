"""Experiment harness: config round trips, reports, every mode runner, CLI,
and the package's public surface."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import gapchain
import gapchain.partition as partition_mod
from gapchain import harness
from gapchain.cli import main
from gapchain.harness import MODES, ExperimentConfig, Report, _jsonable, run_experiment
from gapchain.maier import GapChainCertificate, verify_certificate
from gapchain.weights import WeightTable


def make_config(mode, seed=0, **sections):
    cfg = ExperimentConfig(mode=mode, seed=seed)
    for name, body in sections.items():
        for key, value in body.items():
            cfg.set(name, key, value)
    return cfg


class TestExperimentConfig:
    def test_typed_getters(self):
        cfg = make_config(
            "gk",
            gk={"limit": "2000", "blank": "  "},
            lists={"orders": "1, 2 5"},
        )
        assert cfg.getint("gk", "limit", 7) == 2_000
        assert cfg.getint("gk", "missing", 7) == 7
        assert cfg.get("gk", "blank", "fallback") == "fallback"
        assert cfg.getfloat("gk", "limit", 0.0) == 2_000.0
        assert cfg.getints("lists", "orders", None) == (1, 2, 5)
        assert cfg.getints("lists", "missing", (9,)) == (9,)

    def test_run_section_parsing(self):
        cfg = ExperimentConfig.from_ini(
            "[run]\nmode = primes\nseed = 4\nout = somewhere\n"
        )
        assert (cfg.mode, cfg.seed, cfg.out_dir) == ("primes", 4, "somewhere")

    def test_unknown_run_key_is_rejected(self):
        # a misspelt seed must not fall back to seed 0 without a word
        with pytest.raises(ValueError, match="sed"):
            ExperimentConfig.from_ini("[run]\nmode = gk\nsed = 5\n")
        with pytest.raises(ValueError, match="toy"):
            ExperimentConfig.from_ini("[run]\nmode = gk\ntoy = false\n")
        # [DEFAULT] keys reach the sections that know them
        cfg = ExperimentConfig.from_ini(
            "[DEFAULT]\nlimit = 9\n\n[run]\nmode = gk\n\n[gk]\nk = 2\n"
        )
        assert cfg.getint("gk", "limit", 0) == 9 and cfg.getint("gk", "k", 0) == 2

    @pytest.mark.parametrize(
        "ini, message",
        [
            ("[weights]\nthetta = 0.5\n", "unknown [weights] key(s) thetta"),
            ("[gk]\nextra = 1\nlimit = 9\n", "unknown [gk] key(s) extra;"),
            ("[maier]\nx = 150\nseed = 5\n", "unknown [maier] key(s) seed"),
            ("[weigths]\ntheta = 0.5\n", "unknown section [weigths]"),
            ("[DEFAULT]\nlimt = 9\n", "unknown [DEFAULT] key(s) limt"),
        ],
    )
    def test_unknown_section_key_is_rejected(self, ini, message):
        # a misspelt key must not run at its default without a word
        with pytest.raises(ValueError) as info:
            ExperimentConfig.from_ini("[run]\nmode = gk\n" + ini)
        assert message in str(info.value)

    def test_known_keys_are_the_keys_the_modes_read(self, tmp_path, monkeypatch):
        reads = set()
        get = ExperimentConfig.get

        def recorded(cfg, section, key, default=None):
            reads.add((section, key.lower()))
            return get(cfg, section, key, default)

        monkeypatch.setattr(ExperimentConfig, "get", recorded)
        small = {
            "primes": {"primes": {"limit": 2000, "gk_limit": 500}},
            "sieve": {"partition": {"x": 200}},
            "weights": {"partition": {"x": 200}, "weights": {"theta": 0.5}},
            "construct": {
                "partition": {"x": 200},
                "weights": {"theta": 0.5},
                "construct": {"max_q": 16},
            },
            "cover": {"cover": {"n_elements": 500, "n_covers": 50}},
            "maier": {"maier": {"trials": 5, "stat_trials": 5, "soundness_draws": 10}},
            "gk": {"gk": {"limit": 500}},
            "verify": {"verify": {"certificate": tmp_path / "missing.json"}},
        }
        assert set(small) == set(MODES)
        for mode, sections in small.items():
            run_experiment(make_config(mode, **sections))
        assert reads == {
            (name, key) for name, keys in harness._SECTION_KEYS.items() for key in keys
        }

    def test_keys_are_case_insensitive(self, monkeypatch):
        # configparser lowercases INI keys; set and the getters follow it
        ini = ExperimentConfig.from_ini(
            "[run]\nmode = sieve\n[partition]\nSmall_Low = 40\n"
        )
        assert ini.sections["partition"] == {"small_low": "40"}
        flag = make_config("sieve", partition={"Small_Low": 40})
        assert flag.sections == ini.sections
        for cfg in (ini, flag):
            assert cfg.getfloat("partition", "Small_Low", 32.0) == 40.0
            assert cfg.getfloat("partition", "small_low", 32.0) == 40.0
        # and the value reaches derive_parameters, which the sieve runner
        # imports from partition when it runs
        seen = []
        derive = partition_mod.derive_parameters

        def recorded(x, **kwargs):
            seen.append(kwargs["small_low"])
            return derive(x, **kwargs)

        monkeypatch.setattr(partition_mod, "derive_parameters", recorded)
        harness._build_partition(ini)
        assert seen == [40.0]

    def test_from_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[run]\nmode = gk\nseed = 2\n\n[gk]\nlimit = 500\n")
        cfg = ExperimentConfig.from_file(path)
        assert cfg.mode == "gk" and cfg.seed == 2
        assert cfg.getint("gk", "limit", 0) == 500


class TestJsonable:
    def test_conversions(self):
        out = _jsonable(
            {
                3: np.int64(5),
                "arr": np.arange(3),
                "frac": Fraction(2, 3),
                "nested": (1, [2, np.float64(0.5)]),
            }
        )
        assert out == {
            "3": 5,
            "arr": [0, 1, 2],
            "frac": "2/3",
            "nested": [1, [2, 0.5]],
        }
        with pytest.raises(TypeError):
            _jsonable({"bad": object()})


class TestReport:
    def sample(self):
        return Report(
            mode="demo",
            config={"mode": "demo", "seed": 0},
            metrics={"family": {"b": 1, "a": 2}, "scalar": 3,
                     "deep": {"x": {"y": 1}}},
            checks=[
                {"name": "one", "passed": True, "detail": "fine"},
                {"name": "two", "passed": False, "detail": "broke"},
            ],
            timings={"total": 0.5},
        )

    def test_metrics_json_shape(self):
        report = self.sample()
        text = report.metrics_json()
        assert text == report.metrics_json()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert set(payload) == {"mode", "config", "metrics", "checks"}
        assert "timings" not in text
        assert not report.all_passed

    def test_csv_tables(self):
        tables = self.sample().csv_tables()
        assert tables["family"] == "key,value\na,2\nb,1\n"
        assert "deep" not in tables  # nested dicts are not spreadsheet rows
        assert tables["checks"].splitlines()[2] == "two,False,broke"

    def test_write(self, tmp_path):
        paths = self.sample().write(tmp_path)
        names = {p.name for p in paths}
        assert {"metrics.json", "family.csv", "checks.csv", "timings.json"} <= names
        assert (tmp_path / "metrics.json").read_text().endswith("\n")


class TestModeRunners:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            run_experiment(make_config("transmute"))

    def test_primes_mode_anchors(self):
        cfg = make_config(
            "primes",
            primes={"limit": 20_000, "gk_limit": 2_000, "gk_orders": "1 2"},
        )
        report = run_experiment(cfg)
        assert report.all_passed
        assert report.metrics["prime_count"] == 2_262
        assert report.metrics["segmented_recount"] == 2_262
        assert report.metrics["gap_records"]["1"] == 34
        assert report.metrics["gap_records"]["2"] <= 34

    def test_sieve_mode(self):
        report = run_experiment(make_config("sieve", partition={"x": 400}))
        assert report.all_passed
        res = report.metrics["residual"]
        assert report.metrics["survivors"] == (
            res["count"] + res["target_survivors"]
        )
        assert report.metrics["window"] == {
            "x": 400,
            "y": 6_000,
            "medium_high": 200.0,
        }

    def test_weights_mode(self):
        cfg = make_config("weights", partition={"x": 400}, weights={"theta": 0.5})
        report = run_experiment(cfg)
        verdicts = {c["name"]: c["passed"] for c in report.checks}
        assert verdicts == {
            "row_sums_comparable": True,
            "off_tuple_suppressed": False,
            "no_point_concentration": True,
            "no_zero_rows": True,
        }
        # at x = 400 the off-tuple mass is 0.133 of the on-tuple mass,
        # above the fixed bound; the check reports it, nothing loosens it
        (agg,) = [c for c in report.checks if c["name"] == "off_tuple_suppressed"]
        assert agg["detail"] == "aggregate off/on = 0.133098 vs bound 0.1"
        contracts = report.metrics["contracts"]
        assert contracts["kind"] == "maynard" and contracts["r"] == 4
        assert contracts["zero_rows"] == 0

    @pytest.mark.parametrize(
        "ini, removed",
        [
            (
                "[run]\nmode = weights\n[partition]\nx = 400\n"
                "[weights]\ntheta = 0.5\n",
                "row_sum_ratio_bound = 0.5\naggregate_bound = 10\n"
                "point_mass_bound = 0\n",
            ),
            ("[run]\nmode = cover\n[cover]\nm = 1\n", "tolerance = 0\n"),
            (
                "[run]\nmode = sieve\n[partition]\nx = 400\n",
                "r = 6\nepsilon = 0.1\nc = 0.2\na = 9\nc0 = 0.4\nr0 = 3\n",
            ),
        ],
        ids=["weights", "cover", "partition"],
    )
    def test_removed_keys_change_no_verdict(self, ini, removed):
        # the check bounds and the partition's r, epsilon, c, A, c0 and r0
        # were INI keys; nothing reads them now, so an INI that still sets
        # them is rejected by name and runs nothing
        ExperimentConfig.from_ini(ini)
        keys = sorted(line.split(" = ")[0] for line in removed.splitlines())
        with pytest.raises(ValueError, match=f"key\\(s\\) {', '.join(keys)};"):
            ExperimentConfig.from_ini(ini + removed)

    def test_every_partition_key_changes_the_output(self):
        # a [partition] key that changes no metric is a knob nobody turns
        base = {"x": 400}
        variants = {
            "x": 500, "y": 5_000, "z": 60, "small_low": 40, "small_high": 70,
            "excluded": 37,
        }
        assert set(variants) == harness._SECTION_KEYS["partition"]
        before = run_experiment(make_config("sieve", partition=base)).metrics
        for key, value in variants.items():
            cfg = make_config("sieve", partition={**base, key: value})
            assert run_experiment(cfg).metrics != before, key

    def test_construct_mode(self):
        cfg = make_config(
            "construct",
            seed=1,
            partition={"x": 400},
            weights={"theta": 0.5},
            construct={"eta": 0.3, "max_q": 64},
        )
        report = run_experiment(cfg)
        assert report.all_passed
        assert report.metrics["construction"]["n_stable"] >= 1
        assert report.metrics["coverage"]["n_q_sampled"] <= 64
        assert report.config["sections"]["construct"]["eta"] == "0.3"
        assert "out_dir" not in report.config

    @pytest.mark.parametrize("mode", ["weights", "construct"])
    def test_rows_are_built_in_the_table_span(self, monkeypatch, mode):
        # the first matrix() call builds every row; it must happen while
        # the "table" span is open, so timings.json bills the rows to it
        open_spans, calls = [], []
        real_timed, real_matrix = harness._timed, WeightTable.matrix

        @contextmanager
        def timed(timings, name):
            open_spans.append(name)
            try:
                with real_timed(timings, name):
                    yield
            finally:
                open_spans.pop()

        def matrix(table):
            calls.append(tuple(open_spans))
            return real_matrix(table)

        monkeypatch.setattr(harness, "_timed", timed)
        monkeypatch.setattr(WeightTable, "matrix", matrix)
        cfg = make_config(
            mode,
            seed=1,
            partition={"x": 400},
            weights={"theta": 0.5},
            construct={"max_q": 64},
        )
        report = run_experiment(cfg)
        assert calls and calls[0][-1] == "table"  # the innermost open span
        assert "table" in report.timings

    def test_cover_mode(self):
        report = run_experiment(make_config("cover"))
        assert report.all_passed
        inst = report.metrics["instance"]
        assert inst["m"] == 2 and inst["n_elements"] == 20_000
        assert inst["coverage"] == pytest.approx(2 * np.log(5))
        assert report.metrics["leftover"]["ratio"] == pytest.approx(1.0, abs=0.5)

    def test_maier_mode(self):
        report = run_experiment(make_config("maier", seed=5))
        assert report.all_passed
        frame = report.metrics["frame"]
        assert frame["x"] == 36 and frame["y"] == 120
        assert frame["modulus_bits"] == 38
        assert frame["row_index_bits"] == 38  # the whole row space
        cert = report.metrics["certificate"]
        assert cert["k"] == 2
        sound = report.metrics["soundness"]
        assert sound["outside"] > 0 and sound["escapes"] == 0

    def test_gk_mode_byte_reproducible(self):
        cfg = make_config("gk", gk={"limit": 2_000, "k": 1})
        first = run_experiment(cfg)
        second = run_experiment(make_config("gk", gk={"limit": 2_000, "k": 1}))
        assert first.all_passed
        assert first.metrics["record"] == 34
        assert first.metrics["record_next_order"] <= 34
        assert first.metrics_json() == second.metrics_json()

    def test_verify_mode_round_trip(self, tmp_path):
        found = run_experiment(make_config("maier", seed=5))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(
            json.dumps(found.metrics["certificate"], sort_keys=True, indent=1)
        )
        report = run_experiment(
            make_config("verify", verify={"certificate": str(cert_path)})
        )
        assert report.all_passed
        assert report.metrics["accepted"] is True
        assert report.metrics["certificate"]["k"] == 2

    def test_verify_mode_needs_path(self):
        with pytest.raises(ValueError, match="certificate"):
            run_experiment(make_config("verify"))


class TestCli:
    def test_every_mode_is_wired(self):
        assert set(MODES) == {
            "primes",
            "sieve",
            "weights",
            "construct",
            "cover",
            "maier",
            "gk",
            "verify",
        }

    def test_primes_subcommand(self, capsys):
        assert main(["primes", "--limit", "2000"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] segmented_recount_matches" in out
        assert "all 2 checks passed" in out

    def test_maier_writes_certificate(self, tmp_path, capsys):
        code = main(["maier", "--seed", "5", "--out", str(tmp_path / "run")])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] chain_found" in out
        cert_file = tmp_path / "run" / "certificate.json"
        cert = GapChainCertificate.from_json(cert_file.read_text())
        assert verify_certificate(cert)
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert metrics["mode"] == "maier"

    def test_verify_subcommand_rejects_tampering(self, tmp_path, capsys):
        main(["maier", "--seed", "5", "--out", str(tmp_path / "run")])
        capsys.readouterr()
        cert_file = tmp_path / "run" / "certificate.json"
        raw = json.loads(cert_file.read_text())
        raw["min_gap"] += 1
        bad_file = tmp_path / "tampered.json"
        bad_file.write_text(json.dumps(raw))
        assert main(["verify", "--certificate", str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] certificate_accepted" in out
        assert "differs from recomputed" in out
        assert main(["verify", "--certificate", str(cert_file)]) == 0

    def test_verify_subcommand_rejects_malformed_files(self, tmp_path, capsys):
        main(["maier", "--seed", "5", "--out", str(tmp_path / "run")])
        raw = json.loads((tmp_path / "run" / "certificate.json").read_text())
        no_seed = dict(raw)
        del no_seed["seed"]
        cases = {
            "missing.json": (json.dumps(no_seed), "missing ['seed']"),
            "extra.json": (json.dumps({**raw, "note": 1}), "unexpected ['note']"),
            "text.json": ("certificate: yes", "not JSON"),
            "list.json": (json.dumps([raw]), "not a JSON object"),
        }
        capsys.readouterr()
        for name, (text, reason) in cases.items():
            path = tmp_path / name
            path.write_text(text)
            assert main(["verify", "--certificate", str(path),
                         "--out", str(tmp_path / name[:-5])]) == 1
            out = capsys.readouterr().out
            assert "[FAIL] certificate_accepted" in out and reason in out
            metrics = json.loads((tmp_path / name[:-5] / "metrics.json").read_text())
            assert metrics["metrics"]["accepted"] is False
            assert "certificate" not in metrics["metrics"]

    def test_verify_subcommand_reports_unreadable_files(self, tmp_path, capsys):
        # a missing file used to end in a FileNotFoundError traceback
        for path in (tmp_path / "missing.json", tmp_path):
            out_dir = tmp_path / "out"
            assert main(["verify", "--certificate", str(path),
                         "--out", str(out_dir)]) == 1
            out = capsys.readouterr().out
            assert "[FAIL] certificate_accepted" in out
            assert f"cannot read certificate {path}" in out
            metrics = json.loads((out_dir / "metrics.json").read_text())
            assert metrics["metrics"]["accepted"] is False

    def test_weights_row_sum_check_applies_to_maynard_rows(self, capsys):
        assert main(["weights", "--kind", "uniform", "--x", "400"]) == 0
        out = capsys.readouterr().out
        assert "row_sums_comparable" not in out
        assert "all 3 checks passed" in out
        main(["weights", "--kind", "maynard", "--x", "400"])
        assert "[PASS] row_sums_comparable" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[run]\nseed = 3\n\n[gk]\nlimit = 2000\nk = 1\n")
        out_dir = tmp_path / "gkrun"
        code = main(
            [
                "gk",
                "--config",
                str(ini),
                "--limit",
                "1000",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        capsys.readouterr()
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["config"]["seed"] == 3
        assert metrics["config"]["sections"]["gk"]["limit"] == "1000"
        assert metrics["metrics"]["limit"] == 1_000

    def test_config_with_unknown_run_key_exits(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[run]\nsed = 3\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["gk", "--config", str(ini)])
        assert exit_info.value.code == 2
        assert "unknown [run] key(s) sed" in capsys.readouterr().err

    def test_config_with_unknown_section_key_exits(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[weights]\nthetta = 0.5\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["weights", "--config", str(ini)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{ini}: unknown [weights] key(s) thetta" in err
        assert "Traceback" not in err

    def test_missing_config_file_exits(self, tmp_path, capsys):
        # used to end in a FileNotFoundError traceback
        ini = tmp_path / "missing.ini"
        with pytest.raises(SystemExit) as exit_info:
            main(["gk", "--config", str(ini)])
        assert exit_info.value.code == 2
        assert f"{ini}: cannot read (No such file or directory)" in (
            capsys.readouterr().err
        )

    def test_config_that_is_not_ini_exits(self, tmp_path, capsys):
        # used to end in a MissingSectionHeaderError traceback
        ini = tmp_path / "exp.ini"
        ini.write_text("[run\nmode = gk\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["gk", "--config", str(ini)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{ini}: File contains no section headers" in err
        assert f"file: '{ini}'" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify"], "verify mode needs [verify] certificate"),
            (["gk", "--k", "0", "--limit", "100"], "k must be at least 1"),
            (["cover", "--m", "0"], "m must be at least 1"),
            (["maier", "--trials", "0"], "trials must be at least 1"),
            (["maier", "--trials", "-3"], "trials must be at least 1"),
            # refused before any allocation; each used to end in a
            # MemoryError traceback and exit status 1
            (["weights", "--x", "60000"], "dense weight matrix and its build"),
            (["construct", "--x", "60000"], "dense weight matrix and its build"),
            # refused by name: a non-finite value, a level past the sieve cap
            (["maier", "--y", "1e400"], "[maier] y = inf is not a finite number"),
            (["sieve", "--y", "inf"], "[partition] y = inf is not a finite number"),
            (["weights", "--theta", "inf"], "[weights] theta = inf is not a finite"),
            (["weights", "--theta", "1e300"], "divisor level x**theta = 1400**1e+300"),
            # refused before a prime sieve over 1 GiB: the first two ended in
            # MemoryError tracebacks, the last two ran for minutes
            (["sieve", "--x", "1e13"], "prime sieve window (5e+12, 1e+13]"),
            (["weights", "--x", "1e300"], "prime sieve window (5e+299, 1e+300]"),
            (["sieve", "--y", "1e300"], "prime sieve window (1400, 1e+300]"),
            (["construct", "--x", "1e300"], "prime sieve window (5e+299, 1e+300]"),
            # used to blame the stable set: "no stable primes"
            (["construct", "--eta", "-1"], "eta = -1 must be nonnegative"),
        ],
    )
    def test_rejected_option_value_exits(self, argv, message, capsys):
        # each used to end in a ValueError traceback; the usage and the
        # error name the subcommand, not the top-level parser
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: gapchain {argv[0]} [-h]")
        assert f"gapchain {argv[0]}: error: {message}" in err

    def test_maier_x_over_the_row_budget_is_refused_at_once(self, capsys):
        # validating the 664,579 classes up to x = 1e7 took over 30 s
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exit_info:
            main(["maier", "--x", "1e7", "--y", "2e7"])
        assert exit_info.value.code == 2
        assert time.perf_counter() - t0 < 5.0
        assert "x = 1e+07 puts the modulus over the row budget" in (
            capsys.readouterr().err
        )

    def test_assertion_error_propagates(self, monkeypatch):
        # a broken invariant is a bug, not a usage error
        def broken(cfg):
            raise AssertionError("invariant broken")

        monkeypatch.setitem(harness._RUNNERS, "gk", broken)
        with pytest.raises(AssertionError, match="invariant broken"):
            main(["gk"])

    def test_memory_error_of_an_allocation_propagates(self, monkeypatch):
        # only the up-front refusal of a weight matrix is a usage error
        def out_of_memory(cfg):
            raise MemoryError("allocation failed")

        monkeypatch.setitem(harness._RUNNERS, "gk", out_of_memory)
        with pytest.raises(MemoryError, match="allocation failed"):
            main(["gk"])

    def test_unknown_mode_exits(self):
        with pytest.raises(SystemExit):
            main(["transmute"])


class TestPublicSurface:
    def test_every_listed_name_exists(self):
        for info in pkgutil.iter_modules(gapchain.__path__):
            module = importlib.import_module(f"gapchain.{info.name}")
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{info.name}.__all__: {name}"

    def test_every_reexport_is_listed(self):
        # the package's name -> submodule table, read on first access
        table = gapchain._SUBMODULE
        assert table
        for name, submodule in table.items():
            module = importlib.import_module(f"gapchain.{submodule}")
            assert name in module.__all__, f"{submodule}: {name}"
            assert getattr(gapchain, name) is getattr(module, name)

    def test_names_resolve_on_first_use(self):
        # dir() and the star import list every name of the table; the
        # first read of a name imports its submodule and caches the object
        table = gapchain._SUBMODULE
        assert set(table) <= set(dir(gapchain))
        star: dict = {}
        exec("from gapchain import *", star)
        assert set(star) - {"__builtins__"} == set(table) == set(gapchain.__all__)
        with pytest.raises(AttributeError, match="'gapchain' has no attribute 'nope'"):
            gapchain.nope
        for name, submodule in table.items():
            module = sys.modules[f"gapchain.{submodule}"]
            assert vars(gapchain)[name] is vars(module)[name]


def stages_loaded_after(code: str) -> list:
    """The gapchain submodules a fresh interpreter holds after code runs."""
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m.split('.')[1] for m in sys.modules "
        "if m.startswith('gapchain.'))))\n"
    )
    src = str(Path(gapchain.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportGraph:
    """Each mode loads only its own stages; harness, covering and nt are eager."""

    def test_import_loads_harness_covering_and_nt(self):
        assert stages_loaded_after("import gapchain") == ["covering", "harness", "nt"]
        # the command line adds itself alone
        assert stages_loaded_after("import gapchain.cli") == [
            "cli", "covering", "harness", "nt"
        ]

    def test_cover_run_adds_only_seeds(self):
        code = (
            "import gapchain as g\n"
            "cfg = g.ExperimentConfig(mode='cover', seed=2)\n"
            "for key, value in (('n_elements', 2000), ('n_covers', 200), ('m', 2)):\n"
            "    cfg.set('cover', key, value)\n"
            "assert g.run_experiment(cfg).all_passed\n"
        )
        assert stages_loaded_after(code) == ["covering", "harness", "nt", "seeds"]

    def test_maier_and_certify_names_load_no_weights(self):
        # the names the maier and certify benchmark paths read, then a run
        names = (
            "derive_rng ResidueSystem FrameWindow assemble_frame sift_interval "
            "sample_rows derive_random find_gap_chain GapChainCertificate "
            "verify_certificate"
        )
        code = (
            "import gapchain as g\n"
            f"for name in {names!r}.split(): getattr(g, name)\n"
            "cfg = g.ExperimentConfig(mode='maier', seed=5)\n"
            "cfg.set('maier', 'stat_trials', 8)\n"
            "assert g.run_experiment(cfg).all_passed\n"
        )
        loaded = stages_loaded_after(code)
        assert "maier" in loaded
        assert "weights" not in loaded and "construction" not in loaded

    def test_construct_names_load_no_maier(self):
        names = (
            "derive_parameters build_partition build_weights first_primes_tuple "
            "weight_contract_report run_construction target_coverage_report"
        )
        code = (
            "import gapchain as g\n"
            f"for name in {names!r}.split(): getattr(g, name)\n"
        )
        loaded = stages_loaded_after(code)
        assert "construction" in loaded and "weights" in loaded
        assert "maier" not in loaded
