"""Experiment harness: config round trips, reports, every mode runner, CLI,
and the package's public surface."""

import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path
from contextlib import contextmanager

import numpy as np
import pytest

import gapchain
import gapchain.partition as partition_mod
from gapchain import harness
from gapchain.cli import main
from gapchain.harness import MODES, ExperimentConfig, Report, run_experiment
from gapchain.maier import GapChainCertificate, verify_certificate
from gapchain.weights import WeightTable, build_weights, first_primes_tuple


def make_config(mode, seed=0, **sections):
    cfg = ExperimentConfig(mode=mode, seed=seed)
    for name, body in sections.items():
        for key, value in body.items():
            cfg.set(name, key, value)
    return cfg


def write_config_text(argv, tmp_path, monkeypatch):
    """argv with the text after --config written to exp.ini, in tmp_path."""
    if "--config" not in argv:
        return argv
    monkeypatch.chdir(tmp_path)
    at = argv.index("--config") + 1
    Path("exp.ini").write_text(argv[at])
    return [*argv[:at], "exp.ini", *argv[at + 1 :]]


class TestExperimentConfig:
    def test_typed_getters(self):
        cfg = make_config("gk", gk={"limit": "2000", "k": "  "})
        assert cfg.getint("gk", "limit", 7) == 2_000
        assert cfg.getint("gk", "missing", 7) == 7
        assert cfg.get("gk", "k", "fallback") == "fallback"
        assert cfg.getfloat("gk", "limit", 0.0) == 2_000.0
        # a malformed value names its option
        bad = make_config("gk", gk={"limit": "ten"})
        with pytest.raises(ValueError, match=r"^\[gk\] limit = ten is not an integer$"):
            bad.getint("gk", "limit", 7)
        with pytest.raises(ValueError, match=r"^\[gk\] limit = ten is not a number$"):
            bad.getfloat("gk", "limit", 0.0)

    def test_set_refuses_an_unknown_section_or_key(self):
        # the library path checks what from_ini checks: a removed key is
        # refused, not stored, echoed in metrics.json and ignored
        cfg = ExperimentConfig(mode="chain")
        with pytest.raises(
            ValueError, match=r"^unknown \[chain\] key\(s\) soundness_draws; known: "
        ):
            cfg.set("chain", "soundness_draws", 10)
        for gone in ("sieve", "maier"):
            with pytest.raises(ValueError, match=rf"^unknown section \[{gone}\]; known: "):
                cfg.set(gone, "x", 200)
        # mode, seed and out are attributes, not a section set can reach
        with pytest.raises(ValueError, match=r"^unknown section \[run\]; known: "):
            cfg.set("run", "seed", 5)
        assert cfg.sections == {}
        cfg.set("chain", "Stat_Trials", 3)
        assert cfg.sections == {"chain": {"stat_trials": "3"}}

    def test_run_section_parsing(self):
        cfg = ExperimentConfig.from_ini(
            "[run]\nmode = gk\nseed = 4\nout = somewhere\n"
        )
        assert (cfg.mode, cfg.seed, cfg.out_dir) == ("gk", 4, "somewhere")
        with pytest.raises(ValueError, match=r"^\[run\] seed = 1.5 is not an integer$"):
            ExperimentConfig.from_ini("[run]\nmode = gk\nseed = 1.5\n")

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
            ("[chain]\nx = 150\nseed = 5\n", "unknown [chain] key(s) seed"),
            ("[weigths]\ntheta = 0.5\n", "unknown section [weigths]"),
            ("[DEFAULT]\nlimt = 9\n", "unknown [DEFAULT] key(s) limt"),
            # the primes mode is gone, and its section with it
            ("[primes]\nlimit = 2000\n", "unknown section [primes]"),
            # so is [sieve], whose one key, medium_high, no run set
            ("[sieve]\nmedium_high = 200\n", "unknown section [sieve]"),
            # and [maier]: the chain mode reads its keys from [chain]
            ("[maier]\nx = 150\n", "unknown section [maier]"),
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
            "construct": {"partition": {"x": 200}, "weights": {"theta": 0.5}},
            "cover": {"cover": {"n_elements": 500, "n_covers": 50}},
            "chain": {"chain": {"trials": 5, "stat_trials": 5}},
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
            "[run]\nmode = construct\n[partition]\nSmall_Low = 40\n"
        )
        assert ini.sections["partition"] == {"small_low": "40"}
        flag = make_config("construct", partition={"Small_Low": 40})
        assert flag.sections == ini.sections
        for cfg in (ini, flag):
            assert cfg.getfloat("partition", "Small_Low", 32.0) == 40.0
            assert cfg.getfloat("partition", "small_low", 32.0) == 40.0
        # and the value reaches derive_parameters, which _build_partition
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


# one small run of every mode; each runner builds its metrics from plain
# JSON types, so metrics.json reads back as the report's own metrics
METRICS_RUNS = {
    "construct": dict(partition={"x": 400}, weights={"theta": 0.5}),
    "construct-no-stable": dict(partition={"x": 160}, construct={"eta": 0}),
    "cover": dict(cover={"n_elements": 2000, "n_covers": 200}),
    "chain": dict(seed=5),
    "chain-miss": dict(seed=5, chain={"trials": 1, "epsilon": 0.9}),
    "chain-greedy": dict(
        seed=5, chain={"x": 150, "y": 600, "classes": "greedy"},
        partition={"small_high": 60},
    ),
    "gk": dict(gk={"limit": 1000}),
    "verify": dict(),
    "verify-unreadable": dict(verify={"certificate": "missing.json"}),
}


@pytest.mark.parametrize("run", sorted(METRICS_RUNS))
def test_metrics_json_reads_back_as_the_metrics(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    mode = run.split("-")[0]
    sections = dict(METRICS_RUNS[run])
    if run == "verify":
        run_experiment(make_config("chain", seed=5)).write("found")
        sections["verify"] = {"certificate": "found/certificate.json"}
    report = run_experiment(make_config(mode, **sections))
    assert json.loads(report.metrics_json())["metrics"] == report.metrics


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

    def test_write(self, tmp_path):
        paths = self.sample().write(tmp_path)
        assert [p.name for p in paths] == ["metrics.json", "timings.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "metrics.json", "timings.json",
        ]
        assert (tmp_path / "metrics.json").read_text() == self.sample().metrics_json()
        assert json.loads((tmp_path / "timings.json").read_text()) == {"total": 0.5}

    @pytest.mark.parametrize(
        "argv, found",
        [
            (["chain", "--seed", "5"], True),
            (["chain", "--seed", "5", "--trials", "1", "--epsilon", "0.9"], False),
            (["gk", "--limit", "1000"], False),
            (["verify", "--certificate", "chain/certificate.json"], False),
        ],
    )
    def test_out_holds_the_record_alone(self, argv, found, tmp_path, monkeypatch):
        # metrics.json and timings.json, and a found chain's certificate.
        # verify's metrics hold a summary of the certificate it read, not a
        # certificate, so it writes none (it wrote the summary there, over
        # the certificate itself when --out named the certificate's directory)
        monkeypatch.chdir(tmp_path)
        main(["chain", "--seed", "5", "--out", "chain"])
        main([*argv, "--out", "run"])
        names = sorted(p.name for p in Path("run").iterdir())
        want = ["metrics.json", "timings.json"]
        assert names == sorted(want + ["certificate.json"] * found)
        if found:
            metrics = json.loads(Path("run/metrics.json").read_text())["metrics"]
            cert = json.loads(Path("run/certificate.json").read_text())
            assert cert == metrics["certificate"]


class TestModeRunners:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            run_experiment(make_config("transmute"))
        # the weights mode is gone: construct reports the contracts
        cfg = ExperimentConfig.from_ini("[run]\nmode = weights\n")
        with pytest.raises(ValueError, match="^unknown mode 'weights'; expected one of "):
            run_experiment(cfg)

    def test_construct_mode_reports_the_contracts_at_x400(self):
        cfg = make_config("construct", partition={"x": 400}, weights={"theta": 0.5})
        report = run_experiment(cfg)
        verdicts = [(c["name"], c["passed"]) for c in report.checks]
        # the table's contracts, then the construction's checks
        assert verdicts == [
            ("row_sums_comparable", True),
            ("off_tuple_suppressed", False),
            ("no_point_concentration", True),
            ("no_zero_rows", True),
            ("normalization_consistent", True),
            ("stable_primes_exist", True),
        ]
        # at x = 400 the off-tuple mass is 0.133 of the on-tuple mass,
        # above the fixed bound; the check reports it, nothing loosens it
        (agg,) = [c for c in report.checks if c["name"] == "off_tuple_suppressed"]
        assert agg["detail"] == "aggregate off/on = 0.133098 vs bound 0.1"
        contracts = report.metrics["contracts"]
        assert "kind" not in contracts and contracts["r"] == 4
        assert contracts["zero_rows"] == 0
        assert set(report.metrics) == {"contracts", "construction", "coverage"}
        assert list(report.timings) == [
            "total", "table", "contracts", "construction", "coverage"
        ]

    @pytest.mark.parametrize(
        "ini, removed",
        [
            (
                "[run]\nmode = construct\n[partition]\nx = 400\n"
                "[weights]\ntheta = 0.5\n",
                "row_sum_ratio_bound = 0.5\naggregate_bound = 10\n"
                "point_mass_bound = 0\n",
            ),
            ("[run]\nmode = cover\n[cover]\nm = 1\n", "tolerance = 0\n"),
            (
                "[run]\nmode = construct\n[partition]\nx = 400\n",
                "r = 6\nepsilon = 0.1\nc = 0.2\na = 9\nc0 = 0.4\nr0 = 3\n",
            ),
            (
                "[run]\nmode = cover\n[cover]\nm = 1\n",
                "profile = fixed-size\nr_cap = 5\n",
            ),
            ("[run]\nmode = chain\n[chain]\nx = 36\n", "mr_rounds = 48\n"),
            ("[run]\nmode = construct\n[weights]\ntheta = 0.5\n", "q_sample = 25\n"),
            ("[run]\nmode = construct\n[weights]\ntheta = 0.5\n", "offsets = 0 2 6\n"),
            ("[run]\nmode = construct\n[construct]\neta = 0.1\n", "max_q = 64\n"),
            ("[run]\nmode = chain\n[chain]\nx = 36\n", "d = 1\nsoundness_draws = 10\n"),
        ],
        ids=[
            "weights", "cover", "partition", "cover-instance", "maier", "weights-q",
            "weights-offsets", "construct", "maier-d",
        ],
    )
    def test_removed_keys_change_no_verdict(self, ini, removed):
        # the check bounds, the partition's r, epsilon, c, A, c0 and r0, the
        # cover profile and edge cap, the search's Miller-Rabin rounds, the
        # contracts' target sample, the weight tuple's offsets, the coverage
        # sample's max_q, the frame's D and the soundness draws were INI
        # keys; nothing reads them now, so an INI that still sets them is
        # rejected by name and runs nothing
        ExperimentConfig.from_ini(ini)
        keys = sorted(line.split(" = ")[0] for line in removed.splitlines())
        with pytest.raises(ValueError, match=f"key\\(s\\) {', '.join(keys)};"):
            ExperimentConfig.from_ini(ini + removed)

    def test_the_library_and_the_modes_share_one_theta(self, small_partition):
        # build_weights defaulted theta to 0.25 and every mode to 1.0, so
        # one seed built two constructions
        table = harness._build_table(make_config("construct"), small_partition)
        want = build_weights(small_partition, first_primes_tuple(4))
        assert table.theta == want.theta == 1.0
        for got, ref in zip(table.matrix(), want.matrix()):
            assert got.tobytes() == ref.tobytes()

    def test_every_partition_key_changes_the_output(self):
        # a [partition] key that changes no metric is a knob nobody turns
        base = {"x": 400}
        variants = {
            "x": 500, "y": 5_000, "z": 60, "small_low": 40, "small_high": 70,
            "excluded": 37,
        }
        assert set(variants) == harness._SECTION_KEYS["partition"]
        theta = {"theta": 0.5}
        before = run_experiment(
            make_config("construct", partition=base, weights=theta)
        ).metrics
        for key, value in variants.items():
            cfg = make_config("construct", partition={**base, key: value}, weights=theta)
            assert run_experiment(cfg).metrics != before, key

    def test_construct_mode(self):
        cfg = make_config(
            "construct",
            seed=1,
            partition={"x": 400},
            weights={"theta": 0.5},
            construct={"eta": 0.3},
        )
        report = run_experiment(cfg)
        # every check passes but the x = 400 contract finding
        failed = [c["name"] for c in report.checks if not c["passed"]]
        assert failed == ["off_tuple_suppressed"]
        assert report.metrics["construction"]["n_stable"] >= 1
        assert report.metrics["coverage"]["n_q_sampled"] <= 512
        assert report.config["sections"]["construct"]["eta"] == "0.3"
        assert "out_dir" not in report.config

    def test_rows_are_built_in_the_table_span(self, monkeypatch):
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
            "construct",
            seed=1,
            partition={"x": 400},
            weights={"theta": 0.5},
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

    def test_chain_mode(self):
        report = run_experiment(make_config("chain", seed=5))
        assert report.all_passed
        # the class draw and the certificate check have spans of their own,
        # and spans stay out of the metrics.json bytes
        assert sorted(report.timings) == [
            "classes", "frame", "row_stats", "search", "total", "verify"
        ]
        # the former maier mode's report, "maier" renamed "chain"
        assert hashlib.sha256(report.metrics_json().encode()).hexdigest() == (
            "db49b8aa94bb97dcb3de6bf5ff038e75f9b3d076b09f79907c94f1a5df6a82f7"
        )
        frame = report.metrics["frame"]
        assert frame["x"] == 36 and frame["y"] == 120
        assert frame["modulus_bits"] == 38
        assert frame["row_index_bits"] == 38  # z <= P
        cert = report.metrics["certificate"]
        assert cert["k"] == 2
        # the searches prove the translation on every t of the window, so
        # no sampled soundness check or block is left in the report
        assert [c["name"] for c in report.checks] == [
            "chain_found", "certificate_verifies"
        ]
        assert "soundness" not in report.metrics

    def test_construction_frame_sieves_by_the_runs_classes(self, monkeypatch):
        # the pipeline end to end: the frame's system is the construction
        # run's, weighted primes at their chosen offsets mod p, small primes
        # at their drawn classes, every other prime up to x at class 0
        from gapchain import construction, maier

        runs, systems = [], []
        run_construction, assemble_frame = construction.run_construction, maier.assemble_frame

        def recorded_run(*args, **kwargs):
            runs.append(run_construction(*args, **kwargs))
            return runs[-1]

        def recorded_frame(system, window, *args):
            systems.append(system)
            return assemble_frame(system, window, *args)

        monkeypatch.setattr(construction, "run_construction", recorded_run)
        monkeypatch.setattr(maier, "assemble_frame", recorded_frame)
        cfg = make_config(
            "chain", seed=11, partition={"small_high": 60},
            chain={"x": 150, "y": 600, "classes": "construction", "stat_trials": 8},
        )
        assert run_experiment(cfg).all_passed
        (run,), (system,) = runs, systems
        part = run.partition
        assert (part.x, part.y, part.small_high) == (150, 600, 60)
        weighted = part.weighted_primes.tolist()
        small = part.small_primes.tolist()
        assert weighted and small
        for p in weighted:
            assert system.entries[p] == run.chosen_offsets[p] % p
        for p in small:
            assert system.entries[p] == run.small_classes.entries[p]
        rest = set(system.entries) - set(weighted) - set(small)
        assert rest and all(system.entries[p] == 0 for p in rest)

    def test_gk_mode_byte_reproducible(self):
        cfg = make_config("gk", gk={"limit": 2_000, "k": 1})
        first = run_experiment(cfg)
        second = run_experiment(make_config("gk", gk={"limit": 2_000, "k": 1}))
        assert first.all_passed
        assert first.metrics["record"] == 34
        assert first.metrics["record_next_order"] <= 34
        assert first.metrics_json() == second.metrics_json()

    def test_verify_mode_round_trip(self, tmp_path):
        found = run_experiment(make_config("chain", seed=5))
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
        assert MODES == ("construct", "cover", "chain", "gk", "verify")

    def test_primes_subcommand(self, capsys):
        # the primes mode is gone: gk computes its gap records, and the
        # tests read pi(n) from primes_in_range; so is the weights mode,
        # whose contracts construct reports
        for mode in ("primes", "weights"):
            with pytest.raises(SystemExit) as exit_info:
                main([mode])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: gapchain [-h]")
            assert f"invalid choice: '{mode}'" in err

    def test_cover_profile_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["cover", "--profile", "fixed-size"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        # the cover subcommand's usage, as for every other usage error
        assert err.startswith("usage: gapchain cover")
        assert "unrecognized arguments: --profile fixed-size" in err

    def test_out_naming_a_file_is_refused_before_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        # gk ran in full, then ended in a FileExistsError traceback with
        # exit status 1, the status of a failed check
        afile = tmp_path / "afile"
        afile.write_text("")

        def no_work(cfg):
            raise AssertionError("the run started")

        monkeypatch.setitem(harness._RUNNERS, "gk", no_work)
        with pytest.raises(SystemExit) as exit_info:
            main(["gk", "--limit", "1000", "--out", str(afile)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gapchain gk [-h]")
        assert f"gapchain gk: error: output directory {afile} exists" in err

    def test_write_error_is_a_usage_error(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        with pytest.raises(SystemExit) as exit_info:
            main(["gk", "--limit", "1000", "--out", str(afile / "run")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gapchain gk [-h]")
        assert f"output directory {afile / 'run'}: cannot write (" in err

    def test_no_stable_primes_is_a_failed_check(self, tmp_path, capsys):
        # eta = 0 keeps no prime stable, and with none nothing covers the
        # targets: the run's own check fails, and no coverage is measured.
        # It was a usage error, "no stable primes; nothing covers the targets"
        code = main(["construct", "--eta", "0", "--x", "160", "--out", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "  [FAIL] stable_primes_exist (0 stable of 15)\n" in out
        # the table's off-tuple mass fails its bound at x = 160 as at x = 400
        assert "  [FAIL] off_tuple_suppressed (aggregate off/on = 0.120250" in out
        assert "2 of 6 checks failed" in out
        metrics = json.loads((tmp_path / "metrics.json").read_text())["metrics"]
        assert set(metrics) == {"contracts", "construction"}
        assert metrics["construction"]["n_stable"] == 0

    def test_maier_writes_certificate(self, tmp_path, capsys):
        code = main(["chain", "--seed", "5", "--out", str(tmp_path / "run")])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] chain_found" in out
        cert_file = tmp_path / "run" / "certificate.json"
        cert = GapChainCertificate.from_json(cert_file.read_text())
        assert verify_certificate(cert)
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert metrics["mode"] == "chain"

    def test_verify_subcommand_rejects_tampering(self, tmp_path, capsys):
        main(["chain", "--seed", "5", "--out", str(tmp_path / "run")])
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
        main(["chain", "--seed", "5", "--out", str(tmp_path / "run")])
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
        # every table is a Maynard table, so construct always reports its
        # row sums, first of its six checks
        main(["construct", "--x", "400"])
        out = capsys.readouterr().out.splitlines()
        assert out[1].startswith("  [PASS] row_sums_comparable (max/min = ")
        assert out[-1] == "1 of 6 checks failed"  # off_tuple_suppressed

    def test_construct_flags_set_the_weights_keys(self, tmp_path, capsys):
        # --r sets the [weights] key that the table reads
        main(["construct", "--x", "400", "--r", "3", "--out", str(tmp_path)])
        record = json.loads((tmp_path / "metrics.json").read_text())
        assert record["config"]["sections"]["weights"] == {"r": "3"}
        assert record["metrics"]["contracts"]["r"] == 3

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
            main(["construct", "--config", str(ini)])
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
            (["chain", "--trials", "0"], "trials must be at least 1"),
            (["chain", "--trials", "-3"], "trials must be at least 1"),
            # the --kind flag went with the flat uniform table
            (["construct", "--kind", "uniform"], "unrecognized arguments: --kind"),
            # refused before any allocation; each used to end in a
            # MemoryError traceback and exit status 1
            (["construct", "--x", "60000"], "dense weight matrix and its build"),
            # refused by name: a non-finite value, a level past the sieve cap
            (["chain", "--y", "1e400"], "[chain] y = inf is not a finite number"),
            (
                ["construct", "--config", "[partition]\ny = inf\n"],
                "[partition] y = inf is not a finite number",
            ),
            (["construct", "--theta", "inf"], "[weights] theta = inf is not a finite"),
            (["construct", "--theta", "1e300"], "divisor level x**theta = 1400**1e+300"),
            # refused before a prime sieve over 1 GiB: the first two ended in
            # MemoryError tracebacks, the last two ran for minutes
            (["construct", "--x", "1e13"], "prime sieve window (5e+12, 1e+13]"),
            (
                ["construct", "--r", "6", "--x", "1e300"],
                "prime sieve window (5e+299, 1e+300]",
            ),
            (
                ["chain", "--classes", "greedy", "--x", "1400", "--y", "1e300"],
                "prime sieve window (1400, 1e+300]",
            ),
            (["construct", "--x", "1e300"], "prime sieve window (5e+299, 1e+300]"),
            # used to blame the stable set: "no stable primes"
            (["construct", "--eta", "-1"], "eta = -1 must be nonnegative"),
            # a malformed value names its option; each used to print only
            # "invalid literal for int() with base 10"
            (
                ["gk", "--config", "[gk]\nlimit = ten\n"],
                "[gk] limit = ten is not an integer",
            ),
            (
                ["gk", "--config", "[run]\nseed = 1.5\n"],
                "exp.ini: [run] seed = 1.5 is not an integer",
            ),
            # the --offsets flag went with its [weights] offsets key
            (["construct", "--offsets", "0 2 x"], "unrecognized arguments: --offsets"),
            (
                ["chain", "--config", "[chain]\ny = six hundred\n"],
                "[chain] y = six hundred is not a number",
            ),
            # the primes mode and four options no run set are gone
            (
                ["gk", "--config", "[primes]\nlimit = 2000\n"],
                "exp.ini: unknown section [primes]",
            ),
            (
                ["cover", "--config", "[cover]\nprofile = fixed-size\n"],
                "exp.ini: unknown [cover] key(s) profile;",
            ),
            (
                ["cover", "--config", "[cover]\nr_cap = 5\n"],
                "exp.ini: unknown [cover] key(s) r_cap;",
            ),
            (
                ["chain", "--config", "[chain]\nmr_rounds = 48\n"],
                "exp.ini: unknown [chain] key(s) mr_rounds;",
            ),
            (
                ["construct", "--config", "[weights]\nq_sample = 25\n"],
                "exp.ini: unknown [weights] key(s) q_sample;",
            ),
            # five keys that only tests set are constants now
            (
                ["construct", "--config", "[sieve]\nmedium_high = 200\n"],
                "exp.ini: unknown section [sieve]",
            ),
            (
                ["construct", "--config", "[weights]\noffsets = 0 2 6\n"],
                "exp.ini: unknown [weights] key(s) offsets;",
            ),
            (
                ["construct", "--config", "[construct]\nmax_q = 64\n"],
                "exp.ini: unknown [construct] key(s) max_q;",
            ),
            (
                ["chain", "--config", "[chain]\nd = 1\n"],
                "exp.ini: unknown [chain] key(s) d;",
            ),
            (
                ["chain", "--config", "[chain]\nsoundness_draws = 10\n"],
                "exp.ini: unknown [chain] key(s) soundness_draws;",
            ),
            # refused before their arrays: each ended in a MemoryError
            # traceback (931 GiB, 931 GiB and 7.28 TiB)
            (["chain", "--y", "1e12"], "class sieve window (36, 1e+12]"),
            (
                ["cover", "--n-elements", "1000000000000"],
                "nibble over n_elements = 1000000000000 and n_covers = 2000",
            ),
            (
                ["cover", "--n-covers", "1000000000000"],
                "nibble over n_elements = 20000 and n_covers = 1000000000000",
            ),
            # the maier and sieve modes are gone: chain reads [chain], and
            # draws its classes from one of three sources
            (
                ["chain", "--config", "[maier]\nx = 150\n"],
                "exp.ini: unknown section [maier]",
            ),
            (
                ["chain", "--classes", "zone"],
                "[chain] classes = zone is not one of random, greedy, construction",
            ),
            (["chain", "--classes", "greedy"], "x = 36.0 is below the minimum 100.0"),
            # chain reads its window from [chain]; these ran at its defaults
            (
                ["chain", "--config", "[partition]\nx = 150\ny = 600\nexcluded = 7\n"],
                "chain mode reads no [partition] x, y, excluded: "
                "set [chain] x, y, excluded instead",
            ),
            # a [partition] key that no run reads any more
            (
                ["construct", "--config", "[partition]\nr = 6\n"],
                "exp.ini: unknown [partition] key(s) r;",
            ),
            # k = 1 is allowed; the k + 1 record that gk compares with is not
            (
                ["gk", "--limit", "3"],
                "gk compares k = 1 with order k + 1 = 2: "
                "only 1 prime gap below X=3; need a run of 2",
            ),
            # the [weights] kind key went with the flat uniform table
            (
                ["construct", "--config", "[weights]\nkind = maynard\n"],
                "exp.ini: unknown [weights] key(s) kind;",
            ),
        ],
    )
    def test_rejected_option_value_exits(
        self, argv, message, capsys, tmp_path, monkeypatch
    ):
        # each used to end in a ValueError traceback; the usage and the
        # error name the subcommand, not the top-level parser
        argv = write_config_text(argv, tmp_path, monkeypatch)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: gapchain {argv[0]} [-h]")
        assert f"gapchain {argv[0]}: error: {message}" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["construct", "--eta", "-1"], "eta = -1 must be nonnegative"),
            # max_q = 0 used to end in a ZeroDivisionError traceback; the key
            # is gone, and a file that sets it still builds nothing
            (
                ["construct", "--config", "[construct]\nmax_q = 0\n"],
                "exp.ini: unknown [construct] key(s) max_q;",
            ),
            # used to run the whole search, then fail with the row sample's
            # "trials must be at least 1", which names no option
            (
                ["chain", "--config", "[chain]\nstat_trials = 0\n"],
                "[chain] stat_trials = 0 must be at least 1",
            ),
            (["chain", "--x", "150", "--y", "600", "--k", "0"], "k must be at least 1"),
            (["chain", "--x", "150", "--y", "600", "--epsilon", "1.5"], "epsilon must"),
            (["chain", "--x", "150", "--y", "600", "--trials", "0"], "trials must be"),
            # its 10**9 row indices were drawn into one list first
            (
                ["chain", "--config", "[chain]\nstat_trials = 1000000000\n"],
                "a sample of [chain] stat_trials = 1000000000 rows would need 2.56e+11",
            ),
            (
                ["chain", "--classes", "construction", "--x", "150", "--y", "600",
                 "--config", "[construct]\neta = -1\n"],
                "eta = -1 must be nonnegative",
            ),
            *(
                (
                    ["chain", "--classes", "construction", "--x", "150", "--y", "600",
                     *option, "--config", "[partition]\nsmall_high = 60\n"],
                    message,
                )
                for option, message in (
                    (("--k", "0"), "k must be at least 1"),
                    (("--epsilon", "1.5"), "epsilon must lie in (0, 1)"),
                    (("--trials", "0"), "trials must be at least 1"),
                )
            ),
        ],
    )
    def test_bad_option_is_refused_before_the_work(
        self, argv, message, capsys, tmp_path, monkeypatch
    ):
        # construct built all 97 Maynard rows, and chain scanned its 200
        # sampled rows (12.6 s at x = 400) or its search rows, or built
        # its construction's Maynard table, before refusing these values;
        # a table build or a search row scan fails the test
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the option was checked")

        monkeypatch.setattr("gapchain.weights.build_weights", no_work)
        monkeypatch.setattr("gapchain.maier._row_primes", no_work)
        argv = write_config_text(argv, tmp_path, monkeypatch)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_maier_x_over_the_row_budget_is_refused_at_once(self, capsys):
        # validating the 664,579 classes up to x = 1e7 took over 30 s
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exit_info:
            main(["chain", "--x", "1e7", "--y", "2e7"])
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
            "cfg = g.ExperimentConfig(mode='chain', seed=5)\n"
            "cfg.set('chain', 'stat_trials', 8)\n"
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
