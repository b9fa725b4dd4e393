"""Command line front end: one subcommand per experiment mode.

Exit status is 0 exactly when every check in the run's report passed, so
the tool can sit directly in shell pipelines and CI jobs.  A config file
that cannot be read or parsed, or an option value the run rejects, or
whose weight matrix it refuses up front as too large, is a usage error:
the subcommand's usage, a one-line message and exit status 2, no traceback.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

from .harness import MODES, ExperimentConfig, run_experiment

_HELP = {
    "primes": "exact prime counts and gap-run records over small ranges",
    "sieve": "greedy residue-class sieve of the target interval",
    "weights": "build a weight table and test its contracts",
    "construct": "random residue construction with stability selection",
    "cover": "random-cover nibble on a synthetic instance",
    "maier": "translate a sieved window and hunt for a gap chain",
    "gk": "direct gap-chain record for consecutive prime gaps",
    "verify": "independently re-check a gap-chain certificate",
}

# flag, section, key, type -- thin shortcuts over the INI sections
_EXTRA: dict[str, tuple[tuple[str, str, str, type], ...]] = {
    "primes": (("--limit", "primes", "limit", int),),
    "sieve": (
        ("--x", "partition", "x", float),
        ("--y", "partition", "y", float),
    ),
    "weights": (
        ("--theta", "weights", "theta", float),
        ("--r", "weights", "r", int),
        ("--offsets", "weights", "offsets", str),
        ("--kind", "weights", "kind", str),
        ("--x", "partition", "x", float),
    ),
    "construct": (
        ("--eta", "construct", "eta", float),
        ("--theta", "weights", "theta", float),
        ("--x", "partition", "x", float),
    ),
    "cover": (
        ("--m", "cover", "m", int),
        ("--n-elements", "cover", "n_elements", int),
        ("--n-covers", "cover", "n_covers", int),
        ("--profile", "cover", "profile", str),
    ),
    "maier": (
        ("--x", "maier", "x", float),
        ("--y", "maier", "y", float),
        ("--k", "maier", "k", int),
        ("--epsilon", "maier", "epsilon", float),
        ("--trials", "maier", "trials", int),
    ),
    "gk": (
        ("--limit", "gk", "limit", int),
        ("--k", "gk", "k", int),
    ),
    "verify": (("--certificate", "verify", "certificate", str),),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapchain",
        description="Construct and check chains of consecutive large prime gaps.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=_HELP[mode])
        p.set_defaults(mode_parser=p)  # run-time usage errors name the mode
        p.add_argument(
            "--config",
            type=Path,
            default=None,
            help="INI file; its [run] section supplies defaults",
        )
        p.add_argument("--seed", type=int, default=None, help="root RNG seed")
        p.add_argument(
            "--out",
            type=Path,
            default=None,
            help="directory for metrics.json, CSV tables and timings",
        )
        for flag, section, key, typ in _EXTRA.get(mode, ()):
            p.add_argument(flag, type=typ, default=None, metavar=key.upper())
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    parser = args.mode_parser
    if args.config is not None:
        try:
            cfg = ExperimentConfig.from_file(args.config)
        except OSError as exc:  # missing, a directory, unreadable
            parser.error(f"{args.config}: cannot read ({exc.strerror})")
        except (ValueError, configparser.Error) as exc:
            parser.error(f"{args.config}: {exc}")
    else:
        cfg = ExperimentConfig()
    cfg.mode = args.mode
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = str(args.out)
    for flag, section, key, _typ in _EXTRA.get(args.mode, ()):
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None:
            cfg.set(section, key, value)

    try:
        report = run_experiment(cfg)
    except ValueError as exc:  # MatrixTooLarge is one too
        parser.error(str(exc))

    print(f"gapchain {report.mode} (seed {cfg.seed})")
    for check in report.checks:
        status = "PASS" if check["passed"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] else ""
        print(f"  [{status}] {check['name']}{detail}")
    if cfg.out_dir is not None:
        written = report.write(cfg.out_dir)
        cert = report.metrics.get("certificate")
        if cert is not None:
            cert_path = Path(cfg.out_dir) / "certificate.json"
            cert_path.write_text(json.dumps(cert, sort_keys=True, indent=1) + "\n")
            written.append(cert_path)
        print("  wrote " + ", ".join(str(p) for p in written))
    failed = sum(1 for c in report.checks if not c["passed"])
    if failed:
        print(f"{failed} of {len(report.checks)} checks failed")
    else:
        print(f"all {len(report.checks)} checks passed")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
