"""Desk-scale machinery for manufacturing chains of large prime gaps.

The package walks the whole constructive pipeline at sizes a laptop can
check end to end: derive run parameters and a three-way prime partition,
sieve the target interval by residue classes, build sieve weights over
the middle primes and test their contracts, draw the random residue
construction, cover leftovers with random subset unions, translate the
sieved window along an arithmetic progression, and certify any chain of
consecutive large prime gaps the translation exposes.

Each stage is imported the first time one of its names is read from the
package (PEP 562), so a run loads only the stages it uses.
"""

from importlib import import_module

# the one version source: pyproject reads it, certificates record it
__version__ = "0.1.0"

# each public name -> the submodule that defines it
_SUBMODULE = {
    name: module
    for module, names in {
        "construction": (
            "ConstructionRun", "TargetCoverageReport", "run_construction",
            "select_stable_primes", "target_coverage_report",
        ),
        "covering": (
            "CoveringInstance", "CoverResult", "nibble_cover", "subset_leftover",
            "synth_instance",
        ),
        "harness": ("MODES", "ExperimentConfig", "Report", "run_experiment"),
        "maier": (
            "FrameWindow", "GapChainCertificate", "MaierFrame", "MissReport",
            "RowStatistics", "VerificationOutcome", "assemble_frame",
            "find_gap_chain", "sample_rows", "verify_certificate",
        ),
        "nt": (
            "PrimalityResult", "chain_gap_record", "is_prime", "mertens_density",
            "primes_in_range",
        ),
        "partition": (
            "MIN_X", "Params", "PrimePartition", "build_partition",
            "derive_parameters",
        ),
        "seeds": ("derive_random", "derive_rng", "derive_seed"),
        "sieving": (
            "ResidueSystem", "SievedSet", "assemble_full_system", "greedy_rankin",
            "sample_classes", "sift_interval", "sift_mismatches",
        ),
        "weights": (
            "AdmissibleTuple", "WeightContractReport", "WeightTable",
            "build_weights", "first_primes_tuple", "is_admissible",
            "weight_contract_report",
        ),
    }.items()
    for name in names
}
__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})


# harness (and with it nt and covering) stays eager: benchmark spans find
# it in sys.modules and rebind its nibble_cover and synth_instance
from . import harness  # noqa: E402
