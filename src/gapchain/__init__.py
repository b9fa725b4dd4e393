"""Desk-scale machinery for manufacturing chains of large prime gaps.

The package walks the whole constructive pipeline at sizes a laptop can
check end to end: derive run parameters and a three-way prime partition,
sieve the target interval by residue classes, build sieve weights over
the middle primes and test their contracts, draw the random residue
construction, cover leftovers with random subset unions, translate the
sieved window along an arithmetic progression, and certify any chain of
consecutive large prime gaps the translation exposes.
"""

# the one version source: pyproject reads it, certificates record it
__version__ = "0.1.0"

from .construction import (
    ConstructionRun,
    TargetCoverageReport,
    correlation_probability,
    run_construction,
    sample_small_classes,
    select_stable_primes,
    target_coverage_report,
)
from .covering import CoveringInstance, CoverResult, nibble_cover, subset_leftover, synth_instance
from .harness import (
    MODES,
    ExperimentConfig,
    Report,
    run_experiment,
)
from .maier import (
    FrameWindow,
    GapChainCertificate,
    MaierFrame,
    MissReport,
    RowStatistics,
    VerificationOutcome,
    assemble_frame,
    find_gap_chain,
    sample_rows,
    verify_certificate,
)
from .nt import (
    NonCoprimeModuliError,
    PrimalityResult,
    chain_gap_record,
    crt_combine,
    factorize,
    is_prime,
    mertens_density,
    prime_count,
    primes_in_range,
    sieve_primes,
    smooth_count,
)
from .partition import (
    FORMULA_MODE_MIN_X,
    TOY_MODE_MIN_X,
    Params,
    PrimePartition,
    build_partition,
    derive_parameters,
)
from .seeds import derive_random, derive_rng, derive_seed
from .sieving import (
    ResidualReport,
    ResidueSystem,
    SievedSet,
    SmallClassVector,
    assemble_full_system,
    greedy_rankin,
    residual_smooth_set,
    sift_interval,
    sifted_mask,
    sifted_membership,
)
from .weights import (
    AdmissibleTuple,
    WeightContractReport,
    WeightTable,
    build_weights,
    first_primes_tuple,
    is_admissible,
    weight_contract_report,
)
