"""citecopy: how often do citers read what they cite?

Estimate reader fractions from citation misprint statistics, validate
the estimator against a generative copy-chain simulation, grow
random-citing-scientist networks, and compare the resulting citation
distributions against the equal-papers binomial null.
"""

__version__ = "0.1.0"

from .copychain import (
    CopyChainConfig,
    CopyChainOutcome,
    RoundtripSummary,
    estimator_roundtrip,
    simulate_copy_chain,
)
from .distributions import (
    CcdfCurve,
    CountSample,
    LogBinnedHistogram,
    ccdf,
    ks_distance,
    log_bin_histogram,
)
from .errors import (
    CitecopyError,
    EstimatorBreakdownError,
    InsufficientStatisticsError,
    InvalidTallyError,
)
from .estimator import (
    MisprintTally,
    ReaderEstimate,
    copy_factor,
    corrected_read_fraction,
    misprint_probability,
    naive_read_fraction,
    propagation_factor,
)
from .nullmodel import (
    BinomialTailQuery,
    binomial_log10_tail,
    expected_count,
    streak_probability,
)
from .parsing import (
    CanonicalRef,
    CitationTable,
    MisprintClass,
    ParseReport,
    classify,
    parse_records,
    top_misprints,
)
from .rcs import (
    CitationNetwork,
    DegreeStats,
    RcsConfig,
    degree_stats,
    renowned_fraction,
    simulate_rcs,
)
