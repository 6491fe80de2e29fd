"""Matched-pair stack codec and its measurement toolkit.

A deterministic one-to-one pushdown transducer that pushes fresh symbols
and cancels repeats against the stack, coding pop runs with two marker
symbols; its exact inverse; generators for mirrored lexicographic
enumeration sequences whose coded form is measurably shorter than the
input for alphabets of five or more symbols; and the analysis machinery
quantifying why (run census, push/pop matching, savings bounds, ratio
series, exact sufficiency arithmetic).
"""

from . import analysis, codec, engine, rewrite, seqgen, streamio
from .analysis import (
    BlockStats,
    EdgeSet,
    NormalityReport,
    PopRunAccount,
    RatioPoint,
    SegmentReport,
    block_stats,
    edge_set,
    expected_singletons,
    normality_deviation,
    pop_run_account,
    ratio_bound,
    ratio_series,
    segment_reports,
    sufficiency_exact,
)
from .codec import (
    AlphabetError,
    Compressor,
    Decompressor,
    MalformedStreamError,
    build_compressor,
    build_decompressor,
    compress,
    compress_run,
    decompress,
    pop_run_decomposition,
)
from .engine import (
    Configuration,
    RunTrace,
    Transition,
    TransducerSpec,
    run,
    step,
    validate,
)
from .rewrite import equivalent, normal_form, reduce_once
from .seqgen import cyclic_occurrences, lex_concat, mirrored_segment
from .streamio import decode_stream, encode_stream

__version__ = "0.1.0"
