"""The public surface of the top-level package."""

from types import ModuleType

import pdtcomp

PUBLIC_NAMES = [
    "AlphabetError",
    "BlockStats",
    "Compressor",
    "Configuration",
    "Decompressor",
    "MalformedStreamError",
    "PopRunAccount",
    "RatioPoint",
    "RunTrace",
    "SegmentReport",
    "TransducerSpec",
    "Transition",
    "block_stats",
    "build_compressor",
    "build_decompressor",
    "compress",
    "compress_run",
    "decode_stream",
    "decompress",
    "encode_stream",
    "expected_singletons",
    "lex_concat",
    "mirrored_segment",
    "normal_form",
    "pop_run_account",
    "ratio_bound",
    "ratio_series",
    "run",
    "segment_reports",
    "step",
    "sufficiency_exact",
    "validate",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes depends on what was imported
    names = sorted(
        name
        for name, value in vars(pdtcomp).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert names == PUBLIC_NAMES
