"""The public surface of the top-level package."""

import importlib
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


def public_names() -> list[str]:
    # submodules are left out: which of them are attributes depends on what was imported
    return sorted(
        name
        for name in dir(pdtcomp)
        if not name.startswith("_") and not isinstance(getattr(pdtcomp, name), ModuleType)
    )


def test_public_names_are_pinned():
    assert public_names() == PUBLIC_NAMES


def test_each_public_name_is_its_module_object():
    for name in PUBLIC_NAMES:
        value = getattr(pdtcomp, name)
        owner = importlib.import_module(value.__module__)
        assert getattr(owner, name) is value, name
    assert public_names() == PUBLIC_NAMES  # resolving the lazy names adds none


def test_lazy_modules_resolve_as_attributes():
    for name in ("analysis", "engine", "rewrite"):
        assert getattr(pdtcomp, name) is importlib.import_module(f"pdtcomp.{name}")
        assert name in dir(pdtcomp)
