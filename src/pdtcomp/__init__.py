"""Matched-pair stack codec and its measurement toolkit.

A deterministic one-to-one pushdown transducer that pushes fresh symbols
and cancels repeats against the stack, coding pop runs with two marker
symbols; its exact inverse; generators for mirrored lexicographic
enumeration sequences whose coded form is measurably shorter than the
input for alphabets of five or more symbols; and the analysis machinery
quantifying why (run census, savings accounting, ratio series, exact
sufficiency arithmetic).

``import pdtcomp`` loads the codec, the generators and the stream formats.
The :mod:`~pdtcomp.analysis`, :mod:`~pdtcomp.engine` and
:mod:`~pdtcomp.rewrite` modules and the names re-exported from them load on
first access, so a process that only codes files never imports them.
"""

import importlib

from . import codec, seqgen, streamio
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
)
from .seqgen import lex_concat, mirrored_segment
from .streamio import decode_stream, encode_stream

__version__ = "0.1.0"

_LAZY_EXPORTS = {
    "analysis": (
        "PopRunAccount",
        "RatioPoint",
        "SegmentReport",
        "block_stats",
        "expected_singletons",
        "pop_run_account",
        "ratio_bound",
        "ratio_series",
        "segment_reports",
        "sufficiency_exact",
    ),
    "engine": ("Configuration", "RunTrace", "Transition", "TransducerSpec", "run", "step", "validate"),
    "rewrite": ("normal_form",),
}
_LAZY_OWNER = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY_OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_EXPORTS, *_LAZY_OWNER})
