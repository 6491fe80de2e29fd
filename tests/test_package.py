"""The public surface of the top-level package."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pdtcomp

PUBLIC_NAMES = [
    "AlphabetError",
    "Compressor",
    "Decompressor",
    "MalformedStreamError",
    "build_compressor",
    "build_decompressor",
    "compress",
    "decode_stream",
    "decompress",
    "encode_stream",
    "lex_concat",
    "mirrored_segment",
]

LOADED_MODULES = ["pdtcomp", "pdtcomp.codec", "pdtcomp.seqgen", "pdtcomp.streamio"]

FRESH_IMPORT_SCRIPT = """
import json, sys
import pdtcomp
print(json.dumps({
    "modules": sorted(m for m in sys.modules if m == "pdtcomp" or m.startswith("pdtcomp.")),
    "names": [name for name in dir(pdtcomp) if not name.startswith("_")],
}))
"""


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


def test_import_loads_only_the_codec_generators_and_stream_formats():
    env = dict(os.environ)
    src = str(Path(pdtcomp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT_SCRIPT], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    fresh = json.loads(done.stdout)
    assert fresh["modules"] == LOADED_MODULES
    assert sorted(fresh["names"]) == sorted([*PUBLIC_NAMES, "codec", "seqgen", "streamio"])
