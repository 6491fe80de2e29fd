"""In-memory spans around calls into pdtcomp's public functions.

A span is a name, the index of its parent span and its start and end on
the ``perf_counter_ns`` clock.  A span's self time is its duration minus
the durations of its direct children, so the self times of a tree add up
exactly to the duration of its root.

:func:`instrumented` replaces the names that pdtcomp's callers look up
(module attributes and class methods) with wrappers that open a span per
call, or per ``next()`` for generators, and restores them on exit.  Each
span name also accumulates a work count (symbols or bytes) used for rates,
and the compressor wrappers accumulate the session counters.
"""

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []  # [name, parent index or None, start, end]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        self.spans.append([name, parent, self.clock(), None])
        return index

    def close(self, index: int) -> None:
        end = self.clock()
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._open.pop()
        self.spans[index][3] = end

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add(self, name: str, value: int) -> None:
        self.counts[name] += value

    def summary(self) -> dict:
        """Per span name ``[calls, busy_ns, self_ns]``, the counts, and the root check.

        ``root_ns`` is the summed duration of parentless spans and
        ``self_sum_ns`` the summed self time of every span; they are equal
        when every span is closed and nested in its parent.
        """
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        children = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: dict[str, list[int]] = {}
        root_ns = 0
        self_sum_ns = 0
        for (name, parent, start, end), child_ns in zip(self.spans, children):
            own = end - start - child_ns
            entry = totals.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += own
            self_sum_ns += own
            if parent is None:
                root_ns += end - start
        return {
            "spans": totals,
            "counts": dict(self.counts),
            "root_ns": root_ns,
            "self_sum_ns": self_sum_ns,
        }


def merge(summaries) -> dict:
    """Add up summaries from several processes."""
    merged = {"spans": {}, "counts": defaultdict(int), "root_ns": 0, "self_sum_ns": 0}
    for s in summaries:
        for name, values in s["spans"].items():
            entry = merged["spans"].setdefault(name, [0, 0, 0])
            for i, v in enumerate(values):
                entry[i] += v
        for name, value in s["counts"].items():
            merged["counts"][name] += value
        merged["root_ns"] += s["root_ns"]
        merged["self_sum_ns"] += s["self_sum_ns"]
    merged["counts"] = dict(merged["counts"])
    return merged


def _call(tracer, name, fn, units=None):
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if units is not None:
            tracer.add(name, units(args, result))
        return result

    return wrapper


def _generator(tracer, name, fn, units):
    """Span each ``next()``; the consumer's work between items is not inside."""

    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            index = tracer.open(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            tracer.add(name, units(item))
            yield item

    return wrapper


_SESSION_COUNTERS = {
    "codec.read_syms": "symbols_read",
    "codec.written_syms": "symbols_written",
    "codec.pair_markers": "savings",
    "codec.clustered_pops": "clustered_pops",
}


def _compressor_method(tracer, name, fn):
    """Span a Compressor method; add its change of every session counter."""

    def wrapper(session, *args, **kwargs):
        before = {key: getattr(session, attr) for key, attr in _SESSION_COUNTERS.items()}
        index = tracer.open(name)
        try:
            result = fn(session, *args, **kwargs)
        finally:
            tracer.close(index)
        for key, attr in _SESSION_COUNTERS.items():
            tracer.add(key, getattr(session, attr) - before[key])
        tracer.add(name, session.symbols_read - before["codec.read_syms"])
        return result

    return wrapper


def _decompressor_feed(tracer, name, fn):
    def wrapper(session, *args, **kwargs):
        before = session.symbols_written
        index = tracer.open(name)
        try:
            result = fn(session, *args, **kwargs)
        finally:
            tracer.close(index)
        tracer.add(name, session.symbols_written - before)
        return result

    return wrapper


def _engine_steps(args, result):
    return len(result.trace) if result.trace is not None else 0


@contextmanager
def instrumented(tracer: Tracer):
    """Trace pdtcomp's layer entry points for the duration of the block.

    Work counts: plain symbols for the generator, ``block_stats``, the
    compressor (symbols read) and the decompressor (symbols written);
    bytes for the stream codecs; consumed symbols for ``engine.run``.
    """
    from pdtcomp import analysis, codec, engine, rewrite, seqgen, streamio

    segments = _generator(
        tracer, "seqgen.iter_mirrored_segments", seqgen.iter_mirrored_segments,
        lambda item: len(item[1]),
    )
    patches = [
        # analysis binds its own name for the generator; the CLI looks it up on seqgen.
        (seqgen, "iter_mirrored_segments", segments),
        (analysis, "iter_mirrored_segments", segments),
        (analysis, "block_stats",
         _call(tracer, "analysis.block_stats", analysis.block_stats, lambda a, r: len(a[0]))),
        (analysis, "pop_run_account",
         _call(tracer, "analysis.pop_run_account", analysis.pop_run_account)),
        (analysis, "segment_reports",
         _call(tracer, "analysis.segment_reports", analysis.segment_reports)),
        (analysis, "ratio_series", _call(tracer, "analysis.ratio_series", analysis.ratio_series)),
        (codec.Compressor, "consume",
         _compressor_method(tracer, "codec.Compressor.consume", codec.Compressor.consume)),
        (codec.Compressor, "feed",
         _compressor_method(tracer, "codec.Compressor.feed", codec.Compressor.feed)),
        (codec.Compressor, "flush",
         _compressor_method(tracer, "codec.Compressor.flush", codec.Compressor.flush)),
        (codec.Decompressor, "feed",
         _decompressor_feed(tracer, "codec.Decompressor.feed", codec.Decompressor.feed)),
        (codec, "compress_run", _call(tracer, "codec.compress_run", codec.compress_run)),
        (engine, "run", _call(tracer, "engine.run", engine.run, _engine_steps)),
        (rewrite, "normal_form", _call(tracer, "rewrite.normal_form", rewrite.normal_form)),
        (streamio, "encode_stream",
         _call(tracer, "streamio.encode_stream", streamio.encode_stream, lambda a, r: len(r))),
        (streamio, "decode_stream",
         _call(tracer, "streamio.decode_stream", streamio.decode_stream, lambda a, r: len(a[0]))),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
