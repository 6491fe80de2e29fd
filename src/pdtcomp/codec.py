"""Matched-pair pushdown codec.

The compressor reads symbols over the alphabet ``{0, ..., k-1}``.  A symbol
that differs from the stack top is pushed and echoed to the output; a
symbol equal to the top pops it.  Each maximal run of ``m`` consecutive
pops is coded as ``m // 2`` copies of the pair marker, plus one odd marker
when ``m`` is odd; the odd marker is emitted together with the next pushed
symbol, or by ``flush`` at end of input.  The output alphabet is therefore
the input alphabet extended by the two marker codes.

The decompressor inverts this exactly: plain symbols are pushed and
echoed, the odd marker pops one symbol, the pair marker pops two (topmost
first).  :func:`compress` always flushes, so the round trip is the identity
on every finite word; unflushed, :meth:`Compressor.feed` is the prefix
coding of an unbounded stream (``[0]`` and ``[0, 0]`` both feed to ``[0]``).

Both directions exist twice: as explicit transducer tables executed by
:mod:`pdtcomp.engine` (the reference semantics; :func:`compress_run` keeps
the run's push/pop kinds and symbol counts), and as the streaming sessions
:class:`Compressor` / :class:`Decompressor` used on hot paths.  The test
suite pins the two routes to each other.

Mirrored input is folded.  The compressor's stack always holds the reduced
form of what it has read (adjacent equal symbols cancel), so on an
even-length palindrome ``w + w[::-1]`` the stack states of the second half
retrace those of ``w`` backwards: every push of ``w`` becomes a pop and
every pop a push, and the runs on either side of the seam never merge.
:meth:`Compressor.consume` therefore reads only ``w`` of such an input and
derives every counter of the second half from the census of ``w``'s push
and pop runs; :func:`pdtcomp.analysis.block_stats` folds its symbol-run
census the same way.  Other input is coded by ``feed``'s loop and counted
from its codes, so the compressor has two per-symbol loops: the census of
the fold, and ``feed``'s, the only one that emits output.

Long walks take two cores: the fold walk of ``consume``, and ``feed`` in
either direction (unmirrored ``consume`` runs ``feed``'s walk).  From
``_SPLIT_MIN`` symbols, where ``os.fork`` exists, two CPUs are usable and
no other thread runs, a forked worker walks the second part of the word
while the session walks the first (:func:`_fork_join`).  The fold walks a
byte stack up to k = 253 and a list past it (:func:`_fold_stack`), and its
worker starts on a fresh one.  Both feeds split through one path,
:func:`_split_walk`, which runs the session's own loop.  It splits only a
``bytes`` or ``bytearray`` word, up to k = 254, and its worker
starts from the bare bottom, at a seam near the middle where the session's
stack should be bare.  The worker's part counts only when the session's
stack is bare at the seam; otherwise the session walks the rest itself, as
it does wherever it cannot fork.  Each session finds its own seam: the
decompressor by counting its codes (a plain code pushes one symbol, an odd
marker pops one and a pair marker two), the compressor from the symbols
before its middle alone (:func:`_bare_point`).  So both feeds split words
built from drained pieces: words made of pairs ``u + u[::-1]`` (paired-enum
files) code and decode on two cores for every k up to 254.  Paired-lex and
random words stay in one process both ways, as their stack does not come
back to the bare bottom near their middle.  Output, counters and errors
come out identical either way, and the worker ends before the call returns.

The feed loops carry only what decides the next code: the stack, its top
and whether an odd marker is pending (coding) or was the last code read
(decoding), with no search before them.  A feed's counters are then
counted from its codes, and the decoder works out a bad code's position
from the symbols emitted.

Every word, here and in generation, the census and the stream formats,
enters through :func:`packed`: the one place that picks its in-memory form
(``bytes`` or ``bytearray``, or ``array('H')`` past 256 codes) and
range-checks its symbols.  Words are built in :func:`packed_buffer`, which
picks the form from the code limit: ``bytearray`` while every code fits a
byte, else ``array('H')``.  The sessions, :func:`compress`,
:func:`decompress` and :mod:`pdtcomp.seqgen` return each word as the buffer
it was built in; nothing freezes it into a ``bytes`` copy.

The engine is imported only by the table builders and :func:`compress_run`,
so the sessions load without it.
"""

import marshal
import os
import sys
from array import array
from collections import Counter
from functools import lru_cache
from itertools import compress as select, count
from operator import eq
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .engine import Configuration, RunTrace, TransducerSpec

K_MIN = 2
K_MAX = 65534  # pair marker k + 1 must fit a 16-bit stream code


class CodecError(ValueError):
    """Base class for codec usage and data errors."""


class AlphabetError(CodecError):
    """An input symbol lies outside the expected alphabet."""


class MalformedStreamError(CodecError):
    """A coded stream that :func:`compress` cannot have produced."""


def check_alphabet_size(k: int) -> int:
    if not isinstance(k, int) or not K_MIN <= k <= K_MAX:
        raise ValueError(f"alphabet size must be an integer in [{K_MIN}, {K_MAX}], got {k!r}")
    return k


def odd_marker(k: int) -> int:
    """Output code signalling one unpaired pop."""
    return k


def pair_marker(k: int) -> int:
    """Output code signalling two consecutive pops."""
    return k + 1


def stack_bottom(k: int) -> int:
    """Stack-only sentinel; never read, written, or popped."""
    return k + 2


def _table(k: int, input_alphabet, output_alphabet, transitions) -> "TransducerSpec":
    """A codec table: states 0 and 1 from 0, the k symbols on the stack over its bottom sentinel."""
    from .engine import TransducerSpec

    bottom = stack_bottom(k)
    return TransducerSpec(input_alphabet, output_alphabet, [*range(k), bottom], (0, 1), 0, bottom, transitions)


@lru_cache(maxsize=None)
def build_compressor(k: int) -> "TransducerSpec":
    """Transducer table for the compressor over ``{0, ..., k-1}``.

    States: 0 (between pop pairs) and 1 (one pop pending).  Four families:
    push-and-echo, first pop of a pair (silent), second pop (pair marker),
    and push-after-odd-run (odd marker plus the pushed symbol).
    """
    from .engine import Transition

    check_alphabet_size(k)
    alphabet = range(k)
    ts: list[Transition] = []
    for z in [*alphabet, stack_bottom(k)]:
        for a in alphabet:
            if z != a:
                ts.append(Transition(0, z, a, (a,), 0, (z, a)))
                ts.append(Transition(1, z, a, (odd_marker(k), a), 0, (z, a)))
    for a in alphabet:
        ts.append(Transition(0, a, a, (), 1, ()))
        ts.append(Transition(1, a, a, (pair_marker(k),), 0, ()))
    return _table(k, alphabet, range(k + 2), ts)


@lru_cache(maxsize=None)
def build_decompressor(k: int) -> "TransducerSpec":
    """Transducer table for the inverse direction.

    Plain symbols push and echo (also onto the bottom sentinel); the odd
    marker pops and echoes the top; the pair marker pops and echoes the
    top, then an input-free move pops and echoes the next one.
    """
    from .engine import EPSILON, Transition

    check_alphabet_size(k)
    alphabet = range(k)
    ts: list[Transition] = []
    for z in [*alphabet, stack_bottom(k)]:
        for a in alphabet:
            ts.append(Transition(0, z, a, (a,), 0, (z, a)))
    for z in alphabet:
        ts.append(Transition(0, z, odd_marker(k), (z,), 0, ()))
        ts.append(Transition(0, z, pair_marker(k), (z,), 1, ()))
        ts.append(Transition(1, z, EPSILON, (z,), 0, ()))
    return _table(k, range(k + 2), alphabet, ts)


_CHUNK = 1 << 15  # symbols per slice where a whole word is read in slices


def packed(word, limit: int, what: str):
    """``word`` packed, every symbol checked to lie in ``[0, limit)``.

    ``bytes``, ``bytearray`` and ``array('H')`` are read in place; any other
    iterable becomes ``bytes`` when every symbol is below 256, else
    ``array('H')``, and a symbol that is not an integer raises ``TypeError``.
    The first symbol out of range raises ``AlphabetError``, named as ``what``.
    ``bytes`` and ``bytearray`` are checked through a byte table, a slice of
    ``_CHUNK`` symbols at a time so that no temporary as long as the word is
    made; ``array('H')`` by its largest symbol.
    """
    if isinstance(word, (bytes, bytearray)):
        valid = bytes(range(min(limit, 256)))
        slices = (word[i : i + _CHUNK] for i in range(0, len(word), _CHUNK))
        if limit >= 256 or not any(part.translate(None, valid) for part in slices):
            return word
    elif isinstance(word, array) and word.typecode == "H":
        if not word or max(word) < limit:
            return word
    else:
        word = word if isinstance(word, list) else list(word)
        if not word:
            return b""
        high = max(word)
        if min(word) >= 0 and high < limit:
            return bytes(word) if high < 256 else array("H", word)
    bad = next(a for a in word if not 0 <= a < limit)
    raise AlphabetError(f"{what} {bad} outside [0, {limit})")


def packed_buffer(limit: int, size: int = 0) -> bytearray | array:
    """A writable buffer of ``size`` zero symbols, for symbols below ``limit``.

    ``bytearray`` when every symbol fits a byte (``limit`` at most 256), else
    ``array('H')``: forms :func:`packed` reads in place.  A word is returned
    as the buffer it was built in; nothing copies it into ``bytes``.  The
    wide form is repeated from one item, so no temporary of its size is made.
    """
    return bytearray(size) if limit <= 256 else array("H", [0]) * size


def _first_repeat(word, start: int, end: int) -> int:
    """First ``i`` in ``[start, end)`` with ``word[i] == word[i - 1]``, else ``end``; ``start >= 1``."""
    view = memoryview(word)
    return next(select(count(start), map(eq, view[start:end], view[start - 1 : end])), end)


def _count_pairs(codes, first: int, second: int) -> int:
    """How often ``codes`` holds ``first`` directly followed by ``second``, two distinct codes.

    ``bytes`` and ``bytearray`` count the pair at C level; distinct codes
    cannot overlap, so no match hides another.  In ``array('H')`` each
    ``first`` is found at C level and the code after it compared.
    """
    if not isinstance(codes, array):
        return codes.count(bytes((first, second)))
    found = 0
    i = 0
    try:
        while True:
            i = codes.index(first, i, len(codes) - 1) + 1
            found += codes[i] == second
    except ValueError:  # no ``first`` left before the last code
        return found


def _part(word, start: int, end: int):
    """``word[start:end]`` not copied: ``word`` when whole (it iterates faster), else a ``memoryview``."""
    return word if start == 0 and end == len(word) else memoryview(word)[start:end]


def mirror_half(word) -> int:
    """Length of ``w`` when ``word`` is ``w + w[::-1]`` with ``w`` non-empty, else 0.

    Compares chunks of the first half with reversed chunks of the second,
    from the ends inwards, so a mismatch near the ends is found at once and
    neither the input nor its half is copied whole.
    """
    end = len(word)
    half = end // 2
    if end % 2:
        return 0
    i = 0
    while i < half:
        j = min(i + _CHUNK, half)
        if word[i:j] != word[end - j : end - i][::-1]:
            return 0
        i = j
    return half


# A walk of at least this many symbols may take two cores: the fold (Compressor._fold_census)
# and a feed of a byte word (_split_walk).  The fold's seam lies at least _SPLIT_LEAD symbols
# past its middle; the decompressor looks for a bare seam among the _SPLIT_LEAD codes from its
# middle, the compressor among the _SPLIT_WINDOW symbols before it.
_SPLIT_MIN = 1 << 18
_SPLIT_LEAD = 256
_SPLIT_WINDOW = 1 << 12
_CLOSED = (0, 0, 0, 0, 0, False)  # census state at a run boundary


def _may_fork() -> bool:
    """Whether ``os.fork`` exists, two CPUs are usable and no other thread runs."""
    threading = sys.modules.get("threading")
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and (threading is None or threading.active_count() == 1)
    )


def _bare_point(word, start: int, end: int) -> tuple[int, int]:
    """The likeliest point of ``[start, end]`` where a walk of ``word`` leaves the stack bare, and its count.

    Walked backwards from ``end``, the state at ``p`` is the reduced form of
    ``word[p:end]``.  Whatever came before ``start``, two points have equal
    states exactly when the stack is the same at both, and the state is the
    stack at ``end`` exactly where the stack is bare.  Returns the point
    nearest ``end`` with a most frequent state, and how many points have it.
    """
    trie = {}
    below = []  # (state, front symbol) of each state the walk may pop back to
    state, front = 0, -1
    states = [state]
    for a in word[start:end][::-1]:
        if a == front:
            state, front = below.pop()
        else:
            below.append((state, front))
            state = trie.setdefault((state, a), len(trie) + 1)
            front = a
        states.append(state)
    state, most = Counter(states).most_common(1)[0]
    return end - states.index(state), most


def _fork_join(work, own):
    """Run ``work`` in a forked worker while this process runs ``own``: both results.

    The worker sends what ``work`` returns, marshalled, and writes all of
    it; its result is None when ``work`` raised or the worker did not exit
    cleanly.  The worker is killed when ``own`` or the read raises, and
    always reaped before this returns.  None, and ``own`` not run, when the
    pipe or the fork cannot be made.
    """
    try:
        reader, writer = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        return None
    if pid == 0:
        status = 1
        try:
            reply = memoryview(marshal.dumps(work()))
            while reply:
                reply = reply[os.write(writer, reply) :]
            status = 0
        finally:
            os._exit(status)
    os.close(writer)
    try:
        ours = own()
        reply = b"".join(iter(lambda: os.read(reader, 1 << 20), b""))
    except BaseException:
        from signal import SIGKILL

        os.kill(pid, SIGKILL)
        raise
    finally:
        os.close(reader)
        status = os.waitpid(pid, 0)[1]
    return ours, marshal.loads(reply) if status == 0 else None


def _split_walk(session, walk, word, out, pending) -> bool:
    """Walk ``word`` into ``out`` with ``walk``, on two cores where it may; the flag ``walk`` leaves.

    ``walk(out, word, start, end, pending)`` is the session's loop,
    :meth:`Compressor._code` or :meth:`Decompressor._decode`: it walks
    ``word[start:end]`` on ``session._stack`` and returns ``pending``, whether
    an odd marker is pending after it, which only the compressor's loop sets.
    From ``_SPLIT_MIN`` symbols of a ``bytes`` or ``bytearray`` word, up to
    k = 254 (where the codes, and so both outputs, fit a byte) and where
    :func:`_may_fork` holds, ``session._seam(word)`` says where to cut.  This
    process walks ``word[:seam]`` while a forked worker walks the rest from
    the bare bottom with no marker pending.  The worker's part is taken only
    when this process's stack is bare at the seam; its first symbol then
    pushes onto the bare bottom, so an odd marker pending at the seam goes in
    front of it, as one process would emit it.  A decoder's worker fails on a
    marker right at the seam, which would pop the bare bottom.  Where the
    stack is not bare at the seam, and where the worker fails or cannot start,
    this process walks the rest itself, so a decoding error is raised here, as
    one process raises it.
    """
    end = len(word)
    seam = end
    if end >= _SPLIT_MIN and session.k <= 254 and isinstance(word, (bytes, bytearray)) and _may_fork():
        seam = session._seam(word)

    def tail():
        session._stack = [stack_bottom(session.k)]
        part = bytearray()
        return part, walk(part, word, seam, end, False), bytes(session._stack[1:])

    joined = _fork_join(tail, lambda: walk(out, word, 0, seam, pending)) if seam < end else None
    if not joined:
        return walk(out, word, 0, end, pending)
    pending, reply = joined
    if reply is None or len(session._stack) > 1:
        return walk(out, word, seam, end, pending)
    part, pending_after, stack = reply
    if pending:
        out.append(session._odd)
    out += part
    session._stack += stack
    return pending_after


def _fold_stack(k: int, entries) -> bytearray | list:
    """A fold walk's stack of ``entries``: a byte per entry up to k = 253, else a list."""
    return bytearray(entries) if stack_bottom(k) < 256 else list(entries)


def _fold_tallies(census) -> tuple[int, int]:
    """Runs of length 1 and runs of odd length, push and pop alike, of a census; its open run closes."""
    pop_singles, pop_odd, push_singles, push_odd, last = census[:5]
    singles = pop_singles + push_singles
    return singles + (last == 1), singles + pop_odd + push_odd + (last & 1)


class Compressor:
    """Single-owner streaming compressor session.

    ``feed`` accepts any iterable of symbols below ``k`` and returns the
    output emitted so far for them; ``consume`` updates the same counters and
    returns nothing (for measurement runs).  ``flush`` ends the
    session, emitting one odd marker if a pop is pending.  Output comes back
    as the :func:`packed_buffer` it was written to, for the limit ``k + 2``:
    ``bytearray`` up to k = 254, else ``array('H')``.

    The session stores its stack, the symbols read, the length of the pop
    run still open, and the pair markers and clustered pops of the closed
    pop runs.  ``feed``'s loop carries only the stack, its top and whether an
    odd marker is pending, and counts these from its codes afterwards;
    ``consume`` counts a folded palindrome from its census.  Every other
    counter follows from these, the open run ``R`` contributing what it has
    emitted so far:

    * ``savings``: pair markers emitted so far, ``R // 2`` of them in the
      open run; equals the difference between symbols read and symbols
      written once the session is flushed.
    * ``state``: 1 while an odd marker is pending, that is ``R`` is odd.
    * ``symbols_written``: ``symbols_read - savings - state``, since each
      push emits one symbol and each closed run of ``m`` pops ``m - m // 2``.
    * ``clustered_pops``: pops that belong to a maximal run of at least
      two consecutive pops (the open run included).
    """

    def __init__(self, k: int):
        self.k = check_alphabet_size(k)
        self._odd = odd_marker(k)
        self._pair = pair_marker(k)
        self._stack: list[int] = [stack_bottom(k)]
        self._finished = False
        self._read = 0
        self._pairs = 0
        self._clustered = 0
        self._open_run = 0

    def feed(self, word) -> bytearray | array:
        """Compress ``word``; the codes emitted for it, in the buffer they were written to."""
        return self._walk(self._start_feed(word))

    def _walk(self, word) -> bytearray | array:
        """Code the packed ``word`` and count it from its codes; returns the codes.

        The one route of ``feed`` and of ``consume`` on input it does not
        fold.  A long byte word may be coded on two cores, with the same
        result (:func:`_split_walk`, cut where :meth:`_seam` says).
        """
        out = packed_buffer(self.k + 2)
        run = self._open_run
        depth = len(self._stack)
        pending = _split_walk(self, self._code, word, out, run & 1)
        self._count_codes(out, len(word), run, pending, len(self._stack) - depth)
        self._read += len(word)
        return out

    def _seam(self, word) -> int:
        """Where :func:`_split_walk` cuts ``word``; the end of ``word`` where it does not.

        The seam is the point :func:`_bare_point` picks among the
        ``_SPLIT_WINDOW`` symbols before the middle, and the word is cut only
        where its stack recurs at least once per 16 of them.  Every word of a
        paired-enum file drains the stack, so there the stack that recurs is
        the bare one.  Paired-lex and random words do not come back to one
        stack that often, and are coded in one process.
        """
        end = len(word)
        middle = end // 2
        start = max(middle - _SPLIT_WINDOW, 0)
        seam, seen = _bare_point(word, start, middle)
        return seam if 16 * seen >= middle - start else end

    def _code(self, out, word, start: int, end: int, pending: bool) -> bool:
        """Code ``word[start:end]`` into ``out`` on the session's stack: the one loop that emits.

        Carries the stack, its top and ``pending``, whether an odd marker is
        pending, which it returns.  The top lives in a local during the walk:
        CPython 3.11 specializes ``list[i]`` only for non-negative ``i``, so
        reading ``stack[-1]`` per symbol would run the generic subscript.
        """
        emit = out.append
        stack = self._stack
        push = stack.append
        pop = stack.pop
        odd = self._odd
        pair = self._pair
        top = pop()
        for a in _part(word, start, end):
            if a == top:
                top = pop()
                if pending:
                    emit(pair)
                    pending = False
                else:
                    pending = True
            else:
                push(top)
                top = a
                if pending:
                    emit(odd)
                    pending = False
                emit(a)
        push(top)
        return pending

    def _count_codes(self, out, length: int, run: int, pending: bool, rise: int) -> None:
        """Count a feed of ``length`` symbols from its codes ``out``.

        ``run`` is the pop run open before, ``pending`` the flag after, and
        ``rise`` the change of depth.  ``(length + rise) / 2`` symbols push,
        and ``written = read - savings - state`` gives the pair markers, so
        the odd markers too: one for each odd pop run the feed closed.  The
        codes after the last push are the open run's pair markers.  A run of
        one pop is an odd marker that follows no pair marker and, as the
        feed's first code, closes no entry run of two pops or more.
        """
        odd = self._odd
        pair = self._pair
        pushes = (length + rise) // 2
        if not pushes:
            self._open_run = run + length
            return
        pairs = (run & 1) + length - len(out) - pending
        odds = len(out) - pushes - pairs
        last = len(out) - 1
        while out[last] == pair:
            last -= 1
        open_run = 2 * (len(out) - 1 - last) + pending
        singles = odds - _count_pairs(out, pair, odd) - (out[0] == odd and run >= 2)
        self._close(run + length - pushes - open_run, odds, singles, open_run)

    def _close(self, closed: int, odd: int, singles: int, open_run: int) -> None:
        """Count ``closed`` pops of closed pop runs, ``odd`` of the runs odd and ``singles`` one pop long.

        The one step that closes pop runs, for ``feed``, the fold and
        ``flush``: a run of ``m`` pops codes to ``m // 2`` pair markers and
        is clustered from two pops.  ``open_run`` is the run left open.
        """
        self._pairs += (closed - odd) // 2
        self._clustered += closed - singles
        self._open_run = open_run

    def consume(self, word) -> None:
        """Like ``feed`` but the codes are not returned.

        An even palindrome ``w + w[::-1]`` is folded: only ``w`` is walked
        (:meth:`_census`), and each run of ``w``, push or pop, counts as one
        pop run of the whole input, except a leading push run of ``w``, which
        comes back last and stays open.  A closed run of ``m`` pops codes to
        ``m // 2`` pair markers plus an odd marker when ``m`` is odd, and only
        closed runs are stored.  A long ``w`` may be walked on two cores
        (:meth:`_fold_census`), with the same result; the fold walks a copy
        of the stack.  Any other input takes ``feed``'s walk (:meth:`_walk`),
        which codes it and counts it from the codes, so it takes two cores
        where ``feed`` would.  Both routes leave the same counters, state and
        stack as ``feed``.
        """
        word = self._start_feed(word)
        half = mirror_half(word)
        if not half:
            self._walk(word)
            return
        entry_run = self._open_run
        starts_popping = self._stack[-1] == word[0]
        singles, odd = self._fold_census(word, half, (0, 0, 0, 0, entry_run, entry_run > 0))
        if starts_popping:
            open_run = 0
        else:
            open_run = _first_repeat(word, 1, half)  # where the leading push run ends
            odd -= open_run & 1
            singles -= open_run == 1
        self._close(entry_run + half - open_run, odd, singles, open_run)
        self._read += len(word)

    def _fold_census(self, word, half: int, state) -> tuple[int, int]:
        """Runs of length 1 and runs of odd length, push and pop alike, of the walk of ``word[:half]``.

        The walk runs on a :func:`_fold_stack` copy of the session's stack.
        From ``_SPLIT_MIN`` symbols, where ``os.fork`` exists, two CPUs are
        usable and no other thread runs, a forked worker
        (:meth:`_tail_census`) walks the second part while this process
        walks the first.  A forked worker reads ``word`` in place; a spawned
        one would have to be sent it.  The seam is the first equal adjacent
        pair ``_SPLIT_LEAD`` or more symbols after the middle: every walk
        switches between pushes and pops there, so each part's runs close at
        it.  The worker starts at the middle on a fresh stack.  From there
        on, the real stack is the one at the middle with the worker's stack
        on top, less the ``cancelled`` bottom symbols of the worker's stack
        and as many top symbols of the real one.  The two walks step alike
        while the worker's stack stays deeper than ``cancelled``.  So the
        worker's tallies count only if its walk never came down to half its
        depth at the seam, where it deleted its stack, and ``cancelled`` is
        below that depth.  Otherwise, and on any ``OSError``, this process
        walks the rest itself.
        """
        stack = _fold_stack(self.k, self._stack)
        middle = half // 2
        seam = half
        if half >= _SPLIT_MIN and _may_fork():
            seam = _first_repeat(word, middle + _SPLIT_LEAD, half)

        def own():
            head = self._census(stack, word, 0, middle, state)
            depth = len(stack)
            return self._census(stack, word, middle, seam, head), depth

        joined = _fork_join(lambda: self._tail_census(word, middle, seam, half), own) if seam < half else None
        if not joined:
            return _fold_tallies(self._census(stack, word, 0, half, state))
        (state, depth), reply = joined
        if reply is not None:
            *tail, tail_depth = reply
            cancelled = (depth + tail_depth - len(stack)) // 2
            if cancelled < tail_depth // 2:
                ours, theirs = _fold_tallies(state), _fold_tallies(tail)
                return ours[0] + theirs[0], ours[1] + theirs[1]
        return _fold_tallies(self._census(stack, word, seam, half, state))

    def _tail_census(self, word, middle: int, seam: int, half: int) -> tuple:
        """The worker's walk: ``word[middle:seam]`` on a fresh stack, then ``word[seam:half]``.

        Before the second census it deletes its stack up to and including the
        entry at half the depth, so a walk that comes down to that depth pops
        an empty stack and raises ``IndexError``, which fails the worker.
        Returns the second census and the depth at the seam.
        """
        stack = _fold_stack(self.k, (stack_bottom(self.k),))
        self._census(stack, word, middle, seam, _CLOSED)
        depth = len(stack) - 1
        del stack[: depth // 2 + 1]
        return (*self._census(stack, word, seam, half, _CLOSED), depth)

    @staticmethod
    def _census(stack, word, start: int, end: int, state) -> tuple[int, int, int, int, int, bool]:
        """Walk ``word[start:end]`` on ``stack`` and tally its maximal runs.

        ``state`` and the result are ``(pop_singles, pop_odd, push_singles,
        push_odd, run, popping)``: the closed pop runs and closed push runs
        of length 1 and of odd length >= 3, then the length of the open run
        and whether it pops.  The walk continues the tallies and the open
        run of ``state``, so a first step of the open run's kind extends it.

        The fold's walk, in this process and in its worker: ``stack`` is a
        :func:`_fold_stack`.  Its top lives in a local during the walk and is
        back on the stack when the call returns, as in :meth:`_code`.
        """
        pop_singles, pop_odd, push_singles, push_odd, run, popping = state
        push = stack.append
        pop = stack.pop
        top = pop()
        for a in memoryview(word)[start:end]:
            if a == top:
                top = pop()
                if popping:
                    run += 1
                    continue
                if run == 1:
                    push_singles += 1
                elif run & 1:
                    push_odd += 1
                popping = True
            else:
                push(top)
                top = a
                if not popping:
                    run += 1
                    continue
                if run == 1:
                    pop_singles += 1
                elif run & 1:
                    pop_odd += 1
                popping = False
            run = 1
        push(top)
        return pop_singles, pop_odd, push_singles, push_odd, run, popping

    def flush(self) -> bytearray | array:
        """End the session; emit the pending odd marker if there is one.

        Returns the emitted codes in the form ``feed`` returns: empty, or the odd marker alone.
        """
        if self._finished:
            raise CodecError("compressor session already flushed")
        self._finished = True
        out = packed_buffer(self.k + 2)
        run = self._open_run
        self._close(run, run & 1, run == 1, 0)
        if run & 1:
            out.append(self._odd)
        return out

    def _start_feed(self, word):
        if self._finished:
            raise CodecError("compressor session already flushed")
        return packed(word, self.k, "input symbol")

    @property
    def state(self) -> int:
        return self._open_run & 1

    @property
    def stack(self) -> tuple[int, ...]:
        return tuple(self._stack)

    @property
    def symbols_read(self) -> int:
        return self._read

    @property
    def symbols_written(self) -> int:
        return self._read - self.savings - (self._open_run & 1)

    @property
    def savings(self) -> int:
        return self._pairs + (self._open_run >> 1)

    @property
    def clustered_pops(self) -> int:
        return self._clustered + (self._open_run if self._open_run >= 2 else 0)


class Decompressor:
    """Single-owner streaming decompressor session.

    Accepts exactly the streams :class:`Compressor` emits: a plain symbol
    equal to the stack top would have popped it, and an odd marker closes
    its pop run, so a plain symbol or the end of the stream follows it.

    Output comes back as the :func:`packed_buffer` it was written to, for the
    limit ``k``: ``bytearray`` up to k = 256, else ``array('H')``.

    Its loop carries only the stack, its top and whether the last code was
    an odd marker, and checks every code there, with no search before it.
    A ``MalformedStreamError`` names a position worked out from the symbols
    emitted, and ends the session: it leaves the stack part way through the
    rejected call, so every later ``feed`` raises ``CodecError``.  An
    ``AlphabetError`` is raised before any symbol is decoded and leaves the
    session usable.
    """

    def __init__(self, k: int):
        self.k = check_alphabet_size(k)
        self._stack: list[int] = [stack_bottom(k)]
        self._read = 0
        self._written = 0
        self._after_odd = False  # whether the last code read was an odd marker
        self._failed = False  # set while decoding; stays set if decoding raised

    def feed(self, word) -> bytearray | array:
        """Decode ``word``; the symbols it stands for, in the buffer they were written to.

        A long byte word may be decoded on two cores, with the same result
        (:func:`_split_walk`, cut where :meth:`_seam` says): a malformed
        stream raises the same error at the same position and leaves the same
        failed session.
        """
        if self._failed:
            raise CodecError("decompressor session already failed on a malformed stream")
        word = packed(word, self.k + 2, "coded symbol")
        out = packed_buffer(self.k)
        self._failed = True
        _split_walk(self, self._decode, word, out, False)
        self._failed = False
        self._read += len(word)
        if word:
            self._after_odd = word[-1] == self.k
        self._written += len(out)
        return out

    def _seam(self, word) -> int:
        """Where :func:`_split_walk` cuts ``word``; the end of ``word`` where it does not.

        :func:`_split_walk` asks only up to k = 254, where the markers fit a byte.
        The seam is the first of the ``_SPLIT_LEAD`` codes from the middle of
        ``word`` before which the stack is bare.  A plain code pushes, an odd
        marker pops one symbol and a pair marker two, so the depth at the
        middle follows from the entry depth and two counts, and each code
        after it moves the depth by a known step.  Where the first half is
        well formed, that depth is exact.  Every word of a paired-enum file
        drains the stack; random and paired-lex codes do not come back to the
        bottom near their middle, and are decoded in one process.
        """
        end = len(word)
        k = self.k
        middle = end // 2
        depth = len(self._stack) - 1 + middle - 2 * word.count(k, 0, middle) - 3 * word.count(k + 1, 0, middle)
        for seam, b in enumerate(word[middle : middle + _SPLIT_LEAD], middle):
            if depth == 0:
                return seam
            depth += 1 if b < k else k - 1 - b  # an odd marker pops one symbol, a pair marker two
        return end

    def _decode(self, out, word, start: int, end: int, pending: bool) -> bool:
        """Decode ``word[start:end]`` into ``out`` on the session's stack; ``pending`` as it came.

        The walk :func:`_split_walk` runs for this session, which never has an
        odd marker pending: ``pending`` is false.  The loop carries the stack,
        its top and whether the last code was an odd marker (before ``start``,
        the code there, or the last code of the feed before), and stops at the
        first bad code.  A marker after an odd marker is reported as such, also
        where the pop it asks for fails.  Its position follows from the symbols
        emitted.  The top lives in a local, as in :meth:`Compressor._code`, and
        is back on the stack when the loop stops, so an error leaves the stack
        as it was at the bad code.
        """
        emit = out.append
        stack = self._stack
        push = stack.append
        pop = stack.pop
        k = self.k
        emitted = len(out)
        after_odd = word[start - 1] == k if start else self._after_odd
        top = pop()
        for b in _part(word, start, end):
            if b < k:
                if top == b:
                    break
                push(top)
                top = b
                emit(b)
                after_odd = False
            elif after_odd:
                break
            elif b == k:
                if not stack:
                    break
                emit(top)
                top = pop()
                after_odd = True
            elif len(stack) < 2:
                break
            else:
                emit(top)
                emit(pop())
                top = pop()
        else:
            push(top)
            return pending
        push(top)
        position = self._position(word, start, len(out) - emitted)
        if b < k:
            raise MalformedStreamError(f"plain symbol {b} at position {position} equals the stack top")
        if after_odd:
            raise MalformedStreamError(f"marker at position {position} directly after an odd marker")
        if b == k:
            raise MalformedStreamError(f"odd marker at position {position} with no matched symbol pending")
        raise MalformedStreamError(
            f"pair marker at position {position} with fewer than two matched symbols pending"
        )

    def _position(self, word, start: int, emitted: int) -> int:
        """The position, from 1, of the code where a decode from ``start`` stopped after ``emitted`` symbols.

        Each code emits one symbol and a pair marker two: the index is
        ``start + emitted`` less the pair markers before it.
        """
        index = start + emitted
        try:
            while True:
                start = word.index(self.k + 1, start, index) + 1
                index -= 1
        except ValueError:  # none left, or ``word`` cannot hold one
            return self._read + index + 1

    @property
    def stack(self) -> tuple[int, ...]:
        return tuple(self._stack)

    @property
    def symbols_read(self) -> int:
        return self._read

    @property
    def symbols_written(self) -> int:
        return self._written


def compress(word, k: int) -> bytearray | array:
    """Compress a finite word over ``{0, ..., k-1}``; packed as :meth:`Compressor.feed` packs.

    The session is flushed, so a trailing odd pop run ends in its odd marker
    and the coding is injective on finite words; the marker is appended to
    the buffer ``feed`` returned, in place.  The unflushed prefix coding of
    an unbounded stream is ``Compressor(k).feed(word)``.
    """
    session = Compressor(k)
    out = session.feed(word)
    out += session.flush()
    return out


def decompress(word, k: int) -> bytearray | array:
    """Invert :func:`compress`; packed as :meth:`Decompressor.feed` packs.

    Accepts exactly the flushed ``compress`` image.

    So ``compress(decompress(c), k) == c`` for every ``c`` it returns on.
    Raises ``MalformedStreamError`` when a marker requests a pop that has
    no pending pushed symbol, when a plain symbol equals the stack top, or
    when a marker directly follows an odd marker; ``AlphabetError`` on
    codes >= k + 2.
    """
    return Decompressor(k).feed(word)


def compress_run(word, k: int) -> tuple[list[int], "Configuration", "RunTrace"]:
    """Compress through the transducer table, keeping the run trace; always flushed.

    Slower than :func:`compress` but exposes the per-position push/pop
    kinds read by :func:`pdtcomp.analysis.pop_run_account`.  A flushed odd
    marker counts in the trace's ``symbols_written``.
    """
    from . import engine
    from .engine import Configuration

    word = packed(word, check_alphabet_size(k), "input symbol")
    out, config, trace = engine.run(build_compressor(k), word)
    out = list(out)
    if config.state == 1:
        out.append(odd_marker(k))
        trace.symbols_written += 1
        config = Configuration(0, config.stack)
    return out, config, trace
