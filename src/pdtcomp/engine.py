"""Deterministic pushdown-transducer runtime.

A transducer is an immutable table of transitions indexed by
(state, stack top, input symbol).  Each transition replaces the stack top
by a pushed word (possibly empty, i.e. a pure pop), emits an output word,
and moves to a new state.  Transitions whose input label is ``EPSILON``
consume no symbol; they fire eagerly whenever one is defined for the
current (state, stack top) pair, which is unambiguous because validation
enforces that such a pair has no symbol-consuming transitions.

Symbols are plain non-negative integers.  Stack contents are written
bottom-up: the top of the stack is the last element.
"""

from typing import Iterable, NamedTuple

EPSILON = None
"""Input label of a transition that consumes no input symbol."""

PUSH = 0
POP = 1
"""Trace step kinds: a step pushes (non-empty pushed word) or pops."""


class EngineError(Exception):
    """Base class for runtime failures of the transducer engine."""


class InvalidSpecError(EngineError):
    """The transducer description failed validation."""

    def __init__(self, violations: list[str]):
        super().__init__(
            "invalid transducer: " + "; ".join(violations[:3])
            + ("; ..." if len(violations) > 3 else "")
        )
        self.violations = violations


class NoTransitionError(EngineError):
    """No transition applies to the current (state, top, input)."""

    def __init__(self, state: int, top: int, symbol: int | None, position: int | None = None):
        where = f" at position {position}" if position is not None else ""
        label = "end of input" if symbol is None else f"symbol {symbol}"
        super().__init__(f"no transition from state {state} with top {top} on {label}{where}")
        self.state = state
        self.top = top
        self.symbol = symbol
        self.position = position


class EmptyStackError(EngineError):
    """The stack was exhausted, leaving no top symbol to match."""

    def __init__(self, position: int | None = None):
        where = f" at position {position}" if position is not None else ""
        super().__init__(f"stack exhausted{where}")
        self.position = position


class _Transition(NamedTuple):
    state: int
    top: int
    symbol: int | None
    output: tuple[int, ...]
    next_state: int
    push: tuple[int, ...]


class Transition(_Transition):
    """One table entry: from (state, top) on input consume/emit/move.

    ``push`` is written bottom-up and replaces the popped top symbol, so an
    empty ``push`` is a pure pop and ``push == (top, a)`` stacks ``a`` on an
    unchanged ``top``.  A named tuple; ``output`` and ``push`` are made
    tuples on construction, also by ``_make`` and ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, state, top, symbol, output, next_state, push):
        return super().__new__(cls, state, top, symbol, tuple(output), next_state, tuple(push))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _Configuration(NamedTuple):
    state: int
    stack: tuple[int, ...]


class Configuration(_Configuration):
    """Machine snapshot: control state plus bottom-up stack content.

    A named tuple; ``stack`` is made a tuple on construction, also by
    ``_make`` and ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, state, stack):
        return super().__new__(cls, state, tuple(stack))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class TransducerSpec:
    """Description of a deterministic pushdown transducer, fixed once built.

    The alphabets and states are kept as frozen sets and the transitions as
    a tuple.  The step table that ``run`` and ``step`` read is built once,
    here, and :func:`validate` keeps its verdict on the spec, so a spec is
    not to be changed after construction.
    """

    __slots__ = (
        "input_alphabet", "output_alphabet", "stack_alphabet", "states",
        "initial_state", "start_symbol", "transitions", "_steps", "_eps", "_violations",
    )

    def __init__(
        self,
        input_alphabet: Iterable[int],
        output_alphabet: Iterable[int],
        stack_alphabet: Iterable[int],
        states: Iterable[int],
        initial_state: int,
        start_symbol: int,
        transitions: Iterable[Transition],
    ):
        self.input_alphabet = frozenset(input_alphabet)
        self.output_alphabet = frozenset(output_alphabet)
        self.stack_alphabet = frozenset(stack_alphabet)
        self.states = frozenset(states)
        self.initial_state = initial_state
        self.start_symbol = start_symbol
        self.transitions = tuple(transitions)
        # Step table: (state, top, symbol) -> (push, output, next_state, kind).
        steps: dict[tuple[int, int, int], tuple[tuple[int, ...], tuple[int, ...], int, int]] = {}
        eps: dict[tuple[int, int], Transition] = {}
        for t in self.transitions:
            if t.symbol is EPSILON:
                eps.setdefault((t.state, t.top), t)
            else:
                steps.setdefault(
                    (t.state, t.top, t.symbol),
                    (t.push, t.output, t.next_state, PUSH if t.push else POP),
                )
        self._steps = steps
        self._eps = eps
        self._violations = None  # set by validate


class RunResult(NamedTuple):
    output: tuple[int, ...]
    config: Configuration
    trace: "RunTrace"


class RunTrace:
    """Step kinds and written count of a run.

    ``kinds[i]`` is the kind (``PUSH`` or ``POP``) of the transition that
    consumed input position ``i + 1``, so ``len(trace)`` counts the symbols
    read; ``symbols_written`` counts every output symbol, those of
    input-free moves included.  Two traces are equal when both fields are.
    """

    __slots__ = ("kinds", "symbols_written")

    def __init__(self, kinds: bytearray | None = None, symbols_written: int = 0):
        self.kinds = bytearray() if kinds is None else kinds
        self.symbols_written = symbols_written

    def __len__(self) -> int:
        return len(self.kinds)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kinds == other.kinds and self.symbols_written == other.symbols_written

    def __repr__(self) -> str:
        return f"RunTrace(kinds={self.kinds!r}, symbols_written={self.symbols_written!r})"


def validate(spec: TransducerSpec) -> list[str]:
    """Check a transducer description, returning violations as messages.

    An empty list means the description is referentially sound and
    deterministic: each (state, top, symbol) triple has at most one
    transition, and a (state, top) pair with an input-free transition has
    no symbol-consuming ones (nor a second input-free one).
    """
    if spec._violations is not None:
        return list(spec._violations)

    out: list[str] = []
    if spec.initial_state not in spec.states:
        out.append(f"initial state {spec.initial_state} not in states")
    if spec.start_symbol not in spec.stack_alphabet:
        out.append(f"start symbol {spec.start_symbol} not in stack alphabet")

    for i, t in enumerate(spec.transitions):
        if t.state not in spec.states or t.next_state not in spec.states:
            out.append(f"transition {i}: state {t.state} -> {t.next_state} not in states")
        if t.top not in spec.stack_alphabet:
            out.append(f"transition {i}: top {t.top} not in stack alphabet")
        if t.symbol is not EPSILON and t.symbol not in spec.input_alphabet:
            out.append(f"transition {i}: input {t.symbol} not in input alphabet")
        bad_push = [z for z in t.push if z not in spec.stack_alphabet]
        if bad_push:
            out.append(f"transition {i}: pushed symbols {bad_push} not in stack alphabet")
        bad_out = [b for b in t.output if b not in spec.output_alphabet]
        if bad_out:
            out.append(f"transition {i}: output symbols {bad_out} not in output alphabet")

    seen: dict[tuple[int, int, int | None], int] = {}
    for t in spec.transitions:
        seen[(t.state, t.top, t.symbol)] = seen.get((t.state, t.top, t.symbol), 0) + 1
    for (state, top, symbol), count in seen.items():
        if count > 1:
            label = "epsilon" if symbol is EPSILON else f"input {symbol}"
            out.append(f"nondeterministic: {count} transitions for state {state}, top {top}, {label}")
    for state, top in {(s, z) for (s, z, a) in seen if a is not EPSILON}:
        if (state, top, EPSILON) in seen:
            out.append(
                f"state {state}, top {top}: epsilon transition coexists with symbol-consuming ones"
            )

    spec._violations = tuple(out)
    return out


def _require_valid(spec: TransducerSpec) -> None:
    violations = validate(spec)
    if violations:
        raise InvalidSpecError(violations)


def step(
    spec: TransducerSpec, config: Configuration, next_input: int | None
) -> tuple[Configuration, tuple[int, ...], bool]:
    """Apply one transition from ``config``.

    An input-free transition for (state, top) takes priority and leaves the
    input untouched (``consumed`` is False); otherwise the unique transition
    for (state, top, ``next_input``) fires.  Pass ``next_input=None`` at end
    of input to probe for draining moves.
    """
    _require_valid(spec)
    if not config.stack:
        raise EmptyStackError()
    top = config.stack[-1]
    t = spec._eps.get((config.state, top))
    if t is not None:
        return Configuration(t.next_state, config.stack[:-1] + t.push), t.output, False
    if next_input is None:
        raise NoTransitionError(config.state, top, None)
    move = spec._steps.get((config.state, top, next_input))
    if move is None:
        raise NoTransitionError(config.state, top, next_input)
    push, output, next_state, _ = move
    return Configuration(next_state, config.stack[:-1] + push), output, True


def run(spec: TransducerSpec, word: Iterable[int]) -> RunResult:
    """Run the transducer over ``word`` and collect output and trace.

    The run starts in the initial state on the start symbol.  Input-free
    moves are drained eagerly: before the first read and after every
    consumed symbol (hence also after the last one).  Each read is one
    lookup in the spec's precompiled step table.  After a read the drain
    runs only when the new (state, top) has an input-free move, and that is
    probed only when the table has such moves at all, so a table without
    them (the compressor's) costs no drain and no probe per symbol.  The run
    may legally end in any state; reaching end of input never raises by
    itself.
    Raises ``NoTransitionError`` / ``EmptyStackError`` with the 1-based
    offending input position, and ``InvalidSpecError`` up front if the
    description does not validate.
    """
    _require_valid(spec)
    state = spec.initial_state
    stack = [spec.start_symbol]
    steps = spec._steps
    eps = spec._eps
    out: list[int] = []
    emit = out.extend
    tr = RunTrace()
    mark = tr.kinds.append
    position = 0

    def drain() -> None:
        nonlocal state
        budget = max(64, 4 * len(stack) + 4 * len(spec.states))
        while stack:
            t = eps.get((state, stack[-1]))
            if t is None:
                break
            budget -= 1
            if budget < 0:
                raise EngineError("input-free transition loop exceeded the drain budget")
            del stack[-1]
            stack.extend(t.push)
            emit(t.output)
            state = t.next_state

    drain()
    for a in word:
        position += 1
        if not stack:
            raise EmptyStackError(position)
        move = steps.get((state, stack[-1], a))
        if move is None:
            raise NoTransitionError(state, stack[-1], a, position)
        push, output, state, kind = move
        del stack[-1]
        stack.extend(push)
        emit(output)
        if eps and stack and (state, stack[-1]) in eps:
            drain()
        mark(kind)

    tr.symbols_written = len(out)
    return RunResult(tuple(out), Configuration(state, tuple(stack)), tr)
