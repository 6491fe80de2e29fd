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

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Transition:
    """One table entry: from (state, top) on input consume/emit/move.

    ``push`` is written bottom-up and replaces the popped top symbol, so an
    empty ``push`` is a pure pop and ``push == (top, a)`` stacks ``a`` on an
    unchanged ``top``.
    """

    state: int
    top: int
    symbol: int | None
    output: tuple[int, ...]
    next_state: int
    push: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "output", tuple(self.output))
        object.__setattr__(self, "push", tuple(self.push))


@dataclass(frozen=True)
class Configuration:
    """Machine snapshot: control state plus bottom-up stack content."""

    state: int
    stack: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "stack", tuple(self.stack))


@dataclass(frozen=True)
class TransducerSpec:
    """Immutable description of a deterministic pushdown transducer."""

    input_alphabet: frozenset[int]
    output_alphabet: frozenset[int]
    stack_alphabet: frozenset[int]
    states: frozenset[int]
    initial_state: int
    start_symbol: int
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        for name in ("input_alphabet", "output_alphabet", "stack_alphabet", "states"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        object.__setattr__(self, "transitions", tuple(self.transitions))
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
        object.__setattr__(self, "_steps", steps)
        object.__setattr__(self, "_eps", eps)


class RunResult(NamedTuple):
    output: tuple[int, ...]
    config: Configuration
    trace: "RunTrace"


@dataclass
class RunTrace:
    """Step kinds and written count of a run.

    ``kinds[i]`` is the kind (``PUSH`` or ``POP``) of the transition that
    consumed input position ``i + 1``, so ``len(trace)`` counts the symbols
    read; ``symbols_written`` counts every output symbol, those of
    input-free moves included.
    """

    kinds: bytearray = field(default_factory=bytearray)
    symbols_written: int = 0

    def __len__(self) -> int:
        return len(self.kinds)


def validate(spec: TransducerSpec) -> list[str]:
    """Check a transducer description, returning violations as messages.

    An empty list means the description is referentially sound and
    deterministic: each (state, top, symbol) triple has at most one
    transition, and a (state, top) pair with an input-free transition has
    no symbol-consuming ones (nor a second input-free one).
    """
    cached = getattr(spec, "_violations", None)
    if cached is not None:
        return list(cached)

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

    object.__setattr__(spec, "_violations", tuple(out))
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
    lookup in the spec's precompiled step table, and the drain runs only
    when the new (state, top) has an input-free move, so a table without
    such moves (the compressor's) costs no drain per symbol.  The run may
    legally end in any state; reaching end of input never raises by itself.
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
        if stack and (state, stack[-1]) in eps:
            drain()
        tr.kinds.append(kind)

    tr.symbols_written = len(out)
    return RunResult(tuple(out), Configuration(state, tuple(stack)), tr)
