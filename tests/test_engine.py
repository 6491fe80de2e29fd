"""Runtime semantics of the generic pushdown-transducer engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcomp import engine
from pdtcomp.codec import (
    build_compressor,
    build_decompressor,
    compress,
    pair_marker,
    stack_bottom,
)
from pdtcomp.engine import (
    EPSILON,
    POP,
    PUSH,
    Configuration,
    EmptyStackError,
    InvalidSpecError,
    NoTransitionError,
    Transition,
    TransducerSpec,
    initial_configuration,
    run,
    step,
    validate,
)


def assert_deterministic_exhaustively(spec):
    """Independent oracle: scan every (state, top, input) combination."""
    for q in spec.states:
        for z in spec.stack_alphabet:
            eps = [t for t in spec.transitions if (t.state, t.top, t.symbol) == (q, z, EPSILON)]
            assert len(eps) <= 1
            for a in spec.input_alphabet:
                matches = [t for t in spec.transitions if (t.state, t.top, t.symbol) == (q, z, a)]
                assert len(matches) <= 1
                if eps:
                    assert not matches, f"epsilon not exclusive at ({q}, {z})"


@pytest.mark.parametrize("k", [2, 3, 5])
def test_validate_compressor_empty(k):
    spec = build_compressor(k)
    assert validate(spec) == []
    assert_deterministic_exhaustively(spec)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_validate_decompressor_empty(k):
    spec = build_decompressor(k)
    assert validate(spec) == []
    assert_deterministic_exhaustively(spec)


def test_validate_reports_duplicate_transition():
    base = build_compressor(3)
    clash = base.transitions[0]
    doubled = TransducerSpec(
        input_alphabet=base.input_alphabet,
        output_alphabet=base.output_alphabet,
        stack_alphabet=base.stack_alphabet,
        states=base.states,
        initial_state=base.initial_state,
        start_symbol=base.start_symbol,
        transitions=base.transitions
        + (
            Transition(clash.state, clash.top, clash.symbol, clash.output, 1 - clash.next_state, clash.push),
        ),
    )
    violations = validate(doubled)
    assert len(violations) == 1
    assert "nondeterministic" in violations[0]


def test_validate_reports_epsilon_conflict():
    spec = TransducerSpec(
        input_alphabet={0},
        output_alphabet={0},
        stack_alphabet={9},
        states={0},
        initial_state=0,
        start_symbol=9,
        transitions=(
            Transition(0, 9, 0, (0,), 0, (9,)),
            Transition(0, 9, EPSILON, (), 0, (9,)),
        ),
    )
    assert any("epsilon" in v for v in validate(spec))


def test_validate_reports_referential_problems():
    spec = TransducerSpec(
        input_alphabet={0},
        output_alphabet={0},
        stack_alphabet={9},
        states={0},
        initial_state=1,
        start_symbol=8,
        transitions=(Transition(0, 7, 2, (5,), 3, (6,)),),
    )
    messages = "\n".join(validate(spec))
    for fragment in ("initial state", "start symbol", "not in states", "not in stack alphabet",
                     "not in input alphabet", "not in output alphabet"):
        assert fragment in messages


def test_step_push_on_fresh_symbol():
    spec = build_compressor(2)
    bottom = stack_bottom(2)
    config, out, consumed = step(spec, Configuration(0, (bottom,)), 0)
    assert config == Configuration(0, (bottom, 0))
    assert out == (0,)
    assert consumed


def test_step_silent_first_pop():
    spec = build_compressor(2)
    bottom = stack_bottom(2)
    config, out, consumed = step(spec, Configuration(0, (bottom, 0)), 0)
    assert config == Configuration(1, (bottom,))
    assert out == ()
    assert consumed


def test_step_epsilon_takes_priority_and_consumes_nothing():
    spec = build_decompressor(2)
    bottom = stack_bottom(2)
    config, out, consumed = step(spec, Configuration(1, (bottom, 0)), 1)
    assert config == Configuration(0, (bottom,))
    assert out == (0,)
    assert not consumed


def test_step_rejects_invalid_spec():
    spec = TransducerSpec(
        input_alphabet={0},
        output_alphabet={0},
        stack_alphabet={9},
        states={0},
        initial_state=0,
        start_symbol=9,
        transitions=(
            Transition(0, 9, 0, (), 0, (9,)),
            Transition(0, 9, 0, (0,), 0, (9,)),
        ),
    )
    with pytest.raises(InvalidSpecError):
        step(spec, initial_configuration(spec), 0)


def test_step_empty_stack():
    spec = build_compressor(2)
    with pytest.raises(EmptyStackError):
        step(spec, Configuration(0, ()), 0)


def test_run_empty_input():
    spec = build_compressor(2)
    out, config, trace = run(spec, [])
    assert out == ()
    assert config == initial_configuration(spec)
    assert len(trace) == 0
    assert trace.symbols_read == 0 and trace.symbols_written == 0


def test_run_mirrored_word():
    out, config, trace = run(build_compressor(2), [0, 1, 1, 0])
    assert out == (0, 1, pair_marker(2))
    assert config == Configuration(0, (stack_bottom(2),))
    assert bytes(trace.kinds) == bytes([PUSH, PUSH, POP, POP])


def test_run_all_pushes():
    bottom = stack_bottom(2)
    out, config, trace = run(build_compressor(2), [0, 1, 0])
    assert out == (0, 1, 0)
    assert config == Configuration(0, (bottom, 0, 1, 0))
    assert trace.depths == [2, 3, 4]


def test_run_reports_offending_position():
    with pytest.raises(NoTransitionError) as exc:
        run(build_compressor(2), [0, 1, 7, 0])
    assert exc.value.position == 3
    assert exc.value.symbol == 7


def test_run_empty_stack_position():
    spec = TransducerSpec(
        input_alphabet={0},
        output_alphabet={0},
        stack_alphabet={9},
        states={0},
        initial_state=0,
        start_symbol=9,
        transitions=(Transition(0, 9, 0, (0,), 0, ()),),
    )
    with pytest.raises(EmptyStackError) as exc:
        run(spec, [0, 0])
    assert exc.value.position == 2


def test_run_drains_epsilon_before_first_read():
    spec = TransducerSpec(
        input_alphabet={0},
        output_alphabet={5},
        stack_alphabet={8, 9},
        states={0, 1},
        initial_state=0,
        start_symbol=9,
        transitions=(Transition(0, 9, EPSILON, (5,), 1, (8,)),),
    )
    out, config, trace = run(spec, [])
    assert out == (5,)
    assert config == Configuration(1, (8,))
    assert trace.initial_output == (5,)
    assert trace.symbols_written == 1


def test_run_guards_against_epsilon_loops():
    spec = TransducerSpec(
        input_alphabet={0},
        output_alphabet={0},
        stack_alphabet={9},
        states={0},
        initial_state=0,
        start_symbol=9,
        transitions=(Transition(0, 9, EPSILON, (), 0, (9,)),),
    )
    with pytest.raises(engine.EngineError):
        run(spec, [])


def test_decompressor_fires_at_most_one_epsilon_between_reads():
    k = 2
    spec = build_decompressor(k)
    bottom = stack_bottom(k)
    config = Configuration(0, (bottom, 0, 1))
    config, out, consumed = step(spec, config, pair_marker(k))
    assert consumed and out == (1,) and config.state == 1
    config, out, consumed = step(spec, config, None)
    assert not consumed and out == (0,) and config.state == 0
    with pytest.raises(NoTransitionError):
        step(spec, config, None)


def test_stack_depth_accounting_per_transition():
    for spec in (build_compressor(3), build_decompressor(3)):
        for t in spec.transitions[:50]:
            stack = (stack_bottom(3),) * 3 + (t.top,)
            config, _, _ = step(spec, Configuration(t.state, stack), t.symbol)
            assert len(config.stack) == len(stack) - 1 + len(t.push)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5),
    st.lists(st.integers(0, 4), max_size=60),
    st.data(),
)
def test_streaming_consistency(k, raw, data):
    word = [a % k for a in raw]
    cut = data.draw(st.integers(0, len(word)))
    spec = build_compressor(k)
    whole = run(spec, word)
    head = run(spec, word[:cut])
    tail = run(spec, word[cut:], start=head.config)
    assert head.output + tail.output == whole.output
    assert tail.config == whole.config
    assert bytes(head.trace.kinds) + bytes(tail.trace.kinds) == bytes(whole.trace.kinds)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.lists(st.integers(0, 4), max_size=80))
def test_rerun_is_identical(k, raw):
    word = [a % k for a in raw]
    spec = build_compressor(k)
    first = run(spec, word)
    second = run(spec, word)
    assert first.output == second.output
    assert first.config == second.config
    assert first.trace.outputs == second.trace.outputs
    assert first.trace.depths == second.trace.depths


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.lists(st.integers(0, 4), max_size=80))
def test_trace_totals_match_step_sums(k, raw):
    word = [a % k for a in raw]
    out, _, trace = run(build_compressor(k), word)
    assert trace.symbols_read == len(trace) == len(word)
    assert trace.symbols_written == len(trace.initial_output) + sum(
        len(o) for o in trace.outputs
    )
    assert trace.symbols_written == len(out)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.lists(st.integers(0, 3), max_size=80))
def test_stack_never_empties_under_compressor(k, raw):
    word = [a % k for a in raw]
    _, _, trace = run(build_compressor(k), word)
    assert all(d >= 1 for d in trace.depths)


def reference_run(spec, word):
    """Oracle for ``run``: one ``step`` at a time, input-free moves drained eagerly.

    Returns ``(output, config, kinds, outputs, depths, error)``, where
    ``error`` is ``(type, position)`` of the first failure, else None.
    """
    config = initial_configuration(spec)
    out, kinds, outputs, depths = [], [], [], []

    def drain(config):
        emitted = []
        while config.stack:
            try:
                config, moved, consumed = step(spec, config, None)
            except NoTransitionError:
                break
            assert not consumed
            emitted.extend(moved)
        return config, emitted

    config, emitted = drain(config)
    out.extend(emitted)
    for position, a in enumerate(word, start=1):
        depth = len(config.stack)
        try:
            config, moved, consumed = step(spec, config, a)
        except (NoTransitionError, EmptyStackError) as exc:
            return out, config, kinds, outputs, depths, (type(exc), position)
        assert consumed
        # the top is replaced by the pushed word: a non-empty one (a push) keeps the depth or grows it
        kinds.append(PUSH if len(config.stack) >= depth else POP)
        config, emitted = drain(config)
        moved = tuple(moved) + tuple(emitted)
        out.extend(moved)
        outputs.append(moved)
        depths.append(len(config.stack))
    return out, config, kinds, outputs, depths, None


def assert_run_matches_reference(spec, word):
    out, config, kinds, outputs, depths, error = reference_run(spec, word)
    if error is not None:
        with pytest.raises(error[0]) as exc:
            run(spec, word)
        assert type(exc.value) is error[0]
        assert exc.value.position == error[1]
        return
    result = run(spec, word)
    assert result.output == tuple(out)
    assert result.config == config
    assert list(result.trace.kinds) == kinds
    assert result.trace.outputs == outputs
    assert result.trace.depths == depths
    assert result.trace.symbols_read == len(word)
    assert result.trace.symbols_written == len(out)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_run_matches_step_by_step_reference(k):
    rng = random.Random(k)
    tables = (build_compressor(k), build_decompressor(k))
    for spec in tables:
        codes = max(spec.input_alphabet) + 3  # two codes outside the table
        for _ in range(300):
            length = rng.randrange(40)
            if rng.random() < 0.5:
                word = [rng.randrange(codes) for _ in range(length)]
            else:
                word = [rng.randrange(k) for _ in range(length)]
                if spec is tables[1]:
                    word = list(compress(word, k))
                    if word and rng.random() < 0.5:
                        word[rng.randrange(len(word))] = rng.randrange(codes)
            assert_run_matches_reference(spec, word)


def chained_spec(loop: bool) -> TransducerSpec:
    """Reading 0 pushes three 7s; input-free moves then pop them one by one.

    With ``loop`` the first input-free move pushes a 7 more than it pops,
    so the chain never ends.
    """
    return TransducerSpec(
        input_alphabet={0},
        output_alphabet={1, 2},
        stack_alphabet={7, 9},
        states={0, 1},
        initial_state=0,
        start_symbol=9,
        transitions=(
            Transition(0, 9, 0, (1,), 1, (9, 7, 7, 7)),
            Transition(1, 9, 0, (1,), 1, (9, 7, 7, 7)),
            Transition(1, 7, EPSILON, (2,), 1, (7, 7) if loop else ()),
        ),
    )


def test_run_drains_chained_input_free_moves_after_each_read():
    spec = chained_spec(loop=False)
    assert validate(spec) == []
    out, config, trace = run(spec, [0, 0])
    assert out == (1, 2, 2, 2) * 2
    assert config == Configuration(1, (9,))
    assert trace.outputs == [(1, 2, 2, 2)] * 2
    assert trace.depths == [1, 1]
    assert bytes(trace.kinds) == bytes([PUSH, PUSH])
    assert_run_matches_reference(spec, [0, 0, 0])


def test_run_chained_input_free_moves_hit_the_drain_budget():
    with pytest.raises(engine.EngineError, match="drain budget") as exc:
        run(chained_spec(loop=True), [0])
    assert type(exc.value) is engine.EngineError
