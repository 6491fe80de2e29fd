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
        step(spec, Configuration(spec.initial_state, (spec.start_symbol,)), 0)


def test_step_empty_stack():
    spec = build_compressor(2)
    with pytest.raises(EmptyStackError):
        step(spec, Configuration(0, ()), 0)


def test_run_empty_input():
    spec = build_compressor(2)
    out, config, trace = run(spec, [])
    assert out == ()
    assert config == Configuration(spec.initial_state, (spec.start_symbol,))
    assert len(trace) == 0


def test_run_mirrored_word():
    out, config, trace = run(build_compressor(2), [0, 1, 1, 0])
    assert out == (0, 1, pair_marker(2))
    assert config == Configuration(0, (stack_bottom(2),))
    assert trace == bytes([PUSH, PUSH, POP, POP])


def test_run_all_pushes():
    bottom = stack_bottom(2)
    out, config, trace = run(build_compressor(2), [0, 1, 0])
    assert out == (0, 1, 0)
    assert config == Configuration(0, (bottom, 0, 1, 0))
    assert trace == bytes([PUSH, PUSH, PUSH])


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
    assert len(trace) == 0


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


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.lists(st.integers(0, 4), max_size=80))
def test_rerun_is_identical(k, raw):
    word = [a % k for a in raw]
    spec = build_compressor(k)
    first = run(spec, word)
    second = run(spec, word)
    assert first.output == second.output
    assert first.config == second.config
    assert first.trace == second.trace


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.lists(st.integers(0, 4), max_size=80))
def test_trace_totals_match_step_sums(k, raw):
    word = [a % k for a in raw]
    out, _, trace = run(build_compressor(k), word)
    assert len(trace) == len(word)
    # every push echoes its symbol; pops emit only markers
    assert trace.count(PUSH) == sum(b < k for b in out)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.lists(st.integers(0, 3), max_size=80))
def test_stack_never_empties_under_compressor(k, raw):
    word = [a % k for a in raw]
    spec = build_compressor(k)
    for cut in range(len(word) + 1):
        assert run(spec, word[:cut]).config.stack[0] == stack_bottom(k)


def reference_run(spec, word):
    """Oracle for ``run``: one ``step`` at a time, input-free moves drained eagerly.

    Returns ``(output, config, kinds, error)``, where ``error`` is
    ``(type, position)`` of the first failure, else None.
    """
    config = Configuration(spec.initial_state, (spec.start_symbol,))
    out, kinds = [], []

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
            return out, config, kinds, (type(exc), position)
        assert consumed
        # the top is replaced by the pushed word: a non-empty one (a push) keeps the depth or grows it
        kinds.append(PUSH if len(config.stack) >= depth else POP)
        config, emitted = drain(config)
        out.extend(moved)
        out.extend(emitted)
    return out, config, kinds, None


def assert_run_matches_reference(spec, word):
    out, config, kinds, error = reference_run(spec, word)
    if error is not None:
        with pytest.raises(error[0]) as exc:
            run(spec, word)
        assert type(exc.value) is error[0]
        assert exc.value.position == error[1]
        return
    result = run(spec, word)
    assert result.output == tuple(out)
    assert result.config == config
    assert type(result.trace) is bytearray
    assert list(result.trace) == kinds
    assert len(result.trace) == len(word)


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
    assert trace == bytes([PUSH, PUSH])
    assert_run_matches_reference(spec, [0, 0, 0])


def test_run_chained_input_free_moves_hit_the_drain_budget():
    with pytest.raises(engine.EngineError, match="drain budget") as exc:
        run(chained_spec(loop=True), [0])
    assert type(exc.value) is engine.EngineError


def test_transition_and_configuration_are_tuples_of_tuples():
    t = Transition(0, 9, 1, [1], 0, [9, 1])
    assert t.output == (1,) and t.push == (9, 1)
    assert t == Transition(0, 9, 1, (1,), 0, iter([9, 1])) == (0, 9, 1, (1,), 0, (9, 1))
    assert hash(t) == hash(Transition(0, 9, 1, (1,), 0, (9, 1)))
    assert t != Transition(0, 9, 1, (1,), 1, (9, 1))
    assert repr(t) == "Transition(state=0, top=9, symbol=1, output=(1,), next_state=0, push=(9, 1))"
    assert t._replace(push=[9]).push == (9,) and Transition._make([0, 9, 1, [1], 0, []]).output == (1,)
    c = Configuration(1, [9, 0])
    assert c.stack == (9, 0)
    assert c == Configuration(1, (9, 0)) and hash(c) == hash(Configuration(1, (9, 0)))
    assert c != Configuration(0, (9, 0))
    assert repr(c) == "Configuration(state=1, stack=(9, 0))"
    assert c._replace(stack=[9]).stack == (9,)


def test_spec_builds_its_step_table_once_and_keeps_its_verdict():
    spec = chained_spec(loop=False)
    steps = spec._steps
    verdict = validate(spec)
    assert verdict == []
    verdict.append("changed by the caller")
    # Neither is rebuilt from the transitions once built.
    spec.transitions = None
    assert validate(spec) == []
    assert run(spec, [0]).output == (1, 2, 2, 2)
    assert spec._steps is steps
