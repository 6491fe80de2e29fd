"""Pair-deletion rewriting on words.

A single rewrite step deletes one pair of adjacent equal symbols.  The
relation terminates (each step shortens the word by two) and is confluent,
so every word has a unique fully reduced form, computed here by one
left-to-right pass with an explicit stack.
"""


def normal_form(word) -> list:
    """Fully reduce ``word``; the result has no two adjacent equal symbols.

    Single pass: push each symbol, cancelling it against an equal stack
    top.  Confluence makes the outcome independent of the order in which
    pairs are deleted, so this particular strategy is canonical.
    """
    stack: list = []
    push = stack.append
    pop = stack.pop
    for a in word:
        if stack and stack[-1] == a:
            pop()
        else:
            push(a)
    return stack
