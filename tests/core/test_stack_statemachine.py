"""Stateful property test: UniLRUStack primitives vs a list model.

Beyond the protocol-level comparisons, this drives the raw stack
operations (insert, touch, demote, relocate, evict, forget) in random
interleavings against a brute-force model of the documented semantics,
checking order, level membership, yardsticks, pruning and the stack's
own structural invariants after every step.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.stack import UniLRUStack


class StackModel:
    """Brute-force model: list of (block, level), top first."""

    def __init__(self, capacities):
        self.capacities = capacities
        self.n = len(capacities)
        self.out = self.n + 1
        self.entries = []  # (block, level), top first

    def blocks(self):
        return [b for b, _ in self.entries]

    def level_blocks(self, lvl):
        return [b for b, l in self.entries if l == lvl]

    def _prune(self):
        while self.entries and self.entries[-1][1] == self.out:
            self.entries.pop()

    def insert_new(self, block, level):
        self.entries.insert(0, (block, level))

    def touch(self, block, new_level):
        self.entries = [(b, l) for b, l in self.entries if b != block]
        self.entries.insert(0, (block, new_level))
        self._prune()

    def demote_tail(self, level):
        members = self.level_blocks(level)
        victim = members[-1]
        new_level = level + 1 if level < self.n else self.out
        self.entries = [
            (b, new_level if b == victim else l) for b, l in self.entries
        ]
        self._prune()
        return victim

    def relocate(self, block, new_level):
        self.entries = [
            (b, new_level if b == block else l) for b, l in self.entries
        ]

    def evict(self, block):
        self.entries = [
            (b, self.out if b == block else l) for b, l in self.entries
        ]
        self._prune()

    def forget(self, block):
        self.entries = [(b, l) for b, l in self.entries if b != block]
        self._prune()


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "touch", "demote", "relocate", "evict", "forget"]
        ),
        st.integers(0, 11),   # block id
        st.integers(1, 3),    # level argument
    ),
    max_size=120,
)


@settings(max_examples=120, deadline=None)
@given(capacities=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       ops=OPS)
# Forgetting the coldest cached entry exposes an L_out entry (block 1)
# at the stack bottom, which must be pruned.
@example(
    capacities=[1, 1],
    ops=[("insert", 5, 1), ("insert", 1, 1), ("insert", 0, 1),
         ("evict", 1, 1), ("forget", 5, 1), ("demote", 0, 1)],
)
def test_stack_primitives_match_model(capacities, ops):
    stack = UniLRUStack(capacities)
    model = StackModel(capacities)
    n = len(capacities)

    for op, block, level in ops:
        level = min(level, n)
        node = stack.lookup(block)
        if op == "insert":
            if node is None:
                lvl = level if level <= n else stack.out_level
                stack.insert_new(block, lvl)
                model.insert_new(block, lvl)
        elif op == "touch":
            if node is not None:
                stack.touch(node, level)
                model.touch(block, level)
        elif op == "demote":
            if stack.yardstick(level) is not None:
                victim = stack.demote_tail(level)
                expected = model.demote_tail(level)
                assert victim.block == expected
        elif op == "relocate":
            if node is not None and node.level <= n:
                stack.relocate(node, level)
                model.relocate(block, level)
        elif op == "evict":
            if node is not None and node.level != stack.out_level:
                stack.evict(node)
                model.evict(block)
        elif op == "forget":
            if node is not None:
                stack.forget(node)
                model.forget(block)

        stack.check_invariants(enforce_capacity=False)
        assert stack.stack_blocks() == model.blocks()
        for lvl in range(1, n + 1):
            assert stack.level_blocks(lvl) == model.level_blocks(lvl)
            mark = stack.yardstick(lvl)
            members = model.level_blocks(lvl)
            if members:
                assert mark is not None and mark.block == members[-1]
            else:
                assert mark is None
