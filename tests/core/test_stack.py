"""Unit tests for the uniLRUstack data structure."""

from __future__ import annotations

import pytest

from repro.core.stack import UniLRUStack
from repro.errors import ConfigurationError, ProtocolError


def make_stack(caps=(2, 2), **kwargs):
    return UniLRUStack(list(caps), **kwargs)


class TestConstruction:
    def test_empty_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            UniLRUStack([])

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            UniLRUStack([2, 0])

    def test_max_size_below_aggregate_rejected(self):
        with pytest.raises(ConfigurationError):
            UniLRUStack([2, 2], max_size=3)

    def test_out_level(self):
        stack = make_stack((1, 1, 1))
        assert stack.out_level == 4


class TestBasicOperations:
    def test_insert_new_tracks_block(self):
        stack = make_stack()
        node = stack.insert_new("a", 1)
        assert "a" in stack
        assert stack.lookup("a") is node
        assert stack.level_size(1) == 1
        assert stack.stack_blocks() == ["a"]

    def test_double_insert_rejected(self):
        stack = make_stack()
        stack.insert_new("a", 1)
        with pytest.raises(ProtocolError):
            stack.insert_new("a", 2)

    def test_insert_out_level(self):
        stack = make_stack((1, 1))
        stack.insert_new("a", 1)
        stack.insert_new("b", 2)
        stack.insert_new("x", stack.out_level)
        # The OUT entry sits at the top; nothing below it is OUT, so no prune.
        assert stack.stack_blocks() == ["x", "b", "a"]
        assert stack.level_size(1) == 1 and stack.level_size(2) == 1

    def test_yardstick_is_coldest_of_level(self):
        stack = make_stack((2, 2))
        a = stack.insert_new("a", 1)
        b = stack.insert_new("b", 1)
        assert stack.yardstick(1).block == "a"
        stack.touch(a, 1)  # refresh a; b becomes coldest L1 block
        assert stack.yardstick(1).block == "b"

    def test_yardstick_none_for_empty_level(self):
        stack = make_stack()
        assert stack.yardstick(2) is None

    def test_first_unfilled_level(self):
        stack = make_stack((1, 1))
        assert stack.first_unfilled_level() == 1
        stack.insert_new("a", 1)
        assert stack.first_unfilled_level() == 2
        stack.insert_new("b", 2)
        assert stack.first_unfilled_level() is None

    def test_touch_moves_to_top_and_relevels(self):
        stack = make_stack((2, 2))
        a = stack.insert_new("a", 2)
        stack.insert_new("b", 1)
        stack.touch(a, 1)
        assert stack.stack_blocks() == ["a", "b"]
        assert a.level == 1
        assert stack.level_size(1) == 2
        assert stack.level_size(2) == 0


class TestRecencyRegion:
    def test_region_above_first_yardstick(self):
        stack = make_stack((2, 2))
        a = stack.insert_new("a", 1)
        b = stack.insert_new("b", 1)
        # b is above Y1 ("a"); a IS Y1.
        assert stack.recency_region(b) == 1
        assert stack.recency_region(a) == 1

    def test_region_between_yardsticks(self):
        stack = make_stack((1, 1))
        a = stack.insert_new("a", 2)   # oldest; Y2
        b = stack.insert_new("b", 1)   # Y1
        # a is below Y1 but at Y2 -> region 2.
        assert stack.recency_region(a) == 2
        assert stack.recency_region(b) == 1

    def test_region_out_for_pruned_depth(self):
        stack = make_stack((1, 1))
        a = stack.insert_new("a", stack.out_level)  # untypical, for the test
        stack.insert_new("b", 1)
        stack.insert_new("c", 2)
        # a is below both yardsticks.
        assert stack.recency_region(a) == stack.out_level

    def test_region_never_exceeds_level(self):
        """Paper: 'the case i < j is not possible'."""
        stack = make_stack((2, 2))
        nodes = [stack.insert_new(i, 1 + (i % 2)) for i in range(4)]
        for node in nodes:
            assert stack.recency_region(node) <= node.level


class TestDemotion:
    def test_demote_tail_moves_yardstick_block_down(self):
        stack = make_stack((1, 2))
        a = stack.insert_new("a", 1)
        victim = stack.demote_tail(1)
        assert victim is a
        assert a.level == 2
        assert stack.level_size(1) == 0
        assert stack.level_size(2) == 1
        # Stack position unchanged: a demotion moves data, not recency.
        assert stack.stack_blocks() == ["a"]

    def test_demote_from_last_level_evicts(self):
        stack = make_stack((1, 1))
        a = stack.insert_new("a", 2)
        stack.insert_new("b", 1)
        victim = stack.demote_tail(2)
        assert victim is a
        assert victim.level == stack.out_level
        # a was at the stack bottom as an OUT entry -> pruned away.
        assert "a" not in stack
        assert stack.stack_blocks() == ["b"]

    def test_demote_empty_level_rejected(self):
        stack = make_stack()
        with pytest.raises(ProtocolError):
            stack.demote_tail(1)

    def test_demotion_searching_inserts_in_sequence_order(self):
        """A demoted block lands at its recency-sorted slot in the lower
        level (the paper's DemotionSearching)."""
        stack = make_stack((1, 3))
        old = stack.insert_new("old", 2)
        stack.insert_new("hot", 1)
        mid = stack.insert_new("mid", 2)
        # Demote "hot" (Y1): it is warmer than "old" but colder than
        # "mid", so DemotionSearching slots it between them.
        stack.demote_tail(1)
        assert stack.level_blocks(2) == ["mid", "hot", "old"]
        stack.check_invariants()

    def test_demotion_searching_mid_position(self):
        stack = make_stack((1, 3))
        cold = stack.insert_new("cold", 2)     # seq 1
        warm = stack.insert_new("warm", 1)     # seq 2 -> Y1
        fresh = stack.insert_new("fresh", 2)   # seq 3
        stack.demote_tail(1)  # warm (seq 2) joins level 2
        assert stack.level_blocks(2) == ["fresh", "warm", "cold"]


class TestRelocate:
    def test_relocate_keeps_recency(self):
        stack = make_stack((2, 2))
        a = stack.insert_new("a", 1)
        stack.insert_new("b", 1)
        stack.relocate(a, 2)
        assert a.level == 2
        assert stack.stack_blocks() == ["b", "a"]  # position unchanged
        assert stack.level_size(1) == 1
        assert stack.level_size(2) == 1

    def test_relocate_sorted_into_target(self):
        stack = make_stack((2, 3))
        cold = stack.insert_new("cold", 2)
        mover = stack.insert_new("mover", 1)
        fresh = stack.insert_new("fresh", 2)
        stack.relocate(mover, 2)
        assert stack.level_blocks(2) == ["fresh", "mover", "cold"]
        stack.check_invariants()

    def test_relocate_untracked_rejected(self):
        stack = make_stack()
        node = stack.insert_new("a", 1)
        stack.forget(node)
        with pytest.raises(ProtocolError):
            stack.relocate(node, 2)

    def test_relocate_invalid_level_rejected(self):
        stack = make_stack((2, 2))
        node = stack.insert_new("a", 1)
        with pytest.raises(ProtocolError):
            stack.relocate(node, 3)
        with pytest.raises(ProtocolError):
            stack.relocate(node, 0)


class TestEvictAndPrune:
    def test_evict_marks_out_and_prunes(self):
        stack = make_stack((1, 1))
        a = stack.insert_new("a", 2)
        stack.insert_new("b", 1)
        stack.evict(a)
        assert "a" not in stack  # was at the bottom -> pruned
        assert stack.level_size(2) == 0

    def test_evict_mid_stack_keeps_entry(self):
        stack = make_stack((1, 1))
        bottom = stack.insert_new("bottom", 2)
        mid = stack.insert_new("mid", 1)
        stack.insert_new("top", stack.out_level)
        stack.evict(mid)
        # mid is OUT but above the cached bottom -> stays tracked.
        assert "mid" in stack
        assert stack.lookup("mid").level == stack.out_level

    def test_evict_out_rejected(self):
        stack = make_stack()
        node = stack.insert_new("a", stack.out_level)
        with pytest.raises(ProtocolError):
            stack.evict(node)

    def test_prune_removes_contiguous_out_tail(self):
        stack = make_stack((1, 1))
        stack.insert_new("y", 2)       # bottom
        x = stack.insert_new("x", 1)   # top
        stack.evict(x)
        # x is OUT but above the cached y -> kept.
        assert "x" in stack
        stack.evict(stack.lookup("y"))
        # Bottom y becomes OUT -> pruned; then x (now the tail) pruned too.
        assert len(stack) == 0

    def test_forget(self):
        stack = make_stack()
        node = stack.insert_new("a", 1)
        stack.forget(node)
        assert "a" not in stack
        assert stack.level_size(1) == 0


class TestMetadataTrimming:
    def test_out_entries_trimmed_beyond_max_size(self):
        stack = make_stack((1, 1), max_size=4)
        stack.insert_new("a", 1)
        stack.insert_new("b", 2)
        for i in range(10):
            stack.insert_new(f"out{i}", stack.out_level)
        assert len(stack) <= 4
        # Cached entries survive trimming.
        assert "a" in stack and "b" in stack

    def test_trimming_keeps_warmest_out_entries(self):
        stack = make_stack((1, 1), max_size=3)
        stack.insert_new("a", 1)
        stack.insert_new("b", 2)
        stack.insert_new("cold", stack.out_level)
        stack.insert_new("warm", stack.out_level)
        assert "warm" in stack
        assert "cold" not in stack


class TestInvariants:
    def test_check_invariants_on_valid_stack(self):
        stack = make_stack((2, 2))
        for i in range(4):
            stack.insert_new(i, 1 + (i % 2))
        stack.check_invariants()

    def test_detects_over_capacity(self):
        stack = make_stack((1, 1))
        stack.insert_new("a", 1)
        # Bypass the protocol to corrupt state.
        stack.insert_new("b", 1)
        with pytest.raises(ProtocolError):
            stack.check_invariants()


class TestSpliceGuards:
    """The inline splices of ``touch``, ``demote_tail``, DemotionSearching
    and ``prune`` keep the guards a caller or a corrupt stack can trip."""

    def test_touch_of_a_forgotten_node_rejected(self):
        stack = make_stack()
        node = stack.insert_new("a", 1)
        stack.forget(node)
        with pytest.raises(ProtocolError, match="lost its global-list node"):
            stack.touch(node, 1)

    def test_demotion_search_rejects_a_linked_slot(self):
        stack = make_stack((1, 2))
        node = stack.insert_new("a", 2)
        with pytest.raises(ProtocolError, match="already linked"):
            stack._insert_sorted(node, 2)

    def test_demotion_search_rejects_an_unlinked_anchor(self):
        stack = make_stack((1, 2))
        anchor = stack.insert_new("b", 2)
        stack.insert_new("a", 1)
        # Corrupt state: b keeps level status 2 outside LRU_2.
        stack._levels[1].remove(anchor.slot)
        with pytest.raises(ProtocolError, match="not linked in this list"):
            stack.demote_tail(1)

    def test_prune_frees_no_slot_still_in_a_level_list(self):
        stack = make_stack((1, 1))
        node = stack.insert_new("a", 1)
        # Corrupt state: an L_out status on a block still in LRU_1.
        node.level = stack.out_level
        with pytest.raises(ProtocolError, match="still linked"):
            stack.prune()
