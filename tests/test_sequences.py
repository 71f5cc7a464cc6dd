import gc
import random
import tracemalloc

import pytest

import mnl.automaton

from mnl.errors import InvalidInputError, InvalidTransformationError
from mnl.sequences import (
    Sequence,
    blocks,
    format_sequence,
    insert_repeat,
    mnl_seq_candidates,
    parse_sequence,
    seq_contains,
    seq_ex_exact,
)
from mnl.pipeline import seq_count_bound
from mnl.records import DEFAULT_NODE_BUDGET

from oracles import naive_seq_candidates, naive_seq_contains, naive_seq_ex

S = parse_sequence


class TestSequenceType:
    def test_parse_letters(self):
        assert S("abab").letters == (1, 2, 1, 2)

    def test_parse_normalizes(self):
        assert S("bab") == S("aba")

    def test_parse_comma_ints(self):
        assert S("1,2,1,2") == S("abab")

    def test_format_round_trip(self):
        for text in ("a", "abab", "abcacbc", "aabba"):
            assert format_sequence(S(text)) == text

    def test_wide_alphabet_uses_commas(self):
        u = Sequence.normalized(range(1, 28))
        text = format_sequence(u)
        assert "," in text
        assert parse_sequence(text) == u

    def test_rejects_garbage(self):
        for bad in ("", "aBa", "1,0", "a b"):
            with pytest.raises(InvalidInputError):
                S(bad)

    def test_constructor_rejects_unnormalized(self):
        with pytest.raises(InvalidInputError):
            Sequence((2, 1))

    @pytest.mark.parametrize("letters, message", [
        ((), "empty sequence"),
        ((1, 0), "bad symbol 0"),
        ((1, "a"), "bad symbol 'a'"),
        ((1, 3), "not normalized: symbol 3 appears before 2"),
    ])
    def test_constructor_refusals(self, letters, message):
        with pytest.raises(InvalidInputError) as info:
            Sequence(letters)
        assert str(info.value) == message

    def test_constructor_accepts_repeats_of_the_top_symbol(self):
        assert Sequence((1, 2, 2, 1, 3, 2)).alphabet_size == 3

    def test_normalize_idempotent(self):
        rng = random.Random(3)
        for _ in range(50):
            letters = [rng.randint(1, 5) for _ in range(rng.randint(1, 8))]
            once = Sequence.normalized(letters)
            assert Sequence.normalized(once.letters) == once

    def test_alphabet_size(self):
        assert S("abcacbc").alphabet_size == 3


class TestSeqContains:
    def test_prefix(self):
        assert seq_contains(S("ababa"), S("abab"))

    def test_abcacbc_avoids_ababa(self):
        assert not seq_contains(S("abcacbc"), S("ababa"))

    def test_single_symbol(self):
        assert not seq_contains(S("aa"), S("ab"))

    def test_reflexive_and_matches_naive(self):
        rng = random.Random(11)
        for _ in range(200):
            u = [rng.randint(1, 3) for _ in range(rng.randint(1, 7))]
            v = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
            su, sv = Sequence.normalized(u), Sequence.normalized(v)
            assert seq_contains(su, su)
            assert seq_contains(su, sv) == naive_seq_contains(su.letters, sv.letters)

    def test_renaming_invariance(self):
        rng = random.Random(13)
        for _ in range(50):
            u = [rng.randint(1, 4) for _ in range(rng.randint(1, 7))]
            v = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
            renames = {x: 10 - x for x in range(1, 5)}
            ru = Sequence.normalized([renames[x] for x in u])
            assert seq_contains(Sequence.normalized(u), Sequence.normalized(v)) == seq_contains(
                ru, Sequence.normalized(v)
            )

    def test_deletion_never_turns_true_to_false(self):
        rng = random.Random(17)
        for _ in range(100):
            u = Sequence.normalized([rng.randint(1, 3) for _ in range(rng.randint(2, 7))])
            v = Sequence.normalized([rng.randint(1, 3) for _ in range(rng.randint(2, 4))])
            if not seq_contains(u, v):
                continue
            for i in range(len(v.letters)):
                shorter = v.letters[:i] + v.letters[i + 1:]
                if shorter:
                    assert seq_contains(u, Sequence.normalized(shorter))


class TestBlocks:
    def test_mixed_runs(self):
        assert blocks(S("aabba")).runs == ((1, 2), (2, 2), (1, 1))

    def test_singleton_runs(self):
        assert blocks(S("abab")).runs == ((1, 1), (2, 1), (1, 1), (2, 1))

    def test_single_run(self):
        assert blocks(S("aaa")).runs == ((1, 3),)

    def test_runs_rebuild_sequence(self):
        u = S("aabbacc")
        rebuilt = []
        for sym, length in blocks(u).runs:
            rebuilt.extend([sym] * length)
        assert tuple(rebuilt) == u.letters


class TestSeqEx:
    def test_abab_examples(self):
        assert seq_ex_exact(S("abab"), 3).value == 5

    def test_ab_window(self):
        assert seq_ex_exact(S("ab"), 4).value == 1

    def test_ababa_two_symbols(self):
        assert seq_ex_exact(S("ababa"), 2).value == 4

    def test_abab_identity(self):
        for n in range(1, 9):
            assert seq_ex_exact(S("abab"), n).value == 2 * n - 1

    def test_ababa_lambda_3(self):
        for n, want in enumerate((1, 4, 8, 12, 17, 22, 27), start=1):
            rec = seq_ex_exact(S("ababa"), n)
            assert rec.exact and rec.value == want, n

    def test_short_word_may_repeat_a_letter(self):
        # the window is checked only once r-1 letters are placed, so "aa"
        # counts for r = 3 and the memo key must tell it from "a"
        for text in ("abc", "abcacbc"):
            assert [seq_ex_exact(S(text), n).value for n in (1, 2)] == [2, 2]

    def test_memo_limit_keeps_the_search_exact(self, monkeypatch):
        full = seq_ex_exact(S("ababa"), 5)
        monkeypatch.setattr(mnl.automaton, "MAX_MEMO_ENTRIES", 16)
        capped = seq_ex_exact(S("ababa"), 5)
        assert capped.exact and capped.value == full.value == 17
        assert capped.nodes_explored > full.nodes_explored

    def test_long_memo_keys_count_as_several_entries(self, monkeypatch):
        # abab on 40 symbols has 1,560 tracks, so a key of about 6,250 bits;
        # with 2,048 such entries the search peaks at about 1.5 MB
        monkeypatch.setattr(mnl.automaton, "MAX_MEMO_ENTRIES", 2048)
        tracemalloc.start()
        try:
            seq_ex_exact(S("abab"), 40, 60_000)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("budget", [DEFAULT_NODE_BUDGET, 50_000])
    def test_memo_freed_without_the_cycle_collector(self, budget):
        # the recursive search closure and its memo form a reference cycle
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            seq_ex_exact(S("abcacbc"), 5, budget)
            assert tracemalloc.get_traced_memory()[0] - before < 1 << 18
        finally:
            tracemalloc.stop()
            gc.enable()

    def test_matches_naive_oracle(self):
        for text in ("abab", "ababa", "abc", "aba"):
            for n in range(1, 4):
                rec = seq_ex_exact(S(text), n)
                assert rec.exact
                assert rec.value == naive_seq_ex(S(text).letters, n)

    def test_budget_exhaustion_flags_inexact(self):
        rec = seq_ex_exact(S("ababa"), 3, node_budget=5)
        assert not rec.exact
        assert rec.value <= 8

    @pytest.mark.parametrize("text", ["ababa", "abcacbc"])
    def test_budget_run_out_in_a_smaller_board(self, text):
        # the boards on 1..n-1 symbols are searched first, in the same call,
        # each exactly as in a call on that many symbols
        u, n = S(text), 4
        smaller = [seq_ex_exact(u, size) for size in range(1, n)]
        full = seq_ex_exact(u, n)
        assert full.exact and all(rec.exact for rec in smaller)
        assert smaller[-1].nodes_explored < full.nodes_explored
        for budget in range(full.nodes_explored):
            rec = seq_ex_exact(u, n, budget)
            assert not rec.exact and rec.nodes_explored <= budget
            # the value is a word over at most n symbols, at least as long as
            # the longest on the last smaller board that finished
            finished = [s.value for s in smaller if s.nodes_explored <= budget]
            assert max(finished, default=0) <= rec.value <= full.value

    def test_record_fields(self):
        rec = seq_ex_exact(S("abab"), 2)
        assert rec.kind == "sequence"
        assert rec.pattern_key == "abab"
        assert rec.n == 2

    def test_bad_n(self):
        with pytest.raises(InvalidInputError):
            seq_ex_exact(S("abab"), 0)


class TestInsertRepeat:
    def test_between_first_pair(self):
        assert insert_repeat(S("aba"), 1, 1) == S("aaba")

    def test_no_second_occurrence(self):
        with pytest.raises(InvalidTransformationError):
            insert_repeat(S("ab"), 1, 1)

    def test_b_into_abab(self):
        assert insert_repeat(S("abab"), 2, 2) == S("abbab")

    def test_gap_outside_occurrences(self):
        with pytest.raises(InvalidTransformationError):
            insert_repeat(S("aba"), 1, 0)


class TestCandidateStream:
    def test_k2_cap4_contents(self):
        words = [format_sequence(u) for u in mnl_seq_candidates(2, 4)]
        assert "abab" in words
        assert "ababa" in words  # the one exception to its own filters
        assert "aaab" not in words  # run of length 3

    def test_k2_wider_cap_excludes_ababa_containing_words(self):
        words = [format_sequence(u) for u in mnl_seq_candidates(2, 6)]
        assert "ababab" not in words
        assert "ababa" in words

    def test_k2_cap4_filters(self):
        ababa = S("ababa")
        for u in mnl_seq_candidates(2, 4):
            assert u.alphabet_size == 2
            assert len(u.letters) <= 8
            assert max(length for _, length in blocks(u).runs) <= 2
            if u != ababa:
                assert blocks(u).num_runs <= 4
                assert not seq_contains(u, ababa)

    def test_count_within_bound(self):
        count = sum(1 for _ in mnl_seq_candidates(2, 4))
        assert count <= seq_count_bound(2, 4)

    def test_k3_cap7_includes_abcacbc(self):
        words = [format_sequence(u) for u in mnl_seq_candidates(3, 7)]
        assert "abcacbc" in words

    def test_ordering_length_then_lex(self):
        out = [u.letters for u in mnl_seq_candidates(2, 4)]
        assert out == sorted(out, key=lambda w: (len(w), w))

    def test_exactly_k_symbols(self):
        for u in mnl_seq_candidates(3, 4):
            assert u.alphabet_size == 3

    @pytest.mark.parametrize("k, cap", [(k, cap) for k in (2, 3) for cap in range(1, 5)] + [(4, 1), (4, 2), (4, 3)])
    def test_matches_naive_candidates(self, k, cap):
        assert [u.letters for u in mnl_seq_candidates(k, cap)] == naive_seq_candidates(k, cap)

    @pytest.mark.parametrize("k, cap, count", [(3, 7, 1624), (3, 10, 1880), (4, 6, 1808)])
    def test_counts_are_pinned(self, k, cap, count):
        assert sum(1 for _ in mnl_seq_candidates(k, cap)) == count

    def test_bad_parameters(self):
        with pytest.raises(InvalidInputError):
            list(mnl_seq_candidates(1, 4))
        with pytest.raises(InvalidInputError):
            list(mnl_seq_candidates(2, 0))
