"""Vocabulary, JSONL ingestion, splitting, and the synthetic corpus."""

import itertools
import json
from collections import Counter
from pathlib import Path

import pytest

import tokmoe.data as D
from tokmoe.config import BOS_ID, EOS_ID, PAD_ID, SPECIAL_TOKENS, UNK_ID
from tokmoe.errors import DataError, DomainError, ParseError


def corpus_of(token_rows, intent="a"):
    samples = [Sample for Sample in (
        D.Sample(list(row), list(row), intent) for row in token_rows
    )]
    return D.Corpus(samples)


class TestVocabulary:
    def test_frequency_order_after_specials(self):
        corpus = D.Corpus([D.Sample(["a", "a"], ["a", "b"], "x")])
        vocab = D.Vocabulary.build(corpus, cap=6)
        assert vocab.token_to_id["a"] == 4
        assert vocab.token_to_id["b"] == 5
        assert vocab.id_to_token[:4] == ["<pad>", "<unk>", "<bos>", "<eos>"]

    def test_frequency_ties_break_lexicographically(self):
        corpus = D.Corpus([D.Sample(["zeta"], ["alpha"], "x")])
        vocab = D.Vocabulary.build(corpus, cap=10)
        assert vocab.token_to_id["alpha"] < vocab.token_to_id["zeta"]

    def test_cap_overflow_maps_to_unk(self):
        corpus = D.Corpus([D.Sample(["a", "a", "b", "b"], ["c"], "x")])
        vocab = D.Vocabulary.build(corpus, cap=6)  # room for only two tokens
        assert len(vocab) == 6
        assert vocab.encode_token("c") == UNK_ID

    def test_deterministic_across_runs(self):
        corpus = D.Corpus([D.Sample(["w", "q", "q"], ["p", "w"], "x")])
        a = D.Vocabulary.build(corpus, cap=10)
        b = D.Vocabulary.build(corpus, cap=10)
        assert a.id_to_token == b.id_to_token

    def test_bijection_for_in_vocabulary_tokens(self):
        corpus = D.Corpus([D.Sample(["one", "two"], ["three"], "x")])
        vocab = D.Vocabulary.build(corpus, cap=10)
        for token in ("one", "two", "three"):
            assert vocab.id_to_token[vocab.token_to_id[token]] == token

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            D.Vocabulary.build(D.Corpus([]), cap=10)

    def test_cap_leaves_room_for_one_token(self):
        corpus = D.Corpus([D.Sample(["a", "b", "c"], ["d", "e", "f"], "x")])
        for cap in (3, 4):
            with pytest.raises(DomainError, match="at least 5"):
                D.Vocabulary.build(corpus, cap=cap)
        assert len(D.Vocabulary.build(corpus, cap=5)) == 5

    def test_reserved_strings_are_the_reserved_tokens(self):
        # Each reserved string outnumbers every word, yet takes no slot and keeps its id.
        plain = [["a", "b", "a"], ["c", "b"]]
        vocab = D.Vocabulary.build(corpus_of([[*row, *SPECIAL_TOKENS * 3] for row in plain]), cap=7)
        assert vocab.id_to_token == D.Vocabulary.build(corpus_of(plain), cap=7).id_to_token
        assert vocab.encode_tokens(list(SPECIAL_TOKENS)) == [PAD_ID, UNK_ID, BOS_ID, EOS_ID]


class TestEncodeSample:
    def make_vocab(self):
        corpus = D.Corpus([D.Sample(["hello", "world"], ["hi"], "x")])
        return D.Vocabulary.build(corpus, cap=10)

    def test_eos_appended_to_response(self):
        vocab = self.make_vocab()
        sample = D.Sample(["hello"], ["hi", "world"], "x")
        enc = D.encode_sample(vocab, sample)
        assert len(enc.response_ids) == 3
        assert enc.response_ids[-1] == EOS_ID

    def test_unknown_token_becomes_unk(self):
        vocab = self.make_vocab()
        enc = D.encode_sample(vocab, D.Sample(["martian"], ["hi"], "x"))
        assert enc.context_ids == [UNK_ID]

    def test_known_tokens_round_trip(self):
        vocab = self.make_vocab()
        enc = D.encode_sample(vocab, D.Sample(["hello", "world"], ["hi"], "x"))
        assert vocab.decode_ids(enc.context_ids) == ["hello", "world"]
        assert vocab.decode_ids(enc.response_ids) == ["hi"]  # EOS stripped


class TestJsonl:
    def write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def sample_line(self, intent="hotel"):
        return json.dumps({
            "context": ["i", "need", "a", "room"],
            "response": ["the", "[hotel_id]", "is", "nice"],
            "intent": intent,
            "goal": {"entity": "[hotel_id]", "requested": ["[value_price]"]},
        })

    def test_well_formed_file(self, tmp_path):
        path = self.write(tmp_path, [self.sample_line() for _ in range(3)])
        corpus = D.load_corpus_jsonl(path)
        assert len(corpus) == 3
        assert corpus.samples[0].goal.entity == "[hotel_id]"

    def test_missing_intent_names_line(self, tmp_path):
        bad = json.dumps({"context": ["a"], "response": ["b"]})
        path = self.write(tmp_path, [self.sample_line(), bad])
        with pytest.raises(DataError, match=":2"):
            D.load_corpus_jsonl(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = self.write(tmp_path, [self.sample_line(), "{not json"])
        with pytest.raises(ParseError, match=":2"):
            D.load_corpus_jsonl(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        for text in ("", "\n  \n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DataError, match="corpus.jsonl: corpus is empty"):
                D.load_corpus_jsonl(path)

    def test_round_trip_is_lossless(self, tmp_path):
        path = self.write(tmp_path, [self.sample_line("hotel"), self.sample_line("train")])
        corpus = D.load_corpus_jsonl(path)
        out = tmp_path / "again.jsonl"
        D.save_corpus_jsonl(corpus, out)
        reread = D.load_corpus_jsonl(out)
        assert [s.to_json() for s in corpus.samples] == [s.to_json() for s in reread.samples]

    def test_round_trip_keeps_unicode_line_breaks_inside_tokens(self, tmp_path):
        # The save writes these three unescaped; only "\n" (or "\r\n") may end a line.
        tokens = ["a\u0085b", "a\u2028b", "a\u2029b"]
        corpus = D.Corpus([D.Sample([token, "x"], ["y", token], "hotel") for token in tokens])
        out = tmp_path / "again.jsonl"
        D.save_corpus_jsonl(corpus, out)
        assert all(token.encode("utf-8") in out.read_bytes() for token in tokens)
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes(out.read_bytes().replace(b"\n", b"\r\n"))
        for path in (out, crlf):
            assert [s.to_json() for s in D.load_corpus_jsonl(path).samples] == [s.to_json() for s in corpus.samples]

    def test_interrupted_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        out = self.write(tmp_path, [self.sample_line("hotel")])
        before = out.read_bytes()

        def interrupted(self, target):
            raise OSError("interrupted")

        monkeypatch.setattr(Path, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            D.save_corpus_jsonl(D.Corpus(D.load_corpus_jsonl(out).samples * 2), out)
        assert out.read_bytes() == before


class TestSyntheticCorpus:
    def test_counts_and_intents(self):
        spec = D.SynthSpec(intents=3, samples_per_intent=20, seed=7)
        corpus = D.generate_synthetic_corpus(spec)
        assert len(corpus) == 60
        assert len({s.intent for s in corpus.samples}) == 3

    def test_exclusive_tokens_stay_in_their_intent(self):
        spec = D.SynthSpec(intents=3, samples_per_intent=15, seed=7)
        corpus = D.generate_synthetic_corpus(spec)
        intents = sorted({s.intent for s in corpus.samples})
        for sample in corpus.samples:
            others = [i for i in intents if i != sample.intent]
            for token in sample.context + sample.response:
                for other in others:
                    assert not token.startswith(f"{other}_")
                    assert token != f"[{other}_id]"

    def test_goals_are_contained_in_responses(self):
        spec = D.SynthSpec(intents=2, samples_per_intent=10, seed=3)
        corpus = D.generate_synthetic_corpus(spec)
        for sample in corpus.samples:
            assert sample.goal.entity in sample.response
            for token in sample.goal.requested:
                assert token in sample.response

    def test_contexts_unique(self):
        spec = D.SynthSpec(intents=3, samples_per_intent=20, seed=5)
        train, valid, test = D.generate_synthetic_splits(spec)
        contexts = [tuple(s.context) for c in (train, valid, test) for s in c.samples]
        assert len(contexts) == len(set(contexts))

    def test_pairwise_total_variation_at_least_03(self):
        spec = D.SynthSpec(intents=3, samples_per_intent=20, seed=11)
        corpus = D.generate_synthetic_corpus(spec)
        dists = {}
        for intent in sorted({s.intent for s in corpus.samples}):
            counts = Counter()
            for sample in corpus.samples:
                if sample.intent == intent:
                    counts.update(sample.context)
                    counts.update(sample.response)
            total = sum(counts.values())
            dists[intent] = {tok: c / total for tok, c in counts.items()}
        for a, b in itertools.combinations(dists, 2):
            tokens = set(dists[a]) | set(dists[b])
            tv = 0.5 * sum(abs(dists[a].get(t, 0.0) - dists[b].get(t, 0.0)) for t in tokens)
            assert tv >= 0.3

    def test_same_seed_byte_identical_files(self, tmp_path):
        spec = D.SynthSpec(intents=2, samples_per_intent=8, seed=21)
        for name in ("one", "two"):
            corpus = D.generate_synthetic_corpus(spec)
            D.save_corpus_jsonl(corpus, tmp_path / f"{name}.jsonl")
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "two.jsonl").read_bytes()

    def test_invalid_spec_rejected(self):
        with pytest.raises(DomainError):
            D.SynthSpec(intents=1)
        with pytest.raises(DomainError):
            D.SynthSpec(context_len=(5, 3))
