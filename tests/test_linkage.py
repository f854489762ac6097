from __future__ import annotations

import heapq
import itertools
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from baselines import full_edit_distance, match_labels_oracle
from vinevalue import linkage
from vinevalue.linkage import (
    LabelMatch,
    edit_distance,
    expand_price_entries,
    load_acronyms,
    load_wordlist,
    match_labels,
    normalize_label,
    read_match_report,
    write_match_report,
)
from vinevalue.model import AppellationRecord, ConfigError, PriceEntry, ProductionMode


def oracle_edit_distance(a: str, b: str) -> float:
    """Dijkstra over edit sequences: the true fewest single-character
    inserts, deletes, substitutions and adjacent transpositions that turn a
    into b. Exponential; only for short strings."""
    alphabet = sorted(set(a) | set(b)) or ["A"]
    max_len = max(len(a), len(b)) + 2
    heap = [(0.0, a)]
    seen: dict[str, float] = {}
    while heap:
        cost, s = heapq.heappop(heap)
        if s == b:
            return cost
        if seen.get(s, float("inf")) <= cost:
            continue
        seen[s] = cost

        def push(new_cost: float, t: str) -> None:
            if new_cost < seen.get(t, float("inf")):
                heapq.heappush(heap, (new_cost, t))

        for i in range(len(s)):
            push(cost + 1.0, s[:i] + s[i + 1:])
            for ch in alphabet:
                if ch != s[i]:
                    push(cost + 1.0, s[:i] + ch + s[i + 1:])
        if len(s) < max_len:
            for i in range(len(s) + 1):
                for ch in alphabet:
                    push(cost + 1.0, s[:i] + ch + s[i:])
        for i in range(len(s) - 1):
            if s[i] != s[i + 1]:
                push(cost + 1.0, s[:i] + s[i + 1] + s[i] + s[i + 2:])
    raise AssertionError("unreachable")


#: Acronyms, long-form words and label words in one pool, so that generated
#: tables often expand to one of their own keys.
_WORDS = ["CDR", "cdr", "Côte", "COTE", "du", "RHONE", "Rhône", "VALLEY", "STE"]


@st.composite
def _pair_and_limit(draw):
    alphabet = draw(st.sampled_from(["AB", "ABCD "]))
    a = draw(st.text(alphabet=alphabet, max_size=10))
    b = draw(st.text(alphabet=alphabet, max_size=10))
    limit = draw(st.integers(0, max(len(a), len(b))) | st.just(math.inf))
    return a, b, limit


class TestNormalizeLabel:
    def test_accents_and_stopwords(self):
        assert normalize_label("Côte du Rhône") == "COTE RHONE"

    def test_empty(self):
        assert normalize_label("") == ""

    def test_acronym_expansion(self):
        assert normalize_label("CDR rouge") == "COTE RHONE ROUGE"

    def test_special_characters(self):
        assert normalize_label("Alsace suivi d'un nom de lieu-dit") == "ALSACE SUIVI UN NOM LIEU DIT"

    @given(st.text(max_size=40))
    def test_idempotent(self, text):
        once = normalize_label(text)
        assert normalize_label(once) == once

    @settings(max_examples=200, deadline=None)
    @given(
        table=st.dictionaries(
            st.sampled_from(_WORDS),
            st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join),
            max_size=3,
        ),
        words=st.lists(st.sampled_from(_WORDS), max_size=4),
    )
    def test_idempotent_under_every_accepted_acronym_table(self, table, words):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "acronyms.txt"
            path.write_text("".join(f"{k}={v}\n" for k, v in table.items()), encoding="utf-8")
            try:
                acronyms = load_acronyms(path)
            except ConfigError:
                return
        once = normalize_label(" ".join(words), acronyms=acronyms)
        assert normalize_label(once, acronyms=acronyms) == once


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("ABC", "ABC") == 0.0

    def test_transposition(self):
        assert edit_distance("AB", "BA") == 1.0

    def test_matches_exhaustive_search(self):
        strings = [""]
        for length in (1, 2, 3):
            strings.extend("".join(t) for t in itertools.product("AB", repeat=length))
        strings.extend(["ABC", "CBA", "BCA", "CAB", "ACB"])
        for a, b in itertools.product(strings, repeat=2):
            expected = oracle_edit_distance(a, b)
            assert full_edit_distance(a, b) == expected, (a, b)
            distance = edit_distance(a, b)
            assert type(distance) is float
            assert distance == expected, (a, b)
            for limit in range(4):
                bounded = edit_distance(a, b, limit)
                assert bounded == expected if expected <= limit else bounded > limit, \
                    (a, b, limit)

    @settings(max_examples=1000, deadline=None)
    @given(_pair_and_limit())
    def test_exact_up_to_the_limit(self, case):
        a, b, limit = case
        expected = full_edit_distance(a, b)
        distance = edit_distance(a, b, limit)
        assert type(distance) is float
        if expected <= limit:
            assert distance == expected
        else:
            assert distance > limit

    @given(st.text(alphabet="ABC", max_size=5), st.text(alphabet="ABC", max_size=5))
    def test_symmetric_for_symmetric_costs(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @settings(max_examples=60)
    @given(
        st.text(alphabet="AB", max_size=4),
        st.text(alphabet="AB", max_size=4),
        st.text(alphabet="AB", max_size=4),
    )
    def test_triangle_inequality_unit_costs(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c) + 1e-12


def _price(label, price=100.0, region=None):
    return PriceEntry(label=label, price=price, region_hint=region)


def _app(code, name):
    return AppellationRecord(code=code, name=name)


class TestMatchLabels:
    def test_exact_match_accepted(self):
        matches = match_labels([_price("Côte du Rhône")], [_app("3B011", "COTE RHONE")])
        assert matches == [LabelMatch("Côte du Rhône", "3B011", 0.0, True, 100.0, ProductionMode.CONVENTIONAL)]

    def test_absent_label_zero_threshold_rejected(self):
        matches = match_labels(
            [_price("Beaujolais")], [_app("3B011", "COTE RHONE")], threshold_fraction=0.0
        )
        assert len(matches) == 1
        assert not matches[0].accepted

    def test_all_pairs_brute_force_agreement(self):
        labels = ["Saint Emilion grand cru", "Pommard premier cru", "Chablis grand cru"]
        targets = [
            _app("2A001", "SAINT EMILION GRAND CRU"),
            _app("2B002", "POMMARD PREMIER CRU"),
            _app("2C003", "CHABLIS GRAND CRU"),
        ]
        # Brute-force oracle: all-pairs minimum with the same tie-break.
        expected = {}
        for label in labels:
            source = normalize_label(label)
            best = min(
                (edit_distance(source, normalize_label(t.name)), t.code) for t in targets
            )
            expected[label] = best[1]
        matches = match_labels([_price(lbl) for lbl in labels], targets)
        assert {m.source_label: m.target_code for m in matches} == expected
        assert all(m.accepted for m in matches)

    def test_tie_breaks_to_smallest_code(self):
        targets = [_app("Z9", "ROUGE"), _app("A1", "ROUGE")]
        matches = match_labels([_price("rouge")], targets)
        assert matches[0].target_code == "A1"

    def test_region_filter(self):
        targets = [_app("A1", "ROUGE")]
        prices = [_price("rouge", region="Alsace")]
        ok = match_labels(prices, targets, region_filter={"A1": "Alsace"})
        assert ok[0].accepted
        bad = match_labels(prices, targets, region_filter={"A1": "Bourgogne"})
        assert not bad[0].accepted
        # No region hint on the price row: the filter cannot contradict.
        neutral = match_labels([_price("rouge")], targets, region_filter={"A1": "Bourgogne"})
        assert neutral[0].accepted

    def test_multi_appellation_label_expands(self):
        label = "'POMMARD 1er Cru' 'Clos des Epeneaux' 'Les Petits Epenots'"
        expanded = expand_price_entries([_price(label, price=250.0)])
        assert [e.label for e in expanded] == [
            "POMMARD 1er Cru", "Clos des Epeneaux", "Les Petits Epenots",
        ]
        assert all(e.price == 250.0 for e in expanded)
        matches = match_labels([_price(label)], [_app("2B002", "POMMARD 1ER CRU")])
        assert len(matches) == 3

    def test_possessive_apostrophes_do_not_expand(self):
        label = "Coteaux d'Aix et d'Ensuès blanc"
        assert [e.label for e in expand_price_entries([_price(label)])] == [label]

    @pytest.mark.parametrize("label", ["Le", "d'", "..."])
    def test_label_that_normalizes_to_nothing_is_never_accepted(self, label):
        # A nameless appellation normalizes to nothing as well: distance 0.
        matches = match_labels([_price(label)], [_app("1A001M", ""), _app("1B001M", "Le")])
        assert [(m.target_code, m.distance, m.accepted) for m in matches] == [
            ("1A001M", 0.0, False)
        ]

    def test_no_targets(self):
        matches = match_labels([_price("rouge")], [])
        assert matches == [
            LabelMatch("rouge", "", float("inf"), False, 100.0, ProductionMode.CONVENTIONAL)
        ]


class TestPrunedMatching:
    """``match_labels`` skips targets by a lower bound; the all-pairs loop in
    ``baselines`` is the reference it must agree with."""

    @settings(max_examples=300, deadline=None)
    @given(
        labels=st.lists(st.text(alphabet="ABC ", max_size=6), min_size=1, max_size=4),
        names=st.lists(st.text(alphabet="ABC", max_size=5), min_size=1, max_size=4),
        codes=st.lists(st.sampled_from(["A1", "B2", "C3", "D4", "E5"]), min_size=1, max_size=12),
        threshold_fraction=st.sampled_from([0.0, 0.1, 0.5]),
    )
    def test_equals_all_pairs_oracle(self, labels, names, codes, threshold_fraction):
        # Few distinct names over many codes: the same name appears under
        # several codes, and ties on distance are common.
        targets = [_app(code, names[k % len(names)]) for k, code in enumerate(codes)]
        prices = [_price(label) for label in labels]
        expected = match_labels_oracle(prices, targets, threshold_fraction=threshold_fraction)
        assert match_labels(prices, targets, threshold_fraction=threshold_fraction) == expected

    def test_tie_with_a_looser_bound_goes_to_lowest_code(self):
        # Both names are one edit away, but B2's anagram has the lower
        # bound and is scored first; A1 must still win the tie.
        targets = [_app("B2", "BA"), _app("A1", "AC")]
        matches = match_labels([_price("ab")], targets, threshold_fraction=0.5)
        assert matches == [LabelMatch("ab", "A1", 1.0, True, 100.0, ProductionMode.CONVENTIONAL)]
        assert matches == match_labels_oracle([_price("ab")], targets, threshold_fraction=0.5)

    @staticmethod
    def _scored(monkeypatch) -> list[tuple[str, float]]:
        """Record each scored target with the limit it was scored under."""
        calls = []

        def counted(a, b, limit=math.inf):
            calls.append((b, limit))
            return edit_distance(a, b, limit)

        monkeypatch.setattr(linkage, "edit_distance", counted)
        return calls

    def test_distant_targets_are_not_scored(self, monkeypatch):
        calls = self._scored(monkeypatch)
        targets = [_app("A1", "CHABLIS GRAND CRU"), _app("B2", "ROUGE"), _app("C3", "BLANC")]
        matches = match_labels([_price("rouge")], targets)
        assert matches == [LabelMatch("rouge", "B2", 0.0, True, 100.0, ProductionMode.CONVENTIONAL)]
        assert calls == [("ROUGE", math.inf)]

    def test_bound_equal_to_the_best_at_a_later_code_is_not_scored(self, monkeypatch):
        # Both bounds are 1. Once A1 scores 1, B2 could at best tie it and
        # lose on code, so it is never scored.
        calls = self._scored(monkeypatch)
        targets = [_app("A1", "ROUGX"), _app("B2", "ROUGY")]
        matches = match_labels([_price("rouge")], targets)
        assert matches == [LabelMatch("rouge", "A1", 1.0, False, 100.0, ProductionMode.CONVENTIONAL)]
        assert calls == [("ROUGX", math.inf)]

    def test_each_target_is_scored_up_to_the_best_distance_so_far(self, monkeypatch):
        # A1 and B2 are anagrams of ROUGE (bound 0) at distances 4 and 3; C3
        # has bound 2 and distance 2. Each improves on the one before.
        calls = self._scored(monkeypatch)
        targets = [_app("A1", "EGUOR"), _app("B2", "OGUER"), _app("C3", "ROUGEXY")]
        matches = match_labels([_price("rouge")], targets)
        assert matches == [LabelMatch("rouge", "C3", 2.0, False, 100.0, ProductionMode.CONVENTIONAL)]
        assert calls == [("EGUOR", math.inf), ("OGUER", 4.0), ("ROUGEXY", 3.0)]

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.text(alphabet="ABCD", max_size=7),
        b=st.text(alphabet="ABCD", max_size=7),
    )
    def test_bag_bound_never_exceeds_distance(self, a, b):
        columns = {ch: c for c, ch in enumerate("ABCD")}
        bound = linkage._bag_bounds(linkage._bag(a, columns), linkage._bag(b, columns)[None, :])
        assert bound.shape == (1,)
        assert bound[0] <= edit_distance(a, b)


class TestWordlists:
    def test_round_trip_files(self, tmp_path):
        stopwords_file = tmp_path / "stopwords.txt"
        stopwords_file.write_text("et\nde\n\ndu\n", encoding="utf-8")
        assert load_wordlist(stopwords_file) == {"ET", "DE", "DU"}
        acronyms_file = tmp_path / "acronyms.txt"
        acronyms_file.write_text("CDR=Côte du Rhône\nSTE=Sainte\n", encoding="utf-8")
        acronyms = load_acronyms(acronyms_file)
        assert acronyms == {"CDR": "COTE DU RHONE", "STE": "SAINTE"}

    def test_acronym_line_without_equals_is_config_error(self, tmp_path):
        acronyms_file = tmp_path / "acronyms.txt"
        acronyms_file.write_text("CDR=Côte du Rhône\n\nBOURG Bourgogne\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="^acronyms.txt: line 3 is not SHORT=Long form: "
                                              "'BOURG Bourgogne'$"):
            load_acronyms(acronyms_file)

    def test_repeated_acronym_is_config_error(self, tmp_path):
        # Keys compare after normalization, as they are looked up.
        acronyms_file = tmp_path / "acronyms.txt"
        acronyms_file.write_text("CDR=Cote du Rhone\n\ncdr=Cotes de Bourg\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="^acronyms.txt: repeated acronym 'CDR' at line 3$"):
            load_acronyms(acronyms_file)

    @pytest.mark.parametrize("lines, number, short, long_form, acronym", [
        # CDR expands to text holding the acronym RHONE of the next line.
        ("CDR=Cote du Rhone\nRHONE=Rhone Valley\n", 1, "CDR", "COTE DU RHONE", "RHONE"),
        ("\nRHONE=Rhône Valley\n", 2, "RHONE", "RHONE VALLEY", "RHONE"),
    ])
    def test_long_form_holding_an_acronym_is_config_error(self, tmp_path, lines, number,
                                                          short, long_form, acronym):
        acronyms_file = tmp_path / "acronyms.txt"
        acronyms_file.write_text(lines, encoding="utf-8")
        with pytest.raises(ConfigError) as error:
            load_acronyms(acronyms_file)
        assert str(error.value) == (f"acronyms.txt: line {number} expands {short!r} to "
                                    f"{long_form!r}, which contains the acronym {acronym!r}")

    @pytest.mark.parametrize("load, lines, number, what, entry", [
        # Labels are split on every character but letters and digits before
        # any lookup, so none of these entries could ever apply.
        (load_wordlist, "de\nSaint Emilion\n", 2, "stopword", "SAINT EMILION"),
        (load_acronyms, "CDR=Cote du Rhone\nST EM=Saint Emilion\n", 2, "acronym", "ST EM"),
        (load_acronyms, "\nC-R=Cote Rotie\n", 2, "acronym", "C-R"),
        (load_acronyms, "=Cote Rotie\n", 1, "acronym", ""),
    ])
    def test_entry_that_is_not_one_token_is_config_error(self, tmp_path, load, lines, number,
                                                         what, entry):
        wordlist = tmp_path / "words.txt"
        wordlist.write_text(lines, encoding="utf-8")
        with pytest.raises(ConfigError) as error:
            load(wordlist)
        assert str(error.value) == (f"words.txt: line {number}: {what} {entry!r} is not one "
                                    "token of letters and digits, so no label token can equal it")

    def test_latin1_files_decode(self, tmp_path):
        stopwords_file = tmp_path / "stopwords.txt"
        stopwords_file.write_bytes("Côte\n".encode("latin-1"))
        assert load_wordlist(stopwords_file) == {"COTE"}
        acronyms_file = tmp_path / "acronyms.txt"
        acronyms_file.write_bytes("CDR=Côte du Rhône\n".encode("latin-1"))
        assert load_acronyms(acronyms_file) == {"CDR": "COTE DU RHONE"}

    def test_match_report_round_trip(self, tmp_path):
        matches = [
            LabelMatch("a", "X", 1.5, True, 150.5, ProductionMode.ORGANIC),
            LabelMatch("b", "", float("inf"), False, 0.1 + 0.2, ProductionMode.CONVENTIONAL),
        ]
        path = tmp_path / "matches.csv"
        write_match_report(matches, path)
        assert read_match_report(path) == matches
