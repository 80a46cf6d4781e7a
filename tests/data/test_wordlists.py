"""Tests for the static data catalogs."""

import re

from repro.data import (
    ADJECTIVES,
    ATTACKER_COUNTRY_WEIGHTS,
    CITIES,
    COUNTRIES,
    DICTIONARY_WORDS,
    EMPLOYERS,
    FEMALE_FIRST_NAMES,
    LAST_NAMES,
    MALE_FIRST_NAMES,
    NOUNS,
    SITE_CATEGORIES,
    SITE_NAME_STEMS,
    TLDS,
)
from repro.data.geo import COUNTRY_NAMES
from repro.data.identity_wordlists import AREA_CODES, STREET_SUFFIXES


class TestUsernameVocabulary:
    def test_adjectives_capitalized_alpha(self):
        for word in ADJECTIVES:
            assert word[0].isupper() and word.isalpha()

    def test_nouns_capitalized_alpha(self):
        for word in NOUNS:
            assert word[0].isupper() and word.isalpha()

    def test_vocabulary_large_enough_for_uniqueness(self):
        # adjective x noun x 9000 numbers must dwarf pilot identity needs.
        assert len(ADJECTIVES) * len(NOUNS) * 9000 > 10_000_000

    def test_no_duplicates(self):
        assert len(set(ADJECTIVES)) == len(ADJECTIVES)
        assert len(set(NOUNS)) == len(NOUNS)
        assert len(set(DICTIONARY_WORDS)) == len(DICTIONARY_WORDS)


class TestIdentityCorpus:
    def test_names_nonempty_and_distinct_pools(self):
        assert len(MALE_FIRST_NAMES) >= 40
        assert len(FEMALE_FIRST_NAMES) >= 40
        assert len(LAST_NAMES) >= 40

    def test_cities_have_state_and_zip_prefix(self):
        for city, state, zip_prefix in CITIES:
            assert len(state) == 2 and state.isupper()
            assert re.match(r"^\d{3}$", zip_prefix)

    def test_area_codes_valid(self):
        for code in AREA_CODES:
            assert re.match(r"^[2-9]\d{2}$", code)

    def test_street_suffixes(self):
        assert "St" in STREET_SUFFIXES and "Ave" in STREET_SUFFIXES

    def test_employers_plausible(self):
        assert len(EMPLOYERS) >= 20
        assert all(" " in employer for employer in EMPLOYERS)


class TestSiteCatalogs:
    def test_paper_categories_present(self):
        # Table 2's categories must exist in the generator's vocabulary.
        for category in ("Deals", "Gaming", "BitTorrent", "Wallpapers",
                         "RSS Feeds", "Marketing", "Horoscopes", "Classifieds",
                         "Adult", "Vacations", "Outdoors", "Tourism Guide",
                         "Press Releases", "BTC Forum"):
            assert category in SITE_CATEGORIES, category

    def test_tld_weights_positive(self):
        assert all(weight > 0 for _tld, weight in TLDS)
        assert any(tld == ".com" for tld, _w in TLDS)

    def test_stems_lowercase(self):
        assert all(stem == stem.lower() for stem in SITE_NAME_STEMS)


class TestGeo:
    def test_paper_top_countries_weighted_correctly(self):
        weights = dict(ATTACKER_COUNTRY_WEIGHTS)
        # §6.4.3: RU 194 > CN 144 > US 135 > VN 89.
        assert weights["RU"] > weights["CN"] > weights["US"] > weights["VN"]

    def test_country_diversity_matches_paper_scale(self):
        assert len(COUNTRIES) >= 90  # paper: 92 countries observed

    def test_all_weighted_countries_named(self):
        for code, _weight in ATTACKER_COUNTRY_WEIGHTS:
            assert code in COUNTRY_NAMES
