"""Static word lists and catalogs used across the simulation.

These play the role of the paper's external inputs: the Fake Name
Generator-style identity corpus, the adjective/noun username vocabulary,
the dictionary used for "easy" passwords, site-category labels and the
country/registry data backing the simulated WHOIS database.
"""

from repro.data.words import (
    ADJECTIVES,
    DICTIONARY_WORDS,
    NOUNS,
)
from repro.data.identity_wordlists import (
    CITIES,
    EMPLOYERS,
    FEMALE_FIRST_NAMES,
    LAST_NAMES,
    MALE_FIRST_NAMES,
    STREET_NAMES,
    STREET_SUFFIXES,
    US_STATES,
)
from repro.data.sites import (
    SITE_CATEGORIES,
    SITE_NAME_STEMS,
    TLDS,
)
from repro.data.geo import ATTACKER_COUNTRY_WEIGHTS, COUNTRIES

__all__ = [
    "ADJECTIVES",
    "NOUNS",
    "DICTIONARY_WORDS",
    "MALE_FIRST_NAMES",
    "FEMALE_FIRST_NAMES",
    "LAST_NAMES",
    "STREET_NAMES",
    "STREET_SUFFIXES",
    "CITIES",
    "US_STATES",
    "EMPLOYERS",
    "SITE_CATEGORIES",
    "SITE_NAME_STEMS",
    "TLDS",
    "COUNTRIES",
    "ATTACKER_COUNTRY_WEIGHTS",
]
