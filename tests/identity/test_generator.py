"""Tests for identity generation (Section 4.1.1)."""

import re

from repro.identity.generator import IdentityFactory
from repro.identity.passwords import PasswordClass
from repro.util.rngtree import RngTree

LOCAL_RE = re.compile(r"^[A-Z][a-z]+[A-Z][a-z]+\d{4}$")


def make_factory(seed=1) -> IdentityFactory:
    return IdentityFactory(RngTree(seed))


class TestUsernames:
    def test_adjective_noun_number_shape(self):
        factory = make_factory()
        for _ in range(30):
            identity = factory.create(PasswordClass.HARD)
            assert LOCAL_RE.match(identity.email_local), identity.email_local

    def test_email_locals_unique(self):
        factory = make_factory()
        locals_ = {factory.create(PasswordClass.EASY).email_local for _ in range(300)}
        assert len(locals_) == 300

    def test_site_username_is_14_char_prefix(self):
        factory = make_factory()
        identity = factory.create(PasswordClass.HARD)
        assert identity.site_username == identity.email_local[:14]
        assert len(identity.site_username) <= 14

    def test_email_address_format(self):
        factory = IdentityFactory(RngTree(2), email_domain="prov.example")
        identity = factory.create(PasswordClass.HARD)
        assert identity.email_address == f"{identity.email_local}@prov.example"


class TestPersonalData:
    def test_phone_numbers_unique_and_formatted(self):
        factory = make_factory()
        phones = [factory.create(PasswordClass.HARD).phone for _ in range(100)]
        assert len(set(phones)) == 100
        assert all(re.match(r"^\d{3}-\d{3}-\d{4}$", p) for p in phones)

    def test_address_syntactically_valid(self):
        factory = make_factory()
        identity = factory.create(PasswordClass.EASY)
        address = identity.address
        assert re.match(r"^\d+ \w+", address.street)
        assert len(address.state) == 2
        assert re.match(r"^\d{5}$", address.zip_code)
        assert address.city in address.one_line()

    def test_gender_matches_name_pool(self):
        from repro.data.identity_wordlists import FEMALE_FIRST_NAMES, MALE_FIRST_NAMES

        factory = make_factory()
        for _ in range(40):
            identity = factory.create(PasswordClass.HARD)
            pool = MALE_FIRST_NAMES if identity.gender == "M" else FEMALE_FIRST_NAMES
            assert identity.first_name in pool

    def test_dob_plausible_adult(self):
        from repro.util.timeutil import instant_to_datetime

        factory = make_factory()
        for _ in range(30):
            year = instant_to_datetime(factory.create(PasswordClass.HARD).date_of_birth).year
            assert 1955 <= year <= 1997


class TestPasswordAssignment:
    def test_password_class_respected(self):
        factory = make_factory()
        hard = factory.create(PasswordClass.HARD)
        easy = factory.create(PasswordClass.EASY)
        assert len(hard.password) == 10
        assert len(easy.password) == 8
        assert hard.password_class is PasswordClass.HARD
        assert easy.password_class is PasswordClass.EASY

    def test_deterministic_given_seed(self):
        a = make_factory(7).create(PasswordClass.HARD)
        b = make_factory(7).create(PasswordClass.HARD)
        assert a.email_local == b.email_local
        assert a.password == b.password

    def test_ids_sequential(self):
        factory = make_factory()
        ids = [factory.create(PasswordClass.HARD).identity_id for _ in range(5)]
        assert ids == [1, 2, 3, 4, 5]


class TestFormValues:
    def test_form_value_mapping(self):
        factory = make_factory()
        identity = factory.create(PasswordClass.HARD)
        assert identity.form_value_for("email") == identity.email_address
        assert identity.form_value_for("password") == identity.password
        assert identity.form_value_for("password_confirm") == identity.password
        assert identity.form_value_for("username") == identity.site_username
        assert identity.form_value_for("first_name") == identity.first_name
        assert identity.form_value_for("zip") == identity.address.zip_code

    def test_unknown_meaning_is_none(self):
        identity = make_factory().create(PasswordClass.HARD)
        assert identity.form_value_for("card_number") is None
        assert identity.form_value_for("unknown") is None

    def test_birthdate_formats(self):
        identity = make_factory().create(PasswordClass.HARD)
        assert re.match(r"^\d{2}/\d{2}/\d{4}$", identity.form_value_for("birthdate"))
        assert identity.form_value_for("birth_year").isdigit()
