"""Hypothesis round-trip properties for the store's row and page codecs.

The store's durability story rests on ``decode(encode(x)) == x`` at
three layers: the tagged value codec (:mod:`repro.store.packing`), the
per-table row codecs (:mod:`repro.store.rows`) and whole segment files
(:mod:`repro.store.segment`).  Each layer is pinned independently,
plus the interning edge cases shard blobs never hit at shard
scale: empty strings, duplicated hosts across rows, and intern tables
past the 64k mark (the codec is varint-based — there is no u16 index
ceiling to fall off).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.campaign import AttemptRecord
from repro.crawler.outcomes import CrawlOutcome, TerminationCode
from repro.identity.passwords import PasswordClass
from repro.identity.records import Identity, PostalAddress
from repro.store.packing import MAX_DEPTH, PackError, pack, unpack
from repro.store.rows import (
    Interner,
    decode_attempt_row,
    decode_spec_row,
    encode_attempt_row,
    encode_spec_row,
    table_codec,
)
from repro.store.segment import SegmentReader, SegmentWriter
from repro.web.spec import (
    BotCheck,
    EmailBehavior,
    LinkPlacement,
    RegistrationStyle,
    ResponseStyle,
    SiteSpec,
)

# -- strategies ---------------------------------------------------------------

text = st.text(max_size=16)
instants = st.integers(min_value=0, max_value=10**9)

_SPEC_BOOLS = (
    "load_fails", "supports_https", "multistage_credentials_first",
    "multistage_creates_at_step1", "wants_username", "wants_name",
    "wants_phone", "wants_birthdate", "wants_gender",
    "wants_confirm_password", "wants_terms_checkbox",
    "extra_unlabeled_field", "extra_field_required",
    "requires_special_char", "requires_admin_approval",
    "lists_usernames_publicly", "site_brute_force_protection",
    "is_free_trial",
)

specs = st.builds(
    SiteSpec,
    host=text,
    rank=st.integers(1, 10**7),
    category=text,
    language=st.sampled_from(["en", "de", "zh", ""]),
    shared_backend=st.none() | text,
    backend_family=st.none() | text,
    registration_style=st.sampled_from(RegistrationStyle),
    link_placement=st.sampled_from(LinkPlacement),
    registration_path=text,
    anchor_text=text,
    label_style=st.sampled_from(["for", "wrap", "placeholder", "adjacent"]),
    bot_check=st.sampled_from(BotCheck),
    response_style=st.sampled_from(ResponseStyle),
    email_behavior=st.sampled_from(EmailBehavior),
    shadow_ban_rate=st.floats(0, 1, allow_nan=False),
    max_email_length=st.none() | st.integers(1, 64),
    max_username_length=st.none() | st.integers(1, 64),
    password_storage=st.sampled_from(
        ["plaintext", "reversible", "unsalted_md5", "salted_hash", "strong_hash"]
    ),
    shard_count=st.integers(1, 8),
    notes=st.dictionaries(text, text, max_size=3),
    **{name: st.booleans() for name in _SPEC_BOOLS},
)

identities = st.builds(
    Identity,
    identity_id=st.integers(0, 10**6),
    first_name=text,
    last_name=text,
    gender=st.sampled_from(["female", "male"]),
    date_of_birth=instants,
    address=st.builds(
        PostalAddress, street=text, city=text, state=text, zip_code=text
    ),
    phone=text,
    employer=text,
    email_local=text,
    email_domain=text,
    password=text,
    password_class=st.sampled_from(PasswordClass),
)

outcomes = st.builds(
    CrawlOutcome,
    site_host=text,
    url=text,
    code=st.sampled_from(TerminationCode),
    detail=text,
    exposed_email=st.booleans(),
    exposed_password=st.booleans(),
    pages_loaded=st.integers(0, 99),
    started_at=instants,
    finished_at=instants,
    filled_fields=st.tuples(text, text),
)

attempts = st.builds(
    AttemptRecord,
    site_host=text,
    rank=st.integers(1, 10**6),
    url=text,
    identity=identities,
    password_class=st.sampled_from(PasswordClass),
    outcome=outcomes,
    manual=st.booleans(),
    registered_at=instants,
)

#: Everything the tagged value codec claims to cover, recursively.
packables = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=False)
    | text
    | st.binary(max_size=16),
    lambda inner: st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(text, inner, max_size=4),
    max_leaves=12,
)


# -- packing ------------------------------------------------------------------


class TestPacking:
    @given(packables)
    def test_round_trip(self, value):
        assert unpack(pack(value)) == value

    @given(st.integers(min_value=-(2**100), max_value=2**100))
    def test_wide_integers(self, value):
        assert unpack(pack(value)) == value

    def test_lists_normalize_to_tuples(self):
        assert unpack(pack([1, [2, 3]])) == (1, (2, 3))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(PackError):
            unpack(pack(1) + b"\x00")

    def test_truncated_rejected(self):
        with pytest.raises(PackError):
            unpack(pack("hello")[:-1])

    def test_unknown_tag_rejected(self):
        with pytest.raises(PackError):
            unpack(b"\xff")

    def test_unpackable_type_rejected(self):
        with pytest.raises(PackError):
            pack(object())

    @given(st.binary(max_size=48))
    def test_arbitrary_bytes_raise_only_pack_error(self, data):
        try:
            unpack(data)
        except PackError:
            pass

    def test_over_deep_nesting_rejected(self):
        nested = b"\x07\x01" * MAX_DEPTH + b"\x00"
        assert unpack(nested) is not None
        with pytest.raises(PackError, match="nested deeper"):
            unpack(b"\x07\x01" + nested)
        with pytest.raises(PackError, match="nested deeper"):
            unpack(b"\x07\x01" * 5000 + b"\x00")


# -- row codecs ---------------------------------------------------------------


class TestRowRoundTrips:
    @given(specs)
    def test_spec_row(self, spec):
        strings = Interner()
        row = encode_spec_row(spec, strings)
        assert decode_spec_row(row, strings.table) == spec

    @given(attempts)
    def test_attempt_row(self, attempt):
        strings = Interner()
        row = encode_attempt_row(attempt, strings)
        assert decode_attempt_row(row, strings.table) == attempt

    @given(identities)
    def test_account_row(self, identity):
        encode, decode = table_codec("accounts")
        strings = Interner()
        assert decode(encode(identity, strings), strings.table) == identity

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            table_codec("nope")


# -- whole segments -----------------------------------------------------------


def _write_segment(path, table, rows, rows_per_page):
    encode, decode = table_codec(table)
    with SegmentWriter(path, table, encode, rows_per_page=rows_per_page) as w:
        w.extend(rows)
    return SegmentReader(path, decode, expect_table=table)


class TestSegmentRoundTrips:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(specs, min_size=1, max_size=12), rows_per_page=st.integers(1, 5))
    def test_spec_segment(self, rows, rows_per_page, tmp_path):
        with _write_segment(
            tmp_path / "s.seg", "specs", rows, rows_per_page
        ) as reader:
            assert list(reader.iter_rows()) == rows
            assert reader.get(len(rows) - 1) == rows[-1]

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(attempts, min_size=1, max_size=8), rows_per_page=st.integers(1, 4))
    def test_telemetry_segment(self, rows, rows_per_page, tmp_path):
        with _write_segment(
            tmp_path / "t.seg", "telemetry", rows, rows_per_page
        ) as reader:
            assert list(reader.iter_rows()) == rows


class TestInterningEdgeCases:
    def test_empty_strings_intern(self):
        spec = SiteSpec(host="", rank=1, category="", language="")
        strings = Interner()
        row = encode_spec_row(spec, strings)
        back = decode_spec_row(row, strings.table)
        assert back.host == "" and back.category == ""
        # One table slot, however many fields are empty.
        assert strings.table.count("") == 1

    def test_duplicate_hosts_share_slots(self, tmp_path):
        rows = [
            SiteSpec(host="same.example", rank=r, category="c", language="en")
            for r in range(1, 9)
        ]
        with _write_segment(tmp_path / "d.seg", "specs", rows, 8) as reader:
            assert [s.rank for s in reader.iter_rows()] == list(range(1, 9))
            assert {s.host for s in reader.iter_rows()} == {"same.example"}

    def test_intern_table_past_64k(self, tmp_path):
        """One page whose intern table exceeds u16 range round-trips.

        A fixed-width 16-bit intern index would truncate here; the
        varint layout must not.
        """
        n = 66_000
        rows = [
            SiteSpec(host=f"h{i}.example", rank=i + 1, category="c", language="en")
            for i in range(n)
        ]
        with _write_segment(tmp_path / "big.seg", "specs", rows, n) as reader:
            assert len(reader.page_entries()) == 1
            assert reader.get(0).host == "h0.example"
            assert reader.get(n - 1).host == f"h{n - 1}.example"
            assert reader.get(65_536).host == "h65536.example"
