"""Lossless row codecs: every flat tuple the program packs.

One set of codecs serves both places interned rows are written:

- the world store's pages (:mod:`repro.store.segment`), one table per
  segment — ``specs`` (one :class:`~repro.web.spec.SiteSpec` per row,
  row *i* holding rank *i + 1*), ``accounts``
  (:class:`~repro.identity.records.Identity` rows in first-reference
  order) and ``telemetry`` (:class:`~repro.core.campaign.AttemptRecord`
  rows with the identity nested inline, so every page stays
  self-contained);
- shard blobs: a :class:`~repro.core.runner.ShardResult` flattened by
  :func:`encode_shard_result` over one string intern table, its
  attempts in the same inline-identity rows as the ``telemetry``
  table.  ``pack(encode_shard_result(r))`` is what crosses the process
  pool and what a service checkpoint stores per shard.

Every codec is lossless: ``decode(encode(x)) == x`` field for field,
enums round-tripping through ``.value`` and lists restored where the
dataclasses hold lists (:func:`~repro.store.packing.unpack` returns
tuples) — pinned by the hypothesis property tests in
``tests/store/test_rows_property.py`` and
``tests/store/test_shard_codec.py``.  Row layout changes (new fields,
reordering) must bump :data:`~repro.store.segment.SEGMENT_SCHEMA` and
:data:`SHARD_SCHEMA`.

The 17 spec booleans pack into one varint bitmask (columnar in
spirit: a fixed bit plan rather than 17 tagged values per row).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.core.campaign import AttemptRecord, CampaignStats
from repro.crawler.outcomes import CrawlOutcome, TerminationCode
from repro.faults.report import FaultReport
from repro.identity.passwords import PasswordClass
from repro.identity.records import Identity, PostalAddress
from repro.obs import EventRecord
from repro.obs.journal import ShardObservation
from repro.obs.tracing import SpanRecord
from repro.web.spec import (
    BotCheck,
    EmailBehavior,
    LinkPlacement,
    RegistrationStyle,
    ResponseStyle,
    SiteSpec,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.core.runner import ShardResult

__all__ = [
    "Interner",
    "SHARD_SCHEMA",
    "TABLE_NAMES",
    "decode_attempt_row",
    "decode_shard_result",
    "decode_spec_row",
    "encode_attempt_row",
    "encode_shard_result",
    "encode_spec_row",
    "table_codec",
]

#: Bump on any change to the shard-blob layout; decoders check it.
SHARD_SCHEMA = 2


class Interner:
    """Assigns dense indices to values, first-seen order."""

    __slots__ = ("table", "index")

    def __init__(self):
        self.table: list = []
        self.index: dict = {}

    def add(self, value) -> int:
        got = self.index.get(value)
        if got is not None:
            return got
        position = len(self.table)
        self.table.append(value)
        self.index[value] = position
        return position


def encode_identity_row(identity: Identity, strings: Interner) -> tuple:
    s = strings.add
    a = identity.address
    return (
        identity.identity_id,
        s(identity.first_name),
        s(identity.last_name),
        s(identity.gender),
        identity.date_of_birth,
        s(a.street),
        s(a.city),
        s(a.state),
        s(a.zip_code),
        s(identity.phone),
        s(identity.employer),
        s(identity.email_local),
        s(identity.email_domain),
        s(identity.password),
        s(identity.password_class.value),
    )


def decode_identity_row(row: tuple, strings: list) -> Identity:
    return Identity(
        identity_id=row[0],
        first_name=strings[row[1]],
        last_name=strings[row[2]],
        gender=strings[row[3]],
        date_of_birth=row[4],
        address=PostalAddress(
            street=strings[row[5]],
            city=strings[row[6]],
            state=strings[row[7]],
            zip_code=strings[row[8]],
        ),
        phone=strings[row[9]],
        employer=strings[row[10]],
        email_local=strings[row[11]],
        email_domain=strings[row[12]],
        password=strings[row[13]],
        password_class=PasswordClass(strings[row[14]]),
    )


def encode_outcome_row(outcome: CrawlOutcome, strings: Interner) -> tuple:
    s = strings.add
    return (
        s(outcome.site_host),
        s(outcome.url),
        s(outcome.code.value),
        s(outcome.detail),
        outcome.exposed_email,
        outcome.exposed_password,
        outcome.pages_loaded,
        outcome.started_at,
        outcome.finished_at,
        tuple(s(name) for name in outcome.filled_fields),
    )


def decode_outcome_row(row: tuple, strings: list) -> CrawlOutcome:
    return CrawlOutcome(
        site_host=strings[row[0]],
        url=strings[row[1]],
        code=TerminationCode(strings[row[2]]),
        detail=strings[row[3]],
        exposed_email=row[4],
        exposed_password=row[5],
        pages_loaded=row[6],
        started_at=row[7],
        finished_at=row[8],
        filled_fields=tuple(strings[i] for i in row[9]),
    )


#: Bit plan for the spec bool mask, least-significant bit first.
#: Append only — reordering is a schema break.
_SPEC_FLAGS = (
    "load_fails",
    "supports_https",
    "multistage_credentials_first",
    "multistage_creates_at_step1",
    "wants_username",
    "wants_name",
    "wants_phone",
    "wants_birthdate",
    "wants_gender",
    "wants_confirm_password",
    "wants_terms_checkbox",
    "extra_unlabeled_field",
    "extra_field_required",
    "requires_special_char",
    "requires_admin_approval",
    "lists_usernames_publicly",
    "site_brute_force_protection",
    "is_free_trial",
)


def encode_spec_row(spec: SiteSpec, strings: Interner) -> tuple:
    """One site spec as a flat tuple over the page's intern table."""
    s = strings.add
    flags = 0
    for bit, name in enumerate(_SPEC_FLAGS):
        if getattr(spec, name):
            flags |= 1 << bit
    return (
        s(spec.host),
        spec.rank,
        s(spec.category),
        s(spec.language),
        flags,
        None if spec.shared_backend is None else s(spec.shared_backend),
        None if spec.backend_family is None else s(spec.backend_family),
        s(spec.registration_style.value),
        s(spec.link_placement.value),
        s(spec.registration_path),
        s(spec.anchor_text),
        s(spec.label_style),
        s(spec.bot_check.value),
        s(spec.response_style.value),
        s(spec.email_behavior.value),
        spec.shadow_ban_rate,
        spec.max_email_length,
        spec.max_username_length,
        s(spec.password_storage),
        spec.shard_count,
        tuple((s(key), s(value)) for key, value in spec.notes.items()),
    )


def decode_spec_row(row: tuple, strings: list) -> SiteSpec:
    """Inverse of :func:`encode_spec_row`."""
    flags = row[4]
    bools = {
        name: bool(flags & (1 << bit)) for bit, name in enumerate(_SPEC_FLAGS)
    }
    return SiteSpec(
        host=strings[row[0]],
        rank=row[1],
        category=strings[row[2]],
        language=strings[row[3]],
        shared_backend=None if row[5] is None else strings[row[5]],
        backend_family=None if row[6] is None else strings[row[6]],
        registration_style=RegistrationStyle(strings[row[7]]),
        link_placement=LinkPlacement(strings[row[8]]),
        registration_path=strings[row[9]],
        anchor_text=strings[row[10]],
        label_style=strings[row[11]],
        bot_check=BotCheck(strings[row[12]]),
        response_style=ResponseStyle(strings[row[13]]),
        email_behavior=EmailBehavior(strings[row[14]]),
        shadow_ban_rate=row[15],
        max_email_length=row[16],
        max_username_length=row[17],
        password_storage=strings[row[18]],
        shard_count=row[19],
        notes={strings[key]: strings[value] for key, value in row[20]},
        **bools,
    )


def encode_attempt_row(attempt: AttemptRecord, strings: Interner) -> tuple:
    """One attempt with its identity nested inline (page-local)."""
    s = strings.add
    return (
        s(attempt.site_host),
        attempt.rank,
        s(attempt.url),
        encode_identity_row(attempt.identity, strings),
        s(attempt.password_class.value),
        encode_outcome_row(attempt.outcome, strings),
        attempt.manual,
        attempt.registered_at,
    )


def decode_attempt_row(
    row: tuple, strings: list, identities: dict | None = None
) -> AttemptRecord:
    """Inverse of :func:`encode_attempt_row`.

    ``identities``, when given, memoizes identity rows over one string
    table, so attempts that used the same identity share one object.
    """
    if identities is None:
        identity = decode_identity_row(row[3], strings)
    else:
        identity = identities.get(row[3])
        if identity is None:
            identity = identities[row[3]] = decode_identity_row(row[3], strings)
    return AttemptRecord(
        site_host=strings[row[0]],
        rank=row[1],
        url=strings[row[2]],
        identity=identity,
        password_class=PasswordClass(strings[row[4]]),
        outcome=decode_outcome_row(row[5], strings),
        manual=row[6],
        registered_at=row[7],
    )


#: Table name -> (encode, decode) pairs the segment layer dispatches on.
_TABLE_CODECS = {
    "specs": (encode_spec_row, decode_spec_row),
    "accounts": (encode_identity_row, decode_identity_row),
    "telemetry": (encode_attempt_row, decode_attempt_row),
}

TABLE_NAMES = tuple(_TABLE_CODECS)


def table_codec(table: str) -> tuple:
    """The (encode, decode) pair for a world table name."""
    try:
        return _TABLE_CODECS[table]
    except KeyError:
        raise ValueError(
            f"unknown world table {table!r} (one of {TABLE_NAMES})"
        ) from None


# -- shard results ------------------------------------------------------------


def _counter_tuple(record) -> tuple:
    """A counter dataclass as its field-value tuple (all ints)."""
    return tuple(
        getattr(record, f.name) for f in dataclasses.fields(record)
    )


def _encode_observation(obs: ShardObservation, strings: Interner) -> tuple:
    s = strings.add
    return (
        obs.shard_index,
        obs.counters,
        obs.gauges,
        obs.histograms,
        tuple(
            (sp.index, sp.parent, s(sp.name), sp.start, sp.end, sp.attrs)
            for sp in obs.spans
        ),
        tuple(
            (ev.time, s(ev.component), s(ev.message), ev.attrs)
            for ev in obs.events
        ),
    )


def _decode_observation(row: tuple, strings: list) -> ShardObservation:
    return ShardObservation(
        shard_index=row[0],
        counters=row[1],
        gauges=row[2],
        # A histogram's bounds and buckets are lists; unpack made them tuples.
        histograms={
            name: {
                key: list(value) if type(value) is tuple else value
                for key, value in data.items()
            }
            for name, data in row[3].items()
        },
        spans=[
            SpanRecord(sp[0], sp[1], strings[sp[2]], sp[3], sp[4], sp[5])
            for sp in row[4]
        ],
        events=[
            EventRecord(ev[0], strings[ev[1]], strings[ev[2]], ev[3])
            for ev in row[5]
        ],
    )


def encode_shard_result(result: "ShardResult") -> tuple:
    """Flatten a shard result into the schema-versioned blob tuple."""
    strings = Interner()
    site_attempts = tuple(
        (position, tuple(encode_attempt_row(a, strings) for a in attempts))
        for position, attempts in result.site_attempts
    )
    observation = (
        _encode_observation(result.observation, strings)
        if result.observation is not None
        else None
    )
    return (
        SHARD_SCHEMA,
        result.shard_index,
        strings.table,
        site_attempts,
        _counter_tuple(result.stats),
        _counter_tuple(result.telemetry),
        _counter_tuple(result.fault_report),
        observation,
    )


def decode_shard_result(blob: tuple) -> "ShardResult":
    """Rebuild a :class:`ShardResult` from its blob tuple."""
    from repro.core.runner import ShardResult, ShardTelemetry

    if not blob or blob[0] != SHARD_SCHEMA:
        raise ValueError(
            f"unsupported shard schema {blob[0] if blob else None!r} "
            f"(codec supports {SHARD_SCHEMA})"
        )
    (_, shard_index, strings, site_attempts,
     stats, telemetry, fault_report, observation) = blob
    identities: dict = {}
    return ShardResult(
        shard_index=shard_index,
        site_attempts=[
            (
                position,
                [decode_attempt_row(row, strings, identities) for row in rows],
            )
            for position, rows in site_attempts
        ],
        stats=CampaignStats(*stats),
        telemetry=ShardTelemetry(*telemetry),
        fault_report=FaultReport(*fault_report),
        observation=(
            _decode_observation(observation, strings)
            if observation is not None
            else None
        ),
    )
