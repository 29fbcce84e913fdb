"""Transcript serialization, parsing, and replay verification."""

import functools
import hashlib
import os
import pathlib
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import known_vectors as kv
from mpqss import (
    ChannelModel,
    ColluderInsider,
    InterceptResend,
    OrderingAttack,
    PreparerInsider,
    ProtocolConfig,
    TranscriptParseError,
    Variant,
    Verdict,
    replay,
    run_protocol,
)
from mpqss import transcript
from mpqss.channel import LossStrategy
from mpqss.cli import main
from mpqss.harness import GRAMMAR, WORDS, _index_list
from mpqss.transcript import (
    _BIT_CODES,
    FORMAT_HEADER,
    KIND_ABORT,
    KIND_ACK,
    KIND_BASES,
    KIND_CHECK_RECV,
    KIND_CHECK_RESULT,
    KIND_CHECK_SELECT,
    KIND_CHECK_SENDER,
    KIND_GUESS,
    KIND_KEY_CONTRIB,
    KIND_LOSS,
    KIND_MEASURED,
    KIND_RAW_KEY,
    KIND_SIFT,
    Chunk,
    Event,
    ParsedTranscript,
    bits_to_str,
    index_payloads,
    parse,
    row_payloads,
    str_to_codes,
)

DATA = pathlib.Path(__file__).parent / "data"


def reference_run():
    return run_protocol(kv.config(), secrets=kv.secrets(), check_blocks=kv.CHECK_BLOCKS)


class TestSerialization:
    def test_round_trip_preserves_config_and_events(self):
        tr = reference_run()
        parsed = parse(tr.serialize())
        assert parsed.config == tr.config
        assert parsed.events == tr.events

    def test_serialization_is_deterministic(self):
        assert reference_run().serialize() == reference_run().serialize()

    def test_events_are_immutable_records_with_their_line(self):
        tr = reference_run()
        ev = tr.events[0]
        assert tr.serialize().splitlines()[2] == f"event {ev.seq} {ev.kind} {ev.party} {ev.payload}"
        assert Event(ev.seq, ev.kind, ev.party).payload == "-"
        with pytest.raises(AttributeError):
            ev.payload = "1"

    def test_records_are_numbered_per_row_and_events_read_back_the_lines(self):
        chunk, other = Chunk({"senders": "2"}), Chunk({})
        chunk.record(KIND_ACK, "bob1")
        chunk.record(KIND_BASES, "alice1", "0110")
        assert chunk[0].serialize().splitlines()[2:] == ["event 1 ack bob1 -", "event 2 bases alice1 0110"]
        plane = np.array([[0, 1, 2], [1, 1, 0]], dtype=np.uint8)
        rows = row_payloads(plane)
        assert rows == [b"01?", b"110"]
        for run, row in zip([chunk, other], rows):
            run.record(KIND_MEASURED, "bob1", row.decode())
        assert [run[0].events[-1].seq for run in (chunk, other)] == [3, 1]
        tr = chunk[0]
        assert tr.events == [
            Event(1, KIND_ACK, "bob1", "-"),
            Event(2, KIND_BASES, "alice1", "0110"),
            Event(3, KIND_MEASURED, "bob1", "01?"),
        ]
        assert other[0].events == [Event(1, KIND_MEASURED, "bob1", "110")]
        # A hand-built chunk renders its config as given and what was recorded
        # after its text was first rendered.
        assert tr.serialize().splitlines() == [
            "mpqss-transcript v1",
            "config senders=2",
            *(f"event {ev.seq} {ev.kind} {ev.party} {ev.payload}" for ev in tr.events),
        ]
        with pytest.raises(AttributeError):
            tr.events = []

    def test_records_made_after_the_text_was_read_show_up_in_it(self):
        chunk = Chunk({}, seeds=[7, 8])
        chunk.record_planes([(KIND_BASES, "alice1")], np.array([[0, 1], [1, 1]], dtype=np.uint8))
        first = [tr.serialize() for tr in chunk]
        indices, bounds = np.array([3, 0, 12]), np.array([0, 1, 3])
        chunk.record(KIND_CHECK_SELECT, "all", functools.partial(index_payloads, indices, bounds))
        lost = np.array([[1, 0, 1]], dtype=bool)
        chunk.record_planes([("loss", "bob1")], lost, rows=np.array([False, True]))
        chunk.record(KIND_ACK, "bob1")
        for t, (before, want) in enumerate([("01", ["event 2 check-select all 3", "event 3 ack bob1 -"]),
                                            ("11", ["event 2 check-select all 0,12", "event 3 loss bob1 101",
                                                    "event 4 ack bob1 -"])]):
            assert first[t].splitlines()[2:] == [f"event 1 bases alice1 {before}"]
            assert chunk[t].serialize().splitlines()[2:] == [f"event 1 bases alice1 {before}", *want]
            assert [ev.payload for ev in chunk[t].events][1:] == [line.split()[-1] for line in want]

    def test_a_row_parses_its_text_once_until_a_record_changes_it(self, monkeypatch):
        calls = []
        monkeypatch.setattr(transcript, "parse", lambda text: calls.append(text) or parse(text))
        chunk = Chunk({"senders": "2"})
        chunk.record(KIND_ACK, "bob1")
        tr = chunk[0]
        first = tr.events
        first.append(Event(9, KIND_ABORT, "all"))  # each read gets its own list
        assert tr.events == tr.events == [Event(1, KIND_ACK, "bob1", "-")]
        assert len(calls) == 1
        chunk.record(KIND_BASES, "alice1", "01")
        assert tr.events == [Event(1, KIND_ACK, "bob1", "-"), Event(2, KIND_BASES, "alice1", "01")]
        assert len(calls) == 2

    @pytest.mark.parametrize("kind, party, payloads", [
        ("", "bob1", "-"), ("ack", "bob 1", "-"), ("ack", "bob1", ""), ("ack", "bob1", "0 1"),
        ("ack", "bob1", "01\n"), ("ack", "bob1", ["01", "1\t0"]), ("ack", "bob1", ["01", ""]),
    ])
    def test_a_record_refuses_words_the_line_format_cannot_carry(self, kind, party, payloads):
        chunk = Chunk({}, seeds=[1, 2])
        with pytest.raises(ValueError, match="no whitespace"):
            chunk.record(kind, party, payloads)
        if payloads == "-":  # a plane's events are checked too
            with pytest.raises(ValueError, match="no whitespace"):
                chunk.record_planes([(KIND_MEASURED, "bob1"), (kind, party)], np.zeros((2, 2, 3), dtype=np.uint8))
        assert chunk[1].events == []

    def test_golden_file_matches_current_output(self):
        golden = (DATA / "worked_example.transcript").read_text()
        assert reference_run().serialize() == golden

    def test_positions_and_parties_follow_documented_numbering(self):
        tr = reference_run()
        text = tr.serialize()
        assert "bob1" in text and "alice2" in text
        select = [ev for ev in tr.events if ev.kind == "check-select"][0]
        assert select.payload == "0,4"  # 0-based block indices

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(list(Variant)), st.booleans())
    def test_round_trip_property_over_random_runs(self, seed, variant, memory):
        receivers = 3
        cfg = ProtocolConfig(
            senders=2,
            receivers=receivers,
            blocks=4,
            variant=variant,
            quantum_memory=memory,
            seed=seed,
        )
        tr = run_protocol(cfg)
        parsed = parse(tr.serialize())
        assert parsed.config == tr.config
        assert [e.kind for e in parsed.events] == [e.kind for e in tr.events]


class TestParseErrors:
    def test_missing_header(self):
        with pytest.raises(TranscriptParseError) as err:
            parse("nonsense\n")
        assert err.value.line_no == 1

    def test_missing_config(self):
        with pytest.raises(TranscriptParseError) as err:
            parse("mpqss-transcript v1\nevent 1 ack bob1 -\n")
        assert err.value.line_no == 2

    def test_bad_event_shape(self):
        text = "mpqss-transcript v1\nconfig senders=2\nevent 1 ack bob1\n"
        with pytest.raises(TranscriptParseError) as err:
            parse(text)
        assert err.value.line_no == 3

    def test_non_monotonic_sequence(self):
        text = (
            "mpqss-transcript v1\nconfig senders=2\n"
            "event 2 ack bob1 -\nevent 1 ack bob2 -\n"
        )
        with pytest.raises(TranscriptParseError) as err:
            parse(text)
        assert err.value.line_no == 4

    def test_unknown_record(self):
        text = "mpqss-transcript v1\nconfig senders=2\nwhatever 1 2 3\n"
        with pytest.raises(TranscriptParseError) as err:
            parse(text)
        assert err.value.line_no == 3


class TestReplay:
    def test_reference_run_verifies_and_carries_the_expected_key(self):
        tr = reference_run()
        verdict = replay(tr.serialize())
        assert verdict.ok, verdict.issues
        parsed = parse(tr.serialize())
        raw = [ev for ev in parsed.events if ev.kind == "raw-key"][0]
        assert tuple(str_to_codes(raw.payload)[0].tolist()) == kv.RAW_KEY

    def test_golden_fixture_verifies(self):
        verdict = replay((DATA / "worked_example.transcript").read_text())
        assert verdict.ok, verdict.issues

    @pytest.mark.parametrize(
        "edit",
        [
            ("compared=", "compared"),  # no '='
            ("disagree=0;", ""),  # missing field
            (";pass=1", ""),  # missing pass flag
            ("compared=6", "compared=six"),  # non-integer count
        ],
    )
    def test_malformed_check_result_is_an_issue_not_a_crash(self, edit):
        text = (DATA / "worked_example.transcript").read_text()
        assert edit[0] in text
        verdict = replay(text.replace(edit[0], edit[1]))
        assert not verdict.ok
        assert [issue for issue in verdict.issues if issue.startswith("check-result: malformed")]

    @pytest.mark.parametrize("memory", [True, False])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_random_honest_runs_verify(self, memory, variant):
        cfg = ProtocolConfig(
            senders=3,
            receivers=3,
            blocks=8,
            variant=variant,
            quantum_memory=memory,
            seed=2718,
        )
        verdict = replay(run_protocol(cfg).serialize())
        assert verdict.ok, verdict.issues

    def test_aborting_run_verifies(self):
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=30, seed=5)
        tr = run_protocol(cfg, ChannelModel(adversary=InterceptResend()))
        assert tr.abort_reason is not None
        verdict = replay(tr.serialize())
        assert verdict.ok, verdict.issues

    def test_failed_check_without_an_abort_event_is_flagged(self):
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=30, seed=5)
        lines = run_protocol(cfg, ChannelModel(adversary=InterceptResend())).serialize().split("\n")
        kept = [line for line in lines if " abort all error-rate" not in line]
        assert len(kept) == len(lines) - 1
        assert replay("\n".join(kept)).issues == ["check-result: failed check without an abort event"]

    def test_passing_check_with_an_abort_event_is_flagged(self):
        text = (DATA / "worked_example.transcript").read_text() + "event 20 abort all error-rate\n"
        assert replay(text).issues == ["check-result: passing check with an abort event"]

    def test_key_after_a_failed_check_is_flagged(self):
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=12, seed=0)
        text = run_protocol(cfg, ChannelModel(adversary=InterceptResend())).serialize()
        assert "pass=0" in text and parse(text).events[-1].kind == "abort"
        keyed = with_key_from_outcomes(text)
        contribs = [f"bob{l}: key-contrib record after a failed check" for l in (1, 2, 3)]
        assert replay(keyed).issues == [*contribs, "raw-key: key recorded after a failed check"]
        # Without the raw key, the contributions alone are flagged, one per receiver.
        assert replay(keyed[:keyed.rindex("\n", 0, -1) + 1]).issues == contribs

    def test_key_forged_in_place_of_a_deleted_check_is_flagged(self):
        # A fully intercepted run aborts on its check; with the check and the
        # abort deleted, the key its outcomes give must not pass as a run's.
        cfg = ProtocolConfig(senders=3, receivers=3, blocks=12, seed=0)
        text = run_protocol(cfg, ChannelModel(adversary=InterceptResend(fraction=1.0))).serialize()
        assert "rate=0.277778" in text and " abort all " in text
        kept = [line for line in text.split("\n") if " check-" not in line and " abort " not in line]
        forged = with_key_from_outcomes("\n".join(kept))
        assert replay(forged).issues == ["all: 0 check-select records, expected one"]

    def test_raw_key_moved_before_the_acks_is_flagged(self):
        lines = (DATA / "worked_example.transcript").read_text().split("\n")
        moved = next(line for line in lines if line.endswith(" raw-key all 1010"))
        lines.remove(moved)
        lines.insert(next(i for i, line in enumerate(lines) if " ack " in line), moved)
        assert replay(renumbered(lines)).issues == ["all: raw-key record precedes a key-contrib record"]

    def test_tampered_measurement_is_flagged_at_its_position(self):
        tr = reference_run()
        lines = tr.serialize().splitlines()
        out = []
        for line in lines:
            if " measured bob2 " in line:
                head, payload = line.rsplit(" ", 1)
                flipped = ("1" if payload[0] == "0" else "0") + payload[1:]
                line = f"{head} {flipped}"
            out.append(line)
        verdict = replay("\n".join(out) + "\n")
        assert not verdict.ok
        assert any("bob2" in issue and "block 0" in issue for issue in verdict.issues)

    def test_tampered_raw_key_is_flagged(self):
        tr = reference_run()
        lines = tr.serialize().splitlines()
        out = []
        for line in lines:
            if " raw-key all " in line:
                head, payload = line.rsplit(" ", 1)
                flipped = payload[:-1] + ("1" if payload[-1] == "0" else "0")
                line = f"{head} {flipped}"
            out.append(line)
        verdict = replay("\n".join(out) + "\n")
        assert not verdict.ok and not verdict
        assert any("raw-key" in issue for issue in verdict.issues)

    def test_reordered_announcement_is_flagged(self):
        tr = reference_run()
        lines = tr.serialize().splitlines()
        # Swap the sequence numbers of an ack and an announcement.
        header, config, *events = lines
        ack = next(e for e in events if " ack bob3 " in e)
        bases = next(e for e in events if " bases alice1 " in e)
        i, j = events.index(ack), events.index(bases)
        ack_fields, bases_fields = ack.split(" "), bases.split(" ")
        ack_fields[1], bases_fields[1] = bases.split(" ")[1], ack.split(" ")[1]
        events[i], events[j] = " ".join(bases_fields), " ".join(ack_fields)
        events.sort(key=lambda e: int(e.split(" ")[1]))
        verdict = replay("\n".join([header, config, *events]) + "\n")
        assert not verdict.ok
        assert any("ordering" in issue for issue in verdict.issues)


# ---------------------------------------------------------------------------
# The line-based parser and the per-position replay of version 0.2.0, kept as
# the references that the one-pass parser and the whole-array replay are
# compared against. The replay assumes well-formed payloads.


def reference_parse(text: str) -> ParsedTranscript:
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise TranscriptParseError(1, f"expected header {FORMAT_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("config "):
        raise TranscriptParseError(2, "expected a config record")
    config: dict[str, str] = {}
    for item in lines[1][len("config "):].split():
        if "=" not in item:
            raise TranscriptParseError(2, f"malformed config item {item!r}")
        key, _, value = item.partition("=")
        config[key] = value
    parsed = ParsedTranscript(config=config)
    last_seq = 0
    for no, raw in enumerate(lines[2:], start=3):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("adversary "):
            item = line[len("adversary "):]
            if "=" not in item:
                raise TranscriptParseError(no, f"malformed adversary item {item!r}")
            key, _, value = item.partition("=")
            parsed.adversary[key] = value
            continue
        if not line.startswith("event "):
            raise TranscriptParseError(no, f"unknown record {line.split()[0]!r}")
        parts = line.split(" ")
        if len(parts) != 5:
            raise TranscriptParseError(no, "event records need: seq kind party payload")
        try:
            seq = int(parts[1])
        except ValueError:
            raise TranscriptParseError(no, f"bad sequence number {parts[1]!r}") from None
        if seq <= last_seq:
            raise TranscriptParseError(no, f"sequence numbers must increase ({seq} after {last_seq})")
        last_seq = seq
        parsed.events.append(Event(seq, parts[2], parts[3], parts[4]))
    return parsed


def with_key_from_outcomes(text: str) -> str:
    """``text`` with a key appended that its own outcomes give: each receiver's
    outcomes at the unchecked blocks every receiver holds, and their XOR."""
    parsed = parse(text)
    outcomes = [ev.payload for ev in parsed.events if ev.kind == "measured"]
    checked = {int(j) for ev in parsed.events if ev.kind == "check-select" for j in ev.payload.split(",")}
    blocks = range(int(parsed.config["blocks"]))
    key_blocks = [j for j in blocks if j not in checked and "?" not in [o[j] for o in outcomes]]
    shares = ["".join(o[j] for j in key_blocks) for o in outcomes]
    raw = "".join(str(sum(map(int, bits)) % 2) for bits in zip(*shares))
    records = [f"key-contrib bob{l} {share}" for l, share in enumerate(shares, start=1)] + [f"raw-key all {raw}"]
    seq = parsed.events[-1].seq
    return text + "".join(f"event {seq + k} {record}\n" for k, record in enumerate(records, start=1))


def str_to_bits(s: str) -> tuple:
    if s == "-":
        return ()
    return tuple(None if c == "?" else int(c) for c in s)


def events_of(parsed: ParsedTranscript, kind: str) -> list[Event]:
    return [ev for ev in parsed.events if ev.kind == kind]


def reference_replay(text: str) -> Verdict:
    parsed = reference_parse(text)
    issues: list[str] = []
    try:
        n = int(parsed.config["receivers"])
        blocks = int(parsed.config["blocks"])
        senders = int(parsed.config["senders"])
        threshold = float(parsed.config["qber_abort_threshold"])
    except (KeyError, ValueError) as err:
        return Verdict(False, [f"config: missing or malformed field ({err})"])

    acks = {ev.party: ev.seq for ev in events_of(parsed, KIND_ACK)}
    bases = {ev.party: ev for ev in events_of(parsed, KIND_BASES)}
    measured = {ev.party: str_to_bits(ev.payload) for ev in events_of(parsed, KIND_MEASURED)}
    sift = {ev.party: ev.payload for ev in events_of(parsed, KIND_SIFT)}
    guesses = {ev.party: str_to_bits(ev.payload) for ev in events_of(parsed, KIND_GUESS)}
    contribs = {ev.party: str_to_bits(ev.payload) for ev in events_of(parsed, KIND_KEY_CONTRIB)}
    raw_key_events = events_of(parsed, KIND_RAW_KEY)
    aborts = events_of(parsed, KIND_ABORT)

    if bases and acks and min(ev.seq for ev in bases.values()) <= max(acks.values()):
        issues.append("ordering: a basis announcement precedes a reception acknowledgment")
    if bases and len(acks) < n:
        issues.append(f"ordering: only {len(acks)} of {n} receivers acknowledged before announcements")

    combined = None
    if len(bases) == senders:
        combined = [0] * (n * blocks)
        for ev in bases.values():
            bits = str_to_bits(ev.payload)
            if len(bits) == n * blocks:
                per_pos = bits
            elif len(bits) == blocks:
                per_pos = [bits[k // n] for k in range(n * blocks)]
            else:
                issues.append(f"{ev.party}: basis string has unexpected length {len(bits)}")
                combined = None
                break
            combined = [c ^ int(b) for c, b in zip(combined, per_pos)]

    usable: dict[int, list[bool]] = {}
    for l in range(1, n + 1):
        party = f"bob{l}"
        outcomes = measured.get(party)
        if outcomes is None:
            continue
        mask = []
        for j in range(blocks):
            ok = outcomes[j] is not None
            if party in sift:
                ok = ok and sift[party][j] == "1"
            mask.append(ok)
        usable[l] = mask
        if party in sift and party in guesses and combined is not None:
            for j in range(blocks):
                if outcomes[j] is None:
                    continue
                expect = guesses[party][j] == combined[j * n + (l - 1)]
                if (sift[party][j] == "1") != expect:
                    issues.append(f"{party}: sift flag at block {j} contradicts announced bases")

    select = events_of(parsed, KIND_CHECK_SELECT)
    check_blocks: list[int] = []
    if select and select[0].payload != "-":
        check_blocks = sorted(int(x) for x in select[0].payload.split(","))

    sender_reveals = {ev.party: str_to_bits(ev.payload) for ev in events_of(parsed, KIND_CHECK_SENDER)}
    recv_reveals = {ev.party: str_to_bits(ev.payload) for ev in events_of(parsed, KIND_CHECK_RECV)}
    compared = disagree = 0
    if check_blocks and len(sender_reveals) == senders:
        for l in range(1, n + 1):
            party = f"bob{l}"
            revealed = recv_reveals.get(party)
            if revealed is None:
                issues.append(f"{party}: no check reveal recorded")
                continue
            for idx, j in enumerate(check_blocks):
                outcome = revealed[idx]
                if outcome is None:
                    continue
                if party in measured and measured[party][j] != outcome:
                    issues.append(f"{party}: check reveal at block {j} contradicts its measurement record")
                pos_in_reveal = idx * n + (l - 1)
                expected = 0
                for i in range(1, senders + 1):
                    expected ^= sender_reveals[f"alice{i}"][pos_in_reveal]
                compared += 1
                if outcome != expected:
                    disagree += 1
        results = events_of(parsed, KIND_CHECK_RESULT)
        if results:
            fields = dict(item.partition("=")[::2] for item in results[0].payload.split(";"))
            try:
                recorded = (int(fields["compared"]), int(fields["disagree"]))
                recorded_pass = fields["pass"] == "1"
            except (KeyError, ValueError):
                issues.append(f"check-result: malformed payload {results[0].payload!r}")
            else:
                if recorded != (compared, disagree):
                    issues.append(
                        f"check-result: recorded {recorded[0]}/{recorded[1]} "
                        f"but reveals give {compared}/{disagree}"
                    )
                rate = disagree / compared if compared else 0.0
                if recorded_pass != (rate <= threshold):
                    issues.append("check-result: pass flag contradicts the recomputed rate")
                if not recorded_pass and not aborts:
                    issues.append("check-result: failed check without an abort event")
                if recorded_pass and not raw_key_events and not aborts:
                    issues.append("raw-key: passing run recorded no key")

    if raw_key_events:
        raw_key = str_to_bits(raw_key_events[0].payload)
        checked = set(check_blocks)
        unmeasured = [False] * blocks
        receiver_masks = [usable.get(l, unmeasured) for l in range(1, n + 1)]
        key_blocks = [
            j
            for j in range(blocks)
            if j not in checked and all(mask[j] for mask in receiver_masks)
        ]
        if len(raw_key) != len(key_blocks):
            issues.append(
                f"raw-key: {len(raw_key)} bits recorded but {len(key_blocks)} blocks qualify"
            )
        else:
            for idx, j in enumerate(key_blocks):
                bit = 0
                for l in range(1, n + 1):
                    party = f"bob{l}"
                    contrib = contribs.get(party)
                    if contrib is None or idx >= len(contrib):
                        issues.append(f"{party}: missing key contribution for block {j}")
                        bit = None
                        break
                    if measured.get(party) is not None and measured[party][j] != contrib[idx]:
                        issues.append(
                            f"{party}: key contribution at block {j} contradicts its measurement record"
                        )
                    bit ^= contrib[idx]
                if bit is not None and bit != raw_key[idx]:
                    issues.append(f"raw-key: bit {idx} (block {j}) is not the XOR of the contributions")
    return Verdict(not issues, issues)


CHANNELS = {
    "ideal": ChannelModel(),
    "remove-loss": ChannelModel(loss_prob=0.15, p_x=0.03),
    "substitute-loss": ChannelModel(
        loss_prob=0.15, p_z=0.03, loss_strategy=LossStrategy.SUBSTITUTE
    ),
    "intercept-resend": ChannelModel(loss_prob=0.05, adversary=InterceptResend(fraction=0.2)),
}

# Kinds whose 0/1 characters the equivalence property flips.
FLIPPABLE = (KIND_MEASURED, KIND_SIFT, KIND_KEY_CONTRIB, KIND_RAW_KEY, KIND_CHECK_SENDER, KIND_CHECK_RECV)


@st.composite
def honest_transcripts(draw):
    variant = draw(st.sampled_from(list(Variant)))
    cfg = ProtocolConfig(
        senders=draw(st.integers(2, 4)),
        receivers=draw(st.sampled_from([3, 5] if variant is Variant.BLOCK_SHARED else [2, 3, 4])),
        blocks=draw(st.integers(4, 40)),
        variant=variant,
        quantum_memory=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32)),
    )
    return run_protocol(cfg, CHANNELS[draw(st.sampled_from(sorted(CHANNELS)))]).serialize()


def flip_bits(text: str, picks, reverse_select: bool = False) -> str:
    """Flip one 0/1 character of a FLIPPABLE payload per (line, position) pick.

    ``reverse_select`` also lists the checked blocks in descending order,
    which names the same blocks.
    """
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if reverse_select and " check-select " in line:
            head, payload = line.rsplit(" ", 1)
            lines[i] = f"{head} {','.join(reversed(payload.split(',')))}"
    targets = [
        i for i, line in enumerate(lines) if line.startswith("event ") and line.split(" ")[2] in FLIPPABLE
    ]
    for line_pick, pos_pick in picks:
        if not targets:
            break
        i = targets[line_pick % len(targets)]
        head, payload = lines[i].rsplit(" ", 1)
        spots = [k for k, c in enumerate(payload) if c in "01"]
        if spots:
            k = spots[pos_pick % len(spots)]
            payload = payload[:k] + "10"[int(payload[k])] + payload[k + 1:]
            lines[i] = f"{head} {payload}"
    return "\n".join(lines)


class TestAgainstPerPositionReference:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        honest_transcripts(),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=4),
        st.booleans(),
    )
    def test_same_verdict_and_issues_as_the_per_position_replay(self, text, picks, reverse_select):
        tampered = flip_bits(text, picks, reverse_select)
        expected = reference_replay(tampered)
        assert replay(tampered) == expected

    @pytest.mark.parametrize("memory", [True, False])
    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_every_config_family_agrees_when_honest(self, variant, channel, memory):
        cfg = ProtocolConfig(
            senders=3, receivers=3, blocks=60, variant=variant, quantum_memory=memory, seed=99
        )
        text = run_protocol(cfg, CHANNELS[channel]).serialize()
        assert replay(text) == reference_replay(text)
        flipped = flip_bits(text, [(i, 7 * i) for i in range(6)])
        assert replay(flipped) == reference_replay(flipped)

    def test_ordering_attack_transcripts_agree(self):
        for enforce in (True, False):
            cfg = ProtocolConfig(senders=2, receivers=3, blocks=20, enforce_ordering=enforce, seed=4)
            text = run_protocol(cfg, ChannelModel(adversary=OrderingAttack())).serialize()
            assert replay(text) == reference_replay(text)


# ---------------------------------------------------------------------------
# Totality: any text gives a Verdict or a TranscriptParseError.

MUTATION_CHARS = "01?-,;=x9 \n"

# Channels whose transcripts carry an adversary section, one per attack kind.
ATTACKS = {
    "intercept-resend": ChannelModel(loss_prob=0.05, adversary=InterceptResend(fraction=0.3)),
    "preparer": ChannelModel(adversary=PreparerInsider()),
    "colluder": ChannelModel(loss_prob=0.05, adversary=ColluderInsider(target=3)),
    "ordering": ChannelModel(adversary=OrderingAttack()),
    "ordering-blind": ChannelModel(adversary=OrderingAttack(use_announced_bases=False)),
}


@st.composite
def attacked_transcripts(draw):
    cfg = ProtocolConfig(
        senders=draw(st.integers(3, 4)),
        receivers=3,
        blocks=draw(st.integers(4, 30)),
        quantum_memory=draw(st.booleans()),
        enforce_ordering=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32)),
    )
    return run_protocol(cfg, ATTACKS[draw(st.sampled_from(sorted(ATTACKS)))]).serialize()


def mutate(text: str, how: str, at: int, char: str) -> str:
    if how == "substitute":
        return text[:at] + char + text[at + 1:]
    if how == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + char + text[at:]


def assert_total(text: str) -> None:
    """``replay`` gives a Verdict, ok exactly when it has no issues, or a parse error."""
    try:
        verdict = replay(text)
    except TranscriptParseError:
        return
    assert isinstance(verdict, Verdict)
    assert verdict.ok == (not verdict.issues)


# The worked example's last record.
LAST = "raw-key all 1010"

# One-record edits of an honest transcript that replay cannot tell from the
# engine's own output, by edit, kind and recorder, with the reason.
UNFLAGGED = {
    ("delete", "loss", "alice"): "what a sender hop lost stays lost, so the receivers' bitmaps mark it "
                                 "as if the last hop had lost it",
}


class TestReplayIsTotal:
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        honest_transcripts(),
        st.sampled_from(["substitute", "delete", "insert"]),
        st.integers(0, 10**6),
        st.sampled_from(MUTATION_CHARS),
    )
    def test_one_character_mutations_give_a_verdict_or_a_parse_error(self, text, how, at, char):
        assert_total(mutate(text, how, at % len(text), char))

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        attacked_transcripts(),
        st.sampled_from(["substitute", "delete", "insert"]),
        st.integers(0, 10**6),
        st.sampled_from(MUTATION_CHARS),
    )
    def test_mutations_of_the_adversary_section_give_a_verdict_or_a_parse_error(
        self, text, how, at, char
    ):
        assume("\nadversary " in text)  # an enforced ordering attack aborts before it
        assert not any(issue.startswith("adversary:") for issue in replay(text).issues)
        start = text.index("\nadversary ") + 1
        assert_total(mutate(text, how, start + at % (len(text) - start), char))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(honest_transcripts(), st.integers(0, 10**6))
    def test_a_duplicated_record_is_an_issue(self, text, at):
        lines = text.split("\n")
        events = [i for i, line in enumerate(lines) if line.startswith("event ")]
        i = events[at % len(events)]
        _, _, kind, party, _ = lines[i].split(" ")
        lines.insert(i, lines[i])
        assert f"{party}: 2 {kind} records, expected one" in replay(renumbered(lines)).issues

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(honest_transcripts(), st.integers(0, 10**6), st.sampled_from(["delete", "move"]))
    def test_a_deleted_or_moved_record_is_an_issue(self, text, at, how):
        lines = text.split("\n")
        events = [i for i, line in enumerate(lines) if line.startswith("event ")]
        i = events[at % len(events)]
        kind, party = lines[i].split(" ")[2:4]
        assume(UNFLAGGED.get((how, kind, party.rstrip("0123456789"))) is None)
        assume(not (how == "move" and i == events[-1]))  # the last event moved after itself is the same text
        edited = lines[:i] + lines[i + 1:]
        if how == "move":
            edited.insert(events[-1], lines[i])  # after the last event, before the adversary section
        assert not replay(renumbered(edited)).ok

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(honest_transcripts())
    def test_an_honest_transcript_replays_ok(self, text):
        verdict = replay(text)
        assert verdict.ok, verdict.issues

    @pytest.mark.parametrize("name", ["worked_example", "stream_0.2.0", "stream_0.3.0", "stream_0.4.0"])
    def test_every_data_transcript_replays_ok(self, name):
        verdict = replay((DATA / f"{name}.transcript").read_text())
        assert verdict.ok, verdict.issues

    def test_every_kind_has_a_grammar_row_and_every_row_a_rule(self):
        kinds = {value for name, value in vars(transcript).items() if name.startswith("KIND_")}
        # The payload forms replay reads: a fixed word ('-' or an abort reason), a
        # code alphabet, the check's comma list of blocks, and its tally.
        forms = {"-", "reason", "01", "01?", "indices", "tally"}
        assert set(GRAMMAR) == kinds and set(WORDS) <= forms
        for kind, row in GRAMMAR.items():
            assert row.recorders and row.payload in forms, kind
            assert {*row.after, *row.own} <= kinds, kind
            assert {*row.due, row.barred} - {""} <= kinds | {"passed", "failed"}, kind
            assert set(row.texts) <= {*row.after, *row.own, "due", "barred"}, kind
        # A loss bitmap is never due: the loss rule reads it against the
        # measurement records, and the ack and bases rows order it before the same party's record.
        unruled = [kind for kind, row in GRAMMAR.items()
                   if not (row.after or row.own or row.due or row.barred or row.no_memory)]
        assert unruled == [KIND_LOSS]
        assert KIND_LOSS in GRAMMAR[KIND_ACK].own and KIND_LOSS in GRAMMAR[KIND_BASES].own

    @pytest.mark.parametrize(
        "old, new, expected",
        [
            ("bases alice1 0", "bases alice1 -", "alice1: bases payload has a character outside '01'"),
            ("bases alice1 0", "bases alice1 ;", "alice1: bases payload has a character outside '01'"),
            ("bases alice1 0", "bases alice1 ?", "alice1: bases payload has a character outside '01'"),
            ("bob2 100001", "bob2 10000", "bob2: measured payload has 5 positions, expected 6"),
            ("all 0,4", "all 0,4,317", "check-select: block 317 is outside [0, 6)"),
            ("all 0,4", "all 0,x", "check-select: payload is not a comma list of block indices"),
            ("all 0,4", "all 4,4", "check-select: block 4 is selected more than once"),
            ("all 0,4", "all 0,4,5", "check-select: 3 blocks selected, but ceil(0.3333333333333333 * 6) = 2"),
            ("sender alice2", "sender alicf2", "alicf2: check-sender from a party that is no sender"),
            ("bob1 01\n", "bob1 0\n", "bob1: check-receiver payload has 1 positions, expected 2"),
            ("bob3 0111", "bob3 01?1", "bob3: key-contrib payload has a character outside '01'"),
            ("all 1010", "all 1x10", "all: raw-key payload has a character outside '01'"),
            ("senders=2", "senders=0", "config: missing or malformed field (receivers, blocks and"),
            ("fraction=0.3333333333333333", "fraction=nan", "config: missing or malformed field"),
            # Config fields the rules trust: the memory mode, the variant, and the
            # basis length the variant gives (one basis per block in a block variant).
            ("quantum_memory=1", "quantum_memory=banana", "config: missing or malformed field ('banana')"),
            ("variant=main", "variant=banana", "config: missing or malformed field ('banana' is not"),
            ("variant=main", "variant=block_basis", "alice1: basis string has unexpected length 18"),
            ("senders=2", "senders=1000000", "bases: 2 of 1000000 senders announced a basis string"),
            ("ack bob3", "ack eve", "eve: ack from a party that is no receiver"),
            ("ack bob3", "ack bob03", "ordering: only 2 of 3 receivers acknowledged before announcements"),
            ("bases alice2", "bases mallory", "mallory: bases from a party that is no sender"),
            ("bases alice2", "bases alice02", "bases: 1 of 2 senders announced a basis string"),
            # One record appended after the last: each one is refused at admission.
            (LAST, f"{LAST}\nevent 20 measured eve 011010", "eve: measured from a party that is no receiver"),
            (LAST, f"{LAST}\nevent 20 key-contrib bob4 1100", "bob4: key-contrib from a party that is no receiver"),
            (LAST, f"{LAST}\nevent 20 check-sender alice3 100111", "alice3: check-sender from a party that is no sender"),
            (LAST, f"{LAST}\nevent 20 abort eve error-rate", "eve: abort from a party that is no 'all'"),
            (LAST, f"{LAST}\nevent 20 raw-key all 1010", "all: 2 raw-key records, expected one"),
            (LAST, f"{LAST}\nevent 20 check-select all 0,4", "all: 2 check-select records, expected one"),
            (LAST, f"{LAST}\nevent 20 frobnicate bob1 -", "bob1: unknown record kind 'frobnicate'"),
            # Records the engine writes only without quantum memory, or only where a loss is marked.
            (LAST, f"{LAST}\nevent 20 premeasure bob1 -", "bob1: premeasure record in a run with quantum memory"),
            (LAST, f"{LAST}\nevent 20 guess-bases bob1 000000",
             "bob1: guess-bases record in a run with quantum memory"),
            (LAST, f"{LAST}\nevent 20 loss alice2 {'0' * 18}", "alice2: loss record marks no lost position"),
            # Payloads of a fixed word: '-', or the reason the engine aborted for.
            ("ack bob1 -", "ack bob1 0101", "bob1: ack payload is not '-'"),
            ("ack bob1 -", "ack bob1 zz", "bob1: ack payload is not '-'"),
            (LAST, f"{LAST}\nevent 20 abort all banana",
             "all: abort payload is not 'error-rate' or 'ordering-violation'"),
        ],
    )
    def test_malformed_payloads_are_issues(self, old, new, expected):
        text = (DATA / "worked_example.transcript").read_text()
        assert text.count(old) == 1
        verdict = replay(text.replace(old, new))
        assert not verdict.ok
        assert any(issue.startswith(expected) for issue in verdict.issues), verdict.issues

    @pytest.mark.parametrize(
        "old, new, expected",
        [
            ("bases alice1 0", "bases alice1 ?", "alice1: bases payload has a character outside '01'"),
            ("check-sender alice2 111011", "check-sender alice2 1110",
             "alice2: check-sender payload has 4 positions, expected 6"),
        ],
    )
    def test_a_malformed_record_is_one_issue(self, old, new, expected):
        # The count of senders reads admitted records, so it does not report the record again.
        text = (DATA / "worked_example.transcript").read_text()
        assert text.count(old) == 1
        assert replay(text.replace(old, new)).issues == [expected]

    @pytest.mark.parametrize(
        "dropped, expected",
        [
            (" bases alice3 ", "bases: 2 of 3 senders announced a basis string"),
            (" check-result ", "check-result: no result recorded for the check"),
            (" check-sender alice1 ", "check-sender: 2 of 3 senders revealed their bits"),
            (" raw-key all ", "raw-key: passing run recorded no key"),
        ],
    )
    def test_deleted_records_are_issues(self, dropped, expected):
        cfg = ProtocolConfig(senders=3, receivers=3, blocks=20, quantum_memory=False, seed=3)
        lines = run_protocol(cfg).serialize().split("\n")
        kept = [line for line in lines if dropped not in line]
        assert len(kept) == len(lines) - 1
        verdict = replay("\n".join(kept))
        assert not verdict.ok
        assert expected in verdict.issues

    @pytest.mark.parametrize(
        "variant, memory", [(None, True), (Variant.BLOCK_BASIS, True), (Variant.BLOCK_SHARED, False)]
    )
    def test_config_sizes_are_not_trusted_before_a_payload_has_them(self, variant, memory):
        if variant is None:
            text = (DATA / "worked_example.transcript").read_text()
            old, new = "receivers=3 blocks=6", f"receivers={10**12} blocks={10**12}"
        else:
            # Every basis string has one entry per block, so the combined
            # basis must stay (blocks, 1) and never be sized by the receivers.
            cfg = ProtocolConfig(2, 3, 6, variant=variant, quantum_memory=memory, seed=1)
            text = run_protocol(cfg).serialize()
            old, new = "receivers=3 ", f"receivers={10**12} "
        assert text.count(old) == 1
        verdict = replay(text.replace(old, new))
        assert isinstance(verdict, Verdict) and not verdict.ok

    def test_config_party_counts_are_not_trusted_before_the_records_have_them(self):
        # A list of the run's senders is built only once the records count as
        # many; a list of 10**6 of them alone peaked at 65 MiB.
        text = (DATA / "worked_example.transcript").read_text()
        old, big = "senders=2 receivers=3 blocks=6", "senders=1000000 receivers=1000000 blocks=1000000"
        assert text.count(old) == 1
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            verdict = replay(text.replace(old, big))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert not verdict.ok
        assert peak <= 2**20


# Whitespace and the line boundaries of str.splitlines other than a newline.
SPACING_CHARS = "\r\t\x0b\x0c\x1c\x1f\x85\u2028"


def parse_outcome(parser, text: str):
    """What ``parser`` makes of ``text``: a ParsedTranscript, or its error's line and message."""
    try:
        return parser(text)
    except TranscriptParseError as err:
        return err.line_no, str(err)


@st.composite
def edited_transcripts(draw):
    """An honest or attacked transcript with up to three one-character edits.

    Each edit lands anywhere in the text, or within a few characters of a
    line start, where the record words are.
    """
    text = draw(st.one_of(honest_transcripts(), attacked_transcripts()))
    for _ in range(draw(st.integers(0, 3))):
        starts = [0] + [k + 1 for k, c in enumerate(text) if c == "\n"]
        if draw(st.booleans()):
            at = draw(st.sampled_from(starts)) + draw(st.integers(-2, 12))
        else:
            at = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(["substitute", "delete", "insert"]))
        char = draw(st.sampled_from(MUTATION_CHARS + SPACING_CHARS))
        text = mutate(text, how, min(max(at, 0), len(text)), char)
    return text


class TestParseAgainstLineReference:
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(edited_transcripts())
    def test_edited_transcripts_parse_as_the_line_based_parser_parses_them(self, text):
        assert parse_outcome(parse, text) == parse_outcome(reference_parse, text)

    @pytest.mark.parametrize("text", [
        "", "\n", "\r\n", "mpqss-transcript v1", " mpqss-transcript v1\t\r\nconfig a=1\r\n",
        "mpqss-transcript v1\rconfig a=1\x0bevent 1 ack bob1 -\x85event 2 ack bob2 -\u2029",
        "mpqss-transcript v1\nconfig a=1\n\x1c\n\x1f\n  \nevent 1 ack bob1 -",
        "mpqss-transcript v1\nconfig a=1\nevent 1 ack bob1 -\r\r\nevent 1 ack bob2 -",
        "mpqss-transcript v1\nconfig a=1\nevent 1  ack bob1\nevent +2 ack bob1 0\t1",
        "mpqss-transcript v1\nconfig a=1\nevent 1 ack bob1 - \x0c\nevent 2 ack  bob1 -",
        "mpqss-transcript v1\nconfig\nevent 1 ack bob1 -", "mpqss-transcript v1\nconfig a\n",
        "mpqss-transcript v1\nconfig a=1\nadversary\u2028adversary x=\nadversary kind",
        "mpqss-transcript v1\nconfig a=1\n\tevent\t1 ack bob1 -",
        "mpqss-transcript v1\nconfig a=1\nevent 1_0 ack bob1 -\nevent \u0663\u0663 ack bob1 \u00e9",
        "mpqss-transcript v1\nconfig a=1\nevent 1 ack bob1 -\revent 2 ack bob2 -\r",
        "mpqss-transcript v1\r\nconfig a=1\nevent 1 ack bob1 -\nevent 2 ack bob2 -\n",
    ])
    def test_line_ends_spacing_and_bad_records_parse_as_the_line_based_parser_parses_them(self, text):
        assert parse_outcome(parse, text) == parse_outcome(reference_parse, text)

    def test_a_crlf_transcript_parses_and_replays_as_its_lf_form(self):
        text = (DATA / "worked_example.transcript").read_text()
        crlf = text.replace("\n", "\r\n")
        assert parse(crlf) == parse(text) == reference_parse(crlf)
        assert replay(crlf) == replay(text)


# The regular expression that check-select payloads and adversary positions were matched with.
INDEX_LIST = r"[0-9]{1,18}(?:,[0-9]{1,18})*"


def assert_reads_as_the_regex(s: str) -> None:
    """``_index_list`` accepts what the regular expression matches, with fromstring's integers."""
    got = _index_list(s)
    if re.fullmatch(INDEX_LIST, s) is None:
        assert got is None
    else:
        assert got is not None and got.tolist() == np.fromstring(s, np.int64, sep=",").tolist()


class TestIndexList:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.text(alphabet="0123456789,-+ \u0663", max_size=30),
        st.lists(st.text(alphabet="0123456789", max_size=20), max_size=4).map(",".join),
    ))
    def test_accepts_what_the_regex_matches(self, s):
        assert_reads_as_the_regex(s)

    @pytest.mark.parametrize("s", [
        "1,,2", ",1", "1,", "", ",", "1" * 19, "9" * 18, "0", "007,3", "1,2" + ",9" * 40,
        "1,-2", "+1", " 1", "1 ", "\u0663", "1\u0663", "1\ud800",
    ])
    def test_edge_cases(self, s):
        assert_reads_as_the_regex(s)


def assert_decodes_as_the_table(s: str) -> None:
    """``str_to_codes`` gives what the translation table alone gave, and '-' the empty plane,
    with the plane's largest code."""
    want = np.frombuffer(s.encode("utf-8", "surrogatepass").translate(_BIT_CODES), np.uint8)
    got, top = str_to_codes(s)
    assert got.dtype == np.uint8
    assert got.tolist() == ([] if s == "-" else want.tolist())
    assert top == max(got.tolist(), default=0)


class TestStrToCodes:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(list("01?-2x \u00e9\ud800")), max_size=30).map("".join))
    def test_decodes_as_the_translation_table_does(self, s):
        assert_decodes_as_the_table(s)

    @pytest.mark.parametrize("s", ["", "-", "01", "2", "012", "0?1", "\u00e9", "1\ud800"])
    def test_edge_cases(self, s):
        assert_decodes_as_the_table(s)


# A run configuration that sets every option in a few hundred characters.
EVERY_OPTION = (DATA / "every_option.cfg").read_text()


class TestRunIsTotal:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.sampled_from(["substitute", "delete", "insert"]),
        st.integers(0, 10**6),
        st.sampled_from(MUTATION_CHARS + "#._aenoT"),
    )
    def test_one_character_edits_of_a_config_file_give_an_exit_code(self, how, at, char):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as fh:
                fh.write(mutate(EVERY_OPTION, how, at % len(EVERY_OPTION), char))
            assert main(["run", "--config", path]) in (0, 1, 2)


# ---------------------------------------------------------------------------
# Loss records against the measurement records.


def lossy_run() -> str:
    cfg = ProtocolConfig(senders=3, receivers=3, blocks=60, seed=7)
    return run_protocol(cfg, ChannelModel(loss_prob=0.1)).serialize()


def edit_payload(text: str, marker: str, edit) -> str:
    lines = text.split("\n")
    i = next(i for i, line in enumerate(lines) if marker in line)
    head, payload = lines[i].rsplit(" ", 1)
    lines[i] = f"{head} {edit(payload)}"
    return "\n".join(lines)


class TestLossRecords:
    def test_lossy_runs_verify_under_both_strategies(self):
        text = lossy_run()
        assert " loss bob1 " in text and " loss alice2 " in text
        assert replay(text).ok, replay(text).issues
        cfg = ProtocolConfig(senders=3, receivers=3, blocks=60, seed=7)
        sub = run_protocol(cfg, ChannelModel(loss_prob=0.1, loss_strategy=LossStrategy.SUBSTITUTE))
        assert " loss " not in sub.serialize() and "?" not in sub.serialize()
        assert replay(sub.serialize()).ok

    def test_deleted_receiver_loss_event_is_flagged(self):
        text = lossy_run()
        lines = [line for line in text.split("\n") if " loss bob2 " not in line]
        verdict = replay("\n".join(lines))
        assert not verdict.ok
        lost, _ = str_to_codes(next(l for l in text.split("\n") if " loss bob2 " in l).rsplit(" ", 1)[1])
        first = int(np.flatnonzero(lost)[0])
        assert f"bob2: measurement record at block {first} contradicts its loss record" in verdict.issues

    def test_moved_question_mark_is_flagged(self):
        text = lossy_run()
        payload = next(l for l in text.split("\n") if " measured bob1 " in l).rsplit(" ", 1)[1]
        j = payload.index("?")
        k = next(k for k in range(j + 1, len(payload)) if payload[k] != "?")
        moved = payload[:j] + payload[k] + payload[j + 1:k] + "?" + payload[k + 1:]
        verdict = replay(edit_payload(text, " measured bob1 ", lambda _: moved))
        assert not verdict.ok
        assert f"bob1: measurement record at block {j} contradicts its loss record" in verdict.issues
        assert f"bob1: measurement record at block {k} contradicts its loss record" in verdict.issues

    def test_hop_loss_missing_from_the_receiver_record_is_flagged(self):
        text = lossy_run()
        bob, _ = str_to_codes(next(l for l in text.split("\n") if " loss bob1 " in l).rsplit(" ", 1)[1])
        j = int(np.flatnonzero(bob == 0)[0])  # a block bob1 received
        k = 3 * j  # its position, n*j + l-1 with l = 1
        verdict = replay(edit_payload(text, " loss alice2 ", lambda p: p[:k] + "1" + p[k + 1:]))
        assert not verdict.ok
        assert f"alice2: loss at block {j} is missing from bob1's loss record" in verdict.issues

    def test_a_hop_loss_of_a_delivered_run_is_owed_by_the_receivers_loss_record(self):
        text = lossy_run()
        hop, _ = str_to_codes(next(l for l in text.split("\n") if " loss alice2 " in l).rsplit(" ", 1)[1])
        j, c = divmod(int(np.flatnonzero(hop)[0]), 3)  # block j, receiver c + 1
        verdict = replay("\n".join(l for l in text.split("\n") if f" loss bob{c + 1} " not in l))
        assert f"alice2: loss at block {j} is missing from bob{c + 1}'s loss record" in verdict.issues

    @pytest.mark.parametrize("seed", range(6))
    def test_hop_losses_of_a_run_that_never_delivered_replay_ok(self, seed, tmp_path):
        # An enforced ordering attack aborts before the last hop: no receiver
        # acknowledged, so none owes a loss record for what a sender hop lost.
        path = tmp_path / "o.transcript"
        args = ["run", "--scenario", "ordering-attack", "-m", "3", "-n", "3", "-N", "12", "--loss-prob", "0.2",
                "--trials", "1", "--seed", str(seed), "--save-transcript", str(path)]
        assert main(args) == 1
        text = path.read_text()
        assert " loss alice" in text and " ack " not in text
        assert replay(text).ok, replay(text).issues


class TestPayloadPlanes:
    @given(st.lists(st.integers(0, 2), max_size=200))
    def test_str_to_codes_inverts_bits_to_str(self, codes):
        text = bits_to_str(bytes(codes)) or "-"
        plane, top = str_to_codes(text)
        assert plane.tolist() == codes and top == max(codes, default=0)
        if codes:
            assert bits_to_str(plane.tobytes()) == text

    def test_other_characters_decode_above_every_code(self):
        assert str_to_codes("01?x\x00\x01é")[0].tolist() == [0, 1, 2, 255, 255, 255, 255, 255]

    @pytest.mark.parametrize("indices", [[], [0], [9], [10], [9, 10], [99, 100], [0, 9, 10, 99, 100, 101],
                                         [2**63 - 1], [5, 10**18, 10**18 + 7]])
    def test_index_payload_is_the_comma_list(self, indices):
        want = ",".join(map(str, indices)) or "-"
        assert index_payloads(np.array(indices, dtype=np.int64), [0, len(indices)]) == [want.encode()]

    @given(st.lists(st.lists(st.integers(0, 10**6), max_size=6), max_size=6))
    def test_index_payloads_render_each_row(self, rows):
        flat = np.array([i for row in rows for i in row], dtype=np.int64)
        bounds = np.cumsum([0] + [len(row) for row in rows])
        assert index_payloads(flat, bounds) == [(",".join(map(str, row)) or "-").encode() for row in rows]

    def test_rendering_a_plane_holds_at_most_two_copies_of_its_text(self):
        plane = np.random.default_rng(3).integers(0, 3, size=(3, 10**6), dtype=np.uint8)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = row_payloads(plane)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rows == [bits_to_str(row).encode() for row in plane]
        assert peak <= 2.5 * plane.nbytes  # 4x while every copy of the text stayed alive

    @given(st.lists(st.lists(st.integers(0, 2), max_size=5), max_size=6), st.integers(1, 3))
    def test_row_payloads_render_each_slice_of_each_leading_row(self, rows, lead):
        flat = [c for row in rows for c in row]
        plane = np.array([flat] * lead, dtype=np.uint8).reshape(lead, len(flat))
        bounds = np.cumsum([0] + [len(row) for row in rows])
        want = [(bits_to_str(bytes(row)) or "-").encode() for row in rows] * lead
        assert row_payloads(plane, bounds) == want
        assert row_payloads(plane) == [(bits_to_str(bytes(flat)) or "-").encode()] * lead


# ---------------------------------------------------------------------------
# Premeasure records of runs without quantum memory.


def no_memory_lines() -> list[str]:
    cfg = ProtocolConfig(senders=3, receivers=3, blocks=20, quantum_memory=False, seed=3)
    return run_protocol(cfg).serialize().split("\n")


def renumbered(lines: list[str]) -> str:
    """The lines with event sequence numbers 1, 2, ... in their new order."""
    seq = 0
    out = []
    for line in lines:
        if line.startswith("event "):
            seq += 1
            _, _, rest = line.split(" ", 2)
            line = f"event {seq} {rest}"
        out.append(line)
    return "\n".join(out)


EDIT_CHANNELS = {
    "ideal": ChannelModel(),
    "lossy-x": ChannelModel(loss_prob=0.15, p_x=0.05),
    "substitute-z": ChannelModel(loss_prob=0.15, p_z=0.05, loss_strategy=LossStrategy.SUBSTITUTE),
    "intercept-resend": ChannelModel(adversary=InterceptResend(fraction=1.0)),
    "ordering": ChannelModel(adversary=OrderingAttack()),
    "colluder": ChannelModel(adversary=ColluderInsider(target=3)),
}


def record_edits(text: str):
    """Every one-record deletion, duplication and adjacent swap of ``text``'s events, renumbered."""
    lines = text.split("\n")
    events = [i for i, line in enumerate(lines) if line.startswith("event ")]
    for i in events:
        yield renumbered(lines[:i] + lines[i + 1:])
        yield renumbered(lines[:i + 1] + lines[i:])
    for i, k in zip(events, events[1:]):
        yield renumbered(lines[:i] + [lines[k], lines[i]] + lines[k + 1:])


class TestEditCorpus:
    def test_every_record_edit_gives_the_pinned_verdicts_and_issues(self):
        # Pins the verdict, the issues and their order for every edit, so a
        # change to any of them, or to the order of the rules, moves the hash.
        digest = hashlib.sha256()
        edits = flagged = 0
        for variant in Variant:
            for memory in (True, False):
                for channel in EDIT_CHANNELS.values():
                    for seed in (0, 1):
                        cfg = ProtocolConfig(3, 3, 8, variant=variant, quantum_memory=memory, seed=seed)
                        for edited in record_edits(run_protocol(cfg, channel).serialize()):
                            verdict = replay(edited)
                            digest.update(repr((verdict.ok, verdict.issues)).encode())
                            edits += 1
                            flagged += not verdict.ok
        assert (edits, flagged) == (4446, 3588)
        assert digest.hexdigest() == "db2f4562d42cfc84d7dd3243602f5063d80a5ae595170c26cbbc859c62d8c776"


class TestPremeasureRecords:
    def test_honest_no_memory_run_verifies(self):
        assert replay("\n".join(no_memory_lines())).ok

    def test_deleted_premeasure_is_flagged(self):
        lines = [line for line in no_memory_lines() if " premeasure bob2 " not in line + " "]
        verdict = replay(renumbered(lines))
        assert verdict.issues == ["bob2: 0 premeasure records, expected one"]

    def test_premeasure_moved_after_an_announcement_is_flagged(self):
        lines = no_memory_lines()
        moved = next(line for line in lines if line.endswith(" premeasure bob2 -"))
        lines.remove(moved)
        lines.insert(next(i for i, line in enumerate(lines) if " bases alice1 " in line) + 1, moved)
        verdict = replay(renumbered(lines))
        assert verdict.issues == ["bob2: premeasure record follows a basis announcement"]

    def test_premeasure_moved_before_its_ack_is_flagged(self):
        lines = no_memory_lines()
        moved = next(line for line in lines if line.endswith(" premeasure bob3 -"))
        lines.remove(moved)
        lines.insert(next(i for i, line in enumerate(lines) if line.endswith(" ack bob3 -")), moved)
        verdict = replay(renumbered(lines))
        assert verdict.issues == ["bob3: premeasure record does not follow its ack"]

    def test_premeasure_with_a_payload_is_flagged(self):
        lines = no_memory_lines()
        i = next(i for i, line in enumerate(lines) if line.endswith(" premeasure bob1 -"))
        lines[i] = lines[i][:-1] + "0101"
        assert replay("\n".join(lines)).issues == ["bob1: premeasure payload is not '-'"]

    def test_duplicated_premeasure_is_flagged(self):
        lines = no_memory_lines()
        i = next(i for i, line in enumerate(lines) if line.endswith(" premeasure bob1 -"))
        lines.insert(i, lines[i])
        verdict = replay(renumbered(lines))
        assert verdict.issues == ["bob1: 2 premeasure records, expected one"]


# ---------------------------------------------------------------------------
# The adversary section.


def intercepted_run() -> str:
    cfg = ProtocolConfig(senders=3, receivers=3, blocks=10, seed=1)
    text = run_protocol(cfg, ChannelModel(adversary=InterceptResend(fraction=0.3))).serialize()
    assert replay(text).ok
    return text


def touched(text: str) -> int:
    """How many positions the adversary section of ``text`` lists."""
    return len(parse(text).adversary["positions"].split(","))


def edit_adversary(text: str, key: str, edit) -> str:
    lines = text.split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith(f"adversary {key}="))
    lines[i] = f"adversary {key}={edit(lines[i].partition('=')[2])}"
    return "\n".join(lines)


class TestAdversarySection:
    def test_position_outside_the_block_is_flagged(self):
        run = intercepted_run()
        count = touched(run)
        verdict = replay(edit_adversary(run, "positions", lambda p: p + ",999"))
        assert not verdict.ok
        assert "adversary: position 999 is outside [0, 30)" in verdict.issues
        assert f"adversary: bits has {count} entries, expected {count + 1}" in verdict.issues

    def test_bits_outside_the_alphabet_are_flagged(self):
        text = edit_adversary(intercepted_run(), "bits", lambda b: "zz" + b[2:])
        assert replay(text).issues == ["adversary: bits is missing or has a character outside '01'"]

    @pytest.mark.parametrize(
        "key, edit, expected",
        [
            ("positions", lambda p: ",".join(reversed(p.split(","))), "adversary: positions are not strictly increasing"),
            ("positions", lambda p: p.replace(",", ";", 1), "adversary: positions is not a comma list of qubit positions"),
            ("certain", lambda c: c[1:], "adversary: certain has {short} entries, expected {count}"),
            ("kind", lambda k: "", "adversary: no kind recorded"),
        ],
    )
    def test_malformed_fields_are_flagged(self, key, edit, expected):
        run = intercepted_run()
        verdict = replay(edit_adversary(run, key, edit))
        assert expected.format(short=touched(run) - 1, count=touched(run)) in verdict.issues

    def test_missing_field_is_flagged(self):
        lines = [line for line in intercepted_run().split("\n") if not line.startswith("adversary bases=")]
        assert replay("\n".join(lines)).issues == [
            "adversary: bases is missing or has a character outside '01'"
        ]

    @pytest.mark.parametrize("attack", sorted(ATTACKS))
    def test_every_attack_kind_writes_a_well_formed_section(self, attack):
        cfg = ProtocolConfig(senders=3, receivers=3, blocks=12, enforce_ordering=False, seed=2)
        text = run_protocol(cfg, ATTACKS[attack]).serialize()
        assert "\nadversary kind=" in text
        assert not any(issue.startswith("adversary:") for issue in replay(text).issues)
