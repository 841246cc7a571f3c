"""Seeded corruptions of dump and table text.

Every mutator has the same shape — ``mutator(rng, text) -> bytes`` — so
the tests can drive them uniformly: feed each one its own
:class:`random.Random` (:func:`rng_for`) and the clean text, get back the
damaged bytes to write to disk.  Returning *bytes* is deliberate: several
corruptions (binary splice, mixed encodings) cannot be represented as a
clean Python string, and real damage arrives as bytes anyway.

``DUMP_MUTATORS`` applies to RPSL dump files, ``TABLE_MUTATORS`` to
TABLE_DUMP2 route-table text; ``MUTATORS`` is their union.
"""

from __future__ import annotations

import random
from typing import Callable, Dict

Mutator = Callable[[random.Random, str], bytes]

# The oversized-paragraph mutator appends one object of roughly this many
# bytes — a multi-MB paragraph holding a 10k-member set.
OVERSIZED_MEMBERS = 10_000
OVERSIZED_PAD_BYTES = 2 << 20


def truncate_mid_paragraph(rng: random.Random, text: str) -> bytes:
    """Cut the dump partway through a line in its second half.

    Models an interrupted FTP/rsync transfer: the final paragraph ends
    mid-attribute with no trailing newline.
    """
    lines = text.splitlines(keepends=True)
    candidates = [
        index
        for index, line in enumerate(lines)
        if line.strip() and index > len(lines) // 2
    ]
    cut = rng.choice(candidates) if candidates else len(lines) - 1
    line = lines[cut].rstrip("\n")
    partial = line[: rng.randrange(1, max(2, len(line)))]
    return "".join(lines[:cut] + [partial]).encode("utf-8")


def splice_binary(rng: random.Random, text: str) -> bytes:
    """Insert a run of raw bytes (NULs, invalid UTF-8) at a random offset.

    Models disk corruption or a compressed stream flushed mid-block.
    """
    raw = bytearray(text.encode("utf-8"))
    blob = bytes(rng.randrange(256) for _ in range(rng.randrange(32, 129)))
    position = rng.randrange(len(raw) + 1)
    raw[position:position] = b"\x00\xff\xfe" + blob
    return bytes(raw)


def mixed_encoding(rng: random.Random, text: str) -> bytes:
    """Insert a Latin-1-encoded attribute line into a UTF-8 dump.

    Real IRR dumps mix encodings in free-text attributes; the decoder's
    ``errors="replace"`` must absorb this without derailing the lexer.
    """
    lines = text.splitlines(keepends=True)
    junk = "remarks:        réseau café télécom\n".encode("latin-1")
    insert_at = rng.randrange(len(lines) + 1)
    head = "".join(lines[:insert_at]).encode("utf-8")
    tail = "".join(lines[insert_at:]).encode("utf-8")
    return head + junk + tail


def duplicate_attributes(rng: random.Random, text: str) -> bytes:
    """Repeat random attribute lines inside a handful of paragraphs.

    Duplicated attributes are common IRR hygiene failures; parsing must
    stay deterministic (first or merged wins, never a crash).
    """
    blocks = text.split("\n\n")
    for index in rng.sample(range(len(blocks)), k=min(5, len(blocks))):
        lines = blocks[index].split("\n")
        if len(lines) < 2:
            continue
        target = rng.randrange(1, len(lines))
        lines[target:target] = [lines[target]] * rng.randrange(1, 4)
        blocks[index] = "\n".join(lines)
    return "\n\n".join(blocks).encode("utf-8")


def reorder_attributes(rng: random.Random, text: str) -> bytes:
    """Shuffle the attribute order of a handful of paragraphs.

    The class attribute stays first (it names the object); continuation
    lines move with their attribute so the shuffle stays syntactic.
    """
    blocks = text.split("\n\n")
    for index in rng.sample(range(len(blocks)), k=min(5, len(blocks))):
        lines = blocks[index].split("\n")
        if len(lines) < 3:
            continue
        groups: list[list[str]] = []
        for line in lines[1:]:
            if line[:1] in (" ", "\t", "+") and groups:
                groups[-1].append(line)
            else:
                groups.append([line])
        rng.shuffle(groups)
        blocks[index] = "\n".join([lines[0]] + [line for group in groups for line in group])
    return "\n\n".join(blocks).encode("utf-8")


def oversized_paragraph(rng: random.Random, text: str) -> bytes:
    """Append one pathologically large object (~2 MB, 10k-member set).

    Under production :class:`~repro.rpsl.lexer.LexLimits` this parses as a
    (huge) as-set; under tighter caps it must be dropped as ``OVERSIZED``
    without ever being buffered whole.
    """
    members = ", ".join(
        f"AS{64512 + rng.randrange(50_000)}" for _ in range(OVERSIZED_MEMBERS)
    )
    pad_line = "remarks:        " + "x" * 500
    pad_count = OVERSIZED_PAD_BYTES // (len(pad_line) + 1) + 1
    paragraph = (
        "as-set:         AS-CHAOS-HUGE\n"
        f"members:        {members}\n" + "\n".join([pad_line] * pad_count) + "\n"
        "source:         CHAOS\n"
    )
    base = text if text.endswith("\n") else text + "\n"
    return (base + "\n" + paragraph).encode("utf-8")


def corrupt_table(rng: random.Random, text: str) -> bytes:
    """Damage TABLE_DUMP2 lines: drop, truncate mid-field, garbage fields.

    The table parser's contract is to skip what it cannot read and keep
    streaming; roughly 15% of lines get damaged here.
    """
    out = []
    for line in text.splitlines():
        roll = rng.random()
        if roll < 0.04:
            continue
        if roll < 0.08:
            line = line[: rng.randrange(0, max(1, len(line)))]
        elif roll < 0.12:
            fields = line.split("|")
            fields[rng.randrange(len(fields))] = "garbage"
            line = "|".join(fields)
        elif roll < 0.15:
            line += "\x00\xff"
        out.append(line)
    return ("\n".join(out) + "\n").encode("utf-8")


def rng_for(seed: int, name: str) -> random.Random:
    """The random stream for one mutator (or fault) under ``seed``."""
    # str seeding hashes the bytes (PYTHONHASHSEED-independent), so every
    # mutator gets its own deterministic stream.
    return random.Random(f"{seed}:{name}")


DUMP_MUTATORS: Dict[str, Mutator] = {
    "truncate-mid-paragraph": truncate_mid_paragraph,
    "splice-binary": splice_binary,
    "mixed-encoding": mixed_encoding,
    "duplicate-attributes": duplicate_attributes,
    "reorder-attributes": reorder_attributes,
    "oversized-paragraph": oversized_paragraph,
}

TABLE_MUTATORS: Dict[str, Mutator] = {
    "corrupt-table": corrupt_table,
}

MUTATORS: Dict[str, Mutator] = {**DUMP_MUTATORS, **TABLE_MUTATORS}
