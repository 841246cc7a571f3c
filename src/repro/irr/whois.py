"""The IRRd-style WHOIS dialect over an IR, and a client for it.

IRRs serve RPSL through the WHOIS protocol (port 43) plus IRRd's
bang-command extension; tools like BGPq4 drive the latter.  This module
answers both faces from a parsed :class:`~repro.ir.model.Ir` and speaks
them as a client, so the whole query path — the thing the paper's
pipeline replaces with bulk dump parsing — exists as a runnable
substrate.  The server is :mod:`repro.serve.whois`.

Plain WHOIS queries (one per line, response followed by a blank line):

* ``AS2914`` — the aut-num object text;
* ``AS-SET-NAME`` / ``RS-...`` / ``PRNG-...`` / ``FLTR-...`` — set text;
* ``192.0.2.0/24`` — all route objects exactly matching the prefix;
* ``-i origin AS2914`` — all route objects with that origin (RIPE syntax).

IRRd bang commands (``!`` prefix; responses framed ``A<len>\\n...C\\n``,
``C`` for success without data, ``D`` for not found, ``F <msg>`` errors):

* ``!gAS2914`` / ``!6AS2914`` — IPv4/IPv6 prefixes originated by the AS;
* ``!iAS-FOO`` — direct members of a set; ``!iAS-FOO,1`` — recursive;
* ``!j`` — serial/summary; ``!q`` — quit.
"""

from __future__ import annotations

import random
import socket
import time

from repro.core.compiled import CompiledIndex
from repro.core.query import QueryEngine
from repro.ir.model import Ir
from repro.ir.render import (
    render_as_set,
    render_aut_num,
    render_filter_set,
    render_peering_set,
    render_route_object,
    render_route_set,
)
from repro.net.asn import AsnError, parse_asn
from repro.net.prefix import Prefix, PrefixError
from repro.rpsl.names import NameKind, classify_name, normalize_name

__all__ = ["WhoisEngine", "whois_query", "MAX_QUERY_BYTES", "QUIT_TOKENS"]

# Longest query line the server will read; real queries are a few dozen
# bytes, so anything near this cap is garbage or abuse, not a lookup.
MAX_QUERY_BYTES = 4096

# A line that ends the connection instead of asking anything.
QUIT_TOKENS = frozenset(("!q", "!e", "-k q", "q"))


class WhoisEngine:
    """Protocol-independent query answering over one IR.

    Given the IR's :class:`~repro.core.compiled.CompiledIndex`, or the
    :class:`QueryEngine` over it (a session's generation holds both), the
    engine reads that route trie and set closures instead of building its own.
    """

    def __init__(self, ir: Ir, index: CompiledIndex | QueryEngine | None = None):
        self.ir = ir
        self.query = (
            index if isinstance(index, QueryEngine) else QueryEngine(ir, index=index)
        )

    def answer(self, text: str) -> str:
        """The response to one query line, bang command or plain lookup."""
        if text.startswith("!"):
            return self.bang(text)
        found = self.lookup(text)
        return found if found is not None else "%  No entries found"

    # -- plain whois -----------------------------------------------------

    def lookup(self, text: str) -> str | None:
        """Answer a plain WHOIS query; None means no entries found."""
        text = text.strip()
        if not text:
            return None
        if text.lower().startswith("-i origin "):
            return self._routes_by_origin_text(text.split()[-1])
        if "/" in text:
            return self._routes_by_prefix(text)
        kind = classify_name(text)
        if kind is NameKind.ASN:
            aut_num = self.ir.aut_nums.get(parse_asn(text))
            return render_aut_num(aut_num) if aut_num else None
        name = normalize_name(text)
        if kind is NameKind.AS_SET and name in self.ir.as_sets:
            return render_as_set(self.ir.as_sets[name])
        if kind is NameKind.ROUTE_SET and name in self.ir.route_sets:
            return render_route_set(self.ir.route_sets[name])
        if kind is NameKind.PEERING_SET and name in self.ir.peering_sets:
            return render_peering_set(self.ir.peering_sets[name])
        if kind is NameKind.FILTER_SET and name in self.ir.filter_sets:
            return render_filter_set(self.ir.filter_sets[name])
        return None

    def _routes_by_prefix(self, text: str) -> str | None:
        try:
            prefix = Prefix.parse(text)
        except PrefixError:
            return None
        return self._routes_where(lambda route: route.prefix == prefix)

    def _routes_by_origin_text(self, asn_text: str) -> str | None:
        try:
            asn = parse_asn(asn_text)
        except AsnError:
            return None
        return self._routes_where(lambda route: route.origin == asn)

    def _routes_where(self, wanted) -> str | None:
        matches = [
            render_route_object(route)
            for route in self.ir.route_objects
            if wanted(route)
        ]
        return "\n\n".join(matches) if matches else None

    # -- IRRd bang commands ------------------------------------------------

    def bang(self, command: str) -> str:
        """Answer one ``!`` command, returning the framed response."""
        command = command.strip()
        if command in QUIT_TOKENS:
            return ""
        if command == "!j":
            counts = self.ir.counts()
            return _frame(
                f"objects: aut-num={counts['aut-num']} route={counts['route']}"
            )
        if command.startswith(("!g", "!6")):
            version = 4 if command.startswith("!g") else 6
            return self._origin_prefixes(command[2:], version)
        if command.startswith("!i"):
            return self._set_members(command[2:])
        return f"F unrecognized command {command!r}"

    def _origin_prefixes(self, asn_text: str, version: int) -> str:
        try:
            asn = parse_asn(asn_text)
        except AsnError:
            return f"F invalid AS number {asn_text!r}"
        keys = self.query.routes.origin_keys(asn)
        if not keys:
            return "D"
        prefixes = sorted(Prefix(*key) for key in keys if key[0] == version)
        if not prefixes:
            return "D"
        return _frame(" ".join(str(prefix) for prefix in prefixes))

    def _set_members(self, argument: str) -> str:
        name, _, flag = argument.partition(",")
        name = normalize_name(name)
        recursive = flag.strip() == "1"
        if recursive:
            resolution = self.query.flatten_as_set(name)
            if not resolution.recorded:
                return "D"
            members = [f"AS{asn}" for asn in sorted(resolution.members)]
        else:
            as_set = self.ir.as_sets.get(name)
            if as_set is None:
                return "D"
            members = [f"AS{asn}" for asn in as_set.members_asn]
            members += list(as_set.members_set)
        return _frame(" ".join(members))


def _frame(data: str) -> str:
    """IRRd framing: A<byte-length>, the data, then C."""
    payload = data + "\n" if data else ""
    return f"A{len(payload.encode())}\n{payload}C"


def _query_once(host: str, port: int, query: str, timeout: float) -> str:
    with socket.create_connection((host, port), timeout=timeout) as connection:
        connection.sendall(query.encode("utf-8") + b"\n")
        connection.sendall(b"!q\n")
        chunks = []
        while True:
            data = connection.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks).decode("utf-8").rstrip()


def whois_query(
    host: str,
    port: int,
    query: str,
    timeout: float = 5.0,
    *,
    retries: int = 0,
    backoff: float = 0.1,
    max_backoff: float = 2.0,
    max_elapsed: float = 30.0,
    rng: random.Random | None = None,
) -> str:
    """Send one query and return the response text (trailing blanks stripped).

    With ``retries`` > 0, connection-level failures (refused, reset,
    timed out) are retried up to that many extra times with *full-jitter*
    exponential backoff: each delay is drawn uniformly from ``[0, cap)``
    where the cap doubles from ``backoff`` up to ``max_backoff``.  Full
    jitter (rather than the ±50% kind) means a herd of clients that
    failed together against a recovering server spreads across the whole
    window instead of re-synchronizing near the cap.  ``max_elapsed``
    bounds the *total* time spent retrying — once the budget is spent
    the failure re-raises even with retries remaining — and ``rng``
    injects a seeded :class:`random.Random` so tests are deterministic.
    """
    attempt = 0
    generator = rng if rng is not None else random
    started = time.monotonic()
    while True:
        try:
            return _query_once(host, port, query, timeout)
        except OSError:
            elapsed = time.monotonic() - started
            if attempt >= retries or elapsed >= max_elapsed:
                raise
            cap = min(backoff * (2**attempt), max_backoff)
            delay = min(generator.uniform(0, cap), max_elapsed - elapsed)
            time.sleep(delay)
            attempt += 1
