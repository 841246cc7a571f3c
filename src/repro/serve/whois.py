"""The WHOIS line-protocol front-end of the resident daemon.

Speaks the same dialect as :mod:`repro.irr.whois` — plain lookups and
IRRd bang commands over one TCP connection, one query per line — but as
an asyncio protocol inside the serve daemon, sharing its
:class:`~repro.serve.core.VerifyService` with the HTTP front-end.  On
top of the stock dialect it adds the verification command:

* ``!v <prefix> <asn> <asn>...`` — verify the route against registry
  policy; the response is the Appendix-C report text in IRRd ``A``
  framing, character-identical to the batch pipeline's rendering.

Service conditions surface as WHOIS comment lines: ``%% BUSY <detail>``
under backpressure (clients should back off and retry) and
``%% DEADLINE <detail>`` when a ``!v`` misses its deadline.  Malformed
commands get the stock ``F <message>`` error frame.

Every ``!v`` response — verdict and error alike — is prefixed with a
``%% id <request-id>`` comment line carrying the request's correlation
id (the WHOIS analogue of the HTTP ``X-Request-Id`` echo; IRRd uses the
same comment convention for its banner).  Plain lookups and the other
bang commands stay id-free: they never enter the request core.

Plain lookups and bang commands read the session's *current* generation
(one reference: IR and index belong together, and follow a hot swap) inline
on the event loop, unlocked; only ``!v`` goes through the batched request core.
"""

from __future__ import annotations

import asyncio
import json

from repro.irr.whois import MAX_QUERY_BYTES, QUIT_TOKENS, WhoisEngine, _frame
from repro.net.asn import AsnError, parse_asn
from repro.serve.core import BusyError, DeadlineExpired, Query, ServeError
from repro.serve.frontend import StreamFrontend

__all__ = ["WhoisFrontend"]


class WhoisFrontend(StreamFrontend):
    """The line protocol over the shared connection lifecycle."""

    protocol = "whois"
    limit = MAX_QUERY_BYTES + 1

    # -- connection handling ----------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> str | None:
        """The next query line; a quit token or EOF ends the connection."""
        try:
            line = await reader.readline()
        except ValueError:
            # Line longer than the stream limit: the connection cannot be
            # resynchronized reliably, so refuse and drop.
            writer.write(b"F query line too long\n\n")
            await writer.drain()
            return None
        text = line.decode("utf-8", errors="replace").strip()
        return text if line and text not in QUIT_TOKENS else None

    async def _respond(
        self, text: str, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        if text.startswith("!v"):
            response = await self._verify(text[2:])
        else:
            current = self.service.session.current
            response = WhoisEngine(current.ir, current.query).answer(text)
        writer.write(response.encode("utf-8") + b"\n\n")
        await writer.drain()
        return True

    # -- verification ------------------------------------------------------

    async def _verify(self, argument: str) -> str:
        """``!v <prefix> <asn> <asn>...`` through the shared request core."""
        telemetry = self.service.new_telemetry("whois")
        rid = telemetry.request_id
        prefix_comment = f"%% id {rid}\n"

        def answer(response: str, outcome: str) -> str:
            # Defensive close for paths the core never saw (parse errors);
            # idempotent for responses submit() already recorded.
            self.service.finish_telemetry(telemetry, outcome)
            return prefix_comment + response

        parts = argument.split()
        if len(parts) < 2:
            return answer("F usage: !v <prefix> <asn> <asn>...", "bad-request")
        try:
            # Accept both asplain ("AS174") and bare integers ("174").
            as_path = tuple(
                int(part) if part.isdigit() else parse_asn(part)
                for part in parts[1:]
            )
        except (AsnError, ValueError) as exc:
            return answer(f"F invalid AS path: {exc}", "bad-request")
        try:
            query = Query.from_payload(
                {"prefix": parts[0], "as_path": list(as_path), "collector": "whois"},
                "verify",
                request_id=rid,
            )
            body = await self.service.submit(query, telemetry)
        except BusyError as exc:
            return answer(f"%% BUSY {exc}", "busy")
        except DeadlineExpired as exc:
            return answer(f"%% DEADLINE {exc}", "deadline")
        except ServeError as exc:
            return answer(f"F {exc}", exc.code)
        # The same body /verify writes: its ``text`` is the report.
        return answer(_frame(json.loads(body)["text"]), "ok")
