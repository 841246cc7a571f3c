"""What the two front-ends share: a listening socket and its connections.

The rule this module exists for: **shutdown never waits on a client.**
A peer holding a keep-alive connection open, or one that sent half a
query and went quiet, decides nothing about when the daemon stops
(``Server.wait_closed()`` waits for exactly such peers on Python ≥ 3.12,
so nothing here calls it).  A connection is *idle* while its handler
waits for a request and *answering* from the moment a whole request has
been read until its response is written: ``close()`` closes the idle
ones, ``wait_closed()`` — after the service's drain — the rest.
"""

from __future__ import annotations

import asyncio
import logging

from repro.serve.core import VerifyService

__all__ = ["StreamFrontend"]

# wait_closed()'s bound, twice over: for a handler to finish writing its
# response, then for an aborted one to return.
CLOSE_GRACE_S = 1.0


class StreamFrontend:
    """One listening socket, its open connections, and their shutdown.

    A subclass is a protocol: ``protocol`` (its name in log lines and in
    the ``repro.serve.<protocol>`` logger), ``limit`` (the stream buffer
    bound — the longest head or line a client may send), ``_read_request``
    (one request off the stream, ``None`` to end the connection) and
    ``_respond`` (answer it; return whether the connection stays open).
    """

    protocol: str
    limit: int

    def __init__(self, service: VerifyService, host: str, port: int):
        self.service = service
        self.host = host
        self.port = port
        self._log = logging.getLogger(f"repro.serve.{self.protocol}")
        self._server: asyncio.AbstractServer | None = None
        self._closing = False
        # Every open connection's handler task → its writer; the tasks in
        # _answering have read a request and owe its response.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._answering: set[asyncio.Task] = set()

    async def start(self) -> "StreamFrontend":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=self.limit
        )
        # Resolve the ephemeral port for handles/tests.
        self.port = self._server.sockets[0].getsockname()[1]
        self._log.info("%s front-end on %s:%d", self.protocol, self.host, self.port)
        return self

    async def close(self) -> None:
        """Stop accepting and close idle connections (the client reads EOF).

        An answering connection writes its whole response first; its
        handler then closes instead of reading on.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            self._server = None
        for task, writer in self._connections.items():
            if task not in self._answering:
                writer.close()  # the handler's read wakes with EOF

    async def wait_closed(self) -> None:
        """Abort connections that outlived the drain and wait for every
        handler to return, so the loop exits with no task left to cancel."""
        await self._handlers_done()
        for writer in self._connections.values():
            writer.transport.abort()
        await self._handlers_done()
        if self._connections:  # pragma: no cover - a handler ignoring a dead transport
            self._log.warning(
                "%d connection handler(s) still running", len(self._connections)
            )

    async def _handlers_done(self) -> None:
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=CLOSE_GRACE_S)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while not self._closing:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                self._answering.add(task)
                try:
                    if not await self._respond(request, reader, writer):
                        break
                finally:
                    self._answering.discard(task)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request; nothing to answer
        except Exception:  # noqa: BLE001 - connection isolation
            self._log.exception("unhandled error on %s connection", self.protocol)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            finally:
                # Deregistered last, so wait_closed() still waits for a
                # handler that is closing its transport.
                del self._connections[task]
