"""A remote-database stand-in: a fixed round trip per statement and block.

:class:`RttDatabase` sits between the relational wrapper (and the SQL
shell) and a :class:`repro.relational.Database`.  Every statement —
``execute`` (SELECT) and ``run`` (DML) — and every block of rows a
cursor fetches pays one round trip of ``rtt`` seconds, spent in
``time.sleep`` so it releases the interpreter lock the way a socket
wait does.  Because the proxy is at the database boundary, results the
wrapper's SQL cache replays pay nothing.
"""

from __future__ import annotations

import threading
import time

#: Rows one remote fetch returns (the mediator's default block width).
FETCH_ROWS = 64


class RttDatabase:
    """Proxy a ``Database``; every other attribute passes through."""

    def __init__(self, database, rtt):
        object.__setattr__(self, "_database", database)
        object.__setattr__(self, "rtt", rtt)
        object.__setattr__(self, "_lock", threading.Lock())
        object.__setattr__(self, "statements", 0)

    def __getattr__(self, name):
        return getattr(self._database, name)

    def __setattr__(self, name, value):
        # ``rtt`` is the proxy's own; anything else (the wrapper switches
        # the cost optimizer by attribute) belongs to the database.
        if name == "rtt":
            object.__setattr__(self, name, value)
        else:
            setattr(self._database, name, value)

    def round_trip(self):
        """Pay one round trip."""
        time.sleep(self.rtt)

    def _count_statement(self):
        with self._lock:
            object.__setattr__(self, "statements", self.statements + 1)

    def execute(self, sql):
        self._count_statement()
        self.round_trip()
        return RemoteCursor(self, self._database.execute(sql))

    def run(self, sql):
        self._count_statement()
        self.round_trip()
        return self._database.run(sql)


class RemoteCursor:
    """A cursor that pulls :data:`FETCH_ROWS` rows per round trip."""

    def __init__(self, proxy, cursor):
        self._proxy = proxy
        self._cursor = cursor
        self._buffer = []
        self._done = False
        self.column_names = cursor.column_names

    @property
    def rows_fetched(self):
        return self._cursor.rows_fetched - len(self._buffer)

    def _refill(self):
        if not self._buffer and not self._done:
            self._proxy.round_trip()
            self._buffer = self._cursor.fetch_block(FETCH_ROWS)
            self._buffer.reverse()
            self._done = len(self._buffer) < FETCH_ROWS

    def fetchone(self):
        self._refill()
        return self._buffer.pop() if self._buffer else None

    def fetch_block(self, size):
        out = []
        while len(out) < size:
            self._refill()
            if not self._buffer:
                break
            take = min(size - len(out), len(self._buffer))
            out.extend(reversed(self._buffer[-take:]))
            del self._buffer[-take:]
        return out

    fetchmany = fetch_block

    def fetchall(self):
        return self.fetch_block(float("inf"))

    def close(self):
        self._buffer = []
        self._done = True
        self._cursor.close()

    def __iter__(self):
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row
