"""OVSDB-lite: the configuration database.

NSX's agent manages OVS "using OVSDB ... to create two bridges" (§4).
This is a small transactional row store with the tables the agent needs
(Open_vSwitch, Bridge, Port, Interface) and change notification so
ovs-vswitchd can reconfigure — the same split as the real ovsdb-server /
vswitchd pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

SCHEMA: Dict[str, Dict[str, type]] = {
    "Open_vSwitch": {"bridges": list},
    "Bridge": {"name": str, "datapath_type": str, "ports": list},
    "Port": {"name": str, "interfaces": list},
    "Interface": {"name": str, "type": str, "options": dict, "ofport": int},
}

_DEFAULTS = {
    "Open_vSwitch": {"bridges": []},
    "Bridge": {"datapath_type": "system", "ports": []},
    "Port": {"interfaces": []},
    "Interface": {"type": "system", "options": {}, "ofport": 0},
}


class OvsdbError(Exception):
    pass


@dataclass
class Row:
    uuid: str
    table: str
    columns: Dict[str, object]

    def __getitem__(self, column: str) -> object:
        return self.columns[column]


class Transaction:
    """Buffered mutations; all-or-nothing on commit."""

    def __init__(self, db: "OvsdbServer") -> None:
        self.db = db
        self._ops: List[tuple] = []
        self._tmp_uuids = itertools.count()
        self.committed = False

    def insert(self, table: str, **columns: object) -> str:
        uuid = f"tmp{next(self._tmp_uuids)}"
        self._ops.append(("insert", table, uuid, columns))
        return uuid

    def update(self, uuid: str, **columns: object) -> None:
        self._ops.append(("update", None, uuid, columns))

    def delete(self, uuid: str) -> None:
        self._ops.append(("delete", None, uuid, {}))

    def commit(self) -> Dict[str, str]:
        """Apply atomically; returns temp-uuid -> real-uuid mapping."""
        if self.committed:
            raise OvsdbError("transaction already committed")
        # Copy-on-write: ``staged`` holds only the rows this transaction
        # writes (``None`` = deleted); ``_rows`` is untouched until every
        # op has validated.
        staged: Dict[str, Optional[Row]] = {}
        mapping: Dict[str, str] = {}
        for op, table, uuid, columns in self._ops:
            if op == "insert":
                real = self.db._validate_insert(staged, table, columns)
                mapping[uuid] = real
            elif op == "update":
                real = mapping.get(uuid, uuid)
                self.db._validate_update(staged, real, columns)
            elif op == "delete":
                real = mapping.get(uuid, uuid)
                self.db._staged_row(staged, real)
                staged[real] = None
        rows, names = self.db._rows, self.db._names
        for uuid in staged:
            old = rows.get(uuid)
            if old is not None and "name" in SCHEMA[old.table]:
                names.pop((old.table, old.columns.get("name")), None)
        for uuid, row in staged.items():
            if row is None:
                rows.pop(uuid, None)
                continue
            # Resolve temp uuid references inside column values.
            for col, value in row.columns.items():
                if isinstance(value, list):
                    row.columns[col] = [mapping.get(v, v) for v in value]
                elif isinstance(value, str) and value in mapping:
                    row.columns[col] = mapping[value]
            rows[uuid] = row
            if "name" in SCHEMA[row.table]:
                names[row.table, row.columns.get("name")] = uuid
        self.committed = True
        self.db._notify()
        return mapping


class OvsdbServer:
    def __init__(self) -> None:
        self._rows: Dict[str, Row] = {}
        self._uuid_counter = itertools.count(1)
        self._watchers: List[Callable[[], None]] = []
        #: ``(table, name) -> uuid`` over the committed rows of every
        #: table with a ``name`` column, where names are unique: an
        #: insert or a rename checks one key, not every row.
        self._names: Dict[Tuple[str, object], str] = {}
        # The singleton root row.
        root = Row("ovs0", "Open_vSwitch", dict(_DEFAULTS["Open_vSwitch"]))
        root.columns["bridges"] = []
        self._rows[root.uuid] = root

    # -- reading -----------------------------------------------------------
    def root(self) -> Row:
        return self._rows["ovs0"]

    def get(self, uuid: str) -> Row:
        row = self._rows.get(uuid)
        if row is None:
            raise OvsdbError(f"no row {uuid}")
        return row

    def find(self, table: str, **conditions: object) -> List[Row]:
        out = []
        for row in self._rows.values():
            if row.table != table:
                continue
            if all(row.columns.get(k) == v for k, v in conditions.items()):
                out.append(row)
        return out

    def transact(self) -> Transaction:
        return self._make_txn()

    def _make_txn(self) -> Transaction:
        return Transaction(self)

    def watch(self, callback: Callable[[], None]) -> None:
        self._watchers.append(callback)

    def _notify(self) -> None:
        for cb in self._watchers:
            cb()

    # -- validation helpers used by Transaction ------------------------------
    def _staged_row(self, staged: Dict[str, Optional[Row]], uuid: str) -> Row:
        """The transaction's private copy of a row, made on first write."""
        row = staged[uuid] if uuid in staged else self._rows.get(uuid)
        if row is None:
            raise OvsdbError(f"no row {uuid}")
        if uuid not in staged:
            row = staged[uuid] = Row(row.uuid, row.table, dict(row.columns))
        return row

    def _validate_insert(self, staged: Dict[str, Optional[Row]], table: str,
                         columns: Dict[str, object]) -> str:
        schema = SCHEMA.get(table)
        if schema is None:
            raise OvsdbError(f"no table {table!r}")
        merged = dict(_DEFAULTS.get(table, {}))
        merged.update(columns)
        for col, value in merged.items():
            expected = schema.get(col)
            if expected is None:
                raise OvsdbError(f"{table} has no column {col!r}")
            if not isinstance(value, expected):
                raise OvsdbError(
                    f"{table}.{col}: expected {expected.__name__}, "
                    f"got {type(value).__name__}"
                )
        if "name" in schema:
            self._check_name_free(staged, table, merged.get("name"))
        uuid = f"uuid{next(self._uuid_counter)}"
        staged[uuid] = Row(uuid, table, merged)
        return uuid

    def _validate_update(self, staged: Dict[str, Optional[Row]], uuid: str,
                         columns: Dict[str, object]) -> None:
        row = self._staged_row(staged, uuid)
        schema = SCHEMA[row.table]
        for col, value in columns.items():
            if col not in schema:
                raise OvsdbError(f"{row.table} has no column {col!r}")
            if not isinstance(value, schema[col]):
                raise OvsdbError(f"{row.table}.{col}: bad type")
            if col == "name" and value != row.columns.get("name"):
                self._check_name_free(staged, row.table, value, uuid)
            row.columns[col] = value

    def _check_name_free(self, staged: Dict[str, Optional[Row]], table: str,
                         name: object, uuid: Optional[str] = None) -> None:
        """Refuse ``name`` if a committed row this transaction leaves
        alone, or another row it writes, already holds it."""
        owner = self._names.get((table, name))
        if owner is not None and owner not in staged:
            raise OvsdbError(f"{table} {name!r} already exists")
        for other, row in staged.items():
            if (row is not None and other != uuid and row.table == table
                    and row.columns.get("name") == name):
                raise OvsdbError(f"{table} {name!r} already exists")
