"""Label-preserving dump and restore (the paper's modified pg_dump /
pg_restore, section 7.2), plus psql-style debugging views.

The paper notes that the command-line clients were modified "mainly to
provide debugging capabilities and backups that include labels" — a
stock dump would silently drop every tuple's security metadata.  This
module serializes:

* the catalog (schemas, constraints, views with their declassification
  labels, index definitions);
* every *live, committed* tuple version together with its secrecy and
  integrity labels;
* sequences.

Restores load into a fresh :class:`~repro.db.engine.Database` attached
to the *same* authority state (tag ids must resolve); enforcement picks
up exactly where it left off.

Like the real pg_dump, dumping bypasses Query by Label: it is a trusted
maintenance operation (the paper's garbage collector enjoys the same
exemption, section 7.1).
"""

from __future__ import annotations

import pickle
import struct
import warnings
import zlib
from typing import Dict, List, Optional

from ..core.labels import Label
from ..errors import DatabaseError
from .catalog import ViewDef
from .engine import Database
from .indexes import OrderedIndex
from .spill import decode_labeled_row, encode_labeled_row

FORMAT = "ifdb-dump-v2"
#: Dump container: magic, then ``<u32 payload length><u32 crc32>``,
#: then the pickled payload.  The checksum turns a truncated download
#: or a flipped bit into a clear :class:`DatabaseError` instead of an
#: arbitrary mid-``pickle`` exception (or, worse, a quietly wrong
#: object graph).
MAGIC = b"IFDBDMP2"
_HEADER = struct.Struct("<II")


class DumpIncompleteWarning(UserWarning):
    """A dump or restore skipped catalog objects it cannot serialize.

    Functions, procedures, and triggers are Python callables, which a
    dump cannot round-trip (pickling arbitrary closures is neither
    reliable nor safe to load).  Rather than silently producing an
    incomplete backup — the failure mode this warning exists to
    prevent — both :func:`dump_database` and :func:`restore_database`
    emit it, listing exactly what the restored database will lack so
    the operator can re-register those objects programmatically.
    """


def _unserializable(db: Database) -> List[str]:
    """Catalog objects a dump must drop, as ``kind name`` strings."""
    omitted: List[str] = []
    omitted.extend("function %s" % n for n in sorted(db.catalog.functions))
    omitted.extend("procedure %s" % n for n in sorted(db.catalog.procedures))
    omitted.extend("trigger %s" % n for n in sorted(db.catalog.triggers))
    return omitted


def dump_database(db: Database) -> bytes:
    """Serialize schemas, views, indexes, and live tuples with labels."""
    txn = db.txn_manager.begin()
    try:
        tables = {}
        for name, table in db.catalog.tables.items():
            rows = []
            for version in table.all_versions():
                if not db.txn_manager.visible(version, txn):
                    continue
                # The labeled-row codec is shared with the hash-join
                # spill files (repro.db.spill).
                rows.append(encode_labeled_row(version.values,
                                               version.label,
                                               version.ilabel))
            extra_indexes = []
            auto = {index.name for _u, index in table.unique_indexes}
            for index_name, index in table.indexes.items():
                if index_name in auto:
                    continue
                extra_indexes.append((index_name, index.columns,
                                      isinstance(index, OrderedIndex)))
            tables[name] = {
                "schema": table.schema,
                "rows": rows,
                "indexes": extra_indexes,
            }
        views = {name: (view.select, view.columns,
                        tuple(view.declassify.tags), view.principal)
                 for name, view in db.catalog.views.items()}
        omitted = _unserializable(db)
        if omitted:
            warnings.warn(DumpIncompleteWarning(
                "dump omits %d catalog object(s) that cannot be "
                "serialized: %s" % (len(omitted), ", ".join(omitted))),
                stacklevel=2)
        payload = {
            "format": FORMAT,
            "tables": tables,
            "views": views,
            "table_order": _dependency_order(db),
            "sequences": dict(db._sequences),
            "omitted": omitted,
        }
        body = pickle.dumps(payload)
        return MAGIC + _HEADER.pack(len(body), zlib.crc32(body)) + body
    finally:
        db.txn_manager.abort(txn)


def _dependency_order(db: Database) -> List[str]:
    """Tables sorted so that FK parents restore before children."""
    remaining = dict(db.catalog.tables)
    ordered: List[str] = []
    while remaining:
        progressed = False
        for name, table in list(remaining.items()):
            deps = {fk.ref_table for fk in table.schema.foreign_keys
                    if fk.ref_table != name}
            if deps <= set(ordered):
                ordered.append(name)
                del remaining[name]
                progressed = True
        if not progressed:
            raise DatabaseError("circular foreign-key dependencies: %r"
                                % sorted(remaining))
    return ordered


def _check_and_load(data: bytes) -> dict:
    """Validate the dump container before touching ``pickle``.

    Every corruption mode gets a precise :class:`DatabaseError`:
    wrong/old format (bad magic), truncation (length mismatch), and
    bit rot (checksum mismatch).  Only a byte-exact payload reaches
    ``pickle.loads`` — and even that is wrapped, so a hostile or
    mangled payload cannot surface an arbitrary unpickling exception.
    """
    if len(data) < len(MAGIC) + _HEADER.size or not data.startswith(MAGIC):
        raise DatabaseError(
            "not an IFDB dump (bad magic; expected a %s-format file)"
            % FORMAT)
    length, crc = _HEADER.unpack_from(data, len(MAGIC))
    body = data[len(MAGIC) + _HEADER.size:]
    if len(body) != length:
        raise DatabaseError(
            "truncated IFDB dump: header promises %d payload bytes, "
            "found %d" % (length, len(body)))
    if zlib.crc32(body) != crc:
        raise DatabaseError(
            "corrupted IFDB dump: payload checksum mismatch "
            "(expected %08x, got %08x)" % (crc, zlib.crc32(body)))
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise DatabaseError("undecodable IFDB dump payload: %s" % exc)
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise DatabaseError("not an IFDB dump (format %r, expected %r)"
                            % (payload.get("format") if
                               isinstance(payload, dict) else None, FORMAT))
    return payload


def restore_database(data: bytes, db: Database) -> None:
    """Load a dump into an empty database sharing the authority state.

    Tuples are written physically (labels restored verbatim), bypassing
    Query by Label like the dump did; constraints are re-validated by
    construction since the dump came from a consistent database.
    Finishes with ``ANALYZE`` so post-restore queries plan on real
    statistics instead of defaults until drift catches up, and
    re-emits :class:`DumpIncompleteWarning` when the dump recorded
    omitted catalog objects (functions/procedures/triggers the
    operator must re-register).
    """
    payload = _check_and_load(data)
    if db.catalog.tables:
        raise DatabaseError("restore requires an empty database")

    for name in payload["table_order"]:
        entry = payload["tables"][name]
        db.create_table(entry["schema"])
    for name, entry in payload["tables"].items():
        table = db.catalog.get_table(name)
        for index_name, columns, ordered in entry["indexes"]:
            table.create_index(index_name, columns, ordered=ordered)

    txn = db.txn_manager.begin(replay=True)
    try:
        for name in payload["table_order"]:
            table = db.catalog.get_table(name)
            for record in payload["tables"][name]["rows"]:
                values, label, ilabel = decode_labeled_row(record)
                version = table.append(tuple(values), label, ilabel,
                                       txn.xid)
                # So a failed restore's abort can unlink what it wrote.
                txn.record_write(table, version.tid, label, "insert")
        db.txn_manager.commit(txn)
    except BaseException:
        db.txn_manager.abort(txn)
        raise

    for name, (select, columns, declassify_tags, principal) in \
            payload["views"].items():
        db.catalog.add_view(ViewDef(
            name=name, select=select, columns=list(columns),
            declassify=Label(declassify_tags), principal=principal))
    db._sequences.update(payload["sequences"])
    omitted = payload.get("omitted") or []
    if omitted:
        warnings.warn(DumpIncompleteWarning(
            "restored database lacks %d catalog object(s) the dump could "
            "not serialize: %s" % (len(omitted), ", ".join(omitted))),
            stacklevel=2)
    db.analyze()


def dump_to_file(db: Database, path: str) -> None:
    with open(path, "wb") as handle:
        handle.write(dump_database(db))


def restore_from_file(path: str, db: Database) -> None:
    with open(path, "rb") as handle:
        restore_database(handle.read(), db)


# ---------------------------------------------------------------------------
# psql-style debugging output
# ---------------------------------------------------------------------------

def describe(db: Database, table_name: Optional[str] = None) -> str:
    """``\\d``-style description including label statistics.

    For each table: columns, constraints, live tuple count, and a
    histogram of labels (by tag names) — the debugging capability the
    modified psql provided.
    """
    names = [table_name] if table_name else sorted(db.catalog.tables)
    lines: List[str] = []
    registry = db.authority.tags
    for name in names:
        table = db.catalog.get_table(name)
        schema = table.schema
        lines.append("Table %s" % name)
        for column in schema.columns:
            flags = []
            if schema.primary_key and column.name in schema.primary_key:
                flags.append("PK")
            if column.not_null:
                flags.append("NOT NULL")
            lines.append("  %-24s %-12s %s" % (column.name,
                                               repr(column.type),
                                               " ".join(flags)))
        for fk in schema.foreign_keys:
            suffix = " MATCH LABEL" if fk.match_label else ""
            lines.append("  FK (%s) -> %s(%s)%s"
                         % (", ".join(fk.columns), fk.ref_table,
                            ", ".join(fk.ref_columns), suffix))
        histogram: Dict[tuple, int] = {}
        live = 0
        for version in table.all_versions():
            if version.xmax is not None:
                continue
            live += 1
            try:
                key = registry.names(version.label.tags)
            except Exception:
                key = tuple(sorted(str(t) for t in version.label.tags))
            histogram[key] = histogram.get(key, 0) + 1
        lines.append("  live tuples: %d" % live)
        for key, count in sorted(histogram.items(),
                                 key=lambda item: -item[1]):
            label_text = "{%s}" % ", ".join(key) if key else "{}"
            lines.append("    %6d  %s" % (count, label_text))
        if table.polyinstantiation_count:
            lines.append("  polyinstantiated inserts: %d"
                         % table.polyinstantiation_count)
        lines.append("")
    return "\n".join(lines)
