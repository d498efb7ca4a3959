"""Label-preserving dump and restore (the paper's modified pg_dump /
pg_restore, section 7.2), plus psql-style debugging views.

The paper notes that the command-line clients were modified "mainly to
provide debugging capabilities and backups that include labels" — a
stock dump would silently drop every tuple's security metadata.

**A dump is a WAL image.**  :func:`dump_database` writes the log's own
container (:mod:`repro.db.wal`: its magic, then length-prefixed,
checksummed records) holding, in order: a ``create_table`` DDL record
per table (foreign-key parents first), a ``create_index`` record per
index the table did not create itself, a ``create_view`` record per
view (with its declassification tags and backing principal), ONE
``("commit", 0, ops, sequences)`` record with an ``("i", table,
ordinal, row)`` op per live tuple — secrecy and integrity labels
included — and a closing ``("dump", omitted)`` record.  The op names
the row's *ordinal* in its table, not its heap tid, so dumps of equal
states are byte-identical; restoring into fresh tables makes ordinal
and tid coincide.  The closing record marks the image complete.

:func:`restore_database` is recovery: the log's scanner validates the
image and its apply loop (:func:`~repro.db.wal.apply_records`) loads
it, so ``Database.recover(dump_path)`` reads a dump too.  Restores load
into an empty :class:`~repro.db.engine.Database` attached to the *same*
authority state (tag ids must resolve); enforcement picks up exactly
where it left off.

Like the real pg_dump, dumping bypasses Query by Label: it is a trusted
maintenance operation (the paper's garbage collector enjoys the same
exemption, section 7.1).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from typing import Dict, List, Optional

from ..errors import DatabaseError
from .engine import Database
from .indexes import OrderedIndex
from .spill import encode_labeled_row
from .wal import MAGIC, apply_records, encode_record, scan_records

#: Why :func:`restore_database` refuses an image, by scanner tail.
_REFUSED = {
    "bad-magic": "not an IFDB dump (bad magic)",
    "bad-checksum": "corrupted IFDB dump: record checksum mismatch",
    "undecodable": "corrupted IFDB dump: undecodable record",
}


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


@contextmanager
def _fresh_snapshot(db: Database):
    """Yield ``live(table)``: the versions a fresh snapshot sees."""
    manager = db.txn_manager
    txn = manager.begin()
    try:
        yield lambda table: [version for version in table.all_versions()
                             if manager.visible(version, txn)]
    finally:
        manager.abort(txn)


def dump_database(db: Database) -> bytes:
    """Serialize schemas, views, indexes, and live tuples with labels."""
    order = _dependency_order(db)
    records = [("ddl", "create_table", db.catalog.get_table(name).schema)
               for name in order]
    for name, table in db.catalog.tables.items():
        auto = {index.name for _u, index in table.unique_indexes}
        records.extend(("ddl", "create_index", name, index_name,
                        tuple(index.columns), isinstance(index, OrderedIndex))
                       for index_name, index in table.indexes.items()
                       if index_name not in auto)
    records.extend(("ddl", "create_view", name, view.select,
                    tuple(view.columns), tuple(view.declassify.tags),
                    view.principal)
                   for name, view in db.catalog.views.items())
    ops = []
    with _fresh_snapshot(db) as live:
        for name in order:
            # The labeled-row codec is shared with the WAL.
            ops.extend(("i", name, ordinal, encode_labeled_row(
                version.values, version.label, version.ilabel))
                for ordinal, version in enumerate(
                    live(db.catalog.get_table(name))))
        records.append(("commit", 0, ops, dict(db._sequences)))
    omitted = _unserializable(db)
    if omitted:
        warnings.warn(DumpIncompleteWarning(
            "dump omits %d catalog object(s) that cannot be "
            "serialized: %s" % (len(omitted), ", ".join(omitted))),
            stacklevel=2)
    records.append(("dump", omitted))
    return MAGIC + b"".join(map(encode_record, records))


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


def restore_database(data: bytes, db: Database) -> None:
    """Load a dump into an empty database sharing the authority state.

    Only a complete image is applied: one that scans cleanly to its
    closing ``dump`` record (a bad magic, a checksum mismatch or a cut
    — even one at a record boundary — is a :class:`DatabaseError`).
    Tuples are written physically (labels restored verbatim), bypassing
    Query by Label like the dump did.  On a WAL-backed database the
    image's records are then appended to the log, so a crash after
    restore recovers what it loaded.  Finishes with ``ANALYZE`` so
    post-restore queries plan on real statistics, and re-emits
    :class:`DumpIncompleteWarning` when the dump recorded omitted
    catalog objects (functions/procedures/triggers the operator must
    re-register).
    """
    records, _valid, tail = scan_records(data)
    if tail is not None or not records or records[-1][0] != "dump":
        raise DatabaseError(_REFUSED.get(
            tail, "truncated IFDB dump: no closing record after %d "
            "record(s)" % len(records)))
    if db.catalog.tables or db._wal_applied or \
            (db.wal is not None and not db.wal.empty):
        raise DatabaseError("restore requires an empty database")
    apply_records(db, records)
    if db.wal is not None:
        db.wal.log_image(data, len(records))
    omitted = records[-1][1]
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
        with _fresh_snapshot(db) as live:
            versions = live(table)
        for version in versions:
            try:
                key = registry.names(version.label.tags)
            except Exception:
                key = tuple(sorted(str(t) for t in version.label.tags))
            histogram[key] = histogram.get(key, 0) + 1
        lines.append("  live tuples: %d" % len(versions))
        for key, count in sorted(histogram.items(),
                                 key=lambda item: -item[1]):
            label_text = "{%s}" % ", ".join(key) if key else "{}"
            lines.append("    %6d  %s" % (count, label_text))
        if table.polyinstantiation_count:
            lines.append("  polyinstantiated inserts: %d"
                         % table.polyinstantiation_count)
        lines.append("")
    return "\n".join(lines)
