"""Label-preserving dump and restore (the paper's modified pg_dump /
pg_restore, section 7.2), plus psql-style debugging views.

The paper notes that the command-line clients were modified "mainly to
provide debugging capabilities and backups that include labels" — a
stock dump would silently drop every tuple's security metadata.

**A dump is the database's image.**  :func:`image_records` lists, in
order: a ``create_table`` DDL record per table in catalog order (a
valid restore order: a table is created after its foreign-key parents
and a referenced table cannot be dropped), a ``create_index`` record
per index the table did not create itself, a ``create_view`` record
per view (with its declassification tags and backing principal), ONE
``("commit", 0, ops, sequences)`` record with an ``("i", table, tid,
row)`` op per version a fresh snapshot sees — at its heap tid, the
address every log record uses, secrecy and integrity labels included
— and a closing ``("dump", omitted)`` record that marks the image
complete.  :func:`dump_database` writes them in the log's own container
(:mod:`repro.db.wal`: its magic, then length-prefixed, checksummed
records); ``Database.checkpoint`` writes the same image over the log.
Equal heaps dump byte-identically; equal contents reached by different
histories (other tids) need not.

:func:`restore_database` is recovery: the log's scanner validates the
image and its apply loop (:func:`~repro.db.wal.apply_records`) loads
it, so ``Database.recover(dump_path)`` reads a dump too.  Restores load
into an empty :class:`~repro.db.engine.Database` attached to the *same*
authority state (tag ids must resolve); enforcement picks up exactly
where it left off.  A restore writes every row at its source tid, so
it keeps the source heap's empty slots.

Like the real pg_dump, dumping bypasses Query by Label: it is a trusted
maintenance operation (the paper's garbage collector enjoys the same
exemption, section 7.1).
"""

from __future__ import annotations

import sys
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


def _warn_omitted(omitted: List[str], what: str) -> None:
    if omitted:
        warnings.warn(DumpIncompleteWarning(
            "%s %d catalog object(s) a dump cannot serialize: %s"
            % (what, len(omitted), ", ".join(omitted))), stacklevel=3)


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


def image_records(db: Database) -> List[tuple]:
    """The records of ``db``'s image: schemas, indexes, views, every
    live tuple with its labels at its tid, sequences, then the closing
    record naming what the image omits."""
    tables = db.catalog.tables
    records = [("ddl", "create_table", table.schema)
               for table in tables.values()]
    for name, table in tables.items():
        auto = {index.name for _u, index in table.unique_indexes}
        records.extend(("ddl", "create_index", name, index_name,
                        tuple(index.columns), isinstance(index, OrderedIndex))
                       for index_name, index in table.indexes.items()
                       if index_name not in auto)
    records.extend(("ddl", "create_view", name, view.select,
                    tuple(view.columns), tuple(view.declassify.tags),
                    view.principal)
                   for name, view in db.catalog.views.items())
    with _fresh_snapshot(db) as live:
        # The labeled-row codec is shared with the WAL.  Strings are
        # interned so that pickle's memo sees equal ones as one object
        # whichever statements made them: equal heaps, equal bytes.
        ops = [("i", name, version.tid, encode_labeled_row(
                    tuple([sys.intern(v) if type(v) is str else v
                           for v in version.values]),
                    version.label, version.ilabel))
               for name, table in tables.items() for version in live(table)]
    records.append(("commit", 0, ops, dict(db._sequences)))
    records.append(("dump", _unserializable(db)))
    return records


def dump_database(db: Database) -> bytes:
    """Serialize schemas, views, indexes, and live tuples with labels."""
    records = image_records(db)
    _warn_omitted(records[-1][1], "dump omits")
    return MAGIC + b"".join(map(encode_record, records))


def restore_database(data: bytes, db: Database) -> None:
    """Load a dump into an empty database sharing the authority state.

    Only a complete image is applied: one that scans cleanly to its
    closing ``dump`` record (a bad magic, a checksum mismatch or a cut
    — even one at a record boundary — is a :class:`DatabaseError`).
    Tuples are written physically at their source tids (labels restored
    verbatim), bypassing Query by Label like the dump did.  On a
    WAL-backed database the restore ends with ``db.checkpoint()``, so a
    crash after it recovers what it loaded.  Replay caches no plan, so the
    first queries plan from the loaded row counts.  Re-emits
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
        db.checkpoint()
    _warn_omitted(records[-1][1], "restored database lacks")


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
