"""Constraint enforcement under information flow control (section 5.2).

:func:`check_write` is the one entry point: everything a row write must
satisfy, for an INSERT, an UPDATE and a DELETE alike.  The interesting
cases are the ones where naive enforcement would leak:

* **Uniqueness** (5.2.1): a conflict with a tuple the inserter *can see*
  raises; a conflict with an invisible higher-labelled tuple must NOT
  raise (that would reveal the tuple's existence) — the insert proceeds
  and the table is *polyinstantiated*.  Readers with higher labels see
  both tuples and treat the duplication as a mistake to clean up.
* **Foreign keys** (5.2.2): inserting a referencing tuple reveals the
  parent's existence, and deletes of parents reveal referencing tuples.
  The Foreign Key Rule requires the inserter to hold declassification
  authority for the symmetric difference of the two labels and to name
  those tags explicitly in a ``DECLASSIFYING`` clause.  A parent whose
  label holds a tag beyond the child's that the inserter cannot
  declassify could never satisfy the rule, so it is no parent at all:
  the insert fails exactly as if the row were not there.
* **Label constraints** (5.2.4): ``MATCH LABEL`` foreign keys pin a
  tuple's label to its parent's label (preventing polyinstantiation when
  combined with a uniqueness constraint), and ``LABEL CHECK`` expressions
  validate ``_label`` directly.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.labels import Label
from ..core.rules import covers, same_contamination, strip, \
    symmetric_difference
from ..errors import (
    AuthorityError,
    CheckViolation,
    ForeignKeyViolation,
    IFCViolation,
    LabelConstraintViolation,
    UniqueViolation,
)
from .expressions import ExprCompiler, Scope
from .storage import Table


def _compiled_checks(db, table: Table):
    """``(catalog version, CHECKs, LABEL CHECKs)`` of the table, each a
    list of ``(name, compiled expression)``, compiled once per catalog
    version and kept on the table."""
    cache = getattr(table, "_compiled_checks", None)
    if cache is None or cache[0] != db.catalog.version:
        scope = Scope()
        scope.add_table(table.name, table.schema.column_names)
        compiler = ExprCompiler(scope, catalog=db.catalog,
                                planner=db.planner)
        schema = table.schema
        cache = table._compiled_checks = (
            db.catalog.version,
            [(c.name, compiler.compile(c.expr)) for c in schema.checks],
            [(c.name, compiler.compile(c.expr))
             for c in schema.label_checks])
    return cache


def _key(values: Tuple, positions) -> Optional[Tuple]:
    """The key at ``positions``; ``None`` if it holds a NULL (SQL: a
    NULL key neither conflicts nor references)."""
    key = tuple([values[p] for p in positions])
    return None if None in key else key


def _live_matches(ctx, table: Table, index, positions, key: Tuple,
                  skip=None):
    """The versions of ``table`` visible to ``ctx``'s transaction whose
    columns at ``positions`` hold ``key`` — *ignoring labels*, through
    ``index`` (on exactly those columns) or, if it is ``None``, a full
    scan — other than the version ``skip``."""
    if index is not None:
        versions = table.versions_for_tids(index.lookup(key))
    else:
        versions = (v for v in table.all_versions()
                    if tuple(v.values[p] for p in positions) == key)
    visible = ctx.session.db.txn_manager.visible
    txn = ctx.session.transaction
    for version in versions:
        if version is not skip:
            table.touch(version)
            if visible(version, txn):
                yield version


def _verb(old, values) -> str:
    if old is None:
        return "insert into"
    return "delete from" if values is None else "update of"


def _lookup(ctx, table: Table, columns, key: Tuple):
    """:func:`_live_matches` on ``columns``, through an index on exactly
    those columns if there is one."""
    return _live_matches(ctx, table, table.find_index(columns),
                         table.schema.positions_of(columns), key)


def check_write(ctx, table: Table, old, values: Optional[Tuple],
                declassifying: Label) -> None:
    """Everything the write of ``values`` (``None`` for a DELETE) over
    the version ``old`` (``None`` for an INSERT), under the label of
    ``ctx``'s statement, must satisfy, in order:
    authority for every tag ``declassifying`` names, LABEL CHECK (IFC
    on; NULL fails closed), CHECK (NULL passes), UNIQUE, the Foreign
    Key Rule for each new or changed key, and RESTRICT for each
    referencing key deleted or changed."""
    session = ctx.session
    db = session.db
    label = ctx.read_label
    ifc = db.ifc_enabled
    registry = db.authority.tags
    if ifc and declassifying:
        # Before any parent lookup: whether the clause is honoured may
        # not depend on which parents exist.
        missing = [t for t in declassifying if not
                   db.authority.has_authority(session.acting.principal, t)]
        if missing:
            raise AuthorityError(
                "DECLASSIFYING clause names tags %r but the acting "
                "principal lacks authority for them"
                % (registry.names(missing),))
    schema = table.schema
    if values is not None:
        _, checks, label_checks = _compiled_checks(db, table)
        if checks or label_checks:
            row = list(values) + [label]
            for name, fn in label_checks if ifc else ():
                if not fn(row, ctx):
                    raise LabelConstraintViolation(
                        "label %r violates label constraint %r on table %s"
                        % (label, name, table.name))
            for name, fn in checks:
                result = fn(row, ctx)
                if result is not None and not result:
                    raise CheckViolation(
                        "row violates CHECK constraint %r on table %s"
                        % (name, table.name))
        for unique, index in table.unique_indexes:
            key = _key(values, index.positions)
            if key is None:
                continue
            for version in _live_matches(ctx, table, index,
                                         index.positions, key, old):
                if ifc and not covers(registry, version.label, label):
                    # Invisible conflict: polyinstantiate rather than leak.
                    table.polyinstantiation_count += 1
                    continue
                raise UniqueViolation(
                    "duplicate key %r violates unique constraint %r"
                    % (key, unique.name))
        for fk in schema.foreign_keys:
            positions = schema.positions_of(fk.columns)
            key = _key(values, positions)
            if key is not None and (old is None
                                    or key != _key(old.values, positions)):
                _check_parent(ctx, table, fk, key, declassifying,
                              _verb(old, values))
    if old is not None:
        for child_name, fk in db.catalog.referencing_foreign_keys(
                table.name):
            positions = schema.positions_of(fk.ref_columns)
            key = _key(old.values, positions)
            if key is None or (values is not None
                               and key == _key(values, positions)):
                continue
            child = db.catalog.get_table(child_name)
            # Referencing rows are found *ignoring labels*: the failure
            # may reveal them, which the Foreign Key Rule made
            # acceptable by charging their inserter for the
            # declassification (section 5.2.2's deletion discussion).
            for _version in _lookup(ctx, child, fk.columns, key):
                raise ForeignKeyViolation(
                    "%s %s would orphan rows in %s (foreign key %r)"
                    % (_verb(old, values), table.name, child_name, fk.name))


def _check_parent(ctx, table: Table, fk, key: Tuple, declassifying: Label,
                  verb: str) -> None:
    """The Foreign Key Rule (section 5.2.2) for one referencing key.

    A parent must exist; and unless the child and parent labels carry
    the same contamination, ``declassifying`` (whose authority the
    caller checked) must cover the symmetric difference ``LA △ LB``.
    """
    db = ctx.session.db
    label = ctx.read_label
    parents = _lookup(ctx, db.catalog.get_table(fk.ref_table),
                      fk.ref_columns, key)
    error = None
    if not db.ifc_enabled:
        if next(parents, None) is not None:
            return
    else:
        registry = db.authority.tags
        authority = db.authority
        principal = ctx.session.acting.principal
        for parent in parents:
            if not parent.label.issubset(label) and not all(
                    authority.has_authority(principal, t)
                    for t in strip(registry, parent.label, label)):
                # A tag the writer may neither see nor declassify: this
                # parent can never satisfy the rule, and failing on it
                # would tell of it.  It is skipped, as if absent.
                continue
            if fk.match_label and not same_contamination(
                    registry, label, parent.label):
                error = LabelConstraintViolation(
                    "foreign key %r requires MATCH LABEL: child label %r "
                    "does not match parent label %r"
                    % (fk.name, label, parent.label))
                continue
            difference = symmetric_difference(label, parent.label)
            if not difference or covers(registry, difference, declassifying):
                return
            error = IFCViolation(
                "foreign key %r links labels %r and %r; the tags in "
                "their symmetric difference must be named in a "
                "DECLASSIFYING clause (section 5.2.2)"
                % (fk.name, label, parent.label))
    raise error or ForeignKeyViolation(
        "%s %s violates foreign key %r: no row %r in %s"
        % (verb, table.name, fk.name, key, fk.ref_table))
