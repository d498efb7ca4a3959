"""Expression evaluation semantics: SQL NULL logic, LIKE, CASE, and the
compiler's name resolution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import expressions as ex
from repro.db.physical import RowBatch
from repro.errors import CatalogError, DatabaseError, ExpressionError
from repro.sql.parser import parse_expression, parse_statement


class _Ctx:
    """Minimal execution context for standalone expression evaluation."""

    def __init__(self, params=()):
        self.params = tuple(params)
        self.outer_stack = []
        self.registry = None

    def now(self):
        return 123.0


def evaluate(sql, row=None, columns=(), params=()):
    scope = ex.Scope()
    if columns:
        scope.add_table("t", list(columns))
    compiler = ex.ExprCompiler(scope)
    fn = compiler.compile(parse_expression(sql))
    values = list(row or [])
    if columns:
        values = values + [None]       # the _label pseudo-column slot
    return fn(values, _Ctx(params))


class TestArithmetic:
    def test_basic_math(self):
        assert evaluate("1 + 2 * 3 - 4") == 3
        assert evaluate("(1 + 2) * 3") == 9
        assert evaluate("7 / 2") == 3.5
        assert evaluate("7 % 3") == 1
        assert evaluate("-(2 + 3)") == -5

    def test_string_concat(self):
        assert evaluate("'a' || 'b' || 'c'") == "abc"
        assert evaluate("'n=' || 5") == "n=5"

    def test_comparisons(self):
        assert evaluate("3 > 2") is True
        assert evaluate("3 <> 3") is False
        assert evaluate("'abc' < 'abd'") is True


class TestNullLogic:
    def test_null_propagates_through_operators(self):
        assert evaluate("NULL + 1") is None
        assert evaluate("NULL = NULL") is None
        assert evaluate("1 < NULL") is None
        assert evaluate("-(NULL)") is None

    def test_three_valued_and_or(self):
        assert evaluate("TRUE AND NULL") is None
        assert evaluate("FALSE AND NULL") is False
        assert evaluate("TRUE OR NULL") is True
        assert evaluate("FALSE OR NULL") is None
        assert evaluate("NOT NULL") is None

    def test_is_null(self):
        assert evaluate("NULL IS NULL") is True
        assert evaluate("1 IS NULL") is False
        assert evaluate("1 IS NOT NULL") is True

    def test_in_list_with_nulls(self):
        assert evaluate("1 IN (1, NULL)") is True
        assert evaluate("2 IN (1, NULL)") is None     # unknown
        assert evaluate("2 NOT IN (1, 3)") is True
        assert evaluate("NULL IN (1)") is None

    def test_between_null(self):
        assert evaluate("NULL BETWEEN 1 AND 2") is None
        assert evaluate("5 BETWEEN 1 AND 10") is True
        assert evaluate("5 NOT BETWEEN 1 AND 10") is False

    def test_coalesce(self):
        assert evaluate("COALESCE(NULL, NULL, 7, 9)") == 7
        assert evaluate("COALESCE(NULL, NULL)") is None


class TestLike:
    @pytest.mark.parametrize("value,pattern,expected", [
        ("hello", "hello", True),
        ("hello", "h%", True),
        ("hello", "%llo", True),
        ("hello", "h_llo", True),
        ("hello", "h_l", False),
        ("h.llo", "h.llo", True),       # dots are literal
        ("xyz", "%", True),
        ("", "%", True),
        ("abc", "a%c", True),
    ])
    def test_like(self, value, pattern, expected):
        assert evaluate("'%s' LIKE '%s'" % (value, pattern)) is expected

    def test_not_like_and_null(self):
        assert evaluate("'abc' NOT LIKE 'a%'") is False
        assert evaluate("NULL LIKE 'a'") is None


class TestCase:
    def test_first_match_wins(self):
        assert evaluate(
            "CASE WHEN 1 = 2 THEN 'a' WHEN 2 = 2 THEN 'b' "
            "ELSE 'c' END") == "b"

    def test_no_match_no_else_is_null(self):
        assert evaluate("CASE WHEN FALSE THEN 1 END") is None


class TestColumnsAndParams:
    def test_column_resolution(self):
        assert evaluate("a + b", row=[3, 4], columns=("a", "b")) == 7
        assert evaluate("t.a * 2", row=[3, 4], columns=("a", "b")) == 6

    def test_unknown_column_raises(self):
        with pytest.raises(CatalogError):
            evaluate("zz", row=[1], columns=("a",))

    def test_params_positional(self):
        assert evaluate("? + ?", params=(10, 20)) == 30

    def test_missing_param_raises(self):
        with pytest.raises(DatabaseError):
            evaluate("? + 1", params=())

    def test_builtins(self):
        assert evaluate("MOD(10, 3)") == 1
        assert evaluate("FLOOR(2.7)") == 2.0
        assert evaluate("CEIL(2.1)") == 3.0
        assert evaluate("TRIM('  x  ')") == "x"
        assert evaluate("NOW()") == 123.0

    def test_unknown_function_raises(self):
        with pytest.raises(CatalogError):
            evaluate("NO_SUCH_FN(1)")


class TestRewriteAndCollect:
    def test_structural_equality_for_group_by(self):
        a = parse_expression("x + 1")
        b = parse_expression("x + 1")
        c = parse_expression("x + 2")
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_collect_aggregates_dedupes(self):
        expr = parse_expression("SUM(x) + SUM(x) + COUNT(*)")
        out = []
        ex.collect_aggregates(expr, out)
        assert len(out) == 2

    def test_rewrite_replaces_subtrees(self):
        expr = parse_expression("SUM(x) * 2")
        aggregates = []
        ex.collect_aggregates(expr, aggregates)
        rewritten = ex.rewrite(expr, {aggregates[0]: ex.SlotRef(0)})
        scope = ex.Scope()
        fn = ex.ExprCompiler(scope).compile(rewritten)
        assert fn([21], _Ctx()) == 42

    def test_rewrite_rejects_stray_aggregate(self):
        expr = parse_expression("SUM(x)")
        with pytest.raises(DatabaseError):
            ex.rewrite(expr, {})

    def test_rewrite_keys_each_node_once(self, monkeypatch):
        """Matching hashes nodes, and a node's key is its whole
        subtree's: keyed bottom-up once, a rewrite of ``SUM(x) + y + …
        + y`` costs a key() call per node, not per node per level."""
        key, calls = ex.Expr.key, [0]

        def counting(node, *below):
            calls[0] += 1
            return key(node, *below)

        monkeypatch.setattr(ex.Expr, "key", counting)
        per_node = []
        for ys in (10, 20, 40):
            expr = parse_expression("SUM(x)" + " + y" * ys)
            nodes = len(ex.walk(expr))
            aggregates = []
            ex.collect_aggregates(expr, aggregates)
            mapping = {aggregates[0]: ex.SlotRef(0)}
            calls[0] = 0
            rewritten = ex.rewrite(expr, mapping)
            per_node.append(calls[0] / nodes)
            assert [type(n) for n in ex.walk(rewritten)].count(
                ex.SlotRef) == 1
        assert nodes == 82
        assert per_node == sorted(per_node, reverse=True), per_node
        assert per_node[-1] <= 1.1, per_node


# ---------------------------------------------------------------------------
# node shape: key() / children() / rebuilt() / walk()
# ---------------------------------------------------------------------------

_A, _B, _C, _D = (ex.ColumnRef(name) for name in "abcd")
_SELECT = object()          # stands in for a parsed subquery


def _samples(a, b, c, d):
    """At least one instance per node class, every slot filled, each
    with its children written out by hand — a class added to
    expressions.py without an entry here fails the suite."""
    return {
        ex.Literal: [(ex.Literal(1), [])],
        ex.Param: [(ex.Param(0), [])],
        ex.ColumnRef: [(ex.ColumnRef("a", "t"), [])],
        ex.Star: [(ex.Star("t"), [])],
        ex.SlotRef: [(ex.SlotRef(2), [])],
        ex.AggSlotRef: [(ex.AggSlotRef(1), [])],
        ex.BinOp: [(ex.BinOp("+", a, b), [a, b])],
        ex.Compare: [(ex.Compare("<", a, b), [a, b])],
        ex.And: [(ex.And([a, b, c]), [a, b, c])],
        ex.Or: [(ex.Or([a, b, c]), [a, b, c])],
        ex.Not: [(ex.Not(a), [a])],
        ex.Neg: [(ex.Neg(a), [a])],
        ex.IsNull: [(ex.IsNull(a, True), [a])],
        ex.InList: [(ex.InList(a, [b, c], True), [a, b, c])],
        ex.Between: [(ex.Between(a, b, c, True), [a, b, c])],
        ex.Like: [(ex.Like(a, b, True), [a, b])],
        ex.FuncCall: [(ex.FuncCall("coalesce", [a, b]), [a, b]),
                      (ex.FuncCall("now", []), [])],
        ex.Aggregate: [(ex.Aggregate("sum", a, True), [a]),
                       (ex.Aggregate("count", None), [])],
        ex.Case: [(ex.Case([(a, b), (c, d)]), [a, b, c, d]),
                  (ex.Case([(a, b)], c), [a, b, c])],
        ex.Exists: [(ex.Exists(_SELECT, True), [])],
        ex.InSelect: [(ex.InSelect(a, _SELECT, True), [a])],
        ex.ScalarSelect: [(ex.ScalarSelect(_SELECT), [])],
        ex.LiteralSlot: [(ex.LiteralSlot(0, 0, 1), [])],
    }


SHAPE_SAMPLES = _samples(_A, _B, _C, _D)
_ALL_SAMPLES = [node for pairs in SHAPE_SAMPLES.values()
                for node, _children in pairs]

#: Nodes of different classes whose slots hold the same values: the
#: class is part of the key, so no two are equal.
_SAME_SLOTS = [
    (ex.BinOp("<", _A, _B), ex.Compare("<", _A, _B)),
    (ex.Not(_A), ex.Neg(_A)),
    (ex.And([_A, _B]), ex.Or([_A, _B])),
    (ex.SlotRef(1), ex.AggSlotRef(1)),
    (ex.Literal(0), ex.Param(0)),
    (ex.Star("t"), ex.Literal("t")),
]


class TestNodeShape:
    def test_every_node_class_has_a_sample(self):
        assert set(ex.Expr.__subclasses__()) == set(SHAPE_SAMPLES)

    def test_only_four_classes_key_on_something_other_than_their_slots(self):
        defined = {method: sorted(cls.__name__
                                  for cls in ex.Expr.__subclasses__()
                                  if method in vars(cls))
                   for method in ("key", "children", "rebuilt")}
        assert defined == {
            "key": ["Exists", "InSelect", "LiteralSlot", "ScalarSelect"],
            "children": [], "rebuilt": []}

    @pytest.mark.parametrize("cls", sorted(SHAPE_SAMPLES,
                                           key=lambda c: c.__name__))
    def test_children_and_rebuilt_cover_every_slot(self, cls):
        for node, expected in SHAPE_SAMPLES[cls]:
            children = list(node.children())
            assert [id(c) for c in children] == [id(c) for c in expected]
            same = node.rebuilt(children)
            assert type(same) is cls and same == node
            # New children land where the old ones were; flags, names
            # and the subquery are carried over.
            fresh = [ex.Literal("new-%d" % i) for i in range(len(children))]
            other = node.rebuilt(fresh)
            assert type(other) is cls
            assert list(other.children()) == fresh
            assert other.rebuilt(children) == node
            # walk: the node, then each child exactly once, in order.
            assert [id(n) for n in ex.walk(node)] \
                == [id(node)] + [id(c) for c in children]

    def test_each_sample_equals_its_copy_and_a_fresh_construction(self):
        again = _samples(*(ex.ColumnRef(name) for name in "abcd"))
        for cls, pairs in SHAPE_SAMPLES.items():
            for (node, _children), (fresh, _) in zip(pairs, again[cls]):
                copy = node.rebuilt(node.children())
                for same in (copy, fresh):
                    assert same == node and hash(same) == hash(node)
                assert fresh is not node

    def test_no_two_nodes_of_different_classes_are_equal(self):
        pairs = [(a, b) for a in _ALL_SAMPLES for b in _ALL_SAMPLES
                 if type(a) is not type(b)] + _SAME_SLOTS
        for a, b in pairs:
            assert a != b and b != a, (a, b)

    def test_a_literal_slot_keys_on_its_equality_class(self):
        slot = ex.LiteralSlot(0, 0, 1)
        same_class = ex.LiteralSlot(3, 0, 9)
        assert slot == same_class and hash(slot) == hash(same_class)
        assert slot != ex.LiteralSlot(0, 1, 1)
        for other in (ex.Literal(1), ex.Param(0)):
            assert slot != other and same_class != other

    def test_a_subquery_node_keys_on_the_identity_of_its_select(self):
        first, second = (parse_statement("SELECT 1") for _ in range(2))
        assert first == second and first is not second
        for make in (ex.Exists, ex.ScalarSelect,
                     lambda select: ex.InSelect(_A, select)):
            assert make(first) == make(first)
            assert make(first) != make(second)

    def test_walk_is_preorder_left_to_right(self):
        inner = ex.BinOp("+", _B, _C)
        compare = ex.Compare("=", _A, inner)
        negation = ex.Not(_D)
        case = ex.Case([(compare, _A)], negation)
        root = ex.And([case, _B])
        assert [id(n) for n in ex.walk(root)] == [id(n) for n in (
            root, case, compare, _A, inner, _B, _C, _A, negation, _D, _B)]

    def test_subquery_operand_is_rewritten_like_any_child(self):
        node = ex.InSelect(ex.Aggregate("count", None), _SELECT)
        mapping = {ex.Aggregate("count", None): ex.SlotRef(1)}
        rewritten = ex.rewrite(node, mapping)
        assert rewritten == ex.InSelect(ex.SlotRef(1), _SELECT)
        assert rewritten.select is _SELECT


# ---------------------------------------------------------------------------
# the two closure forms agree
# ---------------------------------------------------------------------------

_VALUES = st.sampled_from([None, 0, 1, -2, 3, 0.0, 1.5, -0.5, "", "a", "ab",
                           True, False])
_LEAVES = st.one_of(
    st.builds(ex.Literal, _VALUES),
    st.sampled_from([_A, _B, _C]),
    st.builds(ex.Param, st.integers(0, 2)))     # 2 is out of range


def _interior(children):
    some = st.lists(children, min_size=1, max_size=3)
    return st.one_of(
        st.builds(ex.Compare, st.sampled_from(["=", "<>", "<", "<=", ">",
                                               ">="]), children, children),
        st.builds(ex.BinOp, st.sampled_from(["+", "-", "*", "/", "%", "||"]),
                  children, children),
        st.builds(ex.And, some),
        st.builds(ex.Or, some),
        st.builds(ex.Not, children),
        st.builds(ex.Neg, children),
        st.builds(ex.IsNull, children, st.booleans()),
        st.builds(ex.Between, children, children, children, st.booleans()),
        st.builds(ex.InList, children, some, st.booleans()),
        st.builds(ex.Case,
                  st.lists(st.tuples(children, children), min_size=1,
                           max_size=2),
                  st.none() | children),
        st.builds(ex.FuncCall, st.just("COALESCE"), some))


def _typed(values):
    return [(type(v), v) for v in values]


@given(node=st.recursive(_LEAVES, _interior, max_leaves=12),
       rows=st.lists(st.tuples(_VALUES, _VALUES, _VALUES), min_size=1,
                     max_size=6),
       params=st.tuples(_VALUES, _VALUES))
@settings(max_examples=400, deadline=None)
def test_batch_form_agrees_with_scalar_form(node, rows, params):
    """NULLs, mixed types, division by zero, a missing parameter: the
    batch closure returns what the scalar closure returns row by row
    (same values, same Python types), or raises an exception type the
    scalar closure raises for some row — over a batch of exactly the
    rows and over one ``select``ed out of a longer batch, both carrying
    a projected-away column the expression does not read."""
    scope = ex.Scope()
    scope.add_table("t", ["a", "b", "c"])
    compiler = ex.ExprCompiler(scope)
    ctx = _Ctx(params)
    scalar = compiler.compile(node)
    expected, raised = [], set()
    for row in rows:
        try:
            expected.append(scalar([*row, None], ctx))
        except Exception as exc:
            raised.add(type(exc))
    n = len(rows)
    decoyed = [cell for row in rows for cell in (("decoy", 0, None), row)]
    batches = {
        "whole": RowBatch([list(column) for column in zip(*rows)] + [None],
                          [None] * n, [None] * n),
        "selected": RowBatch(
            [list(column) for column in zip(*decoyed)] + [None],
            [None] * 2 * n, [None] * 2 * n).select(range(1, 2 * n, 2)),
    }
    batch_fn = compiler.compile_batch(node)
    for layout, batch in batches.items():
        try:
            got = batch_fn(batch, ctx)
        except Exception as exc:
            assert type(exc) in raised, (layout, node, rows, exc)
        else:
            assert not raised, (layout, node, rows, raised)
            assert _typed(got) == _typed(expected), (layout, node, rows)


# ---------------------------------------------------------------------------
# IN over constants has a column kernel
# ---------------------------------------------------------------------------

_NAN = float("nan")
#: Every value meets the items by ``==``: ``True == 1 == 1.0``, ``"1"``
#: equals no number, and NaN — the very object a parameter may pass —
#: equals nothing, itself included.
_IN_COLUMN = [None, 0, 1, 1.0, 2, 2.5, 3, True, "1", _NAN]


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize("items, params", [
    ([ex.Literal(1), ex.Literal(2.0), ex.Literal(3)], ()),
    ([ex.Literal(1), ex.Literal(None), ex.Literal(2.5)], ()),
    ([ex.Param(0), ex.Literal(2)], (_NAN,)),
    ([ex.Param(0), ex.Param(1)], (None, 1.0)),
], ids=["int-float", "null-item", "nan-param", "params"])
def test_in_list_kernel_agrees_with_the_scalar_form(items, params, negated):
    """The set lookup answers what the scalar closure answers row by row
    — value and type — and builds no row."""
    from repro.core.counters import tally
    scope = ex.Scope()
    scope.add_table("t", ["a"])
    compiler = ex.ExprCompiler(scope)
    node = ex.InList(_A, items, negated)
    ctx = _Ctx(params)
    scalar = compiler.compile(node)
    expected = [scalar([value, None], ctx) for value in _IN_COLUMN]
    n = len(_IN_COLUMN)
    widened = tally().rows_widened
    got = compiler.compile_batch(node)(
        RowBatch([list(_IN_COLUMN), None], [None] * n, [None] * n), ctx)
    assert _typed(got) == _typed(expected)
    assert tally().rows_widened == widened
    if params == (_NAN,):
        assert got[-1] is negated            # NaN is not in (NaN, 2)


# ---------------------------------------------------------------------------
# an operator on operands it is not defined on raises a typed error
# ---------------------------------------------------------------------------

class TestTypedOperatorErrors:
    """Division by zero, TEXT against INT and an order on labels raise
    ``ExpressionError`` naming the operator, function or aggregate and
    the operand types — from the scalar kernels (a constant select
    item, an UPDATE assignment), the batch ones (column against a
    constant, elementwise), the builtins and the aggregate folds
    (global and grouped), through SELECT, UPDATE and DELETE — and the
    failed statement writes nothing."""

    @pytest.fixture
    def session(self):
        from repro.core import AuthorityState, SeededIdGenerator
        from repro.db import Database
        db = Database(AuthorityState(idgen=SeededIdGenerator(5)), seed=5)
        session = db.connect()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, w TEXT)")
        for i in range(6):
            session.execute("INSERT INTO t VALUES (?, ?)", (i, "w%d" % i))
        return session

    @pytest.mark.parametrize("sql, operation", [
        ("SELECT 1/0", "INT / INT"),
        ("SELECT id % 0 FROM t", "INT % INT"),
        ("SELECT id FROM t WHERE w > 3", "TEXT > INT"),
        ("SELECT id FROM t WHERE 3 < w", "INT < TEXT"),
        ("SELECT id FROM t WHERE id / (id - id) > 1", "INT / INT"),
        ("UPDATE t SET id = id + 10 WHERE w > 3", "TEXT > INT"),
        ("UPDATE t SET w = w + 1", "TEXT + INT"),
        ("DELETE FROM t WHERE w > 3", "TEXT > INT"),
        ("SELECT MIN(_label) FROM t", "MIN(LABEL < LABEL)"),
        ("SELECT id % 2, MAX(_label) FROM t GROUP BY id % 2",
         "MAX(LABEL > LABEL)"),
        ("SELECT AVG(w) FROM t", "AVG(TEXT / INT)"),
        ("SELECT SUM(CASE WHEN id < 3 THEN id ELSE w END) FROM t",
         "SUM(INT + TEXT)"),
        ("SELECT id % 2, MIN(CASE WHEN id < 3 THEN id ELSE w END) FROM t "
         "GROUP BY id % 2", "MIN(TEXT < INT)"),
        ("SELECT id FROM t WHERE w BETWEEN 1 AND 2",
         "TEXT BETWEEN INT AND INT"),
        ("SELECT -w FROM t", "-TEXT"),
        ("SELECT id FROM t WHERE id LIKE 'a%'", "INT LIKE TEXT"),
        ("SELECT MOD(id, 0) FROM t", "MOD(INT, INT)"),
        ("SELECT SUBSTR(w, 'a') FROM t", "SUBSTR(TEXT, TEXT)"),
        ("SELECT ROUND(id, 'a') FROM t", "ROUND(INT, TEXT)"),
        ("SELECT FLOOR(id * 1e308 * 10) FROM t", "FLOOR(REAL)"),
        ("SELECT CEIL(id * 1e308 * 10) FROM t", "CEIL(REAL)"),
        ("SELECT CEIL(id * 1e308 * 10 - id * 1e308 * 10) FROM t",
         "CEIL(REAL)"),
        ("UPDATE t SET w = SUBSTR(w, 'a')", "SUBSTR(TEXT, TEXT)"),
        ("UPDATE t SET w = 'x' WHERE ROUND(id, w) > 0", "ROUND(INT, TEXT)"),
        ("UPDATE t SET id = FLOOR(id * 1e308 * 10) + 10", "FLOOR(REAL)"),
        ("UPDATE t SET id = CEIL(id * 1e308 * 10) + 10", "CEIL(REAL)"),
    ])
    def test_raises_expression_error(self, session, sql, operation):
        before = session.execute("SELECT id, w FROM t").rows
        with pytest.raises(ExpressionError) as raised:
            session.execute(sql)
        assert isinstance(raised.value, DatabaseError)
        assert str(raised.value).startswith("cannot evaluate " + operation)
        assert session.execute("SELECT id, w FROM t").rows == before

    @pytest.mark.parametrize("sql", [
        "SELECT INV(id) FROM t",
        "SELECT id FROM t WHERE INV(id) > 0",
        "SELECT id FROM t WHERE id > 2 OR INV(id) > 0",
        "UPDATE t SET w = 'x' WHERE INV(id) > 0",
        "UPDATE t SET w = w || INV(id - 5)",
        "DELETE FROM t WHERE INV(id) > 0",
    ])
    def test_a_user_defined_function_raises_expression_error(self, session,
                                                              sql):
        """A UDF's own exception (here ``ZeroDivisionError``) becomes an
        ``ExpressionError`` naming the function and its operand types,
        in a select item, a WHERE clause and an UPDATE assignment."""
        session.db.create_function("INV", lambda x: 1 / x)
        before = session.execute("SELECT id, w FROM t").rows
        with pytest.raises(ExpressionError) as raised:
            session.execute(sql)
        assert str(raised.value).startswith("cannot evaluate INV(INT)")
        assert "division by zero" in str(raised.value)
        assert session.execute("SELECT id, w FROM t").rows == before

    def test_a_user_defined_function_keeps_the_engines_own_errors(
            self, session):
        """A ``needs_context`` function may refuse on purpose: the
        engine's own errors reach the caller as they were raised."""
        from repro.errors import AuthorityError, IFCViolation

        def refuse(ctx, value):
            if value == 3:
                raise AuthorityError("no authority over row %d" % value)
            raise IFCViolation("row %d may not flow here" % value)
        session.db.create_function("GUARD", refuse, needs_context=True)
        before = session.execute("SELECT id, w FROM t").rows
        with pytest.raises(AuthorityError, match="no authority over row 3"):
            session.execute("UPDATE t SET w = 'x' WHERE GUARD(id) AND id = 3")
        with pytest.raises(IFCViolation, match="row 0 may not flow here"):
            session.execute("SELECT GUARD(id) FROM t")
        assert session.execute("SELECT id, w FROM t").rows == before


#: Arguments each builtin is defined on, as SQL: every ``_BUILTINS``
#: entry has a row, so a new builtin is checked for strictness too.
BUILTIN_ARGS = {
    "ABS": ["-3"], "LENGTH": ["'abc'"], "LOWER": ["'Ab'"],
    "UPPER": ["'Ab'"], "SUBSTR": ["'hello'", "2", "3"],
    "SUBSTRING": ["'hello'", "2", "3"], "ROUND": ["2.567", "1"],
    "FLOOR": ["2.5"], "CEIL": ["2.5"], "MOD": ["7", "3"],
    "TRIM": ["' a '"], "CONCAT": ["'a'", "'b'"], "COALESCE": ["1", "2"],
    "MIN2": ["1", "2"], "MAX2": ["1", "2"], "NOW": [],
    "LABEL": ["'red'", "'blue'"],
    "LABEL_CONTAINS": ["LABEL('red')", "'red'"],
    "LABEL_SUBSET": ["LABEL('red')", "LABEL('red', 'blue')"],
    "LABEL_SIZE": ["LABEL('red')"],
}


class TestBuiltins:
    """The builtins are one table, ``name → (fn, strict, needs_context)``,
    called one way: a strict function is NULL on any NULL argument
    without being called, and what its code raises is an
    ``ExpressionError`` (the engine's own errors pass)."""

    @pytest.fixture(scope="class")
    def session(self):
        from repro.core import AuthorityState, SeededIdGenerator
        from repro.db import Database
        authority = AuthorityState(idgen=SeededIdGenerator(3))
        owner = authority.create_principal("owner")
        for name in ("red", "blue"):
            authority.create_tag(name, owner=owner.id)
        session = Database(authority, seed=3).connect()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        session.execute("INSERT INTO t VALUES (1)")
        return session

    @staticmethod
    def call(session, name, args):
        return session.execute(
            "SELECT %s(%s)" % (name, ", ".join(args))).rows[0][0]

    def test_every_builtin_has_sample_arguments(self):
        assert set(BUILTIN_ARGS) == set(ex._BUILTINS)

    def test_only_coalesce_and_concat_are_not_strict(self):
        assert {name for name, (_fn, strict, _context)
                in ex._BUILTINS.items() if strict is not True} \
            == {"COALESCE", "CONCAT"}

    @pytest.mark.parametrize("name", sorted(BUILTIN_ARGS))
    def test_a_strict_builtin_is_null_on_any_null_argument(self, session,
                                                           name):
        args = BUILTIN_ARGS[name]
        _fn, strict, _context = ex._BUILTINS[name]
        assert self.call(session, name, args) is not None
        for position in range(len(args)):
            nulled = args[:position] + ["NULL"] + args[position + 1:]
            result = self.call(session, name, nulled)
            assert (result is None) is (strict is True), (name, position)

    @pytest.mark.parametrize("sql", [
        "SELECT COALESCE(1, id / 0) FROM t",
        "SELECT COALESCE(id, LABEL_SIZE(5)) FROM t",
        "SELECT COALESCE(NULL, 1, (SELECT id / 0 FROM t)) FROM t"])
    def test_coalesce_evaluates_no_argument_after_the_first_non_null(
            self, session, sql):
        assert session.execute(sql).rows == [(1,)]

    def test_coalesce_still_evaluates_the_arguments_it_reaches(self,
                                                               session):
        with pytest.raises(ExpressionError, match="division by zero"):
            session.execute("SELECT COALESCE(NULL, id / 0) FROM t")

    @pytest.mark.parametrize("sql", ["SELECT LABEL_SIZE(5)",
                                     "SELECT LABEL_SIZE(id) FROM t",
                                     "SELECT LABEL_SUBSET(1, 2)"])
    def test_a_label_builtin_on_a_non_label_raises_expression_error(
            self, session, sql):
        with pytest.raises(ExpressionError, match="cannot evaluate LABEL_"):
            session.execute(sql)

    def test_a_null_tag_name_is_null_not_an_unknown_tag(self, session):
        from repro.errors import UnknownTagError
        assert session.execute("SELECT LABEL_CONTAINS(_label, NULL) "
                               "FROM t").rows[0][0] is None
        assert self.call(session, "LABEL", ["'red'", "NULL"]) is None
        with pytest.raises(UnknownTagError):
            self.call(session, "LABEL", ["'green'"])

    def test_a_catalog_function_sees_its_null_arguments(self, session):
        session.db.create_function("IS_MISSING", lambda x: x is None)
        assert self.call(session, "IS_MISSING", ["NULL"]) is True
