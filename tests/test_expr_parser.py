"""Unit tests for the expression lexer and parser."""

import pytest

from repro.errors import ParseError
from repro.expr import (
    BinaryOp,
    Call,
    FieldAccess,
    IndexVar,
    Literal,
    Ternary,
    UnaryOp,
    parse,
    unparse,
)
from repro.expr import lexer


class TestLexer:
    def test_kinds(self):
        kinds = [t.kind for t in lexer.tokenize("a[i-1] + 2.5")]
        assert kinds == ["NAME", "LBRACKET", "NAME", "OP", "NUMBER",
                         "RBRACKET", "OP", "NUMBER", "EOF"]

    def test_multichar_operators(self):
        texts = [t.text for t in lexer.tokenize("a<=b && c!=d || !e")][:-1]
        assert texts == ["a", "<=", "b", "&&", "c", "!=", "d", "||",
                         "!", "e"]

    def test_scientific_notation(self):
        tokens = lexer.tokenize("1.5e-3 + 2E4")
        assert tokens[0].text == "1.5e-3"
        assert tokens[2].text == "2E4"

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            lexer.tokenize("a @ b")

    def test_positions(self):
        tokens = lexer.tokenize("ab + cd")
        assert tokens[0].position == 0
        assert tokens[1].position == 3
        assert tokens[2].position == 5


class TestParserBasics:
    def test_literal_int(self):
        assert parse("42") == Literal(42)

    def test_literal_float(self):
        assert parse("0.5") == Literal(0.5)

    def test_index_var(self):
        assert parse("i") == IndexVar("i")

    def test_scalar_field(self):
        assert parse("alpha") == FieldAccess("alpha", (), ())

    def test_simple_access(self):
        node = parse("a[i, j, k]")
        assert node == FieldAccess("a", (0, 0, 0), ("i", "j", "k"))

    def test_offset_access(self):
        node = parse("a[i-1, j, k+2]")
        assert node == FieldAccess("a", (-1, 0, 2), ("i", "j", "k"))

    def test_lower_dim_access(self):
        node = parse("a2[i, k]")
        assert node == FieldAccess("a2", (0, 0), ("i", "k"))

    def test_bare_integer_subscripts(self):
        node = parse("a[0, -1, 2]")
        assert node == FieldAccess("a", (0, -1, 2), ("i", "j", "k"))


class TestPrecedence:
    def test_mul_binds_tighter(self):
        node = parse("1 + 2 * 3")
        assert node == BinaryOp("+", Literal(1),
                                BinaryOp("*", Literal(2), Literal(3)))

    def test_parentheses(self):
        node = parse("(1 + 2) * 3")
        assert node == BinaryOp("*", BinaryOp("+", Literal(1), Literal(2)),
                                Literal(3))

    def test_left_associativity(self):
        node = parse("1 - 2 - 3")
        assert node == BinaryOp("-", BinaryOp("-", Literal(1), Literal(2)),
                                Literal(3))

    def test_comparison_below_arithmetic(self):
        node = parse("1 + 2 < 3 * 4")
        assert isinstance(node, BinaryOp)
        assert node.op == "<"

    def test_logical_below_comparison(self):
        node = parse("1 < 2 && 3 > 4")
        assert node.op == "&&"

    def test_ternary_lowest(self):
        node = parse("a[i] > 0 ? 1 : 2")
        assert isinstance(node, Ternary)

    def test_nested_ternary_right_assoc(self):
        node = parse("a[i]>0 ? 1 : a[i]<0 ? -1 : 0")
        assert isinstance(node, Ternary)
        assert isinstance(node.orelse, Ternary)

    def test_unary_minus(self):
        node = parse("-a[i]")
        assert node == UnaryOp("-", FieldAccess("a", (0,), ("i",)))

    def test_unary_plus_is_noop(self):
        assert parse("+a[i]") == FieldAccess("a", (0,), ("i",))


class TestCalls:
    def test_unary_function(self):
        node = parse("sqrt(a[i])")
        assert node == Call("sqrt", (FieldAccess("a", (0,), ("i",)),))

    def test_binary_function(self):
        node = parse("max(a[i], 0)")
        assert isinstance(node, Call)
        assert node.func == "max"

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("frobnicate(a[i])")

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="expects 2"):
            parse("max(a[i])")


class TestDeclarationChecks:
    FIELDS = {"a": ("i", "j", "k"), "a2": ("i", "k"), "c": ()}

    def test_matching_dims_ok(self):
        parse("a[i,j,k] + a2[i,k] + c", self.FIELDS)

    def test_wrong_dims_rejected(self):
        with pytest.raises(ParseError, match="declared over dims"):
            parse("a2[i,j]", self.FIELDS)

    def test_bare_nonscalar_rejected(self):
        with pytest.raises(ParseError, match="must be\\s+be accessed|must "
                           "be accessed"):
            parse("a + 1", self.FIELDS)

    def test_list_valued_dims_still_compare_equal(self):
        listed = {name: list(dims) for name, dims in self.FIELDS.items()}
        parse("a[i,j,k] + a2[i,k] + c", listed)
        with pytest.raises(ParseError,
                           match=r"declared over dims \('i', 'k'\)"):
            parse("a2[i,j]", listed)
        with pytest.raises(ParseError, match=r"spans dims \('i', 'j', "):
            parse("a + 1", listed)

    def test_the_declarations_are_not_copied(self):
        # A program parses each stencil against the same mapping; a
        # copy per expression makes loading quadratic in the stencils.
        class Declarations(dict):
            def items(self):
                raise AssertionError("the parser copied the mapping")

            def __iter__(self):
                raise AssertionError("the parser copied the mapping")

        fields = Declarations(self.FIELDS)
        assert parse("a[i,j,k] + a2[i,k] + c", fields) == parse(
            "a[i,j,k] + a2[i,k] + c", self.FIELDS)
        with pytest.raises(ParseError, match="declared over dims"):
            parse("a2[i,j]", fields)

    def test_unknown_index_rejected(self):
        with pytest.raises(ParseError, match="not an iteration index"):
            parse("a[x, j, k]")

    def test_2d_iteration_space(self):
        node = parse("a[i, j-1]", index_names=("i", "j"))
        assert node == FieldAccess("a", (0, -1), ("i", "j"))

    def test_too_many_bare_subscripts(self):
        with pytest.raises(ParseError, match="too many subscripts"):
            parse("a[0, 0, 0]", index_names=("i", "j"))


class TestErrors:
    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(a[i] + 1")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("a[i] + 1 )")

    def test_missing_operand(self):
        with pytest.raises(ParseError):
            parse("a[i] +")

    def test_noninteger_offset(self):
        with pytest.raises(ParseError, match="integer"):
            parse("a[i+1.5]")

    def test_error_carries_position(self):
        try:
            parse("a[i] + @")
        except ParseError as exc:
            assert exc.position == 7
        else:
            pytest.fail("expected ParseError")


class TestDepthBound:
    """Nesting beyond MAX_DEPTH is a ParseError with a position, found
    while parsing — before the parser's own descent or any pass that
    recurses over the tree can overflow Python's stack."""

    @pytest.mark.parametrize("code", [
        "(" * 110 + "a[i]" + ")" * 110,     # the parser's own descent
        " + ".join(["a[i]"] * 500),          # a flat, left-deep chain
        "+" * 500 + "a[i]",                  # no-op unary operators
        "-" * 500 + "1",                     # folded negations
        "a[i] > 0 ? 1 : " * 100 + "a[i]",    # right-nested ternaries
        "sqrt(" * 100 + "a[i]" + ")" * 100,  # nested calls
    ])
    def test_too_deep_is_a_parse_error(self, code):
        with pytest.raises(ParseError, match="nests deeper") as caught:
            parse(code)
        assert caught.value.position >= 0

    def test_bound_is_exact_on_a_chain(self):
        from repro.expr.parser import MAX_DEPTH
        chain = " + ".join(["a[i]"] * MAX_DEPTH)
        assert str(parse(chain)).count("+") == MAX_DEPTH - 1
        with pytest.raises(ParseError):
            parse(chain + " + a[i]")

    def test_every_catalog_lowering_still_parses(self):
        from repro.core import StencilProgram
        from repro.lowering import LoweringConfig, lower
        from repro.programs import available_programs, build
        for name in available_programs():
            for fusion in (False, True):
                for canonicalize in (False, True):
                    program = lower(build(name), LoweringConfig(
                        fusion=fusion, canonicalize=canonicalize)).program
                    again = StencilProgram.from_json(program.to_json())
                    assert [s.ast for s in again.stencils] == \
                        [s.ast for s in program.stencils]


class TestRoundTrip:
    CASES = [
        "a[i, j, k]",
        "(a[i-1, j, k] + a[i+1, j, k])",
        "0.5",
        "sqrt((a[i, j, k] * a[i, j, k]))",
        "(a[i, j, k] > 0.0 ? a[i, j, k] : (-a[i, j, k]))",
        "max(a[i, j, k], b[i, j, k])",
        "((a[i, j, k] < 1.0) && (b[i, j, k] > 2.0))",
    ]

    @pytest.mark.parametrize("source", CASES)
    def test_parse_unparse_parse(self, source):
        first = parse(source)
        assert parse(unparse(first)) == first
