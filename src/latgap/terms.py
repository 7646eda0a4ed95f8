"""Expression language for lattice terms and DNF pretty-printing.

Grammar (``&`` binds tighter than ``|``; both left-associative)::

    expr   := term ('|' term)*
    term   := factor ('&' factor)*
    factor := var | const | '(' expr ')'

Variables are ``x1`` .. ``xn`` for the declared arity; any other word is
looked up as an element name of the declared lattice. The Unicode
operators are accepted as aliases for ``&`` and ``|``. A parsed tree
may be at most MAX_TERM_DEPTH levels deep, where every parenthesis
pair and every operator counts one level (so a flat chain of n
operands is n - 1 levels deep).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .lattice import Elem, Lattice, LatticeError

if TYPE_CHECKING:
    from .polyfn import PolyFn


class ParseError(ValueError):
    """Syntax or name error in an expression; carries the text position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True, slots=True)
class Var:
    position: int

    def eval_indices(self, point, meet_t, join_t) -> int:
        return point[self.position - 1]


@dataclass(frozen=True, slots=True)
class Const:
    value: Elem

    def eval_indices(self, point, meet_t, join_t) -> int:
        return self.value.index


@dataclass(frozen=True, slots=True)
class Meet:
    left: "Node"
    right: "Node"

    def eval_indices(self, point, meet_t, join_t) -> int:
        return meet_t[self.left.eval_indices(point, meet_t, join_t)][
            self.right.eval_indices(point, meet_t, join_t)]


@dataclass(frozen=True, slots=True)
class Join:
    left: "Node"
    right: "Node"

    def eval_indices(self, point, meet_t, join_t) -> int:
        return join_t[self.left.eval_indices(point, meet_t, join_t)][
            self.right.eval_indices(point, meet_t, join_t)]


Node = Var | Const | Meet | Join


@dataclass(frozen=True)
class Term:
    """A parsed expression tied to a declared arity and lattice."""

    root: Node
    arity: int
    lattice: Lattice

    def eval_indices(self, point: Sequence[int]) -> int:
        """Evaluate at a point given as element indices (no validation)."""
        return self.root.eval_indices(point, self.lattice._meet, self.lattice._join)


MAX_TERM_DEPTH = 200

_WORD = re.compile(r"[A-Za-z0-9_]+")
_VAR = re.compile(r"x([0-9]+)\Z")
_ALIASES = {"∧": "&", "∨": "|"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = _ALIASES.get(text[i], text[i])
        if ch.isspace():
            i += 1
            continue
        if ch in "&|()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        m = _WORD.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        tokens.append(("word", m.group(), i))
        i = m.end()
    return tokens


class _Parser:
    """Recursive descent that also measures the tree it builds.

    Each method returns a node with its depth: 0 for a variable or a
    constant, one more than the deeper operand for a meet or a join, and
    one more than the inside for a parenthesised expression. Past
    MAX_TERM_DEPTH the parse stops with a ParseError, so neither the
    parser nor a later evaluation recurses without bound. An opening
    parenthesis is checked before the parser descends into it.
    """

    def __init__(self, tokens, arity: int, lattice: Lattice, length: int):
        self.tokens = tokens
        self.pos = 0
        self.arity = arity
        self.lattice = lattice
        self.length = length
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    @staticmethod
    def deeper(depth: int, at: int) -> int:
        if depth > MAX_TERM_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_TERM_DEPTH} levels", at)
        return depth

    def expr(self) -> tuple[Node, int]:
        node, depth = self.term()
        while (tok := self.peek()) and tok[0] == "|":
            self.pos += 1
            right, right_depth = self.term()
            node = Join(node, right)
            depth = self.deeper(max(depth, right_depth) + 1, tok[2])
        return node, depth

    def term(self) -> tuple[Node, int]:
        node, depth = self.factor()
        while (tok := self.peek()) and tok[0] == "&":
            self.pos += 1
            right, right_depth = self.factor()
            node = Meet(node, right)
            depth = self.deeper(max(depth, right_depth) + 1, tok[2])
        return node, depth

    def factor(self) -> tuple[Node, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.length)
        kind, text, at = tok
        if kind == "(":
            self.nesting = self.deeper(self.nesting + 1, at)
            self.pos += 1
            node, depth = self.expr()
            closing = self.peek()
            if closing is None or closing[0] != ")":
                raise ParseError("missing ')'", closing[2] if closing else self.length)
            self.pos += 1
            self.nesting -= 1
            return node, self.deeper(depth + 1, at)
        if kind == "word":
            self.pos += 1
            m = _VAR.match(text)
            if m:
                idx = int(m.group(1))
                if idx < 1:
                    raise ParseError("variable index must be at least 1", at)
                if idx > self.arity:
                    raise ParseError(f"variable x{idx} exceeds arity {self.arity}", at)
                return Var(idx), 0
            try:
                return Const(self.lattice.element(text)), 0
            except LatticeError:
                raise ParseError(f"unknown constant {text!r}", at) from None
        raise ParseError(f"unexpected {text!r}", at)


def parse_expr(text: str, arity: int, lattice: Lattice) -> Term:
    """Parse `text` into a Term of the given arity over `lattice`."""
    if not isinstance(arity, int) or arity < 1:
        raise ParseError("arity must be at least 1", 0)
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    parser = _Parser(tokens, arity, lattice, len(text))
    node, _ = parser.expr()
    if (extra := parser.peek()) is not None:
        raise ParseError(f"unexpected {extra[1]!r}", extra[2])
    return Term(node, arity, lattice)


def format_dnf(f: "PolyFn") -> str:
    """Render a PolyFn as a minimal join-of-meets expression.

    Terms appear in increasing subset-mask order. A term is omitted when
    its coefficient is the bottom element, or when some immediate
    sub-subset already carries the same coefficient (absorption; by
    monotonicity, checking immediate sub-subsets is enough). A top
    coefficient on a nonempty subset is left implicit. Parsing the output
    back and canonicalizing reproduces `f` exactly.
    """
    lat = f.lattice
    names = lat.names
    bottom = lat.bottom_index
    top = lat.top_index
    table = f.table
    parts: list[str] = []
    for mask in range(len(table)):
        a = table[mask]
        if mask == 0:
            if a != bottom:
                parts.append(names[a])
            continue
        if a == bottom:
            continue
        mm = mask
        absorbed = False
        while mm:
            bit = mm & -mm
            mm ^= bit
            if table[mask ^ bit] == a:
                absorbed = True
                break
        if absorbed:
            continue
        factors = [] if a == top else [names[a]]
        mm = mask
        while mm:
            bit = mm & -mm
            mm ^= bit
            factors.append(f"x{bit.bit_length()}")
        body = " & ".join(factors)
        parts.append(f"({body})" if len(factors) > 1 else body)
    if not parts:
        return names[table[0]]
    return " | ".join(parts)
