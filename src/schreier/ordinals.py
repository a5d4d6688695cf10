"""Cantor normal form arithmetic for ordinals below epsilon_0.

Every ordinal here is a finite sum  w^e1 * c1 + ... + w^ek * ck  with
strictly decreasing ordinal exponents and positive integer coefficients.
The representation is unique, so structural equality is ordinal equality.
Representable ordinals are capped by an exponent-tower depth of
``DEFAULT_DEPTH_LIMIT`` (16).
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_DEPTH_LIMIT = 16


class OrdinalError(ValueError):
    """Base class for ordinal arithmetic and parsing errors."""


class OrdinalParseError(OrdinalError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class OrdinalDepthError(OrdinalError):
    """Raised when a result would exceed the representable tower depth."""


@dataclass(frozen=True)
class Ordinal:
    """An ordinal below epsilon_0 in Cantor normal form.

    ``terms`` is a tuple of (exponent, coefficient) pairs with strictly
    decreasing exponents and coefficients >= 1.  The empty tuple is 0.
    """

    terms: tuple[tuple["Ordinal", int], ...] = ()

    def __post_init__(self):
        prev = None
        for exp, coeff in self.terms:
            if not isinstance(exp, Ordinal) or not isinstance(coeff, int):
                raise OrdinalError("malformed term %r" % ((exp, coeff),))
            if coeff < 1:
                raise OrdinalError("coefficient %d < 1" % coeff)
            if prev is not None and compare(exp, prev) >= 0:
                raise OrdinalError("exponents not strictly decreasing")
            prev = exp

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    def natural(self) -> int | None:
        """The integer value if this ordinal is finite, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and self.terms[0][0].is_zero:
            return self.terms[0][1]
        return None

    # -- ordering ----------------------------------------------------------

    def __lt__(self, other: "Ordinal") -> bool:
        return compare(self, other) < 0

    def __le__(self, other: "Ordinal") -> bool:
        return compare(self, other) <= 0

    def __gt__(self, other: "Ordinal") -> bool:
        return compare(self, other) > 0

    def __ge__(self, other: "Ordinal") -> bool:
        return compare(self, other) >= 0

    def __str__(self) -> str:
        return fmt(self)

    def __repr__(self) -> str:
        return f"Ordinal({fmt(self)!r})"


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_int(k: int) -> Ordinal:
    if k < 0:
        raise OrdinalError("ordinals are nonnegative")
    if k == 0:
        return ZERO
    return Ordinal(((ZERO, k),))


def compare(a: Ordinal, b: Ordinal) -> int:
    """Total order on CNF: -1, 0, or 1."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def depth(a: Ordinal) -> int:
    """Exponent tower depth: 0 for 0, 1 for naturals, 2 for w, ..."""
    if a.is_zero:
        return 0
    return 1 + max(depth(e) for e, _ in a.terms)


def _check_depth(a: Ordinal) -> Ordinal:
    if depth(a) > DEFAULT_DEPTH_LIMIT:
        raise OrdinalDepthError(
            f"ordinal exceeds tower depth limit {DEFAULT_DEPTH_LIMIT}")
    return a


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum a + b (non-commutative; left terms may be absorbed)."""
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    lead = b.terms[0][0]
    kept = []
    merged = list(b.terms)
    for exp, coeff in a.terms:
        c = compare(exp, lead)
        if c > 0:
            kept.append((exp, coeff))
        elif c == 0:
            merged[0] = (lead, coeff + b.terms[0][1])
            break
        else:
            break
    return Ordinal(tuple(kept) + tuple(merged))


def mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal product a * b."""
    if a.is_zero or b.is_zero:
        return ZERO
    lead_exp, lead_coeff = a.terms[0]
    out = ZERO
    for exp, coeff in b.terms:
        if exp.is_zero:
            piece = Ordinal(((lead_exp, lead_coeff * coeff),) + a.terms[1:])
        else:
            piece = Ordinal(((add(lead_exp, exp), coeff),))
        out = add(out, piece)
    return out


def omega_pow(a: Ordinal) -> Ordinal:
    """w ** a; raises OrdinalDepthError beyond ``DEFAULT_DEPTH_LIMIT``."""
    if a.is_zero:
        return ONE
    return _check_depth(Ordinal(((a, 1),)))


def successor_part(a: Ordinal) -> Ordinal:
    """Predecessor of a successor ordinal."""
    if not a.is_successor:
        raise OrdinalError(f"{a} is not a successor")
    exp, coeff = a.terms[-1]
    if coeff == 1:
        return Ordinal(a.terms[:-1])
    return Ordinal(a.terms[:-1] + ((exp, coeff - 1),))


def fund_seq(lam: Ordinal, n: int) -> Ordinal:
    """The n-th member of the canonical fundamental sequence of a limit.

    (b + w^(a+1))[n] = b + w^a * n  and  (b + w^l)[n] = b + w^(l[n])
    for limit l; strictly increasing in n with supremum lam.
    """
    if n < 1:
        raise OrdinalError("fundamental sequence index must be >= 1")
    if not lam.is_limit:
        raise OrdinalError(f"{lam} is not a limit ordinal")
    exp, coeff = lam.terms[-1]
    head = lam.terms[:-1] if coeff == 1 else lam.terms[:-1] + ((exp, coeff - 1),)
    if exp.is_successor:
        tail: tuple[tuple[Ordinal, int], ...] = ((successor_part(exp), n),)
    else:
        tail = ((fund_seq(exp, n), 1),)
    return Ordinal(head + tail)


# -- string form -----------------------------------------------------------
#
# expr := term ("+" term)*
# term := "w^" atom ("*" nat)? | "w" ("*" nat)? | nat
# atom := "w^" atom | "w" | nat | "(" expr ")"
#
# Non-normal input (e.g. "3+w") is normalized by evaluating the sum.


def fmt(a: Ordinal) -> str:
    if a.is_zero:
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp.is_zero:
            parts.append(str(coeff))
            continue
        if exp == ONE:
            s = "w"
        else:
            inner = fmt(exp)
            needs_parens = ("+" in inner) or ("*" in inner)
            s = "w^(%s)" % inner if needs_parens else "w^%s" % inner
        if coeff != 1:
            s += "*%d" % coeff
        parts.append(s)
    return "+".join(parts)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise OrdinalParseError(msg, self.pos)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.peek() in (" ", "\t"):
            self.pos += 1

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected a number")
        return int(self.text[start:self.pos])

    def atom(self) -> Ordinal:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            val = self.expr()
            self.skip_ws()
            self.expect(")")
            return val
        if ch == "w":
            self.pos += 1
            if self.peek() == "^":
                self.pos += 1
                return omega_pow(self.atom())
            return OMEGA
        if ch.isdigit():
            return from_int(self.nat())
        self.error("expected 'w', a number, or '('")

    def term(self) -> Ordinal:
        self.skip_ws()
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            if self.peek() == "^":
                self.pos += 1
                base = omega_pow(self.atom())
            else:
                base = OMEGA
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                return mul(base, from_int(self.nat()))
            return base
        if ch.isdigit():
            return from_int(self.nat())
        self.error("expected a term")

    def expr(self) -> Ordinal:
        val = self.term()
        self.skip_ws()
        while self.peek() == "+":
            self.pos += 1
            val = add(val, self.term())
            self.skip_ws()
        return val


def parse(text: str) -> Ordinal:
    """Parse an ordinal expression; non-normal forms are normalized.

    Raises OrdinalDepthError when the result, or a power of w built on the
    way, is deeper than ``DEFAULT_DEPTH_LIMIT``.
    """
    p = _Parser(text)
    val = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return _check_depth(val)
