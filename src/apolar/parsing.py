"""Parsing and printing of sparse polynomials and operators.

Syntax: terms joined by ``+``/``-``, each term a ``*``-separated product of
an optional coefficient (integer or fraction ``p/q``) and variable powers.
Divided-power variables are ``x1..xn`` with exponents written ``^[k]``;
there ``^k`` is refused (PolySyntaxError): ``x1^2`` looks like the ordinary
power x1*x1 = 2*x1^[2], which x1^[2] is not.  Classical polynomials
and operators (``a1..an``) take ``^k`` and ``^[k]`` alike.  Examples::

    3*x1^[2]*x2 + x3
    a1^2*a2 - 1/2*a3

A term's value is the product it denotes.  In divided-power input a
variable that repeats multiplies as divided powers do, x^[a] * x^[b] =
binom(a+b, a) x^[a+b] with the binomial taken over Z and then reduced into
the field (``FieldSpec.binom``), as ``DPPoly.__mul__`` does: ``x1*x1`` is
``2*x1^[2]``, which is 0 over F_2.  A repeated variable whose term would
pass every window's column budget raises WindowTooLarge before the binomial
is computed.  Classical polynomials and operators keep the classical product
x^a * x^b = x^(a+b).
"""

from fractions import Fraction

from .dp import ClassicalPoly, DPPoly, Operator
from .errors import ArityMismatch, PolySyntaxError
from .linalg import _check_window_size


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def error(self, message):
        raise PolySyntaxError(message, self.pos)

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a number")
        return int(self.text[start:self.pos])


def _parse_terms(text, n, field, letter, divided=False):
    """Parse into an exponent-dict; shared by all element kinds, with the
    divided-power product of a repeated variable when ``divided``.  An
    arity n < 1 is refused (ArityMismatch, as the element constructors do)
    before the text is scanned, so the error does not depend on it."""
    if n < 1:
        raise ArityMismatch("need at least one variable, got %d" % n)
    sc = _Scanner(text)
    terms = {}
    sign = 1
    first = True
    while True:
        ch = sc.peek()
        if ch == "":
            if first:
                sc.error("empty input")
            break
        if not first:
            if sc.take("+"):
                sign = 1
            elif sc.take("-"):
                sign = -1
            else:
                sc.error("expected '+' or '-'")
        else:
            if sc.take("-"):
                sign = -1
            elif sc.take("+"):
                sign = 1
            first = False
        coeff = field.from_int(sign)
        exps = [0] * n
        saw_factor = False
        while True:
            ch = sc.peek()
            if ch.isdigit():
                num = sc.integer()
                if sc.take("/"):
                    den = sc.integer()
                    if den == 0:
                        sc.error("zero denominator")
                    c = field.from_fraction(Fraction(num, den))
                else:
                    c = field.from_int(num)
                coeff = field.mul(coeff, c)
                saw_factor = True
            elif ch == letter:
                sc.pos += 1
                idx = sc.integer()
                if not 1 <= idx <= n:
                    sc.error("variable index %d out of range 1..%d" % (idx, n))
                exp = 1
                if sc.take("^"):
                    if sc.take("["):
                        exp = sc.integer()
                        if not sc.take("]"):
                            sc.error("expected ']'")
                    elif divided:
                        sc.error("expected '[': write ^[k] for a divided power; "
                                 "^k is a classical power (--mode classical)")
                    else:
                        exp = sc.integer()
                if divided and exps[idx - 1]:
                    # binom(a+b, a) has about a+b bits: a term of a degree
                    # no window holds is refused before it is computed
                    _check_window_size(n, range(sum(exps) + exp + 1))
                    coeff = field.mul(coeff, field.binom(exps[idx - 1] + exp, exp))
                exps[idx - 1] += exp
                saw_factor = True
            else:
                sc.error("expected a coefficient or '%s<index>'" % letter)
            if not sc.take("*"):
                break
        if not saw_factor:
            sc.error("empty term")
        e = tuple(exps)
        terms[e] = field.add(terms.get(e, field.zero()), coeff)
    return terms


def parse_poly(text, n, field):
    """Parse a divided power polynomial in variables x1..xn."""
    return DPPoly(n, field, _parse_terms(text, n, field, "x", divided=True))


def parse_classical_poly(text, n, field):
    """Parse a classical polynomial (monomial basis) in x1..xn."""
    return ClassicalPoly(n, field, _parse_terms(text, n, field, "x"))


def parse_operator(text, n, field, trunc):
    """Parse an operator in variables a1..an, truncated at ``trunc``."""
    return Operator(n, field, _parse_terms(text, n, field, "a"), trunc)


def poly_str(f):
    """Canonical printed form; parse_poly round-trips it."""
    return f._term_str("x")


def operator_str(sigma):
    return sigma._term_str("a")
