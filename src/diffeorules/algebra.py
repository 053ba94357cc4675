"""Exact arithmetic core: Gaussian rationals, interned symbols, sparse
multivariate polynomials and rational functions with monomial denominators.

Every amplitude in this package is a :class:`RationalFunction`.  The design
is deliberately narrow:

* Scalars are exact pairs (real and imaginary part), so the imaginary unit
  lives inside ordinary field arithmetic and ``i**2 == -1`` holds exactly.
  Each component is an ``int`` when integral and a ``fractions.Fraction``
  otherwise (see :class:`Scalar`).
* Polynomials are sparse maps ``Monomial -> Scalar`` over an interned symbol
  table with a global graded-lexicographic term order.
* Denominators are restricted to monomials in offshell-variable symbols
  (edge variables and the fixed offshell symbol ``xp``), since all division
  in the domain comes from propagators ``i/x``.  A rational function with a
  monomial denominator is therefore a Laurent polynomial: a
  :class:`Polynomial` whose monomials may carry negative exponents on
  offshell symbols.  That form is unique, so a :class:`RationalFunction`
  stores only it (``poly``), sums cancel as terms merge, and no reduction
  step or multivariate GCD exists.  The numerator and the least monomial
  denominator (``num``, ``den``) are computed when read, for printing and
  for the checks of :meth:`RationalFunction.substitute`.
"""

from __future__ import annotations

import enum
import threading
from fractions import Fraction
from typing import Iterable, Iterator, Mapping


class AlgebraError(Exception):
    """Base class for arithmetic domain errors."""


class DivisionByZeroError(AlgebraError):
    """Exact division by a zero scalar or rational function."""


class DenominatorAnnihilationError(AlgebraError):
    """A substitution sent a denominator factor to zero."""

    def __init__(self, symbol: "Symbol"):
        self.symbol = symbol
        super().__init__(f"substitution annihilates denominator factor {symbol.name}")


class Kind(enum.IntEnum):
    """Symbol kinds; the enum value is the major sort key of the term order."""

    GENERIC = 0
    DIFFEO = 1          # diffeomorphism coefficients a_j, j >= 1
    COUPLING = 2        # interaction couplings lambda_s, s >= 3
    MASS_SQ = 3         # the squared mass msq
    FIXED_OFFSHELL = 4  # the distinguished offshell value xp
    EDGE = 7            # offshell variable of a canonical leg subset


_OFFSHELL_KINDS = (Kind.EDGE, Kind.FIXED_OFFSHELL)


class Symbol:
    """Interned, totally ordered variable.

    ``key`` is a structural sort key, so the global symbol order is stable
    across runs, not merely within one process.  ``meta`` carries the payload
    needed to reinterpret the symbol (subset tuple for edge variables, the
    integer index for indexed families).
    """

    __slots__ = ("name", "kind", "key", "meta")

    def __init__(self, name: str, kind: Kind, key: tuple, meta):
        self.name = name
        self.kind = kind
        self.key = key
        self.meta = meta

    def __repr__(self) -> str:
        return f"Symbol({self.name})"

    # Symbols are interned, so object identity is equality; inheriting the
    # default __eq__/__hash__ keeps monomial arithmetic on the fast path.

    def __lt__(self, other: "Symbol") -> bool:
        return self.key < other.key


_interned: dict[tuple, Symbol] = {}
_intern_lock = threading.Lock()


def _intern(name: str, kind: Kind, subkey: tuple, meta) -> Symbol:
    key = (int(kind),) + subkey
    sym = _interned.get(key)
    if sym is None:
        with _intern_lock:
            sym = _interned.get(key)
            if sym is None:
                sym = Symbol(name, kind, key, meta)
                _interned[key] = sym
    return sym


def generic_symbol(name: str) -> Symbol:
    return _intern(name, Kind.GENERIC, (name,), name)


def diffeo_coeff(j: int) -> Symbol:
    if j < 1:
        raise AlgebraError("diffeomorphism coefficients are indexed from 1")
    return _intern(f"a{j}", Kind.DIFFEO, (j,), j)


def coupling(s: int) -> Symbol:
    if s < 3:
        raise AlgebraError("interaction powers start at 3")
    return _intern(f"lambda{s}", Kind.COUPLING, (s,), s)


def mass_sq() -> Symbol:
    return _intern("msq", Kind.MASS_SQ, (0,), None)


def fixed_offshell() -> Symbol:
    return _intern("xp", Kind.FIXED_OFFSHELL, (0,), None)


def edge_symbol(subset: Iterable[int], generalized: bool = False) -> Symbol:
    """Offshell variable of an already-canonicalized leg subset.

    Callers are expected to canonicalize the subset first (see
    ``rules.canonical_subset``); this factory only fixes naming and interning.
    """
    legs = tuple(sorted(subset))
    if not legs:
        raise AlgebraError("edge variable needs a nonempty leg subset")
    subkey = (1 if generalized else 0, len(legs), legs)
    sym = _interned.get((int(Kind.EDGE),) + subkey)
    if sym is not None:  # the name is built on first use only
        return sym
    stem = "X" if generalized else "x"
    name = f"{stem}{legs[0]}" if len(legs) == 1 else stem + "{" + "+".join(map(str, legs)) + "}"
    return _intern(name, Kind.EDGE, subkey, legs)


def _exact(x) -> int | Fraction:
    """Exact ``Fraction(x)``, returned as an ``int`` when it is integral."""
    q = x if isinstance(x, Fraction) else Fraction(x)
    return q.numerator if q.denominator == 1 else q


def _fmt_fraction(q: int | Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class Scalar:
    """Gaussian rational ``re + im*i``.

    Each component is an ``int`` when integral and a ``Fraction`` with
    denominator > 1 otherwise.  Nearly every coefficient a tree sum
    multiplies (factorials, vertex weights, the ``±1`` and ``±i`` of
    vertices and propagators) is an integer, and ``int`` arithmetic skips
    the ``Fraction`` constructor and its ``gcd``.  ``int`` and ``Fraction``
    compare and hash alike, so equality, hashing and printing do not depend
    on the representation.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _exact(re)
        self.im = im if type(im) is int else _exact(im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return Scalar(a * c)
        return Scalar(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        c, d = other.re, other.im
        norm = c * c + d * d
        if not norm:
            raise DivisionByZeroError("scalar division by zero")
        a, b = self.re, self.im
        # int / int would give a float: build the quotients as Fractions.
        return Scalar(Fraction(a * c + b * d, norm), Fraction(b * c - a * d, norm))

    def inverse(self) -> "Scalar":
        return SC_ONE / self

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        if not self.im:
            return _fmt_fraction(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{_fmt_fraction(self.im)}*i"
        im_part = "i" if self.im == 1 else ("-i" if self.im == -1 else f"{_fmt_fraction(self.im)}*i")
        joiner = "" if im_part.startswith("-") else "+"
        return f"({_fmt_fraction(self.re)}{joiner}{im_part})"


SC_ZERO = Scalar(0)
SC_ONE = Scalar(1)
SC_I = Scalar(0, 1)
SC_MINUS_I = Scalar(0, -1)


class Monomial:
    """Product of symbol powers; ``pairs`` is sorted by the symbol order and
    holds no zero exponent.  Exponents are positive except on the offshell
    symbols of a Laurent polynomial (see :class:`RationalFunction`)."""

    __slots__ = ("pairs", "_hash")

    def __init__(self, pairs: tuple[tuple[Symbol, int], ...]):
        self.pairs = pairs
        self._hash = hash(pairs)

    @staticmethod
    def of(symbol: Symbol, exponent: int = 1) -> "Monomial":
        if exponent < 0:
            raise AlgebraError("monomial exponents must be nonnegative")
        if exponent == 0:
            return MONO_ONE
        return Monomial(((symbol, exponent),))

    @staticmethod
    def from_pairs(items: Iterable[tuple[Symbol, int]]) -> "Monomial":
        filtered = [(s, e) for s, e in items if e]
        filtered.sort(key=lambda p: p[0].key)
        return Monomial(tuple(filtered))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.pairs == other.pairs

    def __lt__(self, other: "Monomial") -> bool:
        # Graded lexicographic: higher total degree wins; at equal degree the
        # monomial with the higher exponent on the earliest differing symbol
        # is the larger one.
        sp, op = self.pairs, other.pairs
        degree, other_degree = sum(e for _, e in sp), sum(e for _, e in op)
        if degree != other_degree:
            return degree < other_degree
        i = j = 0
        while i < len(sp) and j < len(op):
            s1, e1 = sp[i]
            s2, e2 = op[j]
            if s1.key == s2.key:
                if e1 != e2:
                    return e1 < e2
                i += 1
                j += 1
            elif s1.key < s2.key:
                return False
            else:
                return True
        if i < len(sp):
            return False
        return j < len(op)

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.pairs, other.pairs
        if not a:
            return other
        if not b:
            return self
        out: list[tuple[Symbol, int]] = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            sa, ea = a[i]
            sb, eb = b[j]
            if sa is sb:
                if e := ea + eb:  # a Laurent factor can cancel a symbol
                    out.append((sa, e))
                i += 1
                j += 1
            elif sa.key < sb.key:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return Monomial(tuple(out))

    def exponent(self, symbol: Symbol) -> int:
        for s, e in self.pairs:
            if s is symbol:
                return e
        return 0

    def symbols(self) -> Iterator[Symbol]:
        return (s for s, _ in self.pairs)

    def is_one(self) -> bool:
        return not self.pairs

    def __str__(self) -> str:
        if not self.pairs:
            return "1"
        return "*".join(s.name if e == 1 else f"{s.name}^{e}" for s, e in self.pairs)

    def __repr__(self) -> str:
        return f"Monomial({self})"


MONO_ONE = Monomial(())


def merge_terms(terms: dict, items: Iterable[tuple[Monomial, Scalar]]) -> dict:
    """Add each ``(monomial, coefficient)`` of ``items`` into the term map
    ``terms`` in place, dropping the terms that cancel; returns ``terms``."""
    for m, c in items:
        acc = terms.get(m)
        if acc is None:
            terms[m] = c
        elif (new := acc + c).is_zero():
            del terms[m]
        else:
            terms[m] = new
    return terms


class Polynomial:
    """Sparse polynomial; canonical form stores no zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None, *, _trusted=False):
        if terms is None:
            self.terms = {}
        elif _trusted:
            self.terms = dict(terms)
        else:
            self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(value) -> "Polynomial":
        c = value if isinstance(value, Scalar) else Scalar(value)
        return Polynomial() if c.is_zero() else Polynomial({MONO_ONE: c}, _trusted=True)

    @staticmethod
    def symbol(sym: Symbol) -> "Polynomial":
        return Polynomial({Monomial.of(sym): SC_ONE}, _trusted=True)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and MONO_ONE in self.terms)

    def constant_value(self) -> Scalar:
        if not self.terms:
            return SC_ZERO
        if not self.is_constant():
            raise AlgebraError("polynomial is not constant")
        return self.terms[MONO_ONE]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not self.terms:
            return other
        if not other.terms:
            return self
        return Polynomial(merge_terms(dict(self.terms), other.terms.items()), _trusted=True)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()}, _trusted=True)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.terms or not other.terms:
            return Polynomial()
        if len(self.terms) > len(other.terms):
            self, other = other, self
        if len(self.terms) == 1:
            ((m1, c1),) = self.terms.items()
            if m1.pairs:
                return Polynomial(
                    {m1 * m2: c1 * c2 for m2, c2 in other.terms.items()}, _trusted=True
                )
            return other.scaled(c1)
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            merge_terms(out, ((m1 * m2, c1 * c2) for m2, c2 in other.terms.items()))
        return Polynomial(out, _trusted=True)

    def scaled(self, c: Scalar) -> "Polynomial":
        if c.is_zero():
            return Polynomial()
        return Polynomial({m: k * c for m, k in self.terms.items()}, _trusted=True)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise AlgebraError("polynomial power must be nonnegative")
        out = Polynomial.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def coefficient_of(self, sym: Symbol, k: int) -> "Polynomial":
        """Exact coefficient polynomial of ``sym**k``."""
        if k < 0:
            raise AlgebraError("coefficient index must be nonnegative")
        out: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            if m.exponent(sym) == k:
                reduced = Monomial.from_pairs((s, e) for s, e in m.pairs if s != sym)
                out[reduced] = out.get(reduced, SC_ZERO) + c
        return Polynomial(out)

    def symbols(self) -> set[Symbol]:
        seen: set[Symbol] = set()
        for m in self.terms:
            seen.update(m.symbols())
        return seen

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.sorted_terms():
            if mono.is_one():
                text = str(coeff)
            elif coeff == SC_ONE:
                text = str(mono)
            elif coeff == Scalar(-1):
                text = f"-{mono}"
            elif coeff == SC_I:
                text = f"i*{mono}"
            elif coeff == SC_MINUS_I:
                text = f"-i*{mono}"
            else:
                text = f"{coeff}*{mono}"
            if parts and not text.startswith("-"):
                parts.append("+" + text)
            else:
                parts.append(text)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


class RationalFunction:
    """Exact value ``num / den``, stored as one Laurent polynomial ``poly``
    whose negative exponents sit on offshell symbols only.  ``den`` must be
    a monomial in offshell symbols; ``num``/``den`` read back the numerator
    over the least such denominator."""

    __slots__ = ("poly",)

    def __init__(self, num: Polynomial, den: Monomial = MONO_ONE):
        if den.pairs:
            for s in den.symbols():
                if s.kind not in _OFFSHELL_KINDS:
                    raise AlgebraError(f"denominator factor {s.name} is not an offshell variable")
            inv = Monomial(tuple((s, -e) for s, e in den.pairs))
            num = Polynomial({m * inv: c for m, c in num.terms.items()}, _trusted=True)
        self.poly = num

    @property
    def den(self) -> Monomial:
        """The least monomial denominator: each symbol at its most negative
        exponent in the Laurent polynomial."""
        least: dict[Symbol, int] = {}
        for mono in self.poly.terms:
            for s, e in mono.pairs:
                if e < least.get(s, 0):
                    least[s] = e
        return Monomial.from_pairs((s, -e) for s, e in least.items()) if least else MONO_ONE

    @property
    def num(self) -> Polynomial:
        """The numerator over :attr:`den`."""
        den = self.den
        return Polynomial({m * den: c for m, c in self.poly.terms.items()}, _trusted=True)

    def is_zero(self) -> bool:
        return not self.poly.terms

    def is_constant(self) -> bool:
        return self.poly.is_constant()

    def constant_value(self) -> Scalar:
        if not self.den.is_one():
            raise AlgebraError("rational function has a nontrivial denominator")
        return self.poly.constant_value()

    def as_polynomial(self) -> Polynomial:
        den = self.den
        if not den.is_one():
            raise AlgebraError(f"not a polynomial: denominator {den}")
        return self.poly

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.poly + other.poly)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.poly)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.poly * other.poly)

    def scaled(self, c: Scalar) -> "RationalFunction":
        return RationalFunction(self.poly.scaled(c))

    def over(self, mono: Monomial) -> "RationalFunction":
        """Divide by a monomial in offshell symbols."""
        return RationalFunction(self.poly, mono)

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            raise AlgebraError("rational function power must be nonnegative")
        out = RF_ONE
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.poly == other.poly

    def inverse(self) -> "RationalFunction":
        """Invert a single-term value whose monomial is offshell-only."""
        if self.is_zero():
            raise DivisionByZeroError("cannot invert zero")
        if len(self.poly.terms) != 1:
            raise AlgebraError("cannot invert a multi-term rational function exactly")
        ((mono, coeff),) = self.poly.terms.items()
        return RationalFunction(Polynomial({MONO_ONE: coeff.inverse()}, _trusted=True), mono)

    def substitute(self, bindings: Mapping[Symbol, "RationalFunction"]) -> "RationalFunction":
        """Exact simultaneous substitution.

        Bindings that hit a denominator symbol must be invertible single-term
        values; a zero binding for a denominator symbol raises
        :class:`DenominatorAnnihilationError` naming the offending variable.
        """
        if not bindings:
            return self
        inverses: dict[Symbol, RationalFunction] = {}
        for sym, _ in self.den.pairs:
            bound = bindings.get(sym)
            if bound is None:
                continue
            if bound.is_zero():
                raise DenominatorAnnihilationError(sym)
            try:
                inverses[sym] = bound.inverse()
            except AlgebraError as exc:
                raise AlgebraError(
                    f"binding for denominator factor {sym.name} is not invertible: {exc}"
                ) from exc
        powers: dict[tuple[Symbol, int], Polynomial] = {}
        out: dict[Monomial, Scalar] = {}
        for mono, coeff in self.poly.terms.items():
            rest = Monomial(tuple(p for p in mono.pairs if p[0] not in bindings))
            term = Polynomial({rest: coeff}, _trusted=True)
            for sym, e in mono.pairs:
                if sym in bindings:
                    power = powers.get((sym, e))
                    if power is None:
                        base = bindings[sym] if e > 0 else inverses[sym]
                        power = powers[sym, e] = base.poly ** abs(e)
                    term = term * power
            merge_terms(out, term.terms.items())
        return RationalFunction(Polynomial(out, _trusted=True))

    def symbols(self) -> set[Symbol]:
        return self.poly.symbols()

    def __str__(self) -> str:
        den = self.den
        if den.is_one():
            return str(self.poly)
        num = self.num
        num_str = str(num)
        if len(num.terms) > 1:
            num_str = f"({num_str})"
        den_str = str(den)
        if len(den.pairs) > 1:
            den_str = f"({den_str})"
        return f"{num_str}/{den_str}"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


RF_ZERO = RationalFunction(Polynomial.zero())
RF_ONE = RationalFunction(Polynomial.constant(1))
RF_I = RationalFunction(Polynomial.constant(SC_I))
RF_MINUS_I = RationalFunction(Polynomial.constant(SC_MINUS_I))


def rf(value) -> RationalFunction:
    """Coerce ints, Fractions, Scalars, Symbols and Polynomials."""
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction(value)
    if isinstance(value, Symbol):
        return RationalFunction(Polynomial.symbol(value))
    if isinstance(value, Scalar):
        return RationalFunction(Polynomial.constant(value))
    return RationalFunction(Polynomial.constant(Fraction(value)))


def parse_rational(text: str) -> Fraction:
    """Parse the exact literal form ``p`` or ``p/q`` (no floats)."""
    text = text.strip()
    if "/" in text:
        p, q = text.split("/", 1)
        return Fraction(int(p), int(q))
    return Fraction(int(text))
