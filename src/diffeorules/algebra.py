"""Exact arithmetic core: Gaussian rationals, interned symbols, sparse
multivariate polynomials and rational functions with monomial denominators.

Every amplitude in this package is a :class:`RationalFunction`.  The design
is deliberately narrow:

* Scalars are exact pairs (real and imaginary part), so the imaginary unit
  lives inside ordinary field arithmetic and ``i**2 == -1`` holds exactly.
  Each component is an ``int`` when integral and a ``fractions.Fraction``
  otherwise (see :class:`Scalar`).
* Polynomials are sparse maps ``Monomial -> Scalar`` over an interned symbol
  table with a global graded-lexicographic term order.  A monomial is one
  packed ``int`` with a signed 8-bit field per symbol it has used, so a
  product is an integer addition plus one mask test, and hashing and
  equality are the ``int``'s own.  Each exponent lies in -64..63; an
  operation that would leave that range raises :class:`AlgebraError`.
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
* How a value stores its terms is this module's business.  Products go
  through one multiply-accumulate kernel (:func:`mul_into`), which only
  this module calls; other modules multiply and add values, and add up a
  sum of products through :func:`sum_of_products`, which multiplies each
  pair into one term map.  The tree-sum engine alone reads term maps
  outside this module, through :func:`split_phases` and
  :func:`join_phases`.
"""

from __future__ import annotations

import enum
import re
import threading
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence


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

    __slots__ = ("name", "kind", "key", "meta", "unit")

    def __init__(self, name: str, kind: Kind, key: tuple, meta):
        self.name = name
        self.kind = kind
        self.key = key
        self.meta = meta
        self.unit = None  # the monomial of this symbol once it has a field

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
    """``x``, an ``int`` or ``Fraction``, returned as an ``int`` when it is
    integral; any other value (a float has no exact value) is refused."""
    if not isinstance(x, (int, Fraction)):
        raise AlgebraError(f"exact values are int or Fraction, got {x!r}")
    return x.numerator if x.denominator == 1 else x


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


# Packed exponents (Monagan & Pearce, CASC 2007): a monomial is one int in
# which every symbol that a monomial has used owns a fixed-width field,
# assigned on first use.  A field holds its exponent as a signed digit, so a
# missing symbol is a zero field, ``MONO_ONE`` is 0 and a product is one
# integer addition.  With ``W = _WIDTH``, adding ``_BIAS`` lifts every digit
# into [0, 2^(W-1)); ``_TOP`` holds bit W-1 of every field, which an exponent
# out of range sets in the lowest field it leaves (a borrow or carry into the
# next field starts only from there), so one ``&`` tells whether a sum is a
# monomial.
# The masks only grow, under ``_intern_lock``; code that reads ``_BIAS``
# twice takes one snapshot, since a field added meanwhile is zero in every
# monomial it already holds.
_WIDTH = 8
_FIELD = (1 << _WIDTH) - 1
_HALF = 1 << (_WIDTH - 2)
EXPONENT_MIN, EXPONENT_MAX = -_HALF, _HALF - 1
_OUT_OF_RANGE = f"monomial exponent out of range [{EXPONENT_MIN}, {EXPONENT_MAX}]"
_fields: list[Symbol] = []  # field i sits at bit offset i * _WIDTH
_BIAS = 0
_TOP = 0
_PLAIN = 0  # the fields of symbols that may not divide (not offshell)
_new = int.__new__
_alloc = object.__new__


def _unit(symbol: Symbol) -> "Monomial":
    """The monomial ``symbol**1``, giving ``symbol`` its field on first use."""
    unit = symbol.unit
    if unit is None:
        global _BIAS, _TOP, _PLAIN
        with _intern_lock:
            if symbol.unit is None:
                shift = len(_fields) * _WIDTH
                _fields.append(symbol)
                _TOP |= 1 << (shift + _WIDTH - 1)
                _BIAS |= _HALF << shift
                if symbol.kind not in _OFFSHELL_KINDS:
                    _PLAIN |= _FIELD << shift
                symbol.unit = _new(Monomial, 1 << shift)
            unit = symbol.unit
    return unit


def _checked(c: int) -> "Monomial":
    if (c + _BIAS) & _TOP:
        raise AlgebraError(_OUT_OF_RANGE)
    return _new(Monomial, c)


def _offsets(x: int) -> Iterator[int]:
    """Bit offsets of the nonzero fields of ``x``, lowest first."""
    while x:
        shift = (x & -x).bit_length() - 1
        shift -= shift % _WIDTH
        yield shift
        x &= ~(_FIELD << shift)


# A sort element after every symbol key (kind keys are < 8).
_KEY_END = (8,)


def _order_key(pairs: Sequence[tuple[Symbol, int]]) -> tuple:
    """Sort key of the monomial with these sorted ``(symbol, exponent)``
    pairs.  Graded lexicographic: higher total degree wins; at equal degree
    the monomial with the higher exponent on the earliest differing symbol
    is the larger one.  The key runs the other way (a larger monomial has
    the smaller key), so it sorts terms leading term first."""
    flat = []  # symbol key, -exponent, ...: one tuple, not one per pair
    for s, e in pairs:
        flat += (s.key, -e)
    flat.append(_KEY_END)
    return (-sum(e for _, e in pairs), tuple(flat))


def _format_terms(terms: list[tuple[Sequence[tuple[Symbol, int]], "Scalar"]]) -> str:
    """Text of a sum of ``(sorted pairs, coefficient)`` terms, leading term
    first.  The exponents are plain ints, so a numerator over a denominator
    prints even where they leave the field range."""
    if not terms:
        return "0"
    parts: list[str] = []
    for pairs, coeff in sorted(terms, key=lambda t: _order_key(t[0])):
        mono = "*".join(s.name if e == 1 else f"{s.name}^{e}" for s, e in pairs)
        if not pairs:
            text = str(coeff)
        elif coeff == SC_ONE:
            text = mono
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


class Monomial(int):
    """Product of symbol powers, packed into one ``int`` (see ``_WIDTH``).

    ``Monomial(pairs)`` takes ``(Symbol, exponent)`` pairs in any order;
    ``pairs`` reads them back sorted by the symbol order, without zero
    exponents.  Exponents are positive except on the offshell symbols of a
    Laurent polynomial (see :class:`RationalFunction`).  Every exponent lies
    in ``[EXPONENT_MIN, EXPONENT_MAX]`` (-64 to 63), except in the
    denominator that :attr:`RationalFunction.den` reads back; a product or
    constructor that would leave that range raises :class:`AlgebraError`
    and never wraps.  Hashing and equality are those of the ``int``; the
    comparison operators give the graded-lexicographic term order."""

    __slots__ = ()

    def __new__(cls, pairs: Iterable[tuple[Symbol, int]] = ()) -> "Monomial":
        c = 0
        for s, e in pairs:
            if e:
                if not EXPONENT_MIN <= e <= EXPONENT_MAX:
                    raise AlgebraError(
                        f"monomial exponent {e} of {s.name} is out of range "
                        f"[{EXPONENT_MIN}, {EXPONENT_MAX}]"
                    )
                c += e * _unit(s)
        return _checked(c)

    @staticmethod
    def of(symbol: Symbol, exponent: int = 1) -> "Monomial":
        if exponent == 1:
            return symbol.unit or _unit(symbol)
        if exponent < 0:
            raise AlgebraError("monomial exponents must be nonnegative")
        return Monomial(((symbol, exponent),))

    @property
    def pairs(self) -> tuple[tuple[Symbol, int], ...]:
        bias = _BIAS
        y = self + bias
        out = [
            (_fields[shift // _WIDTH], (y >> shift & _FIELD) - _HALF)
            for shift in _offsets(y ^ bias)
        ]
        out.sort(key=lambda p: p[0].key)
        return tuple(out)

    def _order_key(self) -> tuple:
        return _order_key(self.pairs)

    def __lt__(self, other: "Monomial") -> bool:
        return self._order_key() > other._order_key()

    def __le__(self, other: "Monomial") -> bool:
        return self._order_key() >= other._order_key()

    def __gt__(self, other: "Monomial") -> bool:
        return self._order_key() < other._order_key()

    def __ge__(self, other: "Monomial") -> bool:
        return self._order_key() <= other._order_key()

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not other:
            return self
        if not self:
            return other
        c = self + other
        if (c + _BIAS) & _TOP:
            raise AlgebraError(_OUT_OF_RANGE)
        return _new(Monomial, c)

    def exponent(self, symbol: Symbol) -> int:
        if symbol.unit is None:
            return 0
        shift = symbol.unit.bit_length() - 1
        return ((self + _BIAS) >> shift & _FIELD) - _HALF

    def symbols(self) -> Iterator[Symbol]:
        return (s for s, _ in self.pairs)

    def is_one(self) -> bool:
        return not self

    def __str__(self) -> str:
        return _format_terms([(self.pairs, SC_ONE)])

    def __repr__(self) -> str:
        return f"Monomial({self})"


MONO_ONE = Monomial()


def merge_terms(terms: dict, items: Iterable[tuple[Monomial, Scalar]]) -> dict:
    """Add each ``(monomial, coefficient)`` of ``items`` into the term map
    ``terms`` in place, dropping the terms that cancel; returns ``terms``."""
    for m, c in items:
        acc = terms.get(m)
        if acc is None:
            terms[m] = c
            continue
        re, im = acc.re + c.re, acc.im + c.im
        if re or im:
            terms[m] = Scalar(re, im)
        else:
            del terms[m]
    return terms


def mul_into(out: dict, x: Mapping[Monomial, Scalar], y: Mapping[Monomial, Scalar]) -> dict:
    """Add the product of the term maps ``x`` and ``y`` into the term map
    ``out`` in place, dropping the terms that cancel; returns ``out``.

    This is the multiply-accumulate kernel of every product of two
    polynomials, and only this module calls it: other modules multiply
    values, or add products of values through :func:`sum_of_products`; the
    tree-sum engine multiplies its split term maps through
    :func:`plain_mul_into` instead.  Each term pair lands in ``out`` as it is
    formed (Monagan & Pearce, CASC 2007), with no product dict and no
    second merging pass: the packed monomials add as ints under the mask
    test of :meth:`Monomial.__mul__`, and the Gaussian components multiply
    and add inline.  ``out`` keeps the invariants of a term map: every key
    is a :class:`Monomial`, and every component an ``int`` when it is
    integral and a ``Fraction`` otherwise.  ``out`` must not be ``x`` or
    ``y``, and must not be a map that a kept value still holds.
    """
    if len(x) > len(y):
        x, y = y, x
    bias, top = _BIAS, _TOP
    get, scalar, exact = out.get, _alloc, _exact
    for m1, c1 in x.items():
        a, b = c1.re, c1.im
        for m2, c2 in y.items():
            m = m1 + m2
            if (m + bias) & top:
                raise AlgebraError(_OUT_OF_RANGE)
            c, d = c2.re, c2.im
            if b:
                re, im = a * c - b * d, a * d + b * c
            else:
                re, im = a * c, a * d
            acc = get(m)
            if acc is None:  # a stored key keeps its Monomial; a new one needs it
                m = _new(Monomial, m)
            else:
                re += acc.re
                im += acc.im
                if not (re or im):
                    del out[m]
                    continue
            # Scalar.__init__ without its call frame.
            out[m] = s = scalar(Scalar)
            s.re = re if type(re) is int else exact(re)
            s.im = im if type(im) is int else exact(im)
    return out


def split_phases(terms: Mapping[Monomial, Scalar]) -> tuple[dict, dict]:
    """The real and imaginary parts of a term map, as two plain term maps
    (see :func:`plain_mul_into`); a component that is zero is left out."""
    re: dict = {}
    im: dict = {}
    for m, c in terms.items():
        if c.re:
            re[int(m)] = c.re
        if c.im:
            im[int(m)] = c.im
    return re, im


def join_phases(re: dict, im: dict, *, drain: bool = False) -> Polynomial:
    """The polynomial ``re + i im`` of two plain term maps, whose term map
    is built once and not copied.  With ``drain``, ``re`` and ``im`` are
    emptied as their terms are read, so each plain term is freed as its
    :class:`Monomial` and :class:`Scalar` are built."""
    terms: dict = {}
    take = im.pop if drain else im.get
    for m, c in _drained(re) if drain else re.items():
        terms[_new(Monomial, m)] = Scalar(c, take(m, 0))
    for m, c in _drained(im) if drain else im.items():
        if m not in re:  # always so once ``re`` is drained
            terms[_new(Monomial, m)] = Scalar(0, c)
    return _adopt(terms)


def _adopt(terms: dict) -> Polynomial:
    """The polynomial whose term map is ``terms``, not copied: for a map
    that its caller has just built, with no zero coefficient and no other
    holder.  ``Polynomial(terms)`` copies and drops zeros."""
    poly = _alloc(Polynomial)
    poly.terms = terms
    return poly


def _drained(terms: dict) -> Iterator[tuple]:
    while terms:
        yield terms.popitem()


def plain_mul_into(out: dict, x: Mapping[int, int | Fraction], y: Mapping[int, int | Fraction], sign: int = 1) -> dict:
    """Add ``sign`` times the product of the plain term maps ``x`` and
    ``y`` into the plain term map ``out`` in place, dropping the terms that
    cancel; returns ``out``.

    A plain term map holds one phase of a term map (:func:`split_phases`):
    each key is a packed monomial as a plain ``int``, each value a nonzero
    ``int`` or ``Fraction``.  The tree-sum engine multiplies through this
    kernel.  Per term pair it adds the keys under the mask test of
    :meth:`Monomial.__mul__` (same :class:`AlgebraError`), then makes one
    ``get``, one multiply-add and one store, and builds no :class:`Scalar`
    or :class:`Monomial`.  A value may be a ``Fraction`` of denominator 1;
    :func:`join_phases` gives it back as an ``int``.  ``out`` must not be
    ``x`` or ``y``, and must not be a map that a kept value still holds.
    """
    if len(x) > len(y):
        x, y = y, x
    bias, top = _BIAS, _TOP
    get = out.get
    for m1, c1 in x.items():
        c1 *= sign
        for m2, c2 in y.items():
            m = m1 + m2
            if (m + bias) & top:
                raise AlgebraError(_OUT_OF_RANGE)
            c = get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def power(x, n: int, one):
    """``x**n`` for ``n >= 0`` by square-and-multiply (Knuth, *TAOCP*
    Vol. 2, §4.6.3): about ``2 log2 n`` products instead of ``n``.  ``one``
    is the unit of ``x``'s type, the value of ``x**0``.  The bits of ``n``
    are read from the lowest; the base is squared only while a higher bit
    remains, so no intermediate power is higher than ``x**n``, and a power
    leaves the exponent range only where ``x**n`` does."""
    if n < 0:
        raise AlgebraError(f"powers must be nonnegative, got {n}")
    out = one
    while True:
        if n & 1:
            out = out * x
        n >>= 1
        if not n:
            return out
        x = x * x


class Polynomial:
    """Sparse polynomial; canonical form stores no zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        if terms is None:
            self.terms = {}
        else:
            self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(value) -> "Polynomial":
        c = value if isinstance(value, Scalar) else Scalar(value)
        return Polynomial() if c.is_zero() else _adopt({MONO_ONE: c})

    @staticmethod
    def symbol(sym: Symbol) -> "Polynomial":
        return _adopt({Monomial.of(sym): SC_ONE})

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
        return _adopt(merge_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return _adopt({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return _adopt(mul_into({}, self.terms, other.terms))

    def scaled(self, c: Scalar) -> "Polynomial":
        if c.is_zero():
            return Polynomial()
        return _adopt({m: k * c for m, k in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        return power(self, n, Polynomial.constant(1))

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def coefficient_of(self, sym: Symbol, k: int) -> "Polynomial":
        """Exact coefficient polynomial of ``sym**k``."""
        if k < 0:
            raise AlgebraError("coefficient index must be nonnegative")
        out: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            if m.exponent(sym) == k:
                reduced = _new(Monomial, m - k * sym.unit) if k else m
                out[reduced] = out.get(reduced, SC_ZERO) + c
        return Polynomial(out)

    def symbols(self) -> set[Symbol]:
        bias, used = _BIAS, 0
        for m in self.terms:
            used |= (m + bias) ^ bias
        return {_fields[shift // _WIDTH] for shift in _offsets(used)}

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """The terms, leading term first in the graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda t: t[0]._order_key())

    def __str__(self) -> str:
        return _format_terms([(m.pairs, c) for m, c in self.terms.items()])

    def __repr__(self) -> str:
        return f"Polynomial({self})"


class RationalFunction:
    """Exact value ``num / den``, stored as one Laurent polynomial ``poly``
    whose negative exponents sit on offshell symbols only.  ``den`` must be
    a monomial in offshell symbols; ``num``/``den`` read back the numerator
    over the least such denominator."""

    __slots__ = ("poly",)

    def __init__(self, num: Polynomial, den: Monomial = MONO_ONE):
        if den:
            bias = _BIAS
            if ((den + bias) ^ bias) & _PLAIN:
                s = next(s for s in den.symbols() if s.kind not in _OFFSHELL_KINDS)
                raise AlgebraError(f"denominator factor {s.name} is not an offshell variable")
            inv = _checked(-den)
            num = _adopt({m * inv: c for m, c in num.terms.items()})
        self.poly = num

    @property
    def den(self) -> Monomial:
        """The least monomial denominator: each symbol at its most negative
        exponent in the Laurent polynomial.  The field-wise minimum of the
        biased terms is taken with masks: a term with a negative exponent
        has a biased field below ``_HALF`` (a clear bit of ``_BIAS``), ``ge``
        keeps the guard bit of each field where ``low`` is not below the
        term, and ``ge - (ge >> (_WIDTH - 1))`` widens it to the field.  A
        field of ``-EXPONENT_MIN`` is kept: it decodes, and its guard bit
        makes a product raise unless another factor brings it into range."""
        bias, top = _BIAS, _TOP
        low = bias  # every exponent at 0
        for mono in self.poly.terms:
            y = mono + bias
            if y & bias != bias:
                ge = ((low | top) - y) & top
                low ^= (low ^ y) & (ge - (ge >> (_WIDTH - 1)))
        return _new(Monomial, bias - low)

    @property
    def num(self) -> Polynomial:
        """The numerator over :attr:`den`."""
        den = self.den
        return _adopt({m * den: c for m, c in self.poly.terms.items()})

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
        return power(self, n, RF_ONE)

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
        return RationalFunction(_adopt({MONO_ONE: coeff.inverse()}), mono)

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
        # Bound symbols in the symbol order, the order their powers multiply
        # in, each with its field's offset (a symbol without a field occurs
        # in no term).  The terms are grouped by their biased bound fields,
        # each kept with those fields cleared, so one group multiplies by
        # each of its powers once, as one term map.
        shifts = [(s, s.unit.bit_length() - 1) for s in sorted(bindings) if s.unit is not None]
        mask = sum(_FIELD << shift for _, shift in shifts)
        bias = _BIAS
        bias_bound = bias & mask
        groups: dict[int, dict[Monomial, Scalar]] = {}
        for mono, coeff in self.poly.terms.items():
            bound = (mono + bias) & mask
            groups.setdefault(bound, {})[_new(Monomial, mono - (bound - bias_bound))] = coeff
        powers: dict[tuple[Symbol, int], Polynomial] = {}
        out: dict[Monomial, Scalar] = {}
        for bound, terms in groups.items():
            factors = []
            for sym, shift in shifts:
                if e := (bound >> shift & _FIELD) - _HALF:
                    power = powers.get((sym, e))
                    if power is None:
                        base = bindings[sym] if e > 0 else inverses[sym]
                        power = powers[sym, e] = base.poly ** abs(e)
                    factors.append(power.terms)
            if not factors:
                merge_terms(out, terms.items())
                continue
            for factor in factors[:-1]:
                terms = mul_into({}, terms, factor)
            mul_into(out, terms, factors[-1])
        return RationalFunction(_adopt(out))

    def evaluate(self, values: Mapping[Symbol, int | Fraction]) -> Scalar:
        """Exact value at a point that binds every symbol of the value to an
        ``int`` or ``Fraction``; agrees with ``substitute`` followed by
        ``constant_value``.  This is ``self.evaluator()(values)``."""
        return self.evaluator()(values)

    def evaluator(self) -> Callable[[Mapping[Symbol, int | Fraction]], Scalar]:
        """The value decoded once, as a function that evaluates it at a
        point the way :meth:`evaluate` does: each term's (field offset,
        exponent) pairs, its degree and its coefficient over the least
        common denominator of the coefficients are read here, not per point.

        At a point the values are put over their least common denominator
        ``L``, so ``v_s = n_s / L`` and a term ``c * prod v_s^e_s`` is
        ``c * prod n_s^e_s / L^(sum e_s)``.  The terms are summed as integers
        over one common denominator: ``L`` to the highest degree (at least 0),
        times each ``n_s`` to its most negative exponent, negated, times the
        coefficients' denominators.  One ``Fraction`` per component is built
        at the end.  The first symbol of the terms without a value raises
        :class:`AlgebraError`; a zero value of a symbol with a negative
        exponent raises :class:`DenominatorAnnihilationError`.
        """
        bias, coeff_den, top = _BIAS, 1, 0
        fields: dict[int, Symbol] = {}  # field offset -> symbol, in the order the terms first use them
        inverted: dict[int, int] = {}  # field offset -> most negative exponent, negated
        decoded = []  # degree, (offset, e) over e > 0, (offset, -e) over e < 0, coefficient
        for mono, coeff in self.poly.terms.items():
            y = mono + bias
            up, down, degree = [], [], 0
            for shift in _offsets(y ^ bias):
                if shift not in fields:
                    fields[shift] = _fields[shift // _WIDTH]
                e = (y >> shift & _FIELD) - _HALF
                degree += e
                if e > 0:
                    up.append((shift, e))
                else:
                    down.append((shift, -e))
                    if inverted.get(shift, 0) < -e:
                        inverted[shift] = -e
            coeff_den = lcm(coeff_den, coeff.re.denominator, coeff.im.denominator)
            top = max(top, degree)
            decoded.append((degree, up, down, coeff))
        terms = [  # top - degree, the pairs, and the coefficient's parts over ``coeff_den``
            (top - degree, up, down, *(q.numerator * (coeff_den // q.denominator) for q in (c.re, c.im)))
            for degree, up, down, c in decoded
        ]

        def at(values: Mapping[Symbol, int | Fraction]) -> Scalar:
            for sym, v in values.items():
                if type(v) is not int and not isinstance(v, Fraction):
                    raise AlgebraError(f"value of {sym.name} must be an int or Fraction, got {v!r}")
            ratios = {}  # field offset -> (numerator, denominator)
            for shift, sym in fields.items():
                if (v := values.get(sym)) is None:
                    raise AlgebraError(f"no value bound for symbol {sym.name}")
                ratios[shift] = v.as_integer_ratio()
            lcd = lcm(*(d for _, d in ratios.values()))
            scaled = {shift: n * (lcd // d) for shift, (n, d) in ratios.items()}  # numerators over ``lcd``
            zeros = [fields[shift] for shift in inverted if not scaled[shift]]
            if zeros:
                raise DenominatorAnnihilationError(min(zeros))
            inv = 1
            for shift, e in inverted.items():
                inv *= scaled[shift] ** e
            lifts = {0: 1}  # top - degree -> lcd^(top - degree)
            re_sum = im_sum = 0
            for gap, up, down, re, im in terms:
                num = den = 1
                for shift, e in up:
                    num *= scaled[shift] ** e
                for shift, e in down:
                    den *= scaled[shift] ** e
                lift = lifts.get(gap)
                if lift is None:
                    lift = lifts[gap] = lcd**gap
                num *= lift * (inv // den)
                re_sum += num * re
                im_sum += num * im
            den = lcd**top * inv * coeff_den
            return Scalar(Fraction(re_sum, den), Fraction(im_sum, den))

        return at

    def symbols(self) -> set[Symbol]:
        return self.poly.symbols()

    def __str__(self) -> str:
        den = self.den
        if den.is_one():
            return str(self.poly)
        # The numerator from decoded exponents, which ``num`` would have to
        # pack up to 2 * EXPONENT_MAX + 1: each term's pairs merged into the
        # denominator's, which are sorted by symbol and stay so in a dict.
        # A symbol outside the denominator is either not offshell, and then
        # sorts before all of it, or forces a sort.
        lift, terms = dict(den.pairs), []
        for mono, coeff in self.poly.terms.items():
            exps, head, unsorted = lift.copy(), [], False
            for s, e in mono.pairs:
                if s in exps:
                    if e := e + exps[s]:
                        exps[s] = e
                    else:
                        del exps[s]
                elif s.kind in _OFFSHELL_KINDS:
                    exps[s], unsorted = e, True
                else:
                    head.append((s, e))
            pairs = exps.items()
            terms.append((head + (sorted(pairs, key=lambda p: p[0].key) if unsorted else list(pairs)), coeff))
        num_str = _format_terms(terms)
        if len(terms) > 1:
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


def sum_of_products(pairs: Iterable[tuple[RationalFunction, RationalFunction]]) -> RationalFunction:
    """The sum of ``x * y`` over the ``(x, y)`` of ``pairs``.  Each product
    is added into one term map by :func:`mul_into` as it is formed, so no
    product and no partial sum is built as a value (Monagan & Pearce, CASC
    2007).  A pair with a zero factor adds nothing."""
    terms: dict = {}
    for x, y in pairs:
        x, y = x.poly.terms, y.poly.terms
        if x and y:
            mul_into(terms, x, y)
    return RationalFunction(_adopt(terms))


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
    return RationalFunction(Polynomial.constant(value))


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse the exact literal form ``p`` or ``p/q`` (no floats): ``p``
    and ``q`` each an optional sign and ASCII digits, so no underscore and
    no digit of another script, which ``int`` would take."""
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"expected p or p/q in ASCII digits, got {text!r}")
    return Fraction(int(match[1]), int(match[2] or 1))
