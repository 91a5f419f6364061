"""Sparse Laurent polynomials in one variable q with exact integer coefficients."""

from __future__ import annotations


class LaurentPoly:
    """Element of Z[q, q^-1], stored as a sparse {exponent: coefficient} map.

    Coefficients are arbitrary-precision ints; zero coefficients are never
    stored.  Instances are treated as immutable: all arithmetic returns new
    objects.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if v:
                    e = int(e)
                    v = c.get(e, 0) + int(v)
                    if v:
                        c[e] = v
                    elif e in c:
                        del c[e]
        self._c = c

    @classmethod
    def _of(cls, coeffs: dict):
        """The polynomial of a dict {int exponent: nonzero int coefficient},
        taken as it is: no check and no copy."""
        p = cls.__new__(cls)
        p._c = coeffs
        return p

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls({int(exp): int(coeff)})

    def items(self):
        return sorted(self._c.items())

    def coeff(self, exp):
        return self._c.get(exp, 0)

    def is_zero(self):
        return not self._c

    @property
    def min_exp(self):
        return min(self._c) if self._c else 0

    @property
    def max_exp(self):
        return max(self._c) if self._c else 0

    def norm1(self):
        return sum(abs(v) for v in self._c.values())

    def shift(self, d):
        """Multiply by q^d."""
        d = int(d)
        return LaurentPoly({e + d: v for e, v in self._c.items()})

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __neg__(self):
        return LaurentPoly({e: -v for e, v in self._c.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, LaurentPoly) else LaurentPoly({0: -other}))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            return LaurentPoly({e: v * other for e, v in self._c.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        # plain sparse convolution; operand sizes in this project stay small
        # enough (a few thousand terms) that anything fancier is not worth it
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        c = {}
        for ea, va in a.items():
            for eb, vb in b.items():
                e = ea + eb
                w = c.get(e, 0) + va * vb
                if w:
                    c[e] = w
                elif e in c:
                    del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative powers of a Laurent polynomial are not polynomial")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x):
        """Evaluate at x (complex, float, or an mpmath number)."""
        return sum((v * x ** e for e, v in self._c.items()), x * 0)

    def to_json_obj(self):
        return {"terms": [[e, str(v)] for e, v in self.items()]}

    @classmethod
    def from_json_obj(cls, obj):
        return cls({int(e): int(v) for e, v in obj["terms"]})

    def __repr__(self):
        if not self._c:
            return "LaurentPoly(0)"
        bits = []
        for e, v in self.items():
            if e == 0:
                bits.append(f"{v}")
            elif e == 1:
                bits.append(f"{v}*q")
            else:
                bits.append(f"{v}*q^{e}")
        return "LaurentPoly(" + " + ".join(bits).replace("+ -", "- ") + ")"


def norm1(f: LaurentPoly) -> int:
    """Exact l1 norm of the coefficient vector."""
    return f.norm1()
