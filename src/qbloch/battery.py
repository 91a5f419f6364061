"""Seeded battery of random q-terms for the certificate stress suite.

Terms have r <= 2 (up to three log variables), symmetric integer matrices
with entries in [-3,3], half-integral linear parts subject to the
integrality invariant, one to three pochhammer factors, and random signs.
Candidates are rejected when some variable enters no equation (the row of Q
and every factor coefficient vanish once factors with equal homogeneous
parts and opposite signs cancel — the system is then trivially degenerate
in that direction) or when the solver finds no critical point at
the generation budget, so every shipped term exercises the certificates.

Run  python -m qbloch.battery --out <dir>  to (re)generate the shipped JSON
files; generation is a pure function of the seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from fractions import Fraction

import numpy as np

from .io import write_json_atomic
from .qterm import LinForm, QTerm, QuadForm
from .solver import SolverConfig, solve_variational

__all__ = ["BATTERY_SEED", "BATTERY_COUNT", "make_battery"]

BATTERY_SEED = 20260814
BATTERY_COUNT = 60
_GEN_SOLVER = SolverConfig(starts=48, seed=0)


def _candidate(rng) -> QTerm:
    r = int(rng.integers(0, 3))
    n = r + 1
    upper = np.triu(rng.integers(-3, 4, size=(n, n)))
    M = upper + np.triu(upper, 1).T
    ql = tuple(Fraction(int(rng.integers(-2, 3))) + Fraction(int(M[i, i]) % 2, 2)
               for i in range(n))
    L = LinForm(tuple(int(x) for x in rng.integers(-3, 4, size=n)),
                int(rng.integers(-2, 3)))
    eps = -1 if rng.integers(0, 2) else 1
    factors = []
    for _ in range(int(rng.integers(1, 4))):
        while True:
            c = tuple(int(x) for x in rng.integers(-2, 3, size=n))
            if any(c):
                break
        factors.append((LinForm(c, int(rng.integers(-1, 2))),
                        -1 if rng.integers(0, 2) else 1))
    return QTerm(r=r, Q=QuadForm(tuple(tuple(int(x) for x in row) for row in M), ql),
                 L=L, epsilon=eps, factors=tuple(factors))


def _degenerate(t: QTerm) -> bool:
    """Some variable enters no equation: its row of Q vanishes and so does
    its coefficient in every factor that survives in the net signed
    multiset (factors with equal homogeneous parts and opposite signs cancel)."""
    net = Counter()
    for a, s in t.factors:
        net[a.coeffs] += s
    live = [c for c, s in net.items() if s]
    return any(not any(t.Q.matrix[i]) and not any(c[i] for c in live)
               for i in range(t.nvars))


def make_battery(count: int = BATTERY_COUNT, seed: int = BATTERY_SEED):
    """The deterministic battery: first `count` seeded candidates that are
    nondegenerate and carry at least one critical point."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        t = _candidate(rng)
        if _degenerate(t):
            continue
        pts = solve_variational(t, _GEN_SOLVER)
        if not any(p.is_critical for p in pts):
            continue
        out.append(t)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="emit the seeded term battery")
    ap.add_argument("--out", default="terms/battery", help="output directory")
    ap.add_argument("--count", type=int, default=BATTERY_COUNT)
    ap.add_argument("--seed", type=int, default=BATTERY_SEED)
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for i, t in enumerate(make_battery(args.count, args.seed)):
        write_json_atomic(os.path.join(args.out, f"term_{i:02d}.json"), t.to_json_obj())
    print(f"wrote {args.count} terms to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
