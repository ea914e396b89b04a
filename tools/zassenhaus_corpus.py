"""Time factor_over_Q on a seeded corpus of products of irreducibles, in one or more checkouts.

    python3 tools/zassenhaus_corpus.py --seed 0 --n 115 --root PARENT --root CHANGE

Draws --n integer polynomials, each a product of irreducible factors of
degree 4 to 16 with total degree at most 32.  Every factor is
irreducible by construction, shifted t -> t + c for a small c:
- an Eisenstein polynomial at 2, 3, 5 or 7, whose leading coefficient
  that prime does not divide;
- a cyclotomic polynomial, which splits into many factors modulo most
  primes;
- the minimal polynomial t^4 - 2(a + b) t^2 + (a - b)^2 of sqrt a +
  sqrt b for two distinct primes a and b, which splits modulo every
  prime.
A factor may be drawn twice, so some products have repeated factors.

Each --root is a checkout; its src/ factors the corpus in one child
process, with the factor cache cleared before each polynomial, once
timed and once counting the recombination subsets that Zassenhaus walks
(itertools.combinations in factoring, wrapped).  Prints one line per
root: the total seconds, the subsets in all and for the worst
polynomial, the polynomials answered and
those that raised ScopeError.  Each polynomial whose outcome differs
between roots, or whose factors are not the drawn ones, gets a line.
Exits 1 when any factorization is wrong or an outcome differs, 0
otherwise.  The draw depends on --seed and --n alone.  Stdlib only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import types
from collections import Counter
from pathlib import Path
from random import Random

# cyclotomic indices n with 4 <= phi(n) <= 16
CYCLOTOMIC = [n for n in range(5, 61) if 4 <= sum(math.gcd(n, k) == 1 for k in range(n)) <= 16]
SQRT_PRIMES = (2, 3, 5, 7, 11, 13)
MAX_DEGREE = 32


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _cyclotomic(n):
    """Phi_n, lowest degree first: t^n - 1 divided by Phi_d for each proper divisor d."""
    f = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            g = _cyclotomic(d)
            q = [0] * (len(f) - len(g) + 1)
            for i in range(len(q) - 1, -1, -1):  # g is monic
                q[i] = f[i + len(g) - 1]
                for j, c in enumerate(g):
                    f[i + j] -= q[i] * c
            f = q
    return f


def _shift(f, c):
    """f(t + c) by Horner's rule."""
    out = [f[-1]]
    for a in reversed(f[:-1]):
        out = _mul(out, [c, 1])
        out[0] += a
    return out


def _primitive(f):
    g = math.gcd(*f) * (1 if f[-1] > 0 else -1)
    return tuple(c // g for c in f)


def _factor(rng):
    kind = rng.randrange(3)
    if kind == 0:
        p = rng.choice((2, 3, 5, 7))
        d = rng.randint(4, 16)
        f = [p * rng.randint(-3, 3) for _ in range(d)]
        f[0] = p * rng.choice([c for c in range(-4, 5) if c % p])
        f.append(rng.choice([c for c in (1, 1, 1, 2, 3, 6) if c % p]))
    elif kind == 1:
        f = _cyclotomic(rng.choice(CYCLOTOMIC))
    else:
        a, b = rng.sample(SQRT_PRIMES, 2)
        f = [(a - b) ** 2, 0, -2 * (a + b), 0, 1]
    return _primitive(_shift(f, rng.randint(-3, 3)))


def draw(seed, n):
    """n pairs (f, factors): f a product of the primitive irreducible
    factors, as integer lists lowest degree first."""
    rng = Random(seed)
    corpus = []
    for _ in range(n):
        target, factors, degree = rng.randint(8, MAX_DEGREE), [], 0
        while degree < target:
            g = _factor(rng)
            if degree + len(g) - 1 > MAX_DEGREE:
                break
            factors.append(g)
            degree += len(g) - 1
        f = [1]
        for g in factors:
            f = _mul(f, g)
        corpus.append((f, factors))
    return corpus


def _child():
    """Factor the polynomials read from stdin; write one [status, seconds,
    subsets, [[primitive factor, multiplicity], ...]] per polynomial."""
    from brauercalc import factoring
    from brauercalc.errors import ScopeError
    from brauercalc.poly import QQ, Poly

    walked = 0

    def combinations(items, k):
        nonlocal walked
        for subset in itertools.combinations(items, k):
            walked += 1
            yield subset

    def run(f):
        factoring._factor_q_monic.cache_clear()
        try:
            return "ok", factoring.factor_over_Q(Poly.from_ints(QQ, f))
        except ScopeError:
            return "scope", ()

    polys, results = json.load(sys.stdin), []
    for f in polys:
        start = time.perf_counter()
        status, factors = run(f)
        seconds = time.perf_counter() - start
        results.append([status, seconds, 0,
                        [[list(g.int_form()[1]), e] for g, e in factors]])
    counting = types.ModuleType("itertools")
    counting.__dict__.update(vars(itertools), combinations=combinations)
    factoring.itertools = counting
    for f, row in zip(polys, results):
        walked = 0
        run(f)
        row[2] = walked
    json.dump(results, sys.stdout)


def run_root(root, polys):
    """Every polynomial's [status, seconds, subsets, factors] from one child
    process importing the library from root/src."""
    src = str(Path(root).resolve() / "src")
    with tempfile.TemporaryDirectory() as work:
        env = {**os.environ, "PYTHONPATH": src,
               "PYTHONPYCACHEPREFIX": os.path.join(work, "pycache")}
        check = "import brauercalc, sys; sys.exit(not brauercalc.__file__.startswith(sys.argv[1]))"
        subprocess.run([sys.executable, "-c", check, src], cwd=work, env=env, check=True)
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"], cwd=work,
                              env=env, input=json.dumps(polys), capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"the child for {root} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout)


def expected(factors):
    """The drawn factors as sorted [[primitive factor, multiplicity], ...]."""
    return sorted([list(g), e] for g, e in Counter(factors).items())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=115, help="number of polynomials (default 115)")
    parser.add_argument("--root", action="append", required=True,
                        help="a checkout whose src/ is run; repeat to compare")
    args = parser.parse_args(argv)
    corpus = draw(args.seed, args.n)
    results = [run_root(root, [f for f, _ in corpus]) for root in args.root]
    print(f"seed {args.seed}: {args.n} polynomials of degree "
          f"{min(len(f) - 1 for f, _ in corpus)}-{max(len(f) - 1 for f, _ in corpus)}")
    bad = 0
    for root, rows in zip(args.root, results):
        statuses = [row[0] for row in rows]
        print(f"{root}: {sum(row[1] for row in rows):.3f} s, {sum(row[2] for row in rows)} subsets "
              f"(at most {max(row[2] for row in rows)} for one), "
              f"{statuses.count('ok')} answered, {statuses.count('scope')} ScopeError")
    for i, (f, factors) in enumerate(corpus):
        rows = [res[i] for res in results]
        wrong = [root for root, row in zip(args.root, rows)
                 if row[0] == "ok" and sorted(row[3]) != expected(factors)]
        differs = len({row[0] for row in rows}) > 1
        if wrong or differs:
            bad += 1
            print(f"  #{i} degree {len(f) - 1}: " + ", ".join(
                f"{root} {row[0]} {row[1]:.3f} s {row[2]} subsets" for root, row in zip(args.root, rows))
                + (f"; wrong factors from {', '.join(wrong)}" if wrong else ""))
    print(f"{bad} polynomials wrong or differing")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        _child()
    else:
        sys.exit(main())
