"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed writes
byte-identical algebra files.  The generated algebras are validated with
``liecoh.validate`` before they are written, so a workload never starts
from malformed input.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import liecoh
from liecoh import files

# Monomial scalars: small, so the exact arithmetic stays comparable across seeds.
SCALARS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3))
MIXING_ENTRIES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(3))


def rng_for(seed: int, label: str) -> random.Random:
    """An independent stream per input, so adding one input never shifts another."""
    return random.Random(f"liecoh-bench:{seed}:{label}")


def sl_matrix_units(n: int):
    """sl_n in the basis H_1..H_{n-1}, then E_ij (i != j) in lexicographic order.

    Returns (names, brackets, cartan indices) with brackets as
    ``{(a, b): coefficients}`` for a < b, computed from matrix commutators.
    """
    elems = []  # (name, {(row, col): value})
    for i in range(n - 1):
        elems.append((f"H{i + 1}", {(i, i): Fraction(1), (i + 1, i + 1): Fraction(-1)}))
    for i in range(n):
        for j in range(n):
            if i != j:
                elems.append((f"E{i + 1}{j + 1}", {(i, j): Fraction(1)}))
    index = {name: k for k, (name, _) in enumerate(elems)}
    dim = len(elems)

    def product(x, y):
        out = {}
        for (i, k), a in x.items():
            for (k2, j), b in y.items():
                if k == k2:
                    out[(i, j)] = out.get((i, j), 0) + a * b
        return out

    def coordinates(m):
        coeffs = [Fraction(0)] * dim
        running = Fraction(0)
        for i in range(n - 1):
            # H_i = e_ii - e_{i+1,i+1}: the H_i coefficient is the partial trace
            running += m.get((i, i), 0)
            coeffs[i] = running
        for (i, j), v in m.items():
            if i != j and v:
                coeffs[index[f"E{i + 1}{j + 1}"]] = v
        return tuple(coeffs)

    brackets = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            xa, xb = elems[a][1], elems[b][1]
            ab, ba = product(xa, xb), product(xb, xa)
            comm = {key: ab.get(key, 0) - ba.get(key, 0) for key in set(ab) | set(ba)}
            coeffs = coordinates(comm)
            if any(coeffs):
                brackets[(a, b)] = coeffs
    return tuple(name for name, _ in elems), brackets, tuple(range(n - 1))


def monomial_change(names, brackets, cartan, rng: random.Random):
    """Apply f_j = s_j e_{perm[j]} with s_j drawn from SCALARS.

    A monomial change keeps every basis vector a weight vector, so each
    Cartan element still acts diagonally.  It is never singular.
    """
    dim = len(names)
    perm = list(range(dim))
    rng.shuffle(perm)
    scale = [rng.choice(SCALARS) for _ in range(dim)]
    inverse = {old: new for new, old in enumerate(perm)}
    new_brackets = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            pa, pb = perm[a], perm[b]
            if pa < pb:
                coeffs = brackets.get((pa, pb))
                sign = 1
            else:
                coeffs = brackets.get((pb, pa))
                sign = -1
            if coeffs is None:
                continue
            out = [Fraction(0)] * dim
            for c, v in enumerate(coeffs):
                if v:
                    d = inverse[c]
                    out[d] = sign * scale[a] * scale[b] * v / scale[d]
            new_brackets[(a, b)] = tuple(out)
    new_names = tuple(names[p] for p in perm)
    new_cartan = tuple(inverse[c] for c in cartan)
    return new_names, new_brackets, new_cartan


def seeded_sl(n: int, seed: int):
    """(algebra, Cartan indices) of sl_n in its seeded monomial basis."""
    names, brackets, cartan = sl_matrix_units(n)
    names, brackets, cartan = monomial_change(names, brackets, cartan, rng_for(seed, f"sl{n}"))
    g = liecoh.validate(len(names), names, brackets)
    for c in cartan:
        ad = g.ad_matrix(tuple(Fraction(int(i == c)) for i in range(g.dim)))
        if any(ad.entries[i][j] for i in range(g.dim) for j in range(g.dim) if i != j):
            raise AssertionError(f"Cartan element {names[c]} of sl{n} is not diagonal")
    return g, cartan


def draw_slopes(seed: int, count: int = 3) -> tuple[str, ...]:
    """Distinct slopes p/q in lowest terms with p nonzero and |p|, q <= 5."""
    rng = rng_for(seed, "slopes")
    slopes = []
    while len(slopes) < count:
        value = Fraction(rng.choice([p for p in range(-5, 6) if p]), rng.randint(1, 5))
        if value not in slopes:
            slopes.append(value)
    return tuple(files.format_rational(s) for s in slopes)


def draw_mixing(seed: int) -> list[list[Fraction]]:
    """An invertible 2x2 mixing matrix; singular draws are redrawn."""
    rng = rng_for(seed, "mixing")
    while True:
        m = [[rng.choice(MIXING_ENTRIES) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0]:
            return m


def rank2_extension(seed: int) -> liecoh.ExtensionPair:
    """sl2 + sl2 with two central generators paired with the compact directions."""
    g = liecoh.builtin("sl2sl2").algebra
    k1 = (0, 1, -1, 0, 0, 0)
    k2 = (0, 0, 0, 0, 1, -1)
    return liecoh.central_extension(g, None, [k1, k2], 2, draw_mixing(seed))


def _write(path: Path, g, h, name: str) -> str:
    files.save_algebra(path, g, h, name)
    loaded, loaded_h, _ = files.load_algebra(path)
    if loaded != g or (h is not None and loaded_h != h):
        raise AssertionError(f"{path.name} does not round-trip")
    return str(path)


def generate(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's input files into `directory`; return the worker spec."""
    spec = {"workload": workload, "seed": seed}
    if workload == "absolute-large":
        for n in (3, 4):
            g, _ = seeded_sl(n, seed)
            spec[f"sl{n}"] = _write(directory / f"sl{n}.json", g, None, f"sl{n}-seed{seed}")
    elif workload == "relative-ext":
        spec["slopes"] = list(draw_slopes(seed))
        pair = rank2_extension(seed)
        spec["rank2"] = _write(
            directory / "rank2_ext.json", pair.algebra, pair.isotropy, f"rank2-ext-seed{seed}"
        )
    elif workload != "paper-suite":
        raise ValueError(f"unknown workload {workload!r}")
    path = directory / "spec.json"
    path.write_text(json.dumps(spec, sort_keys=True))
    return spec
