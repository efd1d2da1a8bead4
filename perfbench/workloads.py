"""Workloads: the fixed task lists, their seeded inputs and their checks.

A task is one `skewrec` command line.  Its check sees only the `data`
section the command printed and compares it with references the
benchmark computes itself (numpy roots of inputs whose factors it
built) or has frozen (search witness sets and audit counts).  Checks
never compare `bits` or raw float text: a faster root path may change
both without changing the mathematics.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path
from typing import Callable

import numpy

REFERENCES = json.loads((Path(__file__).with_name("references.json")).read_text())

# numpy roots are accurate to far better than this on the inputs below
# (simple roots, or double roots handled factor by factor), so a
# reference outside an enclosure by more than SLACK is a real error.
SLACK = 1e-6
TOL = 1e-10

LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2
# Cyclotomic polynomials Phi_n for n = 1, 2, 3, 4, 6, constant term first.
CYCLOTOMIC = ((-1, 1), (1, 1), (1, 1, 1), (1, 0, 1), (1, -1, 1))
# Small irreducible non-cyclotomic factors that get squared.
SQUARED = ((-1, -1, 1), (-1, -1, 0, 1), (1, -3, 1), (-1, 0, -1, 1))
# Base degrees of the measure-batch draws.  Many mid-degree draws rather
# than a few degree-32 ones: root-finding time spreads by about 20%
# between draws of one degree, so more, smaller draws keep the pass time
# from depending on the seed.
BASE_DEGREES = (16, 18, 20, 22)
DRAWS_PER_SLOT = 3


@dataclasses.dataclass(frozen=True)
class Task:
    name: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]
    pooled: bool = False  # takes --jobs

    def command(self, jobs: int) -> list[str]:
        return list(self.argv) + (["--jobs", str(jobs)] if self.pooled else [])


# -- independent references ----------------------------------------------------


def member(kind: str, free: tuple[int, ...]) -> tuple[int, ...]:
    """Monic degree-2d class member with free coefficients c_d..c_(2d-1)."""
    d = len(free)
    coeffs = [0] * d + list(free) + [1]
    for k in range(d):
        sign = 1 if kind == "reciprocal" else (-1) ** (d + k)
        coeffs[k] = sign * coeffs[2 * d - k]
    return tuple(coeffs)


def multiply(f, g) -> tuple[int, ...]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def roots(coeffs) -> numpy.ndarray:
    return numpy.roots(numpy.array(coeffs[::-1], dtype=float))


def mahler_ref(coeffs) -> float:
    return float(numpy.prod(numpy.maximum(1.0, numpy.abs(roots(coeffs)))))


def house_ref(coeffs) -> float:
    return float(numpy.max(numpy.abs(roots(coeffs))))


def _totients(limit: int) -> list[int]:
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


# phi(N) >= sqrt(N / 2), so every cyclotomic factor of a degree-d
# polynomial has order N <= 2 * d * d.
TOTIENT = _totients(2 * max(BASE_DEGREES) ** 2)


def cyclotomic_free(coeffs) -> bool:
    """No Phi_N divides f: f(exp(2*pi*i/N)) is not (numerically) zero.

    Only input selection depends on this; a wrong answer changes which
    draw is kept, never whether a check passes.
    """
    deg = len(coeffs) - 1
    poly = numpy.array(coeffs[::-1], dtype=float)
    for n in range(1, 2 * deg * deg + 1):
        if TOTIENT[n] <= deg:
            z = numpy.exp(2j * numpy.pi / n)
            if abs(numpy.polyval(poly, z)) < 1e-8:
                return False
    return True


def _within(enc: dict, ref: float) -> bool:
    return float(enc["lo"]) - SLACK * ref <= ref <= float(enc["hi"]) + SLACK * ref


def _width_errors(name: str, enc: dict, tol: float) -> list[str]:
    width = float(enc["hi"]) - float(enc["lo"])
    return [f"{name} width {width:.3g} exceeds tol {tol:g}"] if width > tol else []


# -- measure-batch ---------------------------------------------------------------


def _measure_task(name: str, factors: list[tuple[tuple[int, ...], int]]) -> Task:
    """`measure` on the product of (factor, multiplicity) pairs."""
    f = (1,)
    for g, mult in factors:
        for _ in range(mult):
            f = multiply(f, g)
    ref_mahler = math.prod(mahler_ref(g) ** mult for g, mult in factors)
    ref_house = max(house_ref(g) for g, _ in factors)
    # cyclotomic roots lie exactly on the circle, never outside it
    moduli = [(abs(r), mult) for g, mult in factors if g not in CYCLOTOMIC
              for r in roots(g)]
    ambiguous = any(abs(m - 1) < 1e-6 for m, _ in moduli)
    ref_outside = sum(mult for m, mult in moduli if m > 1)

    def check(data: dict) -> list[str]:
        errs = _width_errors("mahler", data["mahler"], TOL)
        errs += _width_errors("house", data["house"], TOL)
        if not _within(data["mahler"], ref_mahler):
            errs.append(f"mahler {data['mahler']} misses reference {ref_mahler!r}")
        if not _within(data["house"], ref_house):
            errs.append(f"house {data['house']} misses reference {ref_house!r}")
        if data["is_kronecker"]:
            errs.append("non-Kronecker input classified as Kronecker")
        count = data["root_count_outside_unit_circle"]
        if data["root_count_certified"] and not ambiguous and count != ref_outside:
            errs.append(f"{count} roots outside the circle, reference {ref_outside}")
        return errs

    text = "[" + ",".join(map(str, f)) + "]"
    return Task(name, ("measure", "--tol", repr(TOL), text), check)


def measure_batch(seed: int) -> list[Task]:
    """Lehmer's polynomial plus seeded cyclotomic-free height-1 class members.

    Every other draw is multiplied by a cyclotomic factor and the square
    of a small non-cyclotomic factor, so the cyclotomic strip and the
    squarefree split both have work; final degrees are 16 to 30.
    """
    rng = random.Random(seed)
    tasks = [_measure_task("lehmer", [(LEHMER, 1)])]
    slots = [(kind, deg) for deg in BASE_DEGREES
             for kind in ("reciprocal", "skew_reciprocal")
             for _ in range(DRAWS_PER_SLOT)]
    for i, (kind, deg) in enumerate(slots):
        while True:
            base = member(kind, tuple(rng.choice((-1, 0, 1)) for _ in range(deg // 2)))
            if cyclotomic_free(base):
                break
        factors = [(base, 1)]
        if i % 2:
            factors += [(rng.choice(CYCLOTOMIC), 1), (rng.choice(SQUARED), 2)]
        tasks.append(_measure_task(f"draw{i:02d}-{kind}-{deg}", factors))
    return tasks


# -- searches and verify -----------------------------------------------------------


def _search_task(kind: str, degree: int, height: int, quantity: str,
                 pooled: bool) -> Task:
    key = f"search {kind} {degree} {height} {quantity}"
    ref = REFERENCES[key]
    witnesses = {tuple(w) for w in ref["witnesses"]}
    value = mahler_ref if quantity == "mahler" else house_ref

    def check(data: dict) -> list[str]:
        errs = []
        size = (2 * height + 1) ** (degree // 2)
        if data["enumerated"] != size:
            errs.append(f"enumerated {data['enumerated']}, expected {size}")
        if data["excluded_kronecker"] != ref["excluded_kronecker"]:
            errs.append(f"excluded_kronecker {data['excluded_kronecker']}, "
                        f"expected {ref['excluded_kronecker']}")
        found = {tuple(w) for w in data["witnesses"]}
        if found != witnesses:
            errs.append(f"witness set differs: {sorted(found ^ witnesses)}")
        if data["precision_exhausted"] or data["minimum"] is None:
            errs.append("minimum not certified")
            return errs
        errs += _width_errors("minimum", data["minimum"], TOL)
        for w in sorted(found):
            if not _within(data["minimum"], value(w)):
                errs.append(f"minimum {data['minimum']} misses witness {list(w)}")
        return errs

    argv = ("search", "--kind", kind, "--degree", str(degree),
            "--height", str(height), "--quantity", quantity)
    return Task(key, argv, check, pooled)


def _verify_task(degree: int, height: int) -> Task:
    key = f"verify {degree} {height}"
    ref = REFERENCES[key]

    def check(data: dict) -> list[str]:
        errs = [f"{k} {data[k]}, expected {v}" for k, v in ref.items() if data[k] != v]
        if not data["all_witnesses_above_bound"]:
            errs.append("audit reports witnesses below the bound")
        enc = data["min_witness_mahler"]
        if enc is None or not _within(enc, GOLDEN_RATIO):
            errs.append(f"min witness Mahler {enc} misses the golden ratio")
        return errs

    return Task(key, ("verify", "--degree", str(degree), "--height", str(height)), check)


def enclose_all(seed: int) -> list[Task]:
    return [_search_task(kind, 8, 1, "house", False)
            for kind in ("reciprocal", "skew_reciprocal")] + [_verify_task(8, 1)]


def search_mahler(seed: int) -> list[Task]:
    return [_search_task(kind, 10, 2, "mahler", True)
            for kind in ("reciprocal", "skew_reciprocal")]


WORKLOADS = {
    "measure-batch": measure_batch,
    "enclose-all": enclose_all,
    "search-mahler": search_mahler,
}
