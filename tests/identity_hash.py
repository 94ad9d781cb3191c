"""Byte-identity harness: one sha256 per group of CLI runs, and a total.

Runs `liecurv.cli.main` in process over a fixed command set and hashes, for
each run, its argv, exit code, stdout and stderr. Two trees print the same
total exactly when every run prints the same bytes, so a change meant to
keep output unchanged is checked by running

    PYTHONPATH=src python tests/identity_hash.py

on both trees and comparing the last line. Groups:

- documents: `analyze --precision 17`, `scalar`, `parallel` and `check`, in
  text and JSON, on 200 seeded R semidirect_D R^(n-1) documents, dims 3-6,
  non-identity metrics, one in four decimal;
- parallel: `analyze --precision 17`, `scalar` and `parallel`, in text and JSON, on 48
  documents with parallel fields: a semidirect document of dim 3-5 times a central,
  g-orthogonal abelian factor of dim 1 or 2 placed among its basis, half decimal;
- planes: `sectional` and `flag` with a zero drift, each with `--precision 17`, in
  text and JSON, on a seeded subset of 40 `documents` documents whose metric is not
  the identity, over four pairs of non-basis vectors per document: exact, decimal
  against exact, mixed, and wide (exact entries p/q, q up to 10^6 and p of about 30
  digits, so a coefficient over its denominator rounds far from a short float);
- vectors: `sectional`, `flag` and `randers`, each with `--precision 17`, in
  text and JSON, over cases 1, 2, 3 and 6 with exact and decimal drifts and
  exact, decimal and mixed vectors, and `sectional` on case 4 at two
  parameter points;
- report: `report --all` in text and JSON;
- randers: `randers` and `flag`, each with `--precision 17`, in text and JSON, on the
  `parallel` documents, whose metrics are not the identity: the drift a scaled parallel
  field along the abelian factor, exact or decimal, and four pole and edge pairs per
  document: exact, decimal, mixed against exact, and a small int pole whose g-norm is
  rational and g(Q,y) nonzero (rational_pole) against an exact edge, so that on exact
  documents with an exact drift `flag` returns the one Fraction of its rational root.

The documents come from the generator below, seeded by string, so the set
does not depend on PYTHONHASHSEED. It takes about 16 s on one core. pytest
does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from liecurv.cli import main

DOCUMENTS = 200
PARALLEL_DOCUMENTS = 48
PLANE_DOCUMENTS = 40
FORMATS = (["--format", "text"], ["--format", "json"])


def _text(x: Fraction, decimal: bool) -> str:
    return repr(float(x)) if decimal else str(x)


def semidirect_document(rng: random.Random, dim: int, decimal: bool) -> dict:
    """R semidirect_D R^(dim-1): [e_0, e_j] = D e_j with D sparse and rational, the ideal
    abelian, so Jacobi holds; the metric is L L^T for a random lower-triangular L."""
    m = dim - 1
    d = [[Fraction(0)] * m for _ in range(m)]
    for slot in rng.sample(range(m * m), m):
        d[slot // m][slot % m] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    gram = random_gram(rng, dim)
    brackets = []
    for j in range(1, dim):
        coeffs = [Fraction(0)] + [d[k][j - 1] for k in range(m)]
        if any(coeffs):
            brackets.append({"i": 0, "j": j, "coeffs": [_text(c, decimal) for c in coeffs]})
    return {"dim": dim, "brackets": brackets,
            "metric": [[_text(x, decimal) for x in row] for row in gram]}


def random_gram(rng: random.Random, dim: int) -> list:
    """L L^T for a random lower-triangular L with a positive diagonal."""
    low = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        low[i][i] = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    below = [(i, j) for i in range(dim) for j in range(i)]
    for i, j in rng.sample(below, len(below) // 2):
        low[i][j] = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
    return [[sum(low[i][k] * low[j][k] for k in range(dim)) for j in range(dim)]
            for i in range(dim)]


def parallel_document(rng: random.Random, base: int, factor: int,
                      decimal: bool) -> tuple[dict, list, list]:
    """semidirect_document on `base` directions times an abelian factor R^factor, whose
    directions sit at random indices among the others, with those indices and the factor's
    exact Gram matrix. The factor is central and g-orthogonal to the rest, so each of its
    directions Z is a parallel field: 2 g(nabla_X Z, W) = g([W, X], Z) = 0."""
    doc = semidirect_document(rng, base, decimal)
    dim = base + factor
    slots = sorted(rng.sample(range(dim), factor))
    rest = [t for t in range(dim) if t not in slots]
    zero = _text(Fraction(0), decimal)
    metric = [[zero] * dim for _ in range(dim)]
    for a, row in enumerate(doc["metric"]):
        for b, x in enumerate(row):
            metric[rest[a]][rest[b]] = x
    factor_gram = random_gram(rng, factor)
    for a, row in enumerate(factor_gram):
        for b, x in enumerate(row):
            metric[slots[a]][slots[b]] = _text(x, decimal)
    brackets = []
    for entry in doc["brackets"]:
        coeffs = [zero] * dim
        for a, c in enumerate(entry["coeffs"]):
            coeffs[rest[a]] = c
        brackets.append({"i": rest[entry["i"]], "j": rest[entry["j"]], "coeffs": coeffs})
    return {"dim": dim, "brackets": brackets, "metric": metric}, slots, factor_gram


# Poles and edges: exact, decimal and mixed 4-vectors, signs both ways.
VECTORS = ("1,0,0,0", "0,1,0,0", "1,1,1,0", "1/2,1/3,1,0", "3,4,0,0", "0,1,1/2,1/3",
           "0.3,0.7,1.1,0", "0.5,1,0.2,0", "0.3,0.7,1.1,0.2", "1,0.5,0,0", "1,0.5,1/3,0",
           "2,0,0.25,1", "0.1,0.2,3/7,1", "1e-3,1,0,2", "1,0,-1,0", "0.3,0.7,-1.1,0",
           "1/2,1/3,-1,0", "1,0.5,-0.25,0")
DRIFTS = {1: ("0,0,1/2,0", "0,0,0.25,0"), 2: ("0,0,1/3,0", "0,0,0.4,0"),
          3: ("0,0,1/2,0", "0,0,0.3,0"), 6: ("0,0,1/3,0", "0,0,0.2,0")}


def identity_document(i: int) -> dict:
    """The i-th document of the documents group: dims 3-6, one in four decimal."""
    return semidirect_document(random.Random(f"identity:{i}"), 3 + i % 4, (i // 4) % 4 == i % 4)


def document_runs(tmp: Path):
    for i in range(DOCUMENTS):
        doc = identity_document(i)
        path = tmp / f"doc{i:03d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for cmd in (["analyze", "--precision", "17"], ["scalar"], ["parallel"], ["check"]):
            for fmt in FORMATS:
                yield [cmd[0], str(path)] + cmd[1:] + fmt


def parallel_documents(tmp: Path):
    """(path, document, factor slots, factor Gram matrix, decimal) for each document of the
    parallel group, written under tmp."""
    for i in range(PARALLEL_DOCUMENTS):
        base, factor, decimal = 3 + (i // 2) % 3, 1 + (i // 6) % 2, i % 2 == 0
        doc, slots, gram = parallel_document(random.Random(f"parallel:{i}"), base, factor,
                                             decimal)
        path = tmp / f"parallel{i:03d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        yield path, doc, slots, gram, decimal


def parallel_runs(tmp: Path):
    for path, *_ in parallel_documents(tmp):
        for cmd in (["analyze", "--precision", "17"], ["scalar"], ["parallel"]):
            for fmt in FORMATS:
                yield [cmd[0], str(path)] + cmd[1:] + fmt


def wide_entry(rng: random.Random) -> Fraction:
    """0 one time in four, else p/q in lowest terms, q up to 10^6 and p of 30 digits."""
    if rng.random() < 0.25:
        return Fraction(0)
    while True:
        p, q = rng.choice((-1, 1)) * rng.randrange(10 ** 29, 10 ** 30), rng.randint(1, 10 ** 6)
        if math.gcd(p, q) == 1:
            return Fraction(p, q)


def plane_vector(rng: random.Random, dim: int, kind: str) -> str:
    """A vector with at least two nonzero entries: exact, decimal, each entry either, or wide
    (exact, wide_entry)."""
    while True:
        xs = [wide_entry(rng) if kind == "wide" else
              Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
        if sum(map(bool, xs)) > 1:
            return ",".join(_text(x, kind == "decimal" or kind == "mixed" and rng.random() < 0.5)
                            for x in xs)


def plane_runs(tmp: Path):
    picks = sorted(random.Random("planes").sample(range(DOCUMENTS), PLANE_DOCUMENTS))
    for i in picks:
        doc = identity_document(i)
        dim = doc["dim"]
        if [[Fraction(x) for x in row] for row in doc["metric"]] == \
                [[int(a == b) for b in range(dim)] for a in range(dim)]:
            continue
        path = tmp / f"plane{i:03d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rng = random.Random(f"planes:{i}")
        for kinds in (("exact", "exact"), ("decimal", "exact"), ("mixed", "mixed"),
                      ("wide", "wide")):
            u, v = (plane_vector(rng, dim, kind) for kind in kinds)
            for fmt in FORMATS:
                yield ["sectional", str(path), f"--u={u}", f"--v={v}", "--precision", "17"] + fmt
                yield (["flag", str(path), "--drift", ",".join("0" * dim), f"--pole={u}",
                        f"--edge={v}", "--precision", "17"] + fmt)


def vector_runs(tmp: Path):
    n = len(VECTORS)
    for case, drifts in DRIFTS.items():
        for a in range(n):
            pole, edge = VECTORS[a], VECTORS[(5 * a + 3) % n]
            for drift in drifts:
                for cmd in (["flag"], ["randers"]):
                    for fmt in FORMATS:
                        yield (cmd + ["--case", str(case), "--drift", drift, "--pole", pole,
                                      "--edge", edge, "--precision", "17"] + fmt)
            for fmt in FORMATS:
                yield (["sectional", "--case", str(case), "--u", pole, "--v", edge,
                        "--precision", "17"] + fmt)
    for params in (["--alpha=-1", "--beta=0"], ["--alpha=0.5", "--beta=1/3"]):
        for a in range(n):
            for fmt in FORMATS:
                yield (["sectional", "--case", "4", *params, "--u", VECTORS[a],
                        "--v", VECTORS[(3 * a + 1) % n], "--precision", "17"] + fmt)


def parallel_drift(rng: random.Random, dim: int, slots: list, gram: list, decimal: bool) -> str:
    """A drift along the abelian factor, c / (2 m) with c an int vector on the factor's slots
    and m an int at least the g-norm of c, so g(Q,Q) <= 1/4: a parallel field, written
    exact or as decimals."""
    c = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in slots]
    norm_sq = sum(x * g * y for x, row in zip(c, gram) for y, g in zip(c, row))
    m = math.isqrt(math.ceil(norm_sq)) + 1
    drift = [Fraction(0)] * dim
    for slot, x in zip(slots, c):
        drift[slot] = Fraction(x, 2 * m)
    return ",".join(_text(x, decimal) for x in drift)


def rational_pole(metric: list, drift: str) -> str:
    """The first int vector y in itertools.product(range(-2, 3)) order whose g-norm is rational
    and g(Q, y) nonzero, g and Q read as the exact values of their text."""
    g = [[Fraction(x) for x in row] for row in metric]
    scale = math.lcm(*(x.denominator for row in g for x in row))
    g = [[int(x * scale) for x in row] for row in g]  # scale times g, in ints
    q = [Fraction(x) for x in drift.split(",")]
    for y in itertools.product(range(-2, 3), repeat=len(g)):
        yy = scale * sum(a * b * c for a, row in zip(y, g) for b, c in zip(row, y))
        if yy and math.isqrt(yy) ** 2 == yy and \
                sum(a * b * c for a, row in zip(q, g) for b, c in zip(row, y)):
            return ",".join(map(str, y))
    raise ValueError("no pole of rational g-norm with entries in -2..2")


def randers_runs(tmp: Path):
    for i, (path, doc, slots, gram, decimal) in enumerate(parallel_documents(tmp)):
        rng = random.Random(f"randers:{i}")
        dim = doc["dim"]
        drift = parallel_drift(rng, dim, slots, gram, decimal != (i % 4 == 1))
        pairs = [[plane_vector(rng, dim, kind) for kind in kinds]
                 for kinds in (("exact", "exact"), ("decimal", "decimal"), ("mixed", "exact"))]
        pairs.append([rational_pole(doc["metric"], drift), plane_vector(rng, dim, "exact")])
        for pole, edge in pairs:
            for cmd in ("randers", "flag"):
                for fmt in FORMATS:
                    yield [cmd, str(path), f"--drift={drift}", f"--pole={pole}", f"--edge={edge}",
                           "--precision", "17"] + fmt


def report_runs(tmp: Path):
    for fmt in FORMATS:
        yield ["report", "--all"] + fmt


GROUPS = {"documents": document_runs, "parallel": parallel_runs, "planes": plane_runs,
          "vectors": vector_runs, "report": report_runs, "randers": randers_runs}


def run(argv: list, tmp: Path) -> bytes:
    """argv, exit code, stdout and stderr of one run, the scratch directory named
    as '$TMP' so the bytes do not depend on where it is."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    text = "\0".join(["$ " + " ".join(argv), str(code), out.getvalue(), err.getvalue()])
    return text.replace(str(tmp), "$TMP").encode("utf-8") + b"\n"


def main_hash() -> int:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for group, runs in GROUPS.items():
            digest, count = hashlib.sha256(), 0
            for argv in runs(tmp):
                chunk = run(argv, tmp)
                digest.update(chunk)
                total.update(chunk)
                count += 1
            print(f"{group}: {count} runs {digest.hexdigest()}")
    print(f"total: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main_hash())
