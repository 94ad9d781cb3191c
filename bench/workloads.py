"""The four benchmark workloads: seeded inputs, the timed op, the output check.

Every workload is a closed loop with one client: op i+1 starts when op i
returns. Inputs are a pure function of (seed, op index), so a seed always
gives the same inputs. Each workload cycles through a fixed mix of input
classes (``cycle`` ops long) and a run ends on a whole cycle, so the shares
of exact and floating inputs, and of cheap and dear ops, are fixed by the
generator and not by the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import subprocess
from fractions import Fraction as F
from pathlib import Path

# Library functions are called through their modules (riemann.levi_civita),
# never bound here by name, so the span wrappers that replace them in the
# liecurv namespaces also see the calls made from this file.
from liecurv import algebra, catalog, cli, documents, exprs, randers, riemann
from liecurv.algebra import Vector
from liecurv.randers import Flag
from liecurv.scalars import TOLERANCE

from spans import all_exact, numpy_import_ms

BENCH_DIR = Path(__file__).resolve().parent


def is_exact(x) -> bool:
    return isinstance(x, (int, F)) and not isinstance(x, bool)


def close(a, b) -> bool:
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(a - b) <= TOLERANCE * max(1.0, abs(float(b)))


def inner(gram, u, v):
    n = len(gram)
    return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def sqrt_rational(x):
    """Exact root of a rational perfect square, else a float."""
    x = F(x)
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return F(rn, rd)
    return math.sqrt(x)


def render(x) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def render_vector(v) -> str:
    return ",".join(render(x) for x in v)


def nonzero(rng: random.Random, span: int) -> int:
    return rng.choice([k for k in range(-span, span + 1) if k])


def rand_rational(rng: random.Random, span: int = 6, den: int = 4) -> F:
    return F(rng.randint(-span, span), rng.randint(1, den))


def independent_edge(rng: random.Random, gram, pole) -> list:
    """Arbitrary rational edge that spans a plane with the pole."""
    while True:
        edge = [rand_rational(rng) for _ in pole]
        det = inner(gram, pole, pole) * inner(gram, edge, edge) - inner(gram, pole, edge) ** 2
        if det != 0:
            return edge


# Integer vectors with an integer Euclidean norm: signed and permuted, they
# give poles whose g-norm is rational under the identity metric.
RATIONAL_NORM = ((1, 2, 2, 0), (2, 3, 6, 0), (1, 4, 8, 0), (2, 6, 9, 0),
                 (4, 4, 7, 0), (2, 4, 5, 6), (1, 1, 1, 1), (1, 2, 2, 4),
                 (2, 2, 4, 5))


def rational_norm_pole(rng: random.Random) -> list:
    base = list(rng.choice(RATIONAL_NORM))
    rng.shuffle(base)
    scale = F(rng.randint(1, 5), rng.randint(1, 4))
    return [scale * rng.choice((-1, 1)) * x for x in base]


def raw_pole(rng: random.Random, gram, drift) -> list:
    """Rational pole whose g-norm is irrational and, for a nonzero drift,
    with g(Q, pole) != 0, so its flag must take the floating branch."""
    while True:
        pole = [F(nonzero(rng, 6), rng.randint(1, 4)) for _ in range(len(gram))]
        if isinstance(sqrt_rational(inner(gram, pole, pole)), F):
            continue
        if any(drift) and inner(gram, drift, pole) == 0:
            continue
        return pole


def algebra_document(rng: random.Random, dim: int, floating: bool) -> dict:
    """R semidirect_D R^(dim-1) with a sparse rational derivation D and a
    metric L L^T; floating documents carry the same numbers as decimals.
    D has dim-1 nonzero entries and L has dim(dim-1)/4 nonzero entries below
    the diagonal, at seeded places, so the cost of one dimension's documents
    varies little."""
    m = dim - 1
    d = [[F(0)] * m for _ in range(m)]
    for slot in rng.sample(range(m * m), m):
        d[slot // m][slot % m] = F(nonzero(rng, 3), rng.randint(1, 3))
    low = [[F(0)] * dim for _ in range(dim)]
    for i in range(dim):
        low[i][i] = F(rng.randint(1, 3), rng.randint(1, 2))
    below = [(i, j) for i in range(dim) for j in range(i)]
    for i, j in rng.sample(below, len(below) // 2):
        low[i][j] = F(nonzero(rng, 2), rng.randint(1, 3))
    gram = [[sum(low[i][k] * low[j][k] for k in range(dim)) for j in range(dim)]
            for i in range(dim)]
    text = (lambda x: repr(float(x))) if floating else render
    brackets = []
    for j in range(1, dim):
        # [e0, e_j] = D e_j; the ideal R^(dim-1) is abelian, so Jacobi holds
        coeffs = [F(0)] + [d[k][j - 1] for k in range(m)]
        if any(coeffs):
            brackets.append({"i": 0, "j": j, "coeffs": [text(c) for c in coeffs]})
    return {"dim": dim, "brackets": brackets,
            "metric": [[text(x) for x in row] for row in gram]}


def inverse(gram) -> list:
    """Gauss-Jordan inverse; exact on rationals, float otherwise."""
    n = len(gram)
    exact = all(is_exact(x) for row in gram for x in row)
    one = F(1) if exact else 1.0
    aug = [[(F(x) if exact else float(x)) for x in row]
           + [one if i == j else one * 0 for j in range(n)] for i, row in enumerate(gram)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(aug[r][c]))
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def ricci_scalar(rt, gram):
    """g^{jk} Ric_jk with Ric_jk = sum_i R(e_i, e_j) e_k |_i, from rt.table."""
    n = len(gram)
    ginv = inverse(gram)
    table = rt.table
    return sum(ginv[j][k] * sum(table[i][j][k][i] for i in range(n))
               for j in range(n) for k in range(n))


class Workload:
    name = ""
    cycle = 1
    speed_probe = "kernel"  # see hostspeed.py

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def rng(self, i) -> random.Random:
        # str seeds hash through sha512, so they do not depend on PYTHONHASHSEED
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def make_input(self, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> tuple[bool, bool, str]:
        """(correct, exact, reason when not correct), run outside the timing."""
        raise NotImplementedError

    def collect(self, tracer, out) -> None:
        """After a traced op, outside the timing: fold in spans recorded
        outside this process."""


class CatalogReport(Workload):
    """liecurv report, one instance per op: get_case, then reproduce."""

    name = "catalog_report"
    # Cases 1-6 with the parametric case 4 twice per round. Half its slots
    # take (-1, 0), where its Randers section applies and which makes the
    # dearest op, and half a seeded rational draw. At 2 in 14 ops the (-1, 0)
    # class holds op_p90_ms well inside itself instead of on a class edge.
    ROUND = (1, 2, 3, 4, 5, 6, 4)
    cycle = 14

    def make_input(self, i: int):
        rng = self.rng(i)
        case_id = self.ROUND[i % 7]
        alpha = beta = None
        if case_id == 4:
            if i % self.cycle in (3, 13):  # two of the four case-4 slots
                alpha, beta = F(-1), F(0)
            else:
                while True:
                    alpha, beta = rand_rational(rng, 4, 3), rand_rational(rng, 4, 3)
                    if (alpha, beta) != (-1, 0):
                        break
        return case_id, alpha, beta, rng.randrange(1 << 30)

    def op(self, inp):
        case_id, alpha, beta, seed = inp
        case = catalog.get_case(case_id, alpha=alpha, beta=beta)
        return case, catalog.reproduce(case, seed=seed)

    def check(self, inp, out):
        case_id = inp[0]
        case, report = out
        if not report.passed:
            return False, False, f"case {case_id}: report failed"
        if any(not d.annotated for d in report.discrepancies):
            return False, False, f"case {case_id}: unannotated discrepancy"
        found = [(d.item, d.paper_value, d.computed_value) for d in report.discrepancies]
        want = [("scalar", "-7/2", "-5/2")] if case_id == 6 else []
        if found != want:
            return False, False, f"case {case_id}: discrepancies {found}, expected {want}"
        exact = (all(is_exact(v) for v in case.params.values())
                 and all_exact(case.algebra.structure) and all_exact(case.metric.gram)
                 and all(re.fullmatch(r"-?\d+(/\d+)?", c) for _, _, c in found))
        return True, exact, ""


FLAG_CASES = ((1, None, None), (2, None, None), (3, None, None), (6, None, None),
              (4, F(-1), F(0)))


class FlagSurvey(Workload):
    """One randers.flag_curvature call per op over the five flag cases."""

    name = "flag_survey"
    cycle = 40  # 5 cases x 4 drifts (one zero) x {rational-norm, raw} poles
    DRIFTS = 4

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.cases = []
        for case_id, alpha, beta in FLAG_CASES:
            case = catalog.get_case(case_id, alpha=alpha, beta=beta)
            metric = case.metric
            conn = riemann.levi_civita(case.algebra, metric)
            rt = riemann.riemann_tensor(conn)
            fixture = case.expected["randers"]
            template = fixture["drift"]
            names = sorted({t for t in template if not re.fullmatch(r"-?\d+", t)})
            rng = self.rng(f"drift{case_id}")
            drifts = []
            for k in range(self.DRIFTS):
                # one zero drift per case; the others inside g(Q,Q) < 1
                env = {name: (F(0) if k == 0 else F(nonzero(rng, 6), 10)) for name in names}
                q = [env[t] if t in env else F(t) for t in template]
                drifts.append((env, q, randers.build_randers(metric, q, conn)))
            self.cases.append((case, metric.gram, rt, drifts,
                               exprs.parse_expr(fixture["flag_curvature"])))

    def make_input(self, i: int):
        slot = i % self.cycle
        case_index, drift_index = slot % 5, (slot // 5) % self.DRIFTS
        rational = slot < self.cycle // 2
        rng = self.rng(i)
        _, gram, _, drifts, _ = self.cases[case_index]
        q = drifts[drift_index][1]
        pole = rational_norm_pole(rng) if rational else raw_pole(rng, gram, q)
        edge = independent_edge(rng, gram, pole)
        return case_index, drift_index, rational, Vector(pole), Vector(edge)

    def op(self, inp):
        case_index, drift_index, _, pole, edge = inp
        _, _, rt, drifts, _ = self.cases[case_index]
        return randers.flag_curvature(drifts[drift_index][2], rt, Flag(pole, edge))

    def check(self, inp, value):
        case_index, drift_index, rational, pole, edge = inp
        case, gram, rt, drifts, closed_form = self.cases[case_index]
        env, q, _ = drifts[drift_index]
        zero_drift = not any(q)
        exact = is_exact(value)
        if (rational or zero_drift) and not exact:
            return False, exact, f"case {case.id}: exact flag came back floating"
        # The closed forms assume an orthonormal flag. They are quadratic in
        # the edge coordinates, so the orthogonal edge w is used unnormalized
        # and the value divided by g(w, w): exact flags stay exact.
        pp = inner(gram, pole, pole)
        norm = sqrt_rational(pp)
        coeff = inner(gram, pole, edge) / pp
        w = [e - coeff * p for e, p in zip(edge, pole)]
        full = dict(env)
        full.update(zip(("a", "b", "c", "d"), (p / norm for p in pole)))
        full.update(zip(("ta", "tb", "tc", "td"), w))
        want = exprs.evaluate(closed_form, full) / inner(gram, w, w)
        if not close(value, want):
            return False, exact, f"case {case.id}: flag {value} != closed form {want}"
        if zero_drift and value != riemann.sectional(rt, case.metric, pole, edge)[1]:
            return False, exact, f"case {case.id}: zero-drift flag differs from sectional"
        return True, exact, ""


class RandomAlgebras(Workload):
    """The analyze pipeline on generated solvable algebras, dimension 3-6."""

    name = "random_algebras"
    cycle = 16  # dims 3, 4, 5, 6 x 4; one document per dim in each cycle is floating

    def make_input(self, i: int):
        dim = 3 + i % 4
        floating = (i // 4) % 4 == i % 4
        return floating, algebra_document(self.rng(i), dim, floating)

    def op(self, inp):
        doc = documents.parse_document(inp[1])
        digest = documents.document_digest(doc)
        alg = doc.algebra()
        jac = algebra.check_jacobi(alg)
        conn = riemann.levi_civita(alg, doc.metric)
        rt = riemann.riemann_tensor(conn)
        scalar = riemann.scalar_curvature(rt, doc.metric)
        par = randers.parallel_fields(conn)
        n = alg.dim
        planes = [riemann.sectional(rt, doc.metric, Vector.basis(n, i), Vector.basis(n, j))
                  for i in range(n) for j in range(i + 1, n)]
        return doc, digest, jac, conn, rt, scalar, par, planes

    def check(self, inp, out):
        floating = inp[0]
        doc, digest, jac, conn, rt, scalar, par, planes = out
        n = doc.dim
        exact = all_exact((scalar, conn.gamma, rt.table, [list(q) for q in par], planes))
        if not floating and not exact:
            return False, exact, f"dim {n}: exact document gave a floating result"
        if not jac.passed:
            return False, exact, f"dim {n}: Jacobi failed on a semidirect product"
        if not re.fullmatch(r"[0-9a-f]{64}", digest):
            return False, exact, f"dim {n}: bad digest {digest!r}"
        want = ricci_scalar(rt, doc.metric.gram)
        if not close(scalar, want):
            return False, exact, f"dim {n}: scalar {scalar} != Ricci trace {want}"
        for q in par:
            for i in range(n):
                if not all(close(x, 0) for x in conn.derivative(Vector.basis(n, i), q)):
                    return False, exact, f"dim {n}: parallel field {q} is not parallel"
        return True, exact, ""


CASES_WITH_DRIFT = (1, 2, 3, 6)


class CliCold(Workload):
    """One `python -m liecurv.cli ... --format json` process per op."""

    name = "cli_cold"
    # Eight commands once and the single-point report, the dearest, three
    # times: with eleven slots op_p50_ms and op_p90_ms fall inside a class
    # instead of on the edge between two.
    cycle = 11
    speed_probe = "child"  # process start-up dominates a cold call

    def __init__(self, seed: int, out_dir: Path, python: str, env: dict, root: Path):
        super().__init__(seed, out_dir)
        self.python, self.env, self.root = python, env, root
        self.traced = False  # traced ops run clitrace.py instead of -m liecurv.cli
        self.numpy_ms: list = []
        self.import_ms: list = []
        rng = self.rng("setup")
        docs = []
        for k in range(3):
            path = out_dir / f"doc{k}.json"
            path.write_text(json.dumps(algebra_document(rng, 4, floating=(k == 2))))
            docs.append(str(path))

        def drift_args(case_id):
            case = catalog.get_case(case_id)
            template = case.expected["randers"]["drift"]
            q = [F(0) if re.fullmatch(r"-?\d+", t) else F(nonzero(rng, 6), 10)
                 for t in template]
            return case, q

        sec_case = rng.choice((1, 2, 3, 5, 6))
        u = [rand_rational(rng) for _ in range(4)]
        v = independent_edge(rng, catalog.get_case(sec_case).metric.gram, u)
        r_case, r_q = drift_args(rng.choice(CASES_WITH_DRIFT))
        f_case, f_q = drift_args(rng.choice(CASES_WITH_DRIFT))
        f_pole = raw_pole(rng, f_case.metric.gram, f_q)
        f_edge = independent_edge(rng, f_case.metric.gram, f_pole)
        # --opt=value throughout: argparse reads a separate "-2:1" or "-1/2,0"
        # as an option, not a value.
        report = ["report", "--case", "4", "--alpha-grid=-1:-1", "--beta-grid=0:0"]
        self.argvs = [
            ["catalog", "list"],
            ["check", docs[0]],
            ["analyze", docs[1]],
            ["scalar", docs[2]],
            ["parallel", "--case", str(rng.choice((1, 2, 3, 5, 6)))],
            ["sectional", "--case", str(sec_case), f"--u={render_vector(u)}",
             f"--v={render_vector(v)}"],
            ["randers", "--case", str(r_case.id), f"--drift={render_vector(r_q)}",
             f"--pole={render_vector(rational_norm_pole(rng))}"],
            ["flag", "--case", str(f_case.id), f"--drift={render_vector(f_q)}",
             f"--pole={render_vector(f_pole)}", f"--edge={render_vector(f_edge)}"],
            report, report, report,
        ]
        self.argvs = [argv + ["--format", "json"] for argv in self.argvs]
        # The oracle: the same commands run in this process.
        self.expected = []
        for argv in self.argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = cli.main(argv)
            if status != 0:
                raise RuntimeError(f"in-process {argv} exited {status}")
            self.expected.append(json.loads(buf.getvalue()))
        self.stats_path = out_dir / "child_stats.json"

    def make_input(self, i: int):
        return i % self.cycle

    def command(self, k: int) -> list:
        if self.traced:
            return [self.python, "-X", "importtime", str(BENCH_DIR / "clitrace.py"),
                    "--stats", str(self.stats_path), "--"] + self.argvs[k]
        return [self.python, "-m", "liecurv.cli"] + self.argvs[k]

    def op(self, k):
        return subprocess.run(self.command(k), cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=60)

    def collect(self, tracer, proc) -> None:
        if proc.returncode != 0:
            return
        stats = json.loads(self.stats_path.read_text())
        self.stats_path.unlink()
        tracer.merge(stats)
        self.numpy_ms.append(numpy_import_ms(proc.stderr))
        self.import_ms.append(stats["import_ms"])

    def check(self, k, proc):
        if proc.returncode != 0:
            return False, False, f"{self.argvs[k]} exited {proc.returncode}: {proc.stderr[-300:]}"
        try:
            got = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return False, False, f"{self.argvs[k]} printed no JSON envelope"
        if not same_json(got, self.expected[k]):
            return False, False, f"{self.argvs[k]}: envelope differs from in-process run"
        return True, not has_float(got["sections"]), ""


def same_json(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and not isinstance(a, bool) and not isinstance(b, bool) and close(a, b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(
            same_json(x, y) for x, y in zip(a, b))
    return a == b and type(a) is type(b)


def has_float(value) -> bool:
    if isinstance(value, float):
        return True
    if isinstance(value, dict):
        return any(has_float(v) for v in value.values())
    if isinstance(value, list):
        return any(has_float(v) for v in value)
    return False


WORKLOADS = {w.name: w for w in (CatalogReport, FlagSurvey, RandomAlgebras, CliCold)}
