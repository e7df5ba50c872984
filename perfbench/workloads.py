"""The four workloads: seeded inputs, the operations of one pass, output checks.

A workload is built once per process from the seed (that is its set-up)
and then hands out the same list of operations for every pass. An
operation is one call into gridmagic, made through the package's module
attributes so that a traced pass sees it, plus a check of its output.
Checks take their expectations from the inputs, the corruption applied,
the closed-form sums or counts pinned below, never from a verifier call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gridmagic as gm

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS_PATH = HERE / "digests.json"


@dataclass
class Op:
    """One timed call and the check of what it returned."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # problem found, or None
    elements: Callable[[object], int]  # labels built, verified, serialized or rendered
    examined: Callable[[object], int] = lambda result: 0  # oracle assignments


# --- inputs ------------------------------------------------------------

# The near-capacity specs of the test suite, one per dimension.
PINNED_SPECS = [
    (577, 577),
    (60, 60, 55),
    (20, 20, 20, 20),
    (10, 10, 10, 10, 10),
    (7, 7, 7, 7, 6, 6),
]
ALL_TWO_SPECS = [(2,) * d for d in range(2, 7)]
WIDE_SPEC = (4,) * 9


def element_count(dims: tuple[int, ...]) -> int:
    """|V| + |E| of a grid, by arithmetic."""
    v = math.prod(dims)
    return v + sum((n - 1) * (v // n) for n in dims)


def draw_dims(rng: np.random.Generator, d: int, target: int) -> tuple[int, ...]:
    """Canonical d-dimensional sides, each log-uniform from 2 up.

    Redrawn until |V| + |E| lies within 10% of `target`, so the shapes vary
    with the seed while the work per spec stays the same.
    """
    high = math.log(max(3.0, 4.0 * (target / (d + 1)) ** (1.0 / d)))
    while True:
        dims = tuple(
            sorted(
                (max(2, int(math.exp(rng.uniform(math.log(2.0), high)))) for _ in range(d)),
                reverse=True,
            )
        )
        if 0.9 * target <= element_count(dims) <= 1.1 * target:
            return dims


def caller_order(rng: np.random.Generator, dims: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical sides in a seeded order that is not the canonical one."""
    shuffled = tuple(dims[i] for i in rng.permutation(len(dims)))
    if shuffled == dims and len(set(dims)) > 1:
        shuffled = dims[::-1]
    return shuffled


# --- construct_verify ----------------------------------------------------


class ConstructVerify:
    """Magic labelings built and verified, and corrupted ones rejected.

    Per spec: build_labelings -> combine_supermagic -> the three verifiers.
    Per candidate of RejectedCandidates: the matching verifier alone.
    """

    tail_percentile = 95

    def __init__(self, rng: np.random.Generator):
        # five draws per dimension at 2e5 labels, so that the median operation
        # is one of many array-bound drawn specs rather than a small,
        # overhead-bound one whose time swings with the shared host
        sizes = (2_000, 20_000) + (200_000,) * 5
        drawn = [draw_dims(rng, d, t) for d in range(2, 7) for t in sizes]
        specs = PINNED_SPECS + ALL_TWO_SPECS + [WIDE_SPEC] + drawn
        ops = [self._op(gm.GridSpec(dims)) for dims in specs] + RejectedCandidates(rng).ops()
        self._ops = [ops[i] for i in rng.permutation(len(ops))]

    def ops(self) -> list[Op]:
        return self._ops

    @staticmethod
    def _op(spec: gm.GridSpec) -> Op:
        sums = gm.closed_form_sums(spec)
        expected = (("vertex", sums.c_vertex), ("edge", sums.c_edge), ("total", sums.c_total))

        def run():
            f, g = gm.build_labelings(spec)
            total = gm.combine_supermagic(f, g)
            return (
                gm.verify_vertex_magic(spec, f),
                gm.verify_edge_magic(spec, g),
                gm.verify_supermagic(spec, total),
            )

        def check(reports):
            for report, (kind, want) in zip(reports, expected):
                if report.kind != kind or not report.bijective or report.magic_sum != want:
                    return f"{spec.dims} {kind}: {report}"
            return None

        labels = spec.vertex_count + spec.edge_count
        # built once, verified once per class and once as a total labeling
        return Op("construct_verify", run, check, lambda _: 3 * labels)


# --- rejected candidates (part of construct_verify) ----------------------

VERIFIERS = {"vertex": "verify_vertex_magic", "edge": "verify_edge_magic", "total": "verify_supermagic"}


def _far_pair(rng: np.random.Generator, shape: tuple[int, ...]) -> tuple[int, int]:
    """Two flat positions at distance >= 2 along some axis: no unit cube holds both."""
    size = math.prod(shape)
    while True:
        a, b = (int(x) for x in rng.integers(size, size=2))
        ca, cb = np.unravel_index(a, shape), np.unravel_index(b, shape)
        if max(abs(int(x) - int(y)) for x, y in zip(ca, cb)) >= 2:
            return a, b


class RejectedCandidates:
    """The verifiers on rejected candidates built during set-up.

    Per spec and kind: one transposition of two labels that share no cube
    (still bijective, cube sums exactly {c - delta, c, c + delta}), one
    duplicated label (not bijective) and one uniform random permutation
    within the kind's label range (bijective, not magic).
    """

    def __init__(self, rng: np.random.Generator):
        # d = 2, 4 and 6 of the pinned specs; the seed picks the corrupted
        # positions and the random permutations
        specs = [PINNED_SPECS[0], PINNED_SPECS[2], PINNED_SPECS[4]]
        self.candidates = []
        for dims in specs:
            self.candidates.extend(self._candidates(rng, gm.GridSpec(dims)))

    @staticmethod
    def _corrupt(rng, flat, shape):
        a, b = _far_pair(rng, shape)
        swapped = flat.copy()
        swapped[[a, b]] = flat[[b, a]]
        duplicated = flat.copy()
        duplicated[a] = flat[b]
        return swapped, abs(int(flat[a]) - int(flat[b])), duplicated

    def _candidates(self, rng, spec: gm.GridSpec) -> list[tuple]:
        f, g = gm.build_labelings(spec)
        sums = gm.closed_form_sums(spec)
        nv, ne = spec.vertex_count, spec.edge_count
        vflat, eflat = f.flat, g.flat
        v_swap, v_delta, v_dup = self._corrupt(rng, vflat, spec.dims)
        # swap inside the axis-1 block, which leads the edge enumeration order
        e_swap, e_delta, e_dup = self._corrupt(rng, eflat, g.per_axis[0].shape)
        v_rand = rng.permutation(nv) + 1
        e_rand = rng.permutation(ne) + 1
        e_shift = eflat + nv
        vertex = lambda flat: gm.vertex_labeling_from_flat(spec, flat)
        edge = lambda flat: gm.edge_labeling_from_flat(spec, flat)
        total = lambda vflat, eflat: gm.total_labeling_from_flats(spec, vflat, eflat)
        c_v, c_e, c_t = sums.c_vertex, sums.c_edge, sums.c_total
        return [
            (spec, "vertex", vertex(v_swap), ("swap", c_v, v_delta)),
            (spec, "vertex", vertex(v_dup), ("duplicate",)),
            (spec, "vertex", vertex(v_rand), ("random",)),
            (spec, "edge", edge(e_swap), ("swap", c_e, e_delta)),
            (spec, "edge", edge(e_dup), ("duplicate",)),
            (spec, "edge", edge(e_rand), ("random",)),
            (spec, "total", total(v_swap, e_shift), ("swap", c_t, v_delta)),
            (spec, "total", total(v_dup, e_shift), ("duplicate",)),
            (spec, "total", total(v_rand, e_rand + nv), ("random",)),
        ]

    def ops(self) -> list[Op]:
        return [self._op(*candidate) for candidate in self.candidates]

    @staticmethod
    def _op(spec, kind, labeling, corruption) -> Op:
        verifier = VERIFIERS[kind]

        def check(report):
            what = corruption[0]
            if report.kind != kind:
                return f"{spec.dims} {kind} {what}: report kind {report.kind}"
            if what == "swap":
                _, c, delta = corruption
                ok = (
                    report.bijective
                    and not report.magic
                    and report.distinct_count == 3
                    and report.cube_sum_values == (c - delta, c, c + delta)
                )
            elif what == "duplicate":
                ok = not report.bijective
            else:
                ok = report.bijective and not report.magic
            return None if ok else f"{spec.dims} {kind} {what}: {report}"

        labels = {
            "vertex": spec.vertex_count,
            "edge": spec.edge_count,
            "total": spec.vertex_count + spec.edge_count,
        }[kind]
        return Op(
            f"rejected.{corruption[0]}",
            lambda: getattr(gm, verifier)(spec, labeling),
            check,
            lambda _: labels,
        )


# --- document_cli --------------------------------------------------------

# Fixed caller dims whose `generate` and `render` stdout must stay byte-identical.
DIGEST_DOCS = (("5,7", "total"), ("3,4,2", "vertex"), ("3,2,4,2", "edge"))
DIGEST_RENDERS = {"5,7": ("tikz2d", "dot", "csv"), "3,4,2": ("tikz3d", "csv"), "3,2,4,2": ("dot", "csv")}
# Fixed sizes, so that the seed moves only axis orders and lookups and a
# pass costs the same for every seed.
LARGE_DOC = (577, 577)
MID_DOCS = [(150, 67), (29, 22, 12), (12, 10, 8, 7)]  # ~3e4 labels each
COVER_DIMS = [(100, 50), (23, 15, 11), (10, 8, 7, 6)]  # ~1.5e4 labels each
SMALL_DOCS = [(17, 8), (6, 5, 4)]  # ~400 labels, for the TikZ renderers
# Vertex and edge lookups per mid document. With 60 lookups among 101
# operations the median operation is a lookup, which today rebuilds the
# whole labeling, rather than the edge between two unlike kinds of call.
LOOKUPS_PER_KIND = 10


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process CLI call with stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gm.cli(argv)
    return code, out.getvalue()


# Coordinate and rank arithmetic is redone here rather than taken from
# grid_core, so that the lookup checks stay independent of the code they check.


def _canonical(perm: tuple[int, ...], caller: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(caller)
    for i, c in enumerate(caller):
        out[perm[i] - 1] = c
    return tuple(out)


def _vertex_rank(dims, v) -> int:
    rank = 0
    for c, n in zip(v, dims):
        rank = rank * n + (c - 1)
    return rank


def _edge_rank(dims, base, axis) -> int:
    v = math.prod(dims)
    rank = sum((n - 1) * (v // n) for n in dims[: axis - 1])
    shape = [n - 1 if i == axis - 1 else n for i, n in enumerate(dims)]
    return rank + _vertex_rank(shape, base)


class Doc:
    """A total-labeling document the CLI generates, in a seeded caller axis order."""

    kind = "total"

    def __init__(self, rng, tmp: Path, name: str, canonical: tuple[int, ...]):
        self.caller = caller_order(rng, canonical)
        self.canonical = canonical
        self.arg = ",".join(map(str, self.caller))
        self.path = str(tmp / f"{name}.json")
        order = sorted(range(len(self.caller)), key=lambda i: (-self.caller[i], i))
        self.perm = tuple(order.index(i) + 1 for i in range(len(self.caller)))
        spec = gm.GridSpec(canonical)
        self.nv, self.ne = spec.vertex_count, spec.edge_count
        self.sums = gm.closed_form_sums(spec)
        self.labels = self.nv + self.ne


def _expect(code: int, problem: str | None) -> str | None:
    """Every CLI call of the workload should exit 0."""
    return f"exit {code}, want 0" if code != 0 else problem


class DocumentCli:
    """gridmagic.cli in process: generate, verify, render, predict, cover, lookups."""

    tail_percentile = 90

    def __init__(self, rng: np.random.Generator):
        self.tmp = ROOT / ".bench_out" / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.large = Doc(rng, self.tmp, "large", LARGE_DOC)
        self.mid = [Doc(rng, self.tmp, f"mid{len(dims)}", dims) for dims in MID_DOCS]
        self.cover = [caller_order(rng, dims) for dims in COVER_DIMS]
        self.small = [Doc(rng, self.tmp, f"small{len(dims)}", dims) for dims in SMALL_DOCS]
        self.lookups = {doc.path: self._lookups(rng, doc) for doc in self.mid}
        self.digest_cases = digest_cases(self.tmp)
        self.expected_digests = json.loads(DIGESTS_PATH.read_text())
        self.order = rng.permutation(len(self.mid) + len(self.cover) + len(self.small) + 2)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    @staticmethod
    def _lookups(rng, doc: Doc) -> list[tuple]:
        out = []
        for _ in range(LOOKUPS_PER_KIND):
            out.append(("vertex", tuple(int(rng.integers(1, n + 1)) for n in doc.caller)))
        for _ in range(LOOKUPS_PER_KIND):
            axis = int(rng.integers(1, len(doc.caller) + 1))
            base = tuple(
                int(rng.integers(1, n if i == axis - 1 else n + 1)) for i, n in enumerate(doc.caller)
            )
            out.append(("edge", base, axis))
        return out

    def ops(self) -> list[Op]:
        groups = (
            [self._large_ops(), self._digest_ops()]
            + [self._mid_ops(doc) for doc in self.mid]
            + [self._cover_op(dims) for dims in self.cover]
            + [self._small_ops(doc) for doc in self.small]
        )
        return [op for i in self.order for op in groups[i]]

    @staticmethod
    def _cli_op(name, argv, check, labels=0) -> Op:
        def checked(result):
            code, out = result
            return check(code, out)

        return Op(f"document_cli.{name}", lambda: run_cli(argv), checked, lambda _: labels)

    def _generate_op(self, doc: Doc) -> Op:
        argv = ["generate", "--dims", doc.arg, "--kind", doc.kind, "--out", doc.path]
        return self._cli_op(
            "generate", argv, lambda code, out: _expect(code, out or None), doc.labels
        )

    def _verify_op(self, doc: Doc) -> Op:
        want = f"MAGIC sum={doc.sums.c_total}"

        def check(code, out):
            last = out.rstrip("\n").split("\n")[-1]
            return _expect(code, None if last == want else f"verify said {last!r}, want {want!r}")

        return self._cli_op("verify", ["verify", doc.path], check, doc.labels)

    def _large_ops(self) -> list[Op]:
        return [self._generate_op(self.large), self._verify_op(self.large)]

    def _mid_ops(self, doc: Doc) -> list[Op]:
        state: dict[str, object] = {}
        rows = doc.labels + 1

        def csv_check(code, out):
            state["csv"] = out
            lines = out.split("\n")
            if len(lines) != rows + 1 or lines[-1] != "":
                return f"csv of {doc.arg} has {len(lines) - 1} rows, want {rows}"
            return _expect(code, None)

        def render_csv_check(code, out):
            return _expect(code, None if out == state.get("csv") else "render csv != generate csv")

        def dot_check(code, out):
            lines = out.split("\n")
            ok = lines[0] == "graph gridmagic {" and len(lines) == doc.nv + doc.ne + 4
            return _expect(code, None if ok else f"dot of {doc.arg} has {len(lines)} lines")

        def load_check(loaded):
            state["doc"] = loaded
            got = (loaded.dims, loaded.axis_permutation, loaded.kind)
            want = (doc.caller, doc.perm, doc.kind)
            return None if got == want else f"load gave {got}, want {want}"

        sums = doc.sums
        predicted = f"c_vertex={sums.c_vertex} c_edge={sums.c_edge} c_total={sums.c_total}\n"
        ops = [
            self._generate_op(doc),
            self._cli_op(
                "generate_csv",
                ["generate", "--dims", doc.arg, "--kind", doc.kind, "--format", "csv"],
                csv_check,
                doc.labels,
            ),
            self._verify_op(doc),
            self._cli_op("render_csv", ["render", doc.path, "--style", "csv"], render_csv_check, doc.labels),
            self._cli_op("render_dot", ["render", doc.path, "--style", "dot"], dot_check, doc.labels),
            Op(
                "document_cli.load",
                lambda: gm.load(Path(doc.path).read_bytes()),
                load_check,
                lambda _: doc.labels,
            ),
            self._cli_op(
                "predict",
                ["predict", "--dims", doc.arg],
                lambda code, out: _expect(code, None if out == predicted else f"predict said {out!r}"),
            ),
        ]
        return ops + [self._lookup_op(doc, state, lookup) for lookup in self.lookups[doc.path]]

    def _lookup_op(self, doc: Doc, state: dict, lookup: tuple) -> Op:
        if lookup[0] == "vertex":
            coord = lookup[1]
            run = lambda: gm.document_vertex_label(state["doc"], coord)
            canonical = _canonical(doc.perm, coord)
            row = 1 + _vertex_rank(doc.canonical, canonical)
            fields = ["vertex", *map(str, canonical), ""]
        else:
            base, axis = lookup[1], lookup[2]
            run = lambda: gm.document_edge_label(state["doc"], base, axis)
            canonical = _canonical(doc.perm, base)
            canonical_axis = doc.perm[axis - 1]
            row = 1 + doc.nv + _edge_rank(doc.canonical, canonical, canonical_axis)
            fields = ["edge", *map(str, canonical), str(canonical_axis)]

        def check(label):
            want = ",".join(fields + [str(label)])
            got = state["csv"].split("\n", row + 1)[row]
            return None if got == want else f"{lookup} gave {label}, csv row {row} is {got!r}"

        return Op(f"document_cli.{lookup[0]}_label", run, check, lambda _: 1)

    def _cover_op(self, dims: tuple[int, ...]) -> list[Op]:
        argv = ["cover", "--dims", ",".join(map(str, dims))]
        check = lambda code, out: _expect(code, None if out == "COVERED\n" else f"cover said {out!r}")
        return [self._cli_op("cover", argv, check)]

    def _small_ops(self, doc: Doc) -> list[Op]:
        style = f"tikz{len(doc.caller)}d"

        def check(code, out):
            lines = out.split("\n")
            ok = lines[0].startswith("\\begin{tikzpicture}") and len(lines) == doc.nv + doc.ne + 3
            return _expect(code, None if ok else f"{style} of {doc.arg} has {len(lines)} lines")

        return [
            self._generate_op(doc),
            self._cli_op(f"render_{style}", ["render", doc.path, "--style", style], check, doc.labels),
        ]

    def _digest_ops(self) -> list[Op]:
        def check_for(key):
            def check(code, out):
                got = hashlib.sha256(out.encode()).hexdigest()
                want = self.expected_digests.get(key)
                return _expect(code, None if got == want else f"{key}: sha256 {got}, want {want}")

            return check

        return [self._cli_op("digest", argv, check_for(key)) for key, argv in self.digest_cases]


def digest_cases(tmp: Path) -> list[tuple[str, list[str]]]:
    """(key, argv) of every byte-identity case; writes the documents renders read."""
    cases = []
    for dims, kind in DIGEST_DOCS:
        path = str(tmp / f"digest-{dims.replace(',', 'x')}-{kind}.json")
        code, _ = run_cli(["generate", "--dims", dims, "--kind", kind, "--out", path])
        if code != 0:
            raise RuntimeError(f"generate --dims {dims} --kind {kind} exited {code}")
        argv = ["generate", "--dims", dims, "--kind", kind]
        cases.append((" ".join(argv), argv))
        if dims == DIGEST_DOCS[0][0]:
            cases.append((" ".join(argv + ["--format", "csv"]), argv + ["--format", "csv"]))
        for style in DIGEST_RENDERS[dims]:
            cases.append((f"render {dims}/{kind} --style {style}", ["render", path, "--style", style]))
    return cases


# --- oracle_scan ---------------------------------------------------------

# The cases of scripts/search_small_grids.py with today's histograms.
ORACLE_CASES = {
    ((2, 2), "vertex"): {10: 24},
    ((2, 2), "edge"): {10: 24},
    ((2, 2), "supermagic"): {36: 576},
    ((3, 2), "vertex"): {12: 16, 13: 16, 14: 48, 15: 16, 16: 16},
    ((3, 2), "edge"): {15: 72, 16: 72, 17: 72},
    ((2, 2, 2), "vertex"): {36: 40320},
    ((3, 3), "vertex"): {16: 16, 17: 40, 18: 40, 19: 64, 20: 56, 21: 64, 22: 40, 23: 40, 24: 16},
}
# Cases scanned without confirm_construction: for (3,3) vertex it repeats the
# whole 0.5 s scan, and every scan that long halves the passes a run gets,
# so that the best-of-passes times spread more on a shared host.
UNCONFIRMED = {((3, 3), "vertex")}
# Target-sum scans: (dims, mode, target, magic labelings at that sum). Each
# pair sits at dual sums (adding up to 52 and to 40) and counts alike. The
# (4,2) edge scan at 22 is left out: it takes 1.5 s, for the reason above.
PRUNED_CASES = [
    ((4, 3), "vertex", 28, 240),
    ((4, 3), "vertex", 24, 240),
    ((3, 3), "vertex", 18, 40),
    ((3, 3), "vertex", 22, 40),
]
ORACLE_BUDGET = 10**9


def dual_center(spec: gm.GridSpec, mode: str) -> int:
    """c + c' for a magic sum c and its complement c' under l -> range end + start - l."""
    nv, ne = spec.vertex_count, spec.edge_count
    kv, ke = 2**spec.dim, spec.cube_edge_count
    return {
        "vertex": kv * (nv + 1),
        "edge": ke * (ne + 1),
        "supermagic": kv * (nv + 1) + ke * (2 * nv + ne + 1),
    }[mode]


def _mode_labels(spec: gm.GridSpec, mode: str) -> int:
    return {"vertex": spec.vertex_count, "edge": spec.edge_count}.get(
        mode, spec.vertex_count + spec.edge_count
    )


class OracleScan:
    """exhaustive_search and confirm_construction per case, plus target-sum scans."""

    tail_percentile = 75

    def __init__(self, rng: np.random.Generator):
        ops = []
        for (dims, mode), histogram in ORACLE_CASES.items():
            case_ops = self._case_ops(gm.GridSpec(dims), mode, histogram)
            ops += case_ops[:1] if (dims, mode) in UNCONFIRMED else case_ops
        for dims, mode, target, count in PRUNED_CASES:
            ops.append(self._pruned_op(gm.GridSpec(dims), mode, target, count))
        self._ops = [ops[i] for i in rng.permutation(len(ops))]

    def ops(self) -> list[Op]:
        return self._ops

    @staticmethod
    def _case_ops(spec, mode, histogram) -> list[Op]:
        budget = gm.SearchBudget(mode, max_assignments=ORACLE_BUDGET)
        required = math.factorial(spec.vertex_count) if mode != "edge" else 1
        required *= math.factorial(spec.edge_count) if mode != "vertex" else 1
        sums = gm.closed_form_sums(spec)
        predicted = {"vertex": sums.c_vertex, "edge": sums.c_edge}.get(mode, sums.c_total)
        center = dual_center(spec, mode)
        labels = _mode_labels(spec, mode)

        def check(result):
            hist = result.sum_histogram
            if result.examined != required:
                return f"{spec.dims} {mode}: examined {result.examined}, want {required}"
            if hist != histogram:
                return f"{spec.dims} {mode}: histogram {hist}, want {histogram}"
            if any(hist.get(center - c) != n for c, n in hist.items()):
                return f"{spec.dims} {mode}: histogram not symmetric about {center}/2"
            if predicted not in hist:
                return f"{spec.dims} {mode}: predicted sum {predicted} not attained"
            return None

        return [
            Op(
                "oracle_scan.exhaustive",
                lambda: gm.exhaustive_search(spec, budget),
                check,
                lambda result: result.examined * labels,
                lambda result: result.examined,
            ),
            Op(
                "oracle_scan.confirm",
                lambda: gm.confirm_construction(spec, budget),
                lambda found: None if found is True else f"{spec.dims} {mode}: construction not found",
                lambda _: 0,
            ),
        ]

    @staticmethod
    def _pruned_op(spec, mode, target, count) -> Op:
        budget = gm.SearchBudget(mode, max_assignments=ORACLE_BUDGET)
        labels = _mode_labels(spec, mode)

        def check(result):
            want = {target: count}
            if result.sum_histogram != want or result.examined != count:
                return f"{spec.dims} {mode} @ {target}: {result.sum_histogram}, want {want}"
            return None

        return Op(
            "oracle_scan.pruned",
            lambda: gm.exhaustive_search(spec, budget, target_sum=target),
            check,
            lambda result: result.examined * labels,
            lambda result: result.examined,
        )


WORKLOADS = {
    "construct_verify": ConstructVerify,
    "document_cli": DocumentCli,
    "oracle_scan": OracleScan,
}
