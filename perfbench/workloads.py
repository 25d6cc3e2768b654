"""Seeded inputs, timed passes and output checks for the four workloads.

Every call into impdag goes through a module's public functions. Each
workload is a closed loop: one client, one input at a time. ``SETUP[name]``
turns the seed into inputs (the program only ever sees those inputs), and
``PASSES[name]`` times one pass over them. Output checks run between items,
outside the timed region, and every failed check marks the operation whose
output it judged as failed.

Why these workloads:

* ``family``: huge trees over fewer than 40 distinct formulas, so ``prover``,
  ``transform``, ``fst`` and JSON loading do nearly all the work. Fixed and
  seed-independent.
* ``sep``: the only dags with separation nodes, so ``search_choice`` and
  ``evaluate`` dominate; negative searches enumerate every commitment.
* ``verify``: the polynomial-time deciders and the tuple encoding on larger
  separation-free dags and trees, where ``checker``, ``assignment`` and
  ``deduction.threads`` do the work.
* ``cli``: the pipe ``prove | compress - | cleanse - --search | check -`` with
  a fresh interpreter per stage, so start-up, import and JSON
  serialisation count on every hop.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from impdag.assignment import prov, prov1, search_choice
from impdag.checker import (
    check_local_correctness,
    check_tuples,
    decode,
    encode,
    parse_tuples,
    render_tuples,
)
from impdag.deduction import (
    Node,
    Overflow,
    Rule,
    build,
    canonical,
    load_deduction,
    proves_by_threads,
    save_deduction,
    to_dict,
)
from impdag.formula import Implication, formula_key, parse_infix, to_infix
from impdag.fst import CleansingError, ThreadSet, check_fst, cleanse_via_fst
from impdag.gen import provable_pool, random_local_dag, random_proving_dag
from impdag.prover import family, oracle_valid, prove
from impdag.transform import compress, level, s_eliminate, unfold

import reference
from tracing import Tracer

# Tree and compressed-dag node counts of family(1..6). They must repeat
# exactly; n=6 is the README figure (10 928 tree nodes, 675 dag nodes).
# Leveled sizes are reported, not gated, so level may be fused into compress.
FAMILY_TREE_NODES = {1: 11, 2: 44, 3: 173, 4: 686, 5: 2735, 6: 10928}
FAMILY_DAG_NODES = {1: 20, 2: 75, 3: 168, 4: 299, 5: 468, 6: 675}

# The acceptance corpus of tests/test_acceptance.py: every entry is valid.
CORPUS = (
    "a -> a",
    "a -> b -> a",
    "(a -> b -> g) -> (a -> b) -> a -> g",
    "(a -> b) -> (g -> a) -> g -> b",
    "(b -> g) -> (a -> b) -> a -> g",
    "(a -> b -> g) -> b -> a -> g",
    "(a -> a -> b) -> a -> b",
    "a -> (a -> b) -> b",
    "((a -> a) -> b) -> b",
    "((a -> b) -> b) -> (b -> a) -> b -> b",
    "((a -> b) -> g) -> b -> g",
)

ATOMS = ("a", "b", "c")

# sep: random_local_dag(max_nodes=60, share=0) unfolded, leveled and closed,
# kept when the compressed root is not a separation node. A search may try
# every commitment (one branch per separation edge, C in all), so inputs are
# stratified by ceil(log2 C) and by search verdict, with a fixed quota per
# stratum. Without quotas the pass time would follow the seed's share of
# negative searches on large C. Quotas follow how often each stratum occurs,
# so set-up does not wait long on one rare stratum. The band stops at C = 64
# to keep the slowest input, and the spread between seeds, small.
SEP_MAX_NODES = 60
SEP_QUOTAS = {  # (ceil(log2 C), has a certificate): inputs
    (3, True): 9, (4, True): 21, (5, True): 14, (6, True): 21,
    (3, False): 5, (4, False): 8, (5, False): 5, (6, False): 7,
}

# verify: shared dags with exactly these node counts, as many of each as
# given, plus small prover trees (raw, leveled or compressed), which all
# prove. Sizes come in classes of several dags, whose cost also follows
# their height. The class counts put the median (inputs 18 and 19 of 36)
# and the tail (the 11th slowest) in the middle of the 300 and 1000 classes
# rather than on a class edge, which keeps them steady across seeds.
VERIFY_SIZES = {100: 6, 300: 6, 1000: 10, 3000: 6}
VERIFY_PROVER_TREES = 8
# proves_by_threads enumerates threads; past this many it returns Overflow,
# which is a cap outcome, not a failure.
VERIFY_THREAD_CAP = 2000

CLI_TIMEOUT_S = 120

# An untraced pass times the reference work (see reference.py) before an
# operation or input whenever this long has passed since the last sample.
REFERENCE_EVERY_S = 0.05

# The checkout root: impdag is imported from its src/, and cli stages run there.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Inputs:
    items: list
    fingerprint: str
    mix: dict


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _close(rng: random.Random, d, leave_open: bool):
    """Put a chain of I nodes on top of ``d`` that discharges every leaf
    formula, except one chosen at random when ``leave_open``."""
    leaf_formulas = sorted(
        {n.formula for n in d.nodes.values() if n.rule is Rule.LEAF}, key=formula_key
    )
    if leave_open:
        leaf_formulas.remove(rng.choice(leaf_formulas))
    rng.shuffle(leaf_formulas)
    k = len(leaf_formulas)
    nodes = [Node(n.id, n.formula, n.rule, n.height + k, n.children) for n in d.nodes.values()]
    top, formula, next_id = d.root, d.node(d.root).formula, max(d.nodes) + 1
    for height, hypothesis in zip(range(k - 1, -1, -1), leaf_formulas):
        formula = Implication(hypothesis, formula)
        nodes.append(Node(next_id, formula, Rule.I, height, (top,)))
        top, next_id = next_id, next_id + 1
    return canonical(build(nodes, top))


def _separation_edges(d) -> list[tuple[int, int]]:
    return sorted((p, n.id) for n in d.nodes.values() if n.rule is Rule.S for p in d.parents[n.id])


def _commitments(dag, edges) -> int:
    return math.prod(len(dag.node(s).children) for _, s in edges)


def _has_certificate(dag) -> bool:
    """Known answer for a search: try every commitment, independently of
    search_choice, with s_eliminate + prov1."""
    edges = _separation_edges(dag)
    branches = [range(1, len(dag.node(s).children) + 1) for _, s in edges]
    return any(
        prov1(s_eliminate(dag, dict(zip(edges, picks)))) for picks in itertools.product(*branches)
    )


# ---------------------------------------------------------------- set-up


def setup_family(seed: int) -> Inputs:
    items = [(n, family(n)) for n in range(1, 7)]
    return Inputs(items, _digest([to_infix(f) for _, f in items]), {"members": len(items)})


def setup_sep(seed: int) -> Inputs:
    rng = random.Random(seed)
    wanted = dict(SEP_QUOTAS)
    items = []
    while any(wanted.values()):
        tree = unfold(random_local_dag(rng, max_nodes=SEP_MAX_NODES, atoms=ATOMS, share=0))
        if isinstance(tree, Overflow):
            continue
        tree = _close(rng, level(tree), leave_open=rng.random() < 0.5)
        dag, _ = compress(tree)
        edges = _separation_edges(dag)
        if dag.node(dag.root).rule is Rule.S or not edges:
            continue
        log_commitments = math.ceil(math.log2(_commitments(dag, edges)))
        if not (wanted.get((log_commitments, True)) or wanted.get((log_commitments, False))):
            continue
        stratum = (log_commitments, search_choice(dag) is not None)
        if not wanted[stratum]:
            continue
        wanted[stratum] -= 1
        items.append((tree, len(edges), prov(tree)))
    mix = {
        "trees": len(items),
        "tree_nodes": sum(len(t.nodes) for t, _, _ in items),
        "separation_edges": sum(e for _, e, _ in items),
        "proving_trees": sum(p for _, _, p in items),
        "positive_searches": sum(n for (_, found), n in SEP_QUOTAS.items() if found),
    }
    return Inputs(items, _digest([to_dict(t) for t, _, _ in items]), mix)


def setup_verify(seed: int) -> Inputs:
    rng = random.Random(seed)
    items = []
    for size, count in VERIFY_SIZES.items():
        for _ in range(count):
            d = random_local_dag(rng, max_nodes=size, atoms=ATOMS)
            while len(d.nodes) != size:
                d = random_local_dag(rng, max_nodes=size, atoms=ATOMS)
            items.append((d, None))
    pool = provable_pool(max_weight=9, atoms=("a", "b"))
    items.extend((random_proving_dag(rng, pool), True) for _ in range(VERIFY_PROVER_TREES))
    mix = {
        "inputs": len(items),
        "nodes": sum(len(d.nodes) for d, _ in items),
        "known_proving": sum(1 for _, known in items if known),
        "tree_like": sum(1 for d, _ in items if all(len(ps) <= 1 for ps in d.parents.values())),
    }
    return Inputs(items, _digest([to_dict(d) for d, _ in items]), mix)


def setup_cli(seed: int) -> Inputs:
    items = [(text, None) for text in CORPUS]
    items.extend((to_infix(family(n)), n) for n in range(1, 6))
    return Inputs(items, _digest([text for text, _ in items]), {"formulas": len(items)})


# ---------------------------------------------------------------- passes


@dataclass
class Pass:
    """Bookkeeping for one pass: item latencies, operations and failures."""

    tr: Tracer
    items_ms: list = field(default_factory=list)
    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    wrong: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    mix: Counter = field(default_factory=Counter)
    # Set where the work runs in child processes: the largest child's RSS.
    children_peak_kb: int | None = None
    reference_ms: list = field(default_factory=list)
    # Per input, the reference samples taken before it ends: (first, end)
    # indexes, where samples[first:end] were taken while it ran.
    items_refs: list = field(default_factory=list)
    # Reference time spent so far, which Item takes out of its latency.
    reference_total_ms: float = 0.0
    _last_reference: float = 0.0

    def calibrate(self) -> None:
        """Sample the reference work, outside every timed input, when
        REFERENCE_EVERY_S has passed since the last sample."""
        if self.tr.on:
            return
        now = time.perf_counter()
        if now - self._last_reference < REFERENCE_EVERY_S:
            return
        ms = reference.sample_ms()
        self.reference_ms.append(ms)
        self.reference_total_ms += ms
        self._last_reference = time.perf_counter()

    def op(self, name: str, item: int, fn, *args, peak: bool = False):
        self.attempted += 1
        self.calibrate()
        try:
            with self.tr.span(name, item, peak):
                return fn(*args)
        except Exception:
            self.failed_ops.add((item, name))
            raise

    def expect(self, ok: bool, item: int, name: str, message: str) -> None:
        """A check on the output of operation ``name``; a miss is a wrong answer."""
        if not ok:
            self.failed_ops.add((item, name))
            self.wrong.append(f"item {item}: {name}: {message}")

    def result(self) -> dict:
        return {
            "run_s": sum(self.items_ms) / 1000,
            "items_ms": self.items_ms,
            "attempted": self.attempted,
            "failed_ops": sorted(self.failed_ops),
            "wrong": self.wrong,
            "outputs": [_digest(o) for o in self.outputs],
            "mix": dict(self.mix),
            "children_peak_kb": self.children_peak_kb,
            "reference_ms": self.reference_ms,
            "items_refs": self.items_refs,
        }


class Item:
    """Times one input; an exception ends the input and is reported, not
    raised."""

    def __init__(self, p: Pass, index: int) -> None:
        self.p, self.index, self.ok = p, index, True

    def __enter__(self) -> "Item":
        self.p.calibrate()
        self.span = self.p.tr.span("item", self.index)
        self.span.__enter__()
        self.reference_before_ms = self.p.reference_total_ms
        self.first_reference = len(self.p.reference_ms)
        self.start = time.perf_counter()
        return self

    def __exit__(self, kind, exc, tb) -> bool:
        elapsed_ms = (time.perf_counter() - self.start) * 1000
        self.span.__exit__(kind, exc, tb)
        self.p.items_ms.append(elapsed_ms - (self.p.reference_total_ms - self.reference_before_ms))
        self.p.items_refs.append((self.first_reference, len(self.p.reference_ms)))
        if not isinstance(exc, Exception):
            return False
        self.ok = False
        self.p.failed_ops.add((self.index, "item"))
        self.p.wrong.append(f"item {self.index}: {type(exc).__name__}: {exc}")
        return True


def pass_family(inputs: Inputs, p: Pass, first: bool) -> None:
    tr = p.tr
    for i, (n, f) in enumerate(inputs.items):
        with Item(p, i) as it:
            tree = p.op("prover.prove", i, prove, f)
            leveled = p.op("transform.level", i, level, tree, peak=True)
            dag, image = p.op("transform.compress", i, compress, leveled, peak=True)
            fst_report = p.op("fst.check_fst", i, check_fst, dag, ThreadSet(image))
            _, cleansed = p.op("fst.cleanse_via_fst", i, cleanse_via_fst, dag, ThreadSet(image))
            lc = p.op("checker.check_local_correctness", i, check_local_correctness, cleansed)
            proves = p.op("assignment.prov", i, prov, cleansed)
            buf = io.StringIO()
            p.op("deduction.save_deduction", i, save_deduction, leveled, buf)
            text = buf.getvalue()
            loaded = p.op("deduction.load_deduction", i, load_deduction, io.StringIO(text),
                          peak=True)
        if not it.ok:
            continue
        p.expect(len(tree.nodes) == FAMILY_TREE_NODES[n], i, "prover.prove",
                 f"{len(tree.nodes)} tree nodes, expected {FAMILY_TREE_NODES[n]}")
        p.expect(len(dag.nodes) == FAMILY_DAG_NODES[n], i, "transform.compress",
                 f"{len(dag.nodes)} dag nodes, expected {FAMILY_DAG_NODES[n]}")
        p.expect(fst_report.is_fst, i, "fst.check_fst", "image is not a fundamental set")
        p.expect(lc.ok, i, "checker.check_local_correctness", "cleansed dag not locally correct")
        p.expect(proves, i, "assignment.prov", "cleansed dag does not prove")
        p.outputs.append([len(tree.nodes), len(leveled.nodes), len(dag.nodes), len(image),
                          len(cleansed.nodes), hashlib.sha256(text.encode()).hexdigest()[:16]])
        if first:
            # Every later pass must repeat these outputs (run.py compares
            # them), so the costly checks run on the first pass alone and
            # leave more of the run for timed passes.
            p.expect(oracle_valid(f), i, "prover.prove", "oracle says the formula is invalid")
            p.expect(tree.node(tree.root).formula == f, i, "prover.prove",
                     "root formula differs")
            p.expect(check_local_correctness(dag).ok, i, "transform.compress",
                     "dag not locally correct")
            p.expect(prov1(cleansed), i, "fst.cleanse_via_fst",
                     "prov1 says the cleansed dag does not prove")
            p.expect(to_dict(loaded) == to_dict(leveled), i, "deduction.load_deduction",
                     "JSON round trip changed the deduction")
        if tr.on:
            tr.count("prover.prove.calls")
            tr.count("prover.prove.nodes_out", len(tree.nodes))
            tr.count("transform.level.nodes_out", len(leveled.nodes))
            tr.ratio("transform.level.pad_ratio", len(leveled.nodes), len(tree.nodes))
            _count_compress(tr, dag, image)
            tr.count("fst.cleanse_via_fst.threads_in", len(image))
            tr.ratio("fst.cleanse_via_fst.kept_ratio", len(cleansed.nodes), len(dag.nodes))
            tr.count("deduction.load_deduction.bytes", len(text.encode()))
            tr.ratio("deduction.load_deduction.distinct_formula_ratio",
                     len({m.formula for m in loaded.nodes.values()}), len(loaded.nodes))


def _count_compress(tr: Tracer, dag, image) -> None:
    tr.count("transform.compress.nodes_out", len(dag.nodes))
    tr.count("transform.compress.image_threads", len(image))
    tr.count("transform.compress.s_nodes", sum(n.rule is Rule.S for n in dag.nodes.values()))


def pass_sep(inputs: Inputs, p: Pass, first: bool) -> None:
    """Known answers: a certificate must survive s_eliminate + prov + prov1,
    a proving tree must get one, and (on the first pass) every negative
    search is confirmed by trying all commitments. Later passes must
    reproduce the first pass's outputs, which run.py compares."""
    tr = p.tr
    for i, (tree, edges, tree_proves) in enumerate(inputs.items):
        cleanse_failed = False
        choice = cleansed = kept = None
        with Item(p, i) as it:
            dag, image = p.op("transform.compress", i, compress, tree, peak=True)
            choice = p.op("assignment.search_choice", i, search_choice, dag)
            if choice is not None:
                cleansed = p.op("transform.s_eliminate", i, s_eliminate, dag, choice)
                proves = p.op("assignment.prov", i, prov, cleansed)
            if tree_proves:
                try:
                    _, kept = p.op("fst.cleanse_via_fst", i, cleanse_via_fst, dag,
                                   ThreadSet(image))
                except CleansingError:
                    # Greedy cleansing does not backtrack: a failure, not a wrong answer.
                    cleanse_failed = True
        if not it.ok:
            continue
        p.expect(dag.node(dag.root).rule is not Rule.S, i, "transform.compress", "root is S")
        p.expect(len(_separation_edges(dag)) == edges, i, "transform.compress",
                 "separation-edge count differs from set-up")
        if choice is not None:
            p.expect(proves and prov1(cleansed), i, "assignment.search_choice",
                     "certificate does not make the dag prove")
        elif tree_proves:
            p.expect(False, i, "assignment.search_choice", "proving tree got no certificate")
        elif first:
            p.expect(not _has_certificate(dag), i, "assignment.search_choice",
                     "a certificate exists but the search found none")
        if kept is not None:
            p.expect(prov1(kept), i, "fst.cleanse_via_fst", "cleansed dag does not prove")
        p.mix["positive_searches" if choice is not None else "negative_searches"] += 1
        p.mix["cleanse_failures"] += cleanse_failed
        p.outputs.append([len(dag.nodes), None if choice is None else sorted(choice.items()),
                          cleanse_failed])
        if tr.on:
            _count_compress(tr, dag, image)
            tr.count("assignment.search_choice.calls")
            tr.count("assignment.search_choice.edges", edges)
            tr.ratio("assignment.search_choice.found_ratio", choice is not None, 1)
            if tree_proves:
                tr.count("fst.cleanse_via_fst.threads_in", len(image))
                tr.count("fst.cleanse_via_fst.failed", cleanse_failed)
                if kept is not None:
                    tr.ratio("fst.cleanse_via_fst.kept_ratio", len(kept.nodes), len(dag.nodes))


def pass_verify(inputs: Inputs, p: Pass, first: bool) -> None:
    tr = p.tr
    for i, (d, known) in enumerate(inputs.items):
        with Item(p, i) as it:
            lc = p.op("checker.check_local_correctness", i, check_local_correctness, d)
            verdict = p.op("assignment.prov", i, prov, d)
            verdict1 = p.op("assignment.prov1", i, prov1, d)
            by_threads = p.op("deduction.proves_by_threads", i, proves_by_threads, d,
                              VERIFY_THREAD_CAP)
            t = p.op("checker.encode", i, encode, d)
            text = p.op("checker.render_tuples", i, render_tuples, t)
            parsed = p.op("checker.parse_tuples", i, parse_tuples, text)
            report = p.op("checker.check_tuples", i, check_tuples, parsed)
            decoded = p.op("checker.decode", i, decode, parsed)
        if not it.ok:
            continue
        capped = isinstance(by_threads, Overflow)
        p.expect(lc.ok, i, "checker.check_local_correctness",
                 "generated input not locally correct")
        p.expect(verdict == verdict1, i, "assignment.prov1", "prov and prov1 disagree")
        p.expect(capped or by_threads == verdict, i, "deduction.proves_by_threads",
                 "thread verdict disagrees with prov")
        p.expect(known is None or verdict == known, i, "assignment.prov",
                 "known proof not proving")
        p.expect(report.ok == lc.ok, i, "checker.check_tuples", "tuple check disagrees")
        p.expect(decoded == canonical(d), i, "checker.decode",
                 "decode does not reproduce the input")
        p.mix["proving" if verdict else "not_proving"] += 1
        p.mix["thread_cap_hit"] += capped
        p.outputs.append([verdict, verdict1, None if capped else by_threads, report.ok,
                          hashlib.sha256(text.encode()).hexdigest()[:16]])
        if tr.on:
            tr.ratio("deduction.proves_by_threads.overflow_ratio", capped, 1)


def _stage(args: list[str], stdin: bytes) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "impdag", *args],
        input=stdin,
        capture_output=True,
        env=env,
        cwd=ROOT,
        timeout=CLI_TIMEOUT_S,
    )


def pass_cli(inputs: Inputs, p: Pass, first: bool) -> None:
    """Stages run one after another; each gets the previous stdout bytes.
    At most one child runs at a time."""
    tr = p.tr
    with tr.span("cli.startup"):
        version = _stage(["--version"], b"")
    if version.returncode != 0:
        raise RuntimeError(f"impdag --version exited {version.returncode}")
    for i, (text, n) in enumerate(inputs.items):
        stages = (
            ("cli.prove", ["prove", text]),
            ("cli.compress", ["compress", "-"]),
            ("cli.cleanse", ["cleanse", "-", "--search"]),
            ("cli.check", ["check", "-"]),
        )
        outs = []
        data = b""
        with Item(p, i) as it:
            for name, args in stages:
                proc = p.op(name, i, _stage, args, data)
                outs.append(proc)
                if proc.returncode != 0:
                    p.failed_ops.add((i, name))
                    p.wrong.append(f"item {i}: {name} exited {proc.returncode}: "
                                   f"{proc.stderr.decode(errors='replace').strip()}")
                    break
                data = proc.stdout
        if not it.ok or len(outs) < len(stages):
            continue
        f = parse_infix(text)
        proof_text = outs[0].stdout.decode()
        proof = load_deduction(io.StringIO(proof_text))
        dag = load_deduction(io.StringIO(outs[1].stdout.decode()))
        cleansed = load_deduction(io.StringIO(outs[2].stdout.decode()))
        p.expect(oracle_valid(f), i, "cli.prove", "oracle says the formula is invalid")
        p.expect(proof.node(proof.root).formula == f, i, "cli.prove", "root formula differs")
        p.expect(to_dict(proof) == json.loads(proof_text), i, "cli.prove",
                 "JSON round trip changed the proof")
        p.expect(check_local_correctness(dag).ok, i, "cli.compress", "dag not locally correct")
        if n is not None:
            p.expect(len(proof.nodes) == FAMILY_TREE_NODES[n], i, "cli.prove",
                     f"{len(proof.nodes)} tree nodes, expected {FAMILY_TREE_NODES[n]}")
            p.expect(len(dag.nodes) == FAMILY_DAG_NODES[n], i, "cli.compress",
                     f"{len(dag.nodes)} dag nodes, expected {FAMILY_DAG_NODES[n]}")
        p.expect(prov(cleansed) and prov1(cleansed), i, "cli.cleanse",
                 "cleansed dag does not prove")
        p.outputs.append([hashlib.sha256(o.stdout).hexdigest()[:16] for o in outs])
        if tr.on:
            tr.count("cli.bytes", sum(len(o.stdout) for o in outs[:3]))
    # The process doing the work is a stage child; report the largest one.
    p.children_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


SETUP = {"family": setup_family, "sep": setup_sep, "verify": setup_verify, "cli": setup_cli}
PASSES = {"family": pass_family, "sep": pass_sep, "verify": pass_verify, "cli": pass_cli}
