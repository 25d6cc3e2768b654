"""Tree proof search for purely implicational minimal logic.

``prove`` runs a terminating, contraction-free, goal-directed sequent
search (in the style of Dyckhoff's LJT restricted to implication) whose
steps return natural-deduction proofs, on an explicit stack of sequents
bounded in depth by ``DEFAULT_MAX_DEPTH``. Each search keeps a memo of the
sequents it has settled, with their proofs, so a sequent is proved once and
every parent shares its proof. A step records each substitution of a proof
for a hypothesis, and the walk laying out the tree-like deduction applies
them: to every leaf carrying the hypothesis, discharged or not, innermost
substitution first, and to the proof put in only for the substitutions
enclosing its own. Every output is re-checked for local correctness and
against the assignment semantics before being returned.

A sequent's context is a set of hypotheses, as in LJT. Where a rule picks
a hypothesis it takes them in ``formula_key`` order, so proofs do not
depend on how sets of formulas iterate.

``oracle_valid`` decides the same validity question with a separate
implementation: different rules (it saturates the context under the chain
rule before branching), a different traversal order and no translation
step.  In the purely implicational fragment
minimal and intuitionistic validity coincide, since no rule ever
mentions falsum.
"""

from __future__ import annotations

from .assignment import prov
from .deduction import DEFAULT_ORACLE_WEIGHT, Deduction, Overflow, Rule, is_tree_like, lay_out
from .deduction import check_local_correctness
from .formula import Atom, Formula, Implication, formula_key, weight

__all__ = [
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_MAX_NODES",
    "DEFAULT_ORACLE_WEIGHT",
    "OracleBoundError",
    "ResourceLimitError",
    "family",
    "oracle_valid",
    "prove",
]

DEFAULT_MAX_DEPTH = 400
DEFAULT_MAX_NODES = 500_000

# Antecedent copies in each benchmark clause; four makes tree proofs
# overtake the compressed dag by n=3 while keeping level() affordable.
_FAMILY_COPIES = 4


class ResourceLimitError(RuntimeError):
    """Search or layout exceeded its budget."""

    def __init__(self, limit: str, value: int) -> None:
        super().__init__(f"{limit} budget of {value} exceeded")
        self.limit = limit
        self.value = value


class OracleBoundError(ValueError):
    """The oracle refuses formulas above its configured weight, and those
    whose search nests deeper than ``DEFAULT_MAX_DEPTH``."""


# A proof tree: (formula, rule, children). Trees are shared, not copied,
# between the parents that use them. (hypothesis, _SUB, (premise, proof))
# is premise with proof put for each leaf carrying hypothesis.
Tree = tuple
_SUB = object()


def _leaf(f: Formula) -> Tree:
    return (f, Rule.LEAF, ())


def _search(context: frozenset[Formula], goal: Formula):
    """Steps of the sequent's proof: yields each sub-sequent it needs as
    (context, goal) and receives that sub-sequent's proof or None, then
    returns the sequent's proof or None. ``_settle`` drives it."""
    if goal in context:
        return _leaf(goal)
    if isinstance(goal, Implication):
        premise = yield context | {goal.antecedent}, goal.consequent
        return None if premise is None else (goal, Rule.I, (premise,))
    chain = min(
        (
            h
            for h in context
            if isinstance(h, Implication)
            and isinstance(h.antecedent, Atom)
            and h.antecedent in context
        ),
        key=formula_key,
        default=None,
    )
    if chain is not None:
        b = chain.consequent
        premise = yield (context - {chain}) | {b}, goal
        if premise is None:
            return None
        return (b, _SUB, (premise, (b, Rule.E, (_leaf(chain.antecedent), _leaf(chain)))))
    for h in sorted(context, key=formula_key):
        if not (isinstance(h, Implication) and isinstance(h.antecedent, Implication)):
            continue
        head, b = h.antecedent, h.consequent
        rest = context - {h}
        flattened = Implication(head.consequent, b)
        minor = yield rest | {flattened}, head
        if minor is None:
            continue
        major = yield rest | {b}, goal
        if major is not None:
            # proof of D -> B from the principal (C -> D) -> B alone
            discharge = (
                flattened,
                Rule.I,
                ((b, Rule.E, ((head, Rule.I, (_leaf(head.consequent),)), _leaf(h))),),
            )
            bridge = (b, Rule.E, ((flattened, _SUB, (minor, discharge)), _leaf(h)))
            return (b, _SUB, (major, bridge))
    return None


def _settle(f: Formula) -> Tree | None:
    """Proof of ``f``, or None, driving ``_search`` on an explicit stack of
    the sequents in progress. ``memo`` holds each settled sequent's proof,
    whatever depth it was reached at, so every parent shares it."""
    memo: dict[tuple[frozenset[Formula], Formula], Tree | None] = {}
    stack: list = []
    sequent = (frozenset(), f)
    while True:
        if len(stack) >= DEFAULT_MAX_DEPTH:
            raise ResourceLimitError("depth", DEFAULT_MAX_DEPTH)
        if sequent in memo:
            proof = memo[sequent]
        elif len(memo) + len(stack) >= DEFAULT_MAX_NODES:
            raise ResourceLimitError("nodes", DEFAULT_MAX_NODES)
        else:
            stack.append((sequent, _search(*sequent)))
            proof = None
        while True:
            key, steps = stack[-1]
            try:
                sequent = steps.send(proof)
                break
            except StopIteration as done:
                memo[key] = proof = done.value
                stack.pop()
                if not stack:
                    return proof


def _expand(item: tuple[Tree, tuple | None], depth: int):
    """Lay-out step for (tree, env): ``env`` holds the pending
    substitutions as (hypothesis, proof, outer env) links, innermost first,
    and a proof put for a leaf is laid out under its link's outer env."""
    tree, env = item
    while True:
        formula, rule, children = tree
        if rule is _SUB:
            tree, proof = children
            env = (formula, proof, env)
            continue
        if not children:  # a leaf
            entry = env
            while entry is not None and entry[0] is not formula:
                entry = entry[2]
            if entry is not None:
                _, tree, env = entry
                continue
        return formula, rule, depth, [(c, env) for c in children]


def prove(f: Formula) -> Deduction | None:
    """Search for a tree-like deduction of ``f``; None when invalid.

    The search runs on an explicit stack. ``ResourceLimitError`` is raised
    past ``DEFAULT_MAX_DEPTH`` sequents in progress, or past the one node
    budget ``DEFAULT_MAX_NODES``, read at each call, on the sequents
    searched and again on the tree nodes laid out. The result is
    deterministic for a given formula, since each call searches with a memo
    of its own, and is certified before being returned: tree shape, local
    correctness, root formula, and the assignment criterion are re-checked.
    """
    proof = _settle(f)
    if proof is None:
        return None
    d = lay_out((proof, None), _expand, DEFAULT_MAX_NODES)
    if isinstance(d, Overflow):
        raise ResourceLimitError("nodes", DEFAULT_MAX_NODES)
    root = d.node(d.root)
    if not (
        is_tree_like(d)
        and root.formula == f
        and check_local_correctness(d).ok
        and prov(d)
    ):
        raise RuntimeError("internal error: produced deduction failed certification")
    return d


def oracle_valid(f: Formula, bound: int = DEFAULT_ORACLE_WEIGHT) -> bool:
    """Decide validity by an independent exhaustive sequent search on an explicit stack."""
    if weight(f) > bound:
        raise OracleBoundError(f"formula weight {weight(f)} exceeds bound {bound}")

    memo: dict[tuple[frozenset[Formula], Formula], bool] = {}

    def holds(hyps: frozenset[Formula], goal: Formula):
        """Yields each sub-question as (hyps, goal) and receives its
        verdict, then returns the verdict on ``hyps`` ⊢ ``goal``."""
        while isinstance(goal, Implication):
            if goal in hyps:
                return True
            hyps = hyps | {goal.antecedent}
            goal = goal.consequent
        changed = True
        while changed:
            if goal in hyps:
                return True
            changed = False
            for h in hyps:
                if (
                    isinstance(h, Implication)
                    and isinstance(h.antecedent, Atom)
                    and h.antecedent in hyps
                ):
                    hyps = (hyps - {h}) | {h.consequent}
                    changed = True
                    break
        key = (hyps, goal)
        if key in memo:
            return memo[key]
        answer = False
        for h in sorted(hyps, key=formula_key, reverse=True):
            if not (isinstance(h, Implication) and isinstance(h.antecedent, Implication)):
                continue
            rest = hyps - {h}
            nested = Implication(h.antecedent.consequent, h.consequent)
            if (yield rest | {nested}, h.antecedent) and (yield rest | {h.consequent}, goal):
                answer = True
                break
        memo[key] = answer
        return answer

    stack, verdict = [holds(frozenset(), f)], None
    while stack:
        try:
            question = stack[-1].send(verdict)
        except StopIteration as done:
            stack.pop()
            verdict = done.value
            continue
        if len(stack) >= DEFAULT_MAX_DEPTH:
            raise OracleBoundError(f"oracle search depth exceeds {DEFAULT_MAX_DEPTH}")
        stack.append(holds(*question))
        verdict = None
    return verdict


def family(n: int) -> Formula:
    """Benchmark formula number ``n``.

    Over atoms p1 .. p(n+1), clause i is pi -> (pi -> (pi -> (pi ->
    p(i+1)))), and the formula reads clause 1 -> (... -> (clause n ->
    (p1 -> p(n+1)))).  Deriving each p(i+1) spends the clause four
    times on the same premise, so tree proofs repeat whole subproofs
    and level after level of a compressed proof collapses to one node
    per formula.  The definition is fixed; weights grow linearly
    (10n + 3).
    """
    if n < 1:
        raise ValueError("family is defined for n >= 1")
    atoms = [Atom(f"p{i}") for i in range(1, n + 2)]
    body: Formula = Implication(atoms[0], atoms[n])
    for i in reversed(range(n)):
        clause: Formula = atoms[i + 1]
        for _ in range(_FAMILY_COPIES):
            clause = Implication(atoms[i], clause)
        body = Implication(clause, body)
    return body
