"""``oracle_valid``, whose search runs on an explicit stack, against the
recursive search it replaced, kept here verbatim: the same verdict, or the
same exception with the same text, on every input.

Inputs: every formula over two atoms up to weight 11, seeded random
formulas over three and four atoms (some above a lowered weight bound),
and the double negations on either side of the 400-level depth bound.
"""

import random

import pytest

from impdag.deduction import DEFAULT_ORACLE_WEIGHT
from impdag.formula import Atom, Formula, Implication, formula_key, weight
from impdag.gen import enumerate_formulas, random_formula
from impdag.prover import DEFAULT_MAX_DEPTH, OracleBoundError, oracle_valid

from test_prover import double_negations


# ---------------------------------------------- the recursive oracle, verbatim


def reference_oracle_valid(f: Formula, bound: int = DEFAULT_ORACLE_WEIGHT) -> bool:
    """Decide validity by an independent exhaustive sequent search."""
    if weight(f) > bound:
        raise OracleBoundError(f"formula weight {weight(f)} exceeds bound {bound}")

    memo: dict[tuple[frozenset[Formula], Formula], bool] = {}

    def holds(hyps: frozenset[Formula], goal: Formula, depth: int) -> bool:
        if depth > DEFAULT_MAX_DEPTH:
            raise OracleBoundError(f"oracle search depth exceeds {DEFAULT_MAX_DEPTH}")
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
            if holds(rest | {nested}, h.antecedent, depth + 1) and holds(
                rest | {h.consequent}, goal, depth + 1
            ):
                answer = True
                break
        memo[key] = answer
        return answer

    return holds(frozenset(), f, 1)


# ------------------------------------------------------------------- tests


def outcome(decide, f, bound=DEFAULT_ORACLE_WEIGHT):
    try:
        return decide(f, bound)
    except OracleBoundError as exc:
        return str(exc)


def test_every_small_formula():
    formulas = enumerate_formulas(11, ("a", "b"))
    verdicts = [outcome(oracle_valid, f) for f in formulas]
    assert verdicts == [outcome(reference_oracle_valid, f) for f in formulas]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("atoms", [("a", "b", "c"), ("a", "b", "c", "d")])
def test_random_formulas(atoms):
    rng = random.Random(len(atoms))
    seen = set()
    for _ in range(1000):
        f = random_formula(rng, max_weight=31, atoms=atoms)
        while weight(f) < 9:  # mostly bare atoms otherwise
            f = random_formula(rng, max_weight=31, atoms=atoms)
        bound = rng.choice((DEFAULT_ORACLE_WEIGHT, 17))
        expected = outcome(reference_oracle_valid, f, bound)
        assert outcome(oracle_valid, f, bound) == expected, f
        seen.add(expected if isinstance(expected, bool) else "bound")
    assert seen == {True, False, "bound"}


@pytest.mark.parametrize("n", range(398, 402))
def test_depth_boundary(n):
    f = double_negations(n)
    expected = outcome(reference_oracle_valid, f, 10**8)
    assert outcome(oracle_valid, f, 10**8) == expected
    assert expected == (False if n < 400 else "oracle search depth exceeds 400")
