"""Generator sanity: the random dags must satisfy the invariants the rest
of the suite assumes they have, and the corruptor must hit its target."""

import random

import pytest

from impdag.assignment import prov
from impdag.checker import check_local_correctness, check_tuples, encode
from impdag.deduction import Rule, build, to_dict
from impdag.formula import Atom, parse_infix, weight
from impdag.gen import (
    enumerate_formulas,
    provable_pool,
    random_formula,
    random_local_dag,
    random_proving_dag,
)

from conftest import corrupt_encoding, diamond_dag, mk


class TestFormulaGenerators:
    def test_random_formula_respects_budget(self):
        rng = random.Random(11)
        for _ in range(200):
            assert weight(random_formula(rng, max_weight=7)) <= 7

    def test_enumeration_is_exhaustive_and_ordered(self):
        forms = enumerate_formulas(5, ("a", "b"))
        # 2 atoms, 4 of weight 3, 16 of weight 5
        assert len(forms) == 22
        assert [weight(f) for f in forms] == sorted(weight(f) for f in forms)

    def test_provable_pool_agrees_with_known_cases(self):
        pool = provable_pool(max_weight=5, atoms=("a", "b"))
        assert parse_infix("a -> a") in pool
        assert parse_infix("a -> b -> a") in pool
        assert parse_infix("a -> b") not in pool
        assert Atom("a") not in pool


class TestRandomLocalDag:
    def test_samples_are_locally_correct_and_separation_free(self):
        rng = random.Random(41)
        for _ in range(60):
            d = random_local_dag(rng, max_nodes=40)
            assert len(d.nodes) <= 40
            assert check_local_correctness(d).ok
            assert all(n.rule is not Rule.S for n in d.nodes.values())

    def test_ids_are_canonical(self):
        rng = random.Random(42)
        d = random_local_dag(rng, max_nodes=30)
        assert d.root == 1
        assert sorted(d.nodes) == list(range(1, len(d.nodes) + 1))

    def test_deterministic_for_fixed_seed(self):
        a = random_local_dag(random.Random(7), max_nodes=35)
        b = random_local_dag(random.Random(7), max_nodes=35)
        assert to_dict(a) == to_dict(b)

    def test_sharing_produces_multi_parent_nodes(self):
        rng = random.Random(8)
        hit = False
        for _ in range(40):
            d = random_local_dag(rng, max_nodes=40, share=0.9)
            if any(len(p) > 1 for p in d.parents.values()):
                hit = True
                break
        assert hit

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            random_local_dag(random.Random(0), max_nodes=1)


class TestRandomProvingDag:
    def test_samples_prove_and_stay_separation_free(self):
        pool = provable_pool(max_weight=7, atoms=("a", "b"))
        rng = random.Random(19)
        for _ in range(40):
            d = random_proving_dag(rng, pool)
            assert check_local_correctness(d).ok
            assert all(n.rule is not Rule.S for n in d.nodes.values())
            assert prov(d)

    def test_deterministic_for_fixed_seed(self):
        pool = provable_pool(max_weight=7, atoms=("a", "b"))
        a = random_proving_dag(random.Random(5), pool)
        b = random_proving_dag(random.Random(5), pool)
        assert to_dict(a) == to_dict(b)


class TestCorruptEncoding:
    @pytest.mark.parametrize("condition", range(1, 9))
    def test_intended_condition_fires(self, condition):
        # the diamond has a leaf, an R, an I and an E node, so every
        # strategy finds an eligible row
        rng = random.Random(900 + condition)
        bad = corrupt_encoding(rng, encode(diamond_dag()), condition)
        report = check_tuples(bad)
        assert not report.ok
        assert condition in {v.condition for v in report.violations}

    @pytest.mark.parametrize("condition", range(1, 9))
    def test_random_dags_also_corruptible(self, condition):
        rng = random.Random(80 + condition)
        fired = 0
        for _ in range(20):
            t = encode(random_local_dag(rng, max_nodes=25))
            try:
                bad = corrupt_encoding(rng, t, condition)
            except ValueError:
                continue  # no eligible row in this sample; resample
            assert condition in {v.condition for v in check_tuples(bad).violations}
            fired += 1
        assert fired > 0

    def test_original_encoding_untouched(self):
        t = encode(diamond_dag())
        corrupt_encoding(random.Random(1), t, 5)
        assert check_tuples(t).ok

    def test_ineligible_rows_raise(self):
        # a bare repetition chain has no E row and a one-entry table
        chain = build([mk(1, "a", "R", 0, (2,)), mk(2, "a", "LEAF", 1)], 1)
        with pytest.raises(ValueError):
            corrupt_encoding(random.Random(0), encode(chain), 8)
        with pytest.raises(ValueError):
            corrupt_encoding(random.Random(0), encode(chain), 6)

    def test_unknown_condition_rejected(self):
        with pytest.raises(ValueError):
            corrupt_encoding(random.Random(0), encode(diamond_dag()), 9)
