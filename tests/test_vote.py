import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcens import (
    Circuit,
    Ensemble,
    NoiseModel,
    StructuralError,
    UGate,
    ValidationError,
    replicate_homogeneous,
    vote_distribution,
)
from qcens.ensemble import Evaluator, TestCase, _vote_batch
from qcens.noisefiles import load_preset

from conftest import bell_circuit, load_perfbench, random_test_circuit, tv_distance

oracle = load_perfbench("oracle")


@lru_cache(maxsize=None)
def bincount_count_tables(k, n):
    """Count-vector DP tables with scatter targets: per member step, ``target``
    maps the flattened (count vector, next value) pair to the grown vector's
    ``np.unique`` index; last, the (states, k) plurality split with uniform ties."""
    steps = []
    counts = np.eye(k, dtype=np.int64)
    for _ in range(n - 1):
        grown = (counts[:, None, :] + np.eye(k, dtype=np.int64)).reshape(-1, k)
        counts, target = np.unique(grown, axis=0, return_inverse=True)
        steps.append((target.ravel(), len(counts)))
    winners = counts == counts.max(axis=1, keepdims=True)
    return tuple(steps), winners / winners.sum(axis=1, keepdims=True)


def bincount_vote_oracle(member_dists):
    """Exact vote that holds P(count vector) as (batch, states) and scatters each
    member step's (batch, states, k) joint with ``np.bincount``, (n, batch, k) ->
    (batch, k).  ``_vote_batch`` must equal it bit for bit."""
    n, batch, k = member_dists.shape
    steps, split = bincount_count_tables(k, n)
    prob = member_dists[0]
    for dist, (target, states) in zip(member_dists[1:], steps):
        joint = prob[:, :, None] * dist[:, None, :]
        index = target + states * np.arange(batch)[:, None]
        prob = np.bincount(index.ravel(), weights=joint.ravel(),
                           minlength=batch * states).reshape(batch, states)
    return prob @ split


def mc_vote_oracle(member_dists, samples, rng):
    """Empirical plurality-vote distribution from sampled joint outcomes.

    Independent of the library: samples each member, counts values, picks a
    plurality winner uniformly at random among ties.
    """
    member_dists = [np.asarray(d, float) for d in member_dists]
    k = len(member_dists[0])
    n = len(member_dists)
    # histogram sampled joint outcomes by their base-k code, then resolve each
    # code's plurality winner; tied codes split their tally multinomially,
    # which matches breaking each sample's tie uniformly at random
    code = np.zeros(samples, dtype=np.int64)
    for m, d in enumerate(member_dists):
        code += k**m * np.searchsorted(np.cumsum(d), rng.random(samples), side="right")
    joint_counts = np.bincount(code, minlength=k**n)
    out = np.zeros(k)
    for j in np.flatnonzero(joint_counts):
        values = np.bincount((j // k ** np.arange(n)) % k, minlength=k)
        winners = np.flatnonzero(values == values.max())
        if len(winners) == 1:
            out[winners[0]] += joint_counts[j]
        else:
            share = np.full(len(winners), 1.0 / len(winners))
            out[winners] += rng.multinomial(joint_counts[j], share)
    return out / samples


def test_single_member_vote_is_identity():
    dist = np.array([0.2, 0.3, 0.5])
    np.testing.assert_array_equal(vote_distribution([dist]), dist)


def test_strict_majority():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    np.testing.assert_allclose(vote_distribution([a, a, b]), [1.0, 0.0], atol=1e-12)


def test_two_member_tie_splits_uniformly():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    np.testing.assert_allclose(vote_distribution([a, b]), [0.5, 0.5], atol=1e-12)


def test_hand_enumerated_two_member_case():
    # joint outcomes: 00 -> 0, 11 -> 1, 01/10 -> half each
    # P(0) = 0.6*0.5 + 0.5*(0.6*0.5 + 0.4*0.5) = 0.55
    dist = vote_distribution([np.array([0.6, 0.4]), np.array([0.5, 0.5])])
    np.testing.assert_allclose(dist, [0.55, 0.45], atol=1e-15)


def test_vote_rejects_empty_and_mismatched():
    with pytest.raises(ValidationError):
        vote_distribution([])
    with pytest.raises(StructuralError):
        vote_distribution([np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])])


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([2, 4]),
    n=st.integers(1, 5),
)
def test_vote_is_valid_distribution_and_permutation_invariant(seed, k, n):
    rng = np.random.default_rng(seed)
    dists = [rng.dirichlet(np.ones(k)) for _ in range(n)]
    vote = vote_distribution(dists)
    assert np.all(vote >= -1e-15)
    assert abs(vote.sum() - 1.0) < 1e-9
    perm = rng.permutation(n)
    np.testing.assert_allclose(vote, vote_distribution([dists[i] for i in perm]),
                               atol=1e-12)


def test_vote_matches_monte_carlo_oracle():
    rng = np.random.default_rng(777)
    for _ in range(10):
        k = int(rng.choice([2, 4]))
        n = int(rng.integers(1, 6))
        dists = [rng.dirichlet(np.ones(k)) for _ in range(n)]
        exact = vote_distribution(dists)
        empirical = mc_vote_oracle(dists, 10**6, rng)
        assert tv_distance(exact, empirical) < 0.005


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([2, 4]),
    n=st.integers(1, 7),
)
def test_count_vector_dp_matches_enumeration_oracle(seed, k, n):
    rng = np.random.default_rng(seed)
    member_dists = rng.dirichlet(np.ones(k), size=(n, 20))
    np.testing.assert_allclose(_vote_batch(member_dists),
                               oracle.vote(member_dists), rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([2, 4, 8]),
    n=st.integers(1, 8),
    batch=st.integers(1, 160),
    rounded=st.booleans(),
)
def test_gathered_vote_is_bit_identical_to_the_bincount_scatter(seed, k, n, batch, rounded):
    """Laws rounded to 2 decimals give zeros and ties among the summed terms."""
    rng = np.random.default_rng(seed)
    member_dists = rng.dirichlet(np.ones(k), size=(n, batch))
    if rounded:
        member_dists = np.round(member_dists, 2)
    assert np.array_equal(_vote_batch(member_dists), bincount_vote_oracle(member_dists))


def test_large_homogeneous_vote_is_exact_binomial_tail():
    # 21 members: value 0 wins unless 11 or more members output value 1
    vote = vote_distribution([np.array([0.9, 0.1])] * 21)
    tail = sum(math.comb(21, j) * 0.1**j * 0.9 ** (21 - j) for j in range(11))
    assert abs(vote[0] - tail) < 1e-12
    assert abs(vote[1] - (1.0 - tail)) < 1e-12


def test_wide_domain_vote_is_valid_and_order_free():
    # three measured bits (k=8), seven members: 3432 count vectors
    rng = np.random.default_rng(11)
    dists = list(rng.dirichlet(np.ones(8), size=7))
    vote = vote_distribution(dists)
    assert vote.shape == (8,)
    assert np.all(vote >= 0.0)
    assert abs(vote.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(vote, vote_distribution(dists[::-1]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(vote, vote_distribution([dists[i] for i in rng.permutation(7)]),
                               rtol=0, atol=1e-12)


def test_condorcet_amplification_binary_domain():
    for p in np.linspace(0.55, 0.95, 9):
        dist = np.array([1.0 - p, p])
        for n in (3, 5, 7):
            amplified = vote_distribution([dist] * n)[1]
            assert amplified >= p - 1e-12


def test_homogeneous_binomial_formula():
    # per-test success 0.6 on a binary domain, 3 copies: p^3 + 3 p^2 (1-p)
    p = 0.6
    theta = 2 * math.asin(math.sqrt(p))
    circuit = Circuit(1, (UGate(0, theta, 0.0, 0.0),), (0,))
    ensemble = replicate_homogeneous(circuit, 3)
    report = Evaluator([TestCase(expected=1, features=(0.0,))]).score([ensemble])[0]
    expected = p**3 + 3 * p**2 * (1 - p)
    assert abs(report.fitness - expected) < 1e-9
    # must agree with the generic vote enumeration
    member = np.array([1 - p, p])
    np.testing.assert_allclose(vote_distribution([member] * 3)[1], expected, atol=1e-12)


def test_replicate_homogeneous_validation_and_unanimity():
    circuit = bell_circuit()
    with pytest.raises(ValidationError):
        replicate_homogeneous(circuit, 0)
    test = TestCase(expected=0, features=(0.0, 0.0))
    single = Evaluator([test]).score([Ensemble((circuit,))])[0].fitness
    # deterministic-unanimous property holds for a no-op circuit
    noop = Circuit(2, (), (0, 1))
    for n in (1, 7):
        assert Evaluator([test]).score([replicate_homogeneous(noop, n)])[0].fitness == 1.0
    assert abs(single - 0.5) < 1e-12


def test_fitness_noop_circuits():
    noop = Circuit(4, (), (0, 1))
    ensemble = Ensemble((noop, noop, noop))
    report = Evaluator([TestCase(expected=0, features=(0.0,) * 4)]).score([ensemble])[0]
    assert report.fitness == 1.0


def test_fitness_bell_single_member():
    report = Evaluator([TestCase(expected=0, features=(0.0, 0.0))]).score(
        [Ensemble((bell_circuit(),))])[0]
    assert abs(report.fitness - 0.5) < 1e-12


def test_fitness_is_mean_of_per_test():
    circuit = bell_circuit()
    tests = [TestCase(expected=0, features=(0.0, 0.0)),
             TestCase(expected=3, features=(math.pi, math.pi))]
    report = Evaluator(tests).score([Ensemble((circuit,))])[0]
    assert abs(report.fitness - sum(report.per_test) / len(report.per_test)) < 1e-12


def test_fitness_shots_mode_deterministic():
    circuit = bell_circuit()
    tests = [TestCase(expected=0, features=(0.0, 0.0))]
    a = Evaluator(tests, shots=1000, seed=9).score([Ensemble((circuit,))])[0]
    b = Evaluator(tests, shots=1000, seed=9).score([Ensemble((circuit,))])[0]
    assert a == b
    c = Evaluator(tests, shots=1000, seed=10).score([Ensemble((circuit,))])[0]
    assert 0.0 <= c.fitness <= 1.0


def test_fitness_rejects_empty_tests():
    with pytest.raises(ValidationError):
        Evaluator([]).score([Ensemble((bell_circuit(),))])


def test_ensemble_members_must_match():
    with pytest.raises(StructuralError):
        Ensemble((bell_circuit(), Circuit(3, (), (0, 1))))


def test_expected_value_must_fit_output_domain():
    with pytest.raises(ValidationError):
        Evaluator([TestCase(expected=5, features=(0.0, 0.0))]).score(
            [Ensemble((bell_circuit(),))])


def test_test_case_requires_exactly_one_init_form():
    with pytest.raises(ValidationError):
        TestCase(expected=0)
    with pytest.raises(ValidationError):
        TestCase(expected=0, features=(0.0,), init_gates=(UGate(0, 0, 0, 0),))


def test_features_prepare_the_product_of_y_rotations(rng):
    # FORMATS.md: qubit j holds U(a_j, 0, 0)|0> = cos(a_j/2)|0> + sin(a_j/2)|1>
    for _ in range(20):
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, 4)
        product = np.array([1.0])
        for a in angles:  # later qubits are higher-order bits
            product = np.kron([math.cos(a / 2), math.sin(a / 2)], product)
        state = TestCase(expected=0, features=tuple(angles)).init_state(4)
        np.testing.assert_allclose(state, product, rtol=0, atol=1e-15)


def test_features_case_and_its_init_gates_twin_score_the_same(rng):
    cases = [TestCase(expected=int(rng.integers(4)), features=tuple(rng.uniform(0, math.pi, 4)))
             for _ in range(12)]
    twins = [TestCase(expected=c.expected,
                      init_gates=tuple(UGate(j, a, 0.0, 0.0) for j, a in enumerate(c.features)))
             for c in cases]
    members = tuple(Circuit(4, random_test_circuit(rng, 4).gates, (0, 1)) for _ in range(3))
    for noise in (None, load_preset("storm")):
        assert (Evaluator(cases, noise=noise).score([Ensemble(members)])
                == Evaluator(twins, noise=noise).score([Ensemble(members)]))


def test_non_finite_feature_is_refused_at_evaluation():
    case = TestCase(expected=0, features=(0.0, math.nan))
    with pytest.raises(ValidationError, match="not finite"):
        Evaluator([case]).score([Ensemble((bell_circuit(),))])
    with pytest.raises(StructuralError, match="3 features"):
        Evaluator([TestCase(expected=0, features=(0.0, 0.0, 0.0))]).score(
            [Ensemble((bell_circuit(),))])


@st.composite
def scored_generations(draw):
    """An Evaluator's settings, its tests and generations of ensembles drawn from a
    small pool of circuits, with repeats, each one present again with a gate added
    outside its light cone."""
    n = draw(st.integers(2, 4))
    measured = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n - 1, 2),
                                   unique=True)))
    idle = next(q for q in range(n) if q not in measured)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        circuit = Circuit(n, random_test_circuit(rng, n, max_gates=5).gates, measured)
        # a gate on an unmeasured qubit after all others cannot reach a measured qubit
        outside = UGate(idle, *rng.uniform(0, 2 * math.pi, 3))
        pool += [circuit, Circuit(n, circuit.gates + (outside,), measured)]
    members = st.lists(st.sampled_from(pool), min_size=1, max_size=3).map(tuple)
    generations = draw(st.lists(st.lists(members.map(Ensemble), min_size=1, max_size=3),
                                min_size=1, max_size=3))
    unit = st.floats(0.0, 1.0)
    noise = draw(st.none() | st.builds(NoiseModel, unit, unit, unit, unit))
    shots = draw(st.none() | st.sampled_from([1, 7, 100]))
    k = 1 << len(measured)
    tests = [TestCase(expected=int(rng.integers(k)), features=tuple(rng.uniform(0, math.pi, n)))
             for _ in range(draw(st.integers(1, 4)))]
    options = dict(tests=tests, noise=noise, shots=shots, seed=draw(st.integers(0, 2**16)))
    return options, generations


@settings(deadline=None, max_examples=60)
@given(drawn=scored_generations())
def test_cached_member_laws_are_laws_and_score_as_a_fresh_evaluator_does(drawn):
    """Through the two-generation and light-cone caches: every row a slot feeds the
    vote is a distribution (a multiple of 1/shots with shots), every fitness and
    per-test value lies in [0, 1], and every report is the one a fresh Evaluator
    gives that ensemble alone."""
    options, generations = drawn
    evaluator = Evaluator(**options)
    for ensembles in generations:
        reports = evaluator.score(ensembles)
        for ensemble, report in zip(ensembles, reports):
            assert 0.0 <= report.fitness <= 1.0
            assert all(0.0 <= p <= 1.0 for p in report.per_test)
            assert report == Evaluator(**options).score([ensemble])[0]
            for slot, circuit in enumerate(ensemble.circuits):
                rows = evaluator.member_distributions(circuit, slot)
                assert rows.shape == (len(options["tests"]), circuit.num_output_values)
                assert (rows >= -1e-12).all()
                np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-9)
                if options["shots"] is not None:
                    counts = rows * options["shots"]
                    np.testing.assert_allclose(counts, np.round(counts), rtol=0, atol=1e-9)


def test_evaluator_refuses_a_second_register_width():
    """One-qubit init gates prepare any width, so only the Evaluator's held states refuse it."""
    evaluator = Evaluator([TestCase(expected=0, init_gates=(UGate(0, 0.3, 0.0, 0.0),))])
    evaluator.score([Ensemble((Circuit(4, (), (0, 1)),))])
    with pytest.raises(StructuralError, match="prepared for a different register width"):
        evaluator.score([Ensemble((Circuit(3, (), (0, 1)),))])


def test_evaluator_refuses_negative_seed():
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        Evaluator([TestCase(expected=0, features=(0.0, 0.0))], shots=10, seed=-1)
