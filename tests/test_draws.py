"""The bulk draws are the per-call draws, bit for bit.

A PCG64 generator's reports are decoded in bulk from its raw words; any other
bit generator is called once per number. Either way the draws, the
generator's state afterwards (its buffered 32-bit value included) and its
next draws must equal those of the references in ``helpers``, which make one
NumPy call per number. The example counts come from the hypothesis profile
(see ``conftest.py``); CI runs this file under the larger ``ci`` profile,
because the bulk path rests on the layout of NumPy's ziggurat.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from influence_market import (
    AgentProfile,
    agents,
    independent_test_set,
    report_stream,
)
from influence_market.agents import STRATEGIES

from helpers import per_call_draws, per_point_reports, per_point_stream, world_of

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 8)
noise_levels = st.sampled_from([0.0, 0.37, 1.0])
# Earlier use of the generator: none, a shuffle, or a draw that leaves a
# buffered 32-bit value behind.
priors = st.sampled_from(["none", "permutation", "buffered"])


def generator_pair(seed, prior, bit_generator=np.random.PCG64):
    pair = []
    for _ in range(2):
        rng = np.random.Generator(bit_generator(seed))
        if prior == "permutation":
            rng.permutation(7)
        elif prior == "buffered":
            rng.integers(0, 5, dtype=np.uint8)
        pair.append(rng)
    return pair


def assert_same_generator(rng, reference):
    np.testing.assert_equal(rng.bit_generator.state, reference.bit_generator.state)
    assert rng.random() == reference.random()
    assert rng.integers(0, 256, dtype=np.uint8) == reference.integers(0, 256, dtype=np.uint8)
    assert rng.standard_normal() == reference.standard_normal()


def assert_draws_match(seed, d, n, prior, normal_share, bit_generator=np.random.PCG64):
    normal = np.random.default_rng(seed).random(n) < normal_share
    rng, reference = generator_pair(seed, prior, bit_generator)
    draws = agents._standard_draws(rng, normal, d)
    assert np.array_equal(draws, per_call_draws(reference, normal, d))
    assert_same_generator(rng, reference)


@given(
    seed=seeds,
    d=dims,
    n=st.integers(0, 4000),
    prior=priors,
    normal_share=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
)
@example(seed=7, d=1, n=3775, prior="permutation", normal_share=1.0)  # one probe chunk
@example(seed=8, d=8, n=4000, prior="buffered", normal_share=0.9)
def test_standard_draws_match_per_call_draws(seed, d, n, prior, normal_share):
    assert_draws_match(seed, d, n, prior, normal_share)


@given(seed=seeds, d=dims, n=st.integers(0, 4000), noise_std=noise_levels, prior=priors)
@example(seed=9, d=3, n=4000, noise_std=0.37, prior="buffered")
def test_independent_test_set_matches_per_call_reports(seed, d, n, noise_std, prior):
    world = world_of(d, noise_std, seed)
    rng, reference = generator_pair(seed, prior)
    test = independent_test_set(world, n, rng)
    X, y = per_point_reports(world, reference, n)
    assert np.array_equal(test.X, X) and np.array_equal(test.y, y)
    assert_same_generator(rng, reference)


@given(
    seed=seeds,
    d=dims,
    n=st.integers(0, 1500),
    noise_std=noise_levels,
    prior=priors,
    shares=st.sampled_from([(1, 0, 0), (0, 1, 0), (0.5, 0.5, 0), (0.2, 0.5, 0.3), (0.9, 0.1, 0)]),
)
@example(seed=10, d=2, n=1500, noise_std=1.0, prior="none", shares=(0.2, 0.5, 0.3))
def test_mixed_report_stream_matches_per_call_reports(seed, d, n, noise_std, prior, shares):
    """Truthful, heuristic and perturbed agents in runs of every length."""
    kinds = np.random.default_rng(seed).choice(3, size=n, p=shares)
    profiles = [
        AgentProfile(
            f"a{i}",
            STRATEGIES[k],
            deviation=0.25 * (i % 4) if STRATEGIES[k] == "perturbed" else 0.0,
            opt_in=i % 11 != 3,
        )
        for i, k in enumerate(kinds)
    ]
    world = world_of(d, noise_std, seed)
    rng, reference = generator_pair(seed, prior)
    stream = report_stream(profiles, world, rng)
    X, y, ids, _ = per_point_stream(profiles, world, reference)
    assert np.array_equal(stream.X, X) and np.array_equal(stream.y, y)
    assert stream.agent_ids == ids
    assert_same_generator(rng, reference)


@pytest.mark.parametrize("d, n", [(1, 1), (1, 256), (3, 200), (8, 256)])
@pytest.mark.parametrize("seed", range(8))
def test_a_pass_that_runs_out_of_words_is_drawn_again(seed, d, n):
    """One spare word: slow normals run past the buffer, and the pass is
    drawn again with more, as often as it takes."""
    normal = np.random.default_rng(seed).random(n) < 0.8
    rng, reference = generator_pair(seed, "buffered")
    draws = agents._decode_pcg64(rng, normal, d, agents._fast_path_tables(), slack=1)
    assert np.array_equal(draws, per_call_draws(reference, normal, d))
    assert_same_generator(rng, reference)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
@given(
    seed=seeds,
    d=dims,
    n=st.integers(0, 600),
    prior=priors,
    normal_share=st.sampled_from([0.3, 1.0]),
)
def test_other_bit_generators_draw_call_by_call(bit_generator, seed, d, n, prior, normal_share):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agents, "_decode_pcg64", None)  # any use of the decoder fails
        assert_draws_match(seed, d, n, prior, normal_share, bit_generator)


def test_pcg64_draws_are_decoded_in_bulk():
    # On a NumPy whose ziggurat the decoder does not read right, the
    # self-check turns the bulk path off: the draws stay right, only slower.
    assert agents._fast_path_tables() is not False
    assert agents._fast_path_tables() is agents._fast_path_tables()


def admit_every_word(widths, ki):
    ki = ki.copy()
    ki[3:] = 2**52
    return widths, ki


def nudge_every_width(widths, ki):
    return np.nextafter(widths, np.inf), ki


def raise_one_bound(widths, ki):
    """A bound that admits words of one layer NumPy sends to its slow path:
    too rare for the check's stream, caught by its per-layer edge words."""
    ki = ki.copy()
    ki[200] += 2**40
    return widths, ki


@pytest.mark.parametrize("corrupt", [admit_every_word, nudge_every_width, raise_one_bound])
def test_a_corrupted_table_fails_the_self_check_and_draws_stay_bitwise(corrupt):
    tables = corrupt(*agents._ziggurat_tables())
    agents._fast_path_tables.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(agents, "_ziggurat_tables", lambda: tables)
            assert agents._fast_path_tables() is False
            for seed, d, n in [(5, 1, 3775), (6, 3, 1000)]:
                assert_draws_match(seed, d, n, "buffered", 0.9)
    finally:
        agents._fast_path_tables.cache_clear()
    assert agents._fast_path_tables() is not False
