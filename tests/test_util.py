"""``util.derive_seed`` values, which every seeded output depends on, and
``util.generator``'s streams."""

import numpy as np
import pytest

from teayield.util import derive_seed, generator


def test_trailing_zeros_within_four_parts_give_the_same_seed():
    assert (derive_seed(7) == derive_seed(7, 0) == derive_seed(7, 0, 0)
            == derive_seed(7, 0, 0, 0) == 2083679832)
    assert derive_seed(7, 0, 0, 0, 0) == 1201125462


def test_pinned_values():
    pinned = {
        (7, 1): 369571992, (7, 0, 1): 2028854884, (10, 4): 878241019,
        (10, 6, 1): 673665521, (0,): 2968811710, (1,): 1835504127,
        (42,): 3444837047, (10, 0): 3528835259, (10, 1, 0): 528218089,
        (10, 1, 1): 4039303654, (10, 2): 1299051706, (10, 3, 4): 3913291356,
        (2**32 - 1,): 1992424968, (7, 0, 0, 0, 0, 5): 1206529106,
        (123456789, 2, 99): 1442090159}
    assert {parts: derive_seed(*parts) for parts in pinned} == pinned


def test_negative_parts_are_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(7, -1)


def test_generator_streams_are_default_rngs():
    """The draws the package makes, in turn from one generator, equal
    ``np.random.default_rng(seed)``'s."""
    ours, theirs = generator(42), np.random.default_rng(42)
    for draw in (lambda g: g.integers(5, 31),
                 lambda g: g.uniform(-0.5, 0.5, (3, 4)),
                 lambda g: g.permutation(50),
                 lambda g: g.choice(120, size=108, replace=False)):
        np.testing.assert_array_equal(draw(ours), draw(theirs))
