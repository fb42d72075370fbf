"""``util.derive_seed`` values, which every seeded output depends on."""

import pytest

from teayield.util import derive_seed


def test_trailing_zeros_within_four_parts_give_the_same_seed():
    assert (derive_seed(7) == derive_seed(7, 0) == derive_seed(7, 0, 0)
            == derive_seed(7, 0, 0, 0) == 2083679832)
    assert derive_seed(7, 0, 0, 0, 0) == 1201125462


def test_pinned_values():
    assert [derive_seed(7, 1), derive_seed(7, 0, 1), derive_seed(10, 4),
            derive_seed(10, 6, 1)] == [369571992, 2028854884, 878241019,
                                       673665521]


def test_negative_parts_are_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(7, -1)
