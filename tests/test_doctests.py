import doctest

import pytest

from chordlab import asymptotics, bell, bijections, chord, diffeo, fps, gfseries, yukawa


@pytest.mark.parametrize("module", [fps, chord, bijections, gfseries, bell, diffeo, asymptotics,
                                    yukawa])
def test_module_doctests(module):
    failures, attempted = doctest.testmod(module, verbose=False)
    assert attempted > 0
    assert failures == 0
