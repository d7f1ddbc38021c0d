"""The quickgen generator, `genprogs.generate_program`, yields a certifiable
program for every seed and size."""

from __future__ import annotations

import pytest

from aliascert import certify_program

from genprogs import generate_program

# seeds whose generator once ran out of scratch registers for a string
@pytest.mark.parametrize("seed,size", [(322, 64), (392, 48), (678, 32), (678, 48),
                                       (678, 64), (899, 48)])
def test_generator_skips_a_string_when_every_register_is_plain(seed, size):
    program = generate_program(seed, size)
    assert len(program.instructions) <= size
    assert certify_program(program).verdict == "SAFE"
