"""The program optimizer's fused groups are NumPy-target code
(``generate_fused``); its tests compare optimized against eager replay
bit for bit, so both sides run on that target."""
import pytest


@pytest.fixture(autouse=True)
def _program_tests_run_the_numpy_target(numpy_target):
    yield
