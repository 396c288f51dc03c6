import faulthandler
import os

import hypothesis
import pytest

hypothesis.settings.register_profile("fast", max_examples=25)
hypothesis.settings.register_profile("thorough", max_examples=300)
hypothesis.settings.load_profile("fast")

TEST_DEADLINE_S = 600  # far above any one test; a looping test ends the run with its traceback
_terminal = []


def pytest_configure(config):
    # pytest captures fd 2 while a test runs, so keep a copy of it from before
    _terminal.append(os.fdopen(os.dup(2), "w"))


@pytest.fixture(autouse=True)
def deadline():
    faulthandler.dump_traceback_later(TEST_DEADLINE_S, exit=True, file=_terminal[0])
    yield
    faulthandler.cancel_dump_traceback_later()
