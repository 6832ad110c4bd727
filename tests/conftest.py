"""Fixtures shared across test modules."""

import pytest

import threshkit.verify as verify


@pytest.fixture(scope="session")
def default_run():
    """Runs a verification suite at its default bound once per session.

    default_run(name) returns (report, found): found maps each class the
    suite rediscovers to the minimal obstructions its rediscovery compared
    with the catalog.
    """
    runs = {}

    def get(name):
        if name not in runs:
            found = {}
            rediscover = verify._rediscover

            def spy(run, cls, obstructions):
                found[cls] = obstructions
                rediscover(run, cls, obstructions)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(verify, "_rediscover", spy)
                runs[name] = (verify.run_suite(name), found)
        return runs[name]

    return get
