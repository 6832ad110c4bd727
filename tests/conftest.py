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


@pytest.fixture
def searched(monkeypatch):
    """The rows of each pattern whose generated search a scan runs, in
    order; a pattern that its counts or an empty starting mask rule out is
    not searched. Counts the patterns compiled while the fixture is active,
    so the catalog scan lists start cold, and are dropped again after."""
    from threshkit import embed, obstructions

    found = []
    generate = embed._generate

    def counting(constants):
        search = generate(constants)

        def counted(*tables):
            embedding = search(*tables)
            if embedding is not False:
                found.append(constants[1])
            return embedding
        return counted

    obstructions._catalog_patterns.cache_clear()
    monkeypatch.setattr(embed, "_generate", counting)
    yield found
    obstructions._catalog_patterns.cache_clear()
