import os

import pytest

from zipfest.law import make_zipf_law

# Worker count of the heavy Monte Carlo tests, overridable from the
# environment; the package itself reads no environment variable.
WORKERS = int(os.environ.get("ZIPFEST_WORKERS", str(min(2, os.cpu_count() or 1))))


@pytest.fixture(scope="session")
def law05():
    return make_zipf_law(0.5)


@pytest.fixture(scope="session")
def law03():
    return make_zipf_law(0.3)


@pytest.fixture(scope="session")
def law07():
    return make_zipf_law(0.7)
