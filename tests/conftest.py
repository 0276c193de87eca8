import pytest

from sdsr.engine import LexicalBackend

from _fixtures import build_fixture_library, build_fixture_questions


@pytest.fixture(scope="session")
def fixture_library():
    return build_fixture_library()


@pytest.fixture(scope="session")
def bare_library():
    return build_fixture_library(with_summary=False)


@pytest.fixture(scope="session")
def questions():
    return build_fixture_questions()


@pytest.fixture()
def lexical_backend():
    return LexicalBackend()
