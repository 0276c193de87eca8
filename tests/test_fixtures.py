"""The committed fixtures/ directory must be what sdsr.fixtures writes."""

from pathlib import Path

from sdsr.fixtures import write_fixture_files

COMMITTED = Path(__file__).resolve().parent.parent / "fixtures"


def test_committed_fixtures_match_the_builders(tmp_path):
    written = {p.name: p.read_bytes() for p in write_fixture_files(tmp_path)}
    committed = {p.name: p.read_bytes() for p in COMMITTED.iterdir() if p.is_file()}
    assert sorted(written) == sorted(committed)
    for name, data in written.items():
        assert data == committed[name], f"fixtures/{name} differs from write_fixture_files()"
