import pytest


@pytest.fixture(autouse=True)
def _private_disk_cache(tmp_path, monkeypatch):
    """Point the default disk cache of every test at its own empty directory, so
    that entries left in ./.maxcomplex-cache by earlier runs change no outcome."""
    monkeypatch.setenv("MAXCOMPLEX_CACHE", str(tmp_path / "maxcomplex-cache"))
