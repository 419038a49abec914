import pytest

from curveatlas import curves


@pytest.fixture
def set_table_entry(monkeypatch):
    """set_table_entry(name, d, pt) replaces the point of the entry labelled
    d in the embedded table curves.<name> by pt, and clears paper_points'
    cache so the next read builds its records from the changed table."""
    def set_entry(name, d, pt):
        table = [(pt if label == d else old, label)
                 for old, label in getattr(curves, name)]
        monkeypatch.setattr(curves, name, table)
        curves.paper_points.cache_clear()
    yield set_entry
    curves.paper_points.cache_clear()
