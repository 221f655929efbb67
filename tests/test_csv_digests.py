"""The verdict logic of ``tools/csv_digests.py --check`` on fixture digests."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "csv_digests.py"
spec = importlib.util.spec_from_file_location("csv_digests", TOOL)
csv_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(csv_digests)

FOUND = {"a.json": "1" * 64, "b.json": "2" * 64}


def test_check_passes_on_equal_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(csv_digests, "digests", lambda: dict(FOUND))
    assert csv_digests.main([]) == 0
    listing = tmp_path / "digests.txt"
    listing.write_text(capsys.readouterr().out)
    assert csv_digests.main(["--check", str(listing)]) == 0
    assert "all 2 CSV digests match" in capsys.readouterr().out


def test_check_names_every_differing_config(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(csv_digests, "digests", lambda: dict(FOUND))
    listing = tmp_path / "digests.txt"
    listing.write_text(f"{'3' * 64}  a.json\n{'4' * 64}  c.json\n")
    assert csv_digests.main(["--check", str(listing)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["a.json", "b.json", "c.json"]
    assert lines[1] == f"b.json: expected nothing, got {'2' * 64}"
