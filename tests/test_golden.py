"""Every table, CSV and run verdict of tests/golden stays byte-identical."""

from pathlib import Path

from golden.make_golden import golden_names, write_golden

GOLDEN = Path(__file__).parent / "golden"


def test_tables_and_verdicts_equal_the_golden_files_byte_for_byte(tmp_path, capsys):
    write_golden(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(golden_names())
    for name in golden_names():
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
