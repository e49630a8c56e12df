import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location("scale", Path(__file__).parent.parent / "tools" / "scale.py")
scale = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scale)


def test_scale_runs_every_case_at_its_smallest_sizes(capsys):
    assert scale.main(["--small", "--repeat", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["case", "size", "best", "ms", "median", "ms", "peak", "MiB", "kept", "MiB"]
    cases = [row.rsplit(None, 5)[:2] for row in rows]
    assert cases == [
        ["sharpen forking_chain", "k=2"],
        ["cli sharpen --json forking_chain", "k=2"],
        ["sharpen forking_chain", "k=3"],
        ["cli sharpen --json forking_chain", "k=3"],
        ["preferred linked_two_cycles", "n=20"],
        ["cf2 linked_two_cycles", "n=20"],
        ["preferred reversed chained_four_cycles", "k=3"],
        ["load_afo flower_document", "h=10"],
        ["validate_lattice flower_document", "h=10"],
        ["build_model flower_document", "h=10"],
        ["sharpen flower_document", "h=10"],
        ["load_afo flower_document", "h=20"],
        ["validate_lattice flower_document", "h=20"],
        ["build_model flower_document", "h=20"],
        ["sharpen flower_document", "h=20"],
        ["validate_lattice product_diagram", "n=196"],
        ["validate_lattice product_diagram", "n=676"],
        ["validate_lattice failing flower", "n=36"],
        ["derive_abstract_frameworks flower_instance", "h=10"],
        ["sharpen flower_instance", "h=10"],
        ["derive_abstract_frameworks flower_instance", "h=20"],
        ["sharpen flower_instance", "h=20"],
        ["derive_abstract_frameworks flower_instance", "h=40"],
        ["sharpen flower_instance", "h=40"],
    ]
    for row in rows:
        best, median, peak, kept = map(float, row.split()[-4:])
        assert 0 <= best <= median and peak > 0 and 0 <= kept <= peak
