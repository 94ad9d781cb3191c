"""Byte-for-byte CLI output against the files in tests/golden/.

Each command below is run in text and in JSON; stdout must equal
golden/<name>.txt and golden/<name>.json exactly. To regenerate every file
from the current source:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import io
from pathlib import Path

import pytest

from liecurv.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
DOCUMENTS = Path(__file__).parent / "documents"
DIM5, DIM6 = (str(DOCUMENTS / f"semidirect{n}_decimal.json") for n in (5, 6))

COMMANDS = {
    "report_all": ["report", "--all"],
    **{f"analyze_case{n}": ["analyze", "--case", str(n)] for n in (1, 2, 3, 5, 6)},
    "analyze_case4_a-1_b0": ["analyze", "--case", "4", "--alpha=-1", "--beta=0"],
    "analyze_case4_a0.5_b1_3": ["analyze", "--case", "4", "--alpha=0.5", "--beta=1/3"],
    # The same floating geometry to 17 digits: holds the last bits of every curvature
    # entry, sectional value and the scalar, which 12 digits can hide.
    "analyze_case4_a0.5_b1_3_p17": ["analyze", "--case", "4", "--alpha=0.5", "--beta=1/3",
                                    "--precision", "17"],
    # Decimal R semidirect_D R^(n-1) documents off the catalog, to 17 digits: the float
    # Koszul solve, curvature rows and scalar trace at dims 5 and 6.
    "analyze_semidirect5_decimal_p17": ["analyze", DIM5, "--precision", "17"],
    "analyze_semidirect6_decimal_p17": ["analyze", DIM6, "--precision", "17"],
    # Non-basis planes on the same float tensor: a mixed vector, and exact vectors.
    "sectional_semidirect5_mixed_p17": ["sectional", DIM5, "--u", "1,0.5,0,0,0",
                                        "--v", "0,1,0,1/2,0", "--precision", "17"],
    "sectional_semidirect5_exact_p17": ["sectional", DIM5, "--u", "1,1/2,0,1,0",
                                        "--v", "0,1,1/3,0,2", "--precision", "17"],
    "randers_case1_flag": ["randers", "--case", "1", "--drift", "0,0,1/2,0",
                           "--pole", "1,0,0,0", "--edge", "0,1,0,0"],
    "catalog_list": ["catalog", "list"],
    # Poles with irrational g-norms, printed to 17 digits: these hold the float g_y
    # table and flag value bit for bit, for decimal and for exact poles.
    "randers_case1_float_pole": ["randers", "--case", "1", "--drift", "0,0,1/2,0",
                                 "--pole", "0.3,0.7,1.1,0", "--edge", "0,1,0.2,0",
                                 "--precision", "17"],
    "randers_case6_irrational_pole": ["randers", "--case", "6", "--drift", "0,0,1/3,0",
                                      "--pole", "1,2,1,1", "--edge", "0,1,0,1/2",
                                      "--precision", "17"],
    "flag_case1_irrational_pole": ["flag", "--case", "1", "--drift", "0,0,1/2,0",
                                   "--pole", "1,1,1,0", "--edge", "0,1,0,0",
                                   "--precision", "17"],
    "flag_case4_float_pole": ["flag", "--case", "4", "--alpha=-1", "--beta=0",
                              "--drift", "0,0,0,1/2", "--pole", "0.3,0.7,1.1,0.2",
                              "--edge", "0.5,1,0.2,0", "--precision", "17"],
}
FORMATS = {"txt": "text", "json": "json"}


def _stdout(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


@functools.cache
def _report_all(tmp: Path) -> dict:
    """Both outputs of `report --all` from one run (it is the slowest
    command): --out writes the envelope that --format json prints."""
    path = tmp / "report.json"
    text = _stdout(COMMANDS["report_all"] + ["--out", str(path)])
    wrote = f"wrote {path}\n"
    assert text.endswith(wrote)
    return {"txt": text[:-len(wrote)], "json": path.read_text(encoding="utf-8")}


@pytest.mark.parametrize("ext", FORMATS)
@pytest.mark.parametrize("name", COMMANDS)
def test_cli_output_matches_golden(name, ext, tmp_path_factory):
    expected = (GOLDEN_DIR / f"{name}.{ext}").read_text(encoding="utf-8")
    if name == "report_all":
        got = _report_all(tmp_path_factory.getbasetemp())[ext]
    else:
        got = _stdout(COMMANDS[name] + ["--format", FORMATS[ext]])
    assert got == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        for ext, fmt in FORMATS.items():
            (GOLDEN_DIR / f"{name}.{ext}").write_text(_stdout(argv + ["--format", fmt]),
                                                      encoding="utf-8")
