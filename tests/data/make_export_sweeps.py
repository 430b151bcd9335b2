"""Write ``export_sweeps/``: golden bytes of the sweeps the figure export runs.

Each case is one ``qoct sweep-synthesis --n 10`` call with the default
sample count, in energy and in time mode, at the factors 0.5, 0.8 and 1.25:
values between the older sweep goldens (energy at 2, time at 0.3, 1 and 3),
so that every regime the energy extremals pass through below and above one
is covered.  The CSV is stored gzip-compressed (``mtime`` 0, so rerunning at
an unchanged commit gives identical files); the test compares the
decompressed bytes exactly.

Run from the repository root, at any commit:

    PYTHONPATH=src python tests/data/make_export_sweeps.py
"""

import gzip
import pathlib
import tempfile

from qoct.cli import main as qoct_main

OUT = pathlib.Path(__file__).parent / "export_sweeps"
ALPHAS = ("0.5", "0.8", "1.25")
MODES = ("energy", "time")


def argv(mode: str, alpha: str) -> list[str]:
    return ["sweep-synthesis", "--mode", mode, "--n", "10", "--alpha", alpha]


def path(mode: str, alpha: str) -> pathlib.Path:
    return OUT / f"sweep_{mode}_n10_alpha{alpha}.csv.gz"


def main():
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        csv = pathlib.Path(tmp) / "sweep.csv"
        for mode in MODES:
            for alpha in ALPHAS:
                if qoct_main([*argv(mode, alpha), "--out", str(csv)]) != 0:
                    raise SystemExit(f"sweep {mode} at {alpha} failed")
                data = csv.read_bytes()
                path(mode, alpha).write_bytes(gzip.compress(data, mtime=0))
                print(f"{path(mode, alpha).name}: {len(data)} bytes")


if __name__ == "__main__":
    main()
