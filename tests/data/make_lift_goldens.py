"""Write ``lift_goldens/``: golden bytes of the complex lift.

Each case is one ``qoct lift --energies=-1,0.3,0.7 --phases 0.3,-1`` call
with ``--trajectory-out``: in time mode at the factors 0.5, 0.8, 1.25 and
1.9, on either side of one and far from the older golden at 0.7, and in
energy mode at 0.8.  The population CSV is stored gzip-compressed (``mtime``
0, so rerunning at an unchanged commit gives identical files) and the final
population goes to ``final_populations.json`` as its 17-digit text; the test
compares both exactly.

Run from the repository root, at any commit:

    PYTHONPATH=src python tests/data/make_lift_goldens.py
"""

import contextlib
import gzip
import io
import json
import pathlib
import tempfile

from qoct.cli import main as qoct_main

OUT = pathlib.Path(__file__).parent / "lift_goldens"
CASES = (
    ("time", "0.5"),
    ("time", "0.8"),
    ("time", "1.25"),
    ("time", "1.9"),
    ("energy", "0.8"),
)


def argv(mode: str, alpha: str) -> list[str]:
    return ["lift", "--mode", mode, "--alpha", alpha,
            "--energies=-1,0.3,0.7", "--phases", "0.3,-1"]


def name(mode: str, alpha: str) -> str:
    return f"lift_{mode}_alpha{alpha}"


def path(mode: str, alpha: str) -> pathlib.Path:
    return OUT / f"{name(mode, alpha)}.csv.gz"


def main():
    OUT.mkdir(exist_ok=True)
    finals = {}
    with tempfile.TemporaryDirectory() as tmp:
        csv = pathlib.Path(tmp) / "lift.csv"
        for mode, alpha in CASES:
            doc = io.StringIO()
            with contextlib.redirect_stdout(doc):
                code = qoct_main([*argv(mode, alpha), "--trajectory-out", str(csv)])
            if code != 0:
                raise SystemExit(f"lift {mode} at {alpha} failed")
            finals[name(mode, alpha)] = format(
                json.loads(doc.getvalue())["final_population"], ".17g"
            )
            data = csv.read_bytes()
            path(mode, alpha).write_bytes(gzip.compress(data, mtime=0))
            print(f"{path(mode, alpha).name}: {len(data)} bytes")
    (OUT / "final_populations.json").write_text(json.dumps(finals, indent=2) + "\n")


if __name__ == "__main__":
    main()
