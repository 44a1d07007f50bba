"""Run the CLI from two checkouts and list every output that differs.

    python3 tools/same_outputs.py --parent /path/to/parent-checkout --change .

``--parent`` and ``--change`` are checkouts holding ``src/`` (make the
parent one with ``git archive``).  Each command runs as
``python3 -m logmeasure.cli`` with ``PYTHONPATH`` set to the checkout's
``src/`` and ``OPENBLAS_NUM_THREADS=1``, one at a time, in an empty
directory of its own with ``--out-dir .``.  The commands are:

* ``energy`` with every engine, ``classify``, ``radial`` and ``velocity``
  on every file of the change's ``tests/corpus/`` (a command that does not
  apply to a file exits 1 on both sides, which is compared too);
* ``cantor`` and ``dimension`` with ``tests/corpus/cantor3.json`` as
  ``--config``;
* ``repro`` for every scenario that either side names;
* ``classify`` on the general-ratio constructions with beta 1.5, 2 and 3
  and on the standard one with K = 5.209, which the corpus lacks.

Compared per command: the exit code, stdout, stderr and every file written,
byte for byte.  Each difference is printed on a line of its own; the script
exits 1 if there is any, else 0.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile

EXTRA_CLASSIFY = [{"kind": "cantor", "family": "general", "beta": b} for b in (1.5, 2, 3)] + [
    {"kind": "cantor", "family": "standardK", "K": 5.209}]

NAMES = ("import json; from logmeasure.cli import ENGINES; "
         "from logmeasure.scenarios import SCENARIO_NAMES; "
         "print(json.dumps([list(ENGINES), list(SCENARIO_NAMES)]))")


def env_for(checkout: str) -> dict:
    return {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(checkout), "src"),
            "OPENBLAS_NUM_THREADS": "1"}


def names(checkout: str) -> tuple:
    """The checkout's energy engines and repro scenarios."""
    out = subprocess.run([sys.executable, "-c", NAMES], env=env_for(checkout),
                         capture_output=True, text=True, check=True)
    return tuple(json.loads(out.stdout))


def union(*lists) -> list:
    return list(dict.fromkeys(x for lst in lists for x in lst))


def commands(corpus: str, engines, scenarios, extras) -> list:
    files = sorted(os.path.join(corpus, f) for f in os.listdir(corpus) if f.endswith(".json"))
    cmds = []
    for path in files:
        cmds += [["energy", "--engine", e, "--measure", path] for e in engines]
        cmds += [[sub, "--measure", path] for sub in ("classify", "radial", "velocity")]
    cantor3 = os.path.join(corpus, "cantor3.json")
    cmds += [[sub, "--config", cantor3] for sub in ("cantor", "dimension")]
    cmds += [["repro", name] for name in scenarios]
    cmds += [["classify", "--measure", path] for path in extras]
    return cmds


def run(checkout: str, argv: list, workdir: str) -> dict:
    """Exit code, stdout and stderr of one command run in ``workdir``."""
    os.makedirs(workdir)
    out = subprocess.run([sys.executable, "-m", "logmeasure.cli", *argv, "--out-dir", "."],
                         cwd=workdir, env=env_for(checkout), capture_output=True, text=True)
    return {"exit code": out.returncode, "stdout": out.stdout, "stderr": out.stderr}


def differences(parent: dict, change: dict, pdir: str, cdir: str) -> list:
    """One line per output of the command that differs between the sides."""
    diffs = [f"{what} differs" for what in parent if parent[what] != change[what]]
    pfiles, cfiles = set(os.listdir(pdir)), set(os.listdir(cdir))
    diffs += [f"{f} written by one side only" for f in sorted(pfiles ^ cfiles)]
    diffs += [f"{f} differs" for f in sorted(pfiles & cfiles)
              if not filecmp.cmp(os.path.join(pdir, f), os.path.join(cdir, f), shallow=False)]
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    (pe, ps), (ce, cs) = names(args.parent), names(args.change)
    corpus = os.path.join(os.path.abspath(args.change), "tests", "corpus")
    found = 0
    with tempfile.TemporaryDirectory() as tmp:
        extras = []
        for k, doc in enumerate(EXTRA_CLASSIFY):
            extras.append(os.path.join(tmp, f"extra{k}.json"))
            with open(extras[-1], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        for k, cmd in enumerate(commands(corpus, union(ce, pe), union(cs, ps), extras)):
            dirs = {side: os.path.join(tmp, side, str(k)) for side in sides}
            res = {side: run(sides[side], cmd, dirs[side]) for side in sides}
            diffs = differences(res["parent"], res["change"], dirs["parent"], dirs["change"])
            for line in diffs:
                print(f"{' '.join(cmd)}: {line}", flush=True)
            found += len(diffs)
    print(f"{found} difference(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
