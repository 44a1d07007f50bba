"""tools/same_outputs.py runs the same commands on both checkouts and lists
each output that differs."""
import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"

# Stands in for logmeasure.cli: writes report.json from its arguments (with
# the path of the measure or config file reduced to its name) and echoes
# the subcommand.  TWIST is added to every velocity report; REPRO_EXIT is
# the exit code of ``repro b``; a scenario not in SCENARIO_NAMES exits 1.
# ``cantor`` opens its report with CANTOR_MODE, so "a" appends to the
# report that an earlier run left.
CLI = '''
import os, sys
from logmeasure.scenarios import SCENARIO_NAMES
ENGINES = ("double", "planar")
def main():
    argv = [os.path.basename(a) for a in sys.argv[1:]]
    if argv[0] == "repro" and argv[1] not in SCENARIO_NAMES:
        sys.stderr.write("error: BadParams: unknown scenario\\n")
        return 1
    mode = CANTOR_MODE if argv[0] == "cantor" else "w"
    with open(os.path.join(argv[-1], "report.json"), mode) as fh:
        fh.write(" ".join(argv) + (TWIST if argv[0] == "velocity" else ""))
    print(argv[0])
    return REPRO_EXIT if argv[:2] == ["repro", "b"] else 0
if __name__ == "__main__":
    sys.exit(main())
'''


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _checkout(root: pathlib.Path, name: str, scenarios, twist: str = "",
              repro_exit: int = 0, cantor_mode: str = "w") -> str:
    pkg = root / name / "src" / "logmeasure"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "scenarios.py").write_text(f"SCENARIO_NAMES = {tuple(scenarios)!r}\n")
    (pkg / "cli.py").write_text(CLI.replace("TWIST", repr(twist))
                                .replace("REPRO_EXIT", str(repro_exit))
                                .replace("CANTOR_MODE", repr(cantor_mode)))
    corpus = root / name / "tests" / "corpus"
    corpus.mkdir(parents=True)
    for doc in ("cantor3", "uniform"):
        (corpus / f"{doc}.json").write_text(json.dumps({"kind": doc}))
    return str(root / name)


def test_same_outputs_exit_zero(tmp_path, capsys):
    code = _tool().main(["--parent", _checkout(tmp_path, "parent", "ab"),
                         "--change", _checkout(tmp_path, "change", "ab")])
    assert code == 0
    assert capsys.readouterr().out == "0 difference(s)\n"


def test_every_difference_is_listed(tmp_path, capsys):
    code = _tool().main([
        "--parent", _checkout(tmp_path, "parent", "ab"),
        "--change", _checkout(tmp_path, "change", "abc", twist=" moved", repro_exit=3)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    corpus = tmp_path / "change" / "tests" / "corpus"
    velocity = [f"velocity --measure {corpus / f}{mark}: report.json differs"
                for f in ("cantor3.json", "uniform.json") for mark in ("", " (rerun)")]
    repro_c = [f"repro c{mark}: {what}" for mark in ("", " (rerun)") for what in (
        "exit code differs", "stdout differs", "stderr differs",
        "report.json written by one side only")]
    assert lines == velocity + ["repro b: exit code differs",
                                "repro b (rerun): exit code differs"] + repro_c + [
        "14 difference(s)"]


def test_rerun_in_a_filled_directory_is_compared(tmp_path, capsys):
    # the change appends to the report a previous run left; its first run
    # in an empty directory writes the same bytes as the parent's
    code = _tool().main(["--parent", _checkout(tmp_path, "parent", "ab"),
                         "--change", _checkout(tmp_path, "change", "ab", cantor_mode="a")])
    assert code == 1
    cantor3 = tmp_path / "change" / "tests" / "corpus" / "cantor3.json"
    assert capsys.readouterr().out.splitlines() == [
        f"cantor --config {cantor3} (rerun): report.json differs", "1 difference(s)"]


def test_commands_cover_the_corpus_repro_and_extra_documents(tmp_path):
    tool = _tool()
    corpus = pathlib.Path(_checkout(tmp_path, "change", "ab")) / "tests" / "corpus"
    cmds = tool.commands(str(corpus), ["double", "planar"], ["a", "b"], ["x.json"])
    per_file = [["energy", "--engine", "double"], ["energy", "--engine", "planar"],
                ["classify"], ["radial"], ["velocity"]]
    want = [head + ["--measure", str(corpus / f)]
            for f in ("cantor3.json", "uniform.json") for head in per_file]
    want += [["cantor", "--config", str(corpus / "cantor3.json")],
             ["dimension", "--config", str(corpus / "cantor3.json")],
             ["repro", "a"], ["repro", "b"], ["classify", "--measure", "x.json"]]
    assert cmds == want
    assert len(tool.EXTRA_CLASSIFY) == 4
