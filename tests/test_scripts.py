"""The programs under scripts/ run as __main__ and print their headline lines."""
import re
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, capsys):
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def number(pattern, text):
    m = re.search(pattern, text)
    assert m, f"no line matching {pattern!r} in:\n{text}"
    return float(m.group(1))


def test_collision_study(capsys):
    out = run_script("collision_study.py", capsys)
    assert out.startswith("level set of (1,2): 1/a - 1/b = 0.5, q0 = 1.5\n")
    assert number(r"at q0: pairwise spread (\S+),", out) < 1e-12
    assert number(r"closed-form deviation (\S+)", out) < 1e-12
    for qp in ("1.3", "1.7"):
        assert number(rf"at q = {qp}: pairwise spread (\S+)", out) > 1e-3


def test_roundtrip_demo(capsys):
    out = run_script("roundtrip_demo.py", capsys)
    assert number(r"gaussian, richardson schedule: residual (\S+) "
                  r"on 241 points x in \[-6, 6\]", out) < 1e-3
    assert number(r"power-law window, single fine slice: residual (\S+) "
                  r"on 401 points x in \[-0\.5, 3\.5\]", out) < 1e-2
