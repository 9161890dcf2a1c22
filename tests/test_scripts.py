"""The programs under scripts/ run as __main__ and print their headline lines."""
import re
import runpy
import textwrap
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


def synthetic_run(**values):
    return {"metrics": {name: {"value": v} for name, v in values.items()}}


def test_bench_pairs_summary_arithmetic():
    # the summary only, on made-up runs: no benchmark is launched
    bench = runpy.run_path(str(SCRIPTS / "bench_pairs.py"),
                           run_name="bench_pairs")
    spec = {"wall_s": {"unit": "s", "better": "lower", "bound": 0.25},
            "rate": {"unit": "1/s", "better": "higher", "bound": 0.25}}
    parent = [synthetic_run(wall_s=w, rate=r)
              for w, r in ((1.0, 5.0), (2.0, 5.0), (3.0, 4.0), (4.0, None))]
    change = [synthetic_run(wall_s=w, rate=r)
              for w, r in ((0.5, 6.0), (2.0, 4.0), (3.5, 4.0), (1.0, 9.0))]
    out = bench["summarise"](parent, change, spec)
    wall = out["wall_s"]
    assert wall["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25,
                              "values": [1.0, 2.0, 3.0, 4.0]}
    assert wall["change"]["median"] == 1.5
    assert (wall["change_wins"], wall["ties"]) == (2, 1)
    assert wall["relative_change"] == -0.4
    assert wall["parent_iqr"] == 1.5
    assert (wall["unit"], wall["better"], wall["bound"]) == ("s", "lower",
                                                             0.25)
    # higher is better; a pair with a missing value counts for neither
    rate = out["rate"]
    assert rate["parent"]["median"] == 5.0
    assert (rate["change_wins"], rate["ties"]) == (1, 1)
    # 2 wins of 4 and a median 0.4 better: within bound, no claim
    assert (wall["over_bound"], wall["claim_holds"]) == (False, False)
    assert (rate["over_bound"], rate["claim_holds"]) == (False, False)
    # ten pairs, parent IQR 0.45: the claim needs 9 wins and a median
    # better by more than the IQR
    walls = [1.0 + 0.1 * i for i in range(10)]
    parent = [synthetic_run(wall_s=w, rate=10.0 - w) for w in walls]

    def wall_claim(gap, losses):
        change = [synthetic_run(wall_s=w - gap if i < 10 - losses else 2.0,
                                rate=5.0 - w) for i, w in enumerate(walls)]
        wall = bench["summarise"](parent, change, spec)["wall_s"]
        assert wall["change_wins"] == 10 - losses
        assert wall["over_bound"] is False
        return wall["claim_holds"]

    assert wall_claim(0.6, 1) is True
    assert wall_claim(0.3, 1) is False
    assert wall_claim(0.6, 2) is False
    # higher is better: a median about 5/8.55 lower is past the 0.25 bound
    change = [synthetic_run(wall_s=w, rate=5.0 - w) for w in walls]
    rate = bench["summarise"](parent, change, spec)["rate"]
    assert (rate["change_wins"], rate["over_bound"],
            rate["claim_holds"]) == (0, True, False)
    records = [{"attempted": a} for a in (100, 110, 90)]
    more = [{"attempted": a} for a in (120, 99, 130)]
    assert bench["attempted_ratio"](records, more) == 1.2
    assert bench["parse_seeds"]("901-903") == [901, 902, 903]
    assert bench["parse_seeds"]("7,9") == [7, 9]


TOY = textwrap.dedent('''\
    """A toy module."""


    def sign(x):
        if x > 0:
            return 1
        if x < 0:
            return -1
        # zero is neither
        return 0


    def unused(
            x):
        return x


    VALUE = sign(2) + sign(-3)
    ''')


def test_untested_lines_arithmetic(tmp_path):
    # the tracer and the line arithmetic on a toy module: no pytest run
    tool = runpy.run_path(str(SCRIPTS / "untested_lines.py"),
                          run_name="untested_lines")
    toy = tmp_path.resolve() / "toy.py"
    toy.write_text(TOY)
    # the docstring, both defs, every statement; not the comment, blank
    # lines or the def's second line
    assert tool["executable_lines"](toy) == {1, 4, 5, 6, 7, 8, 10, 13, 15,
                                             18}
    with tool["LineTracer"](tmp_path) as tracer:
        runpy.run_path(str(toy))
    assert tracer.hits == {str(toy): {1, 4, 5, 6, 7, 8, 13, 18}}
    assert tool["report"]([toy], tracer.hits, tmp_path.resolve()) == (
        "toy.py:10\n"
        "     10      return 0\n"
        "toy.py:15\n"
        "     15      return x\n"
        "2 of 10 executable lines were not executed")
    # a run of untested lines spans the lines between them that carry no
    # instruction, and an executed line ends it
    ranges = tool["untested_ranges"]
    assert ranges({2, 3, 5, 8, 9, 12}, {5, 12}) == [(2, 3), (8, 9)]
    assert ranges({4, 7, 9}, {9}) == [(4, 7)]
    assert ranges({4, 7}, set()) == [(4, 7)]
    assert ranges({4, 7}, {4, 7}) == []
