import io
import contextlib
import hashlib
import json
import os

import pytest

from cubalg import InvariantError
from cubalg import chart as chartmod
from cubalg import covers, emit, fgl, hopf, regseq
from cubalg import steenrod as st
from cubalg import cli
from cubalg.cli import dispatch, parse_curve, parse_range
from cubalg.cobar import BigradedChart, cobar_cohomology
from cubalg.hopf import builtin_algebroid


def run(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = dispatch(args)
    return rc, buf.getvalue()


def verb_of(argv):
    """The verb's words, "descent" or "curve fgl", at the head of `argv`."""
    return " ".join(a for a in argv[:2] if not a.startswith("-"))


def test_parse_curve_mixed():
    c = parse_curve("a1,0,a3,0,0")
    assert c.a1.text() == "a1" and c.a2.is_zero()
    with pytest.raises(ValueError):
        parse_curve("a1,0,0,0")
    with pytest.raises(ValueError):
        parse_curve("a1,b,0,0,0")


def test_parse_range():
    assert parse_range("-2..2") == [-2, -1, 0, 1, 2]
    assert parse_range("-1..-1") == [-1]
    assert parse_range("1,5,9") == [1, 5, 9]
    with pytest.raises(ValueError, match="reversed range '5..2'"):
        parse_range("5..2")
    assert cli.parse_window("-2..3") == (-2, 3)
    assert cli.parse_window("1,4,9") == (1, 9)
    assert cli.parse_window("5") == (5, 5)
    with pytest.raises(ValueError, match="reversed range '3,1'"):
        cli.parse_window("3,1")
    with pytest.raises(ValueError, match="empty range ','"):
        cli.parse_window(",")
    assert parse_range("3,1") == [3, 1]
    with pytest.raises(ValueError, match="empty range ''"):
        parse_range("")


@pytest.mark.parametrize("argv", [
    ["hopf", "cobar", "--twists", "3..1"],
    ["hopf", "h0", "--twists", "5..2"],
    ["descent", "--degrees", "12..0"],
    ["chart", "render", "--x-range=8..-8"],
    ["chart", "render", "--x-range", "3,1"],
    ["chart", "render", "--s-range", "4,0"],
])
def test_reversed_range_is_rejected(argv, tmp_path, capsys):
    if argv[0] == "chart":
        chart = tmp_path / "chart.json"
        chart.write_text(emit.json_text(emit.chart_to_obj(
            BigradedChart(s_max=2, t_values=(0,), cells={(0, 0): (1, ())}))))
        argv = argv + ["--input", str(chart)]
    assert dispatch(argv) == cli.EXIT_ERROR == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("cubalg: error: reversed range")


def test_nseries_golden():
    rc, out = run(["curve", "nseries", "--curve", "a1,0,a3,0,0",
                   "--n", "2", "--order", "4"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["coefficients"]["z^1"] == "2"
    assert obj["coefficients"]["z^2"] == "-1*a1"
    assert obj["coefficients"]["z^4"] == "-7*a3"


def test_cover_fiber_cusp():
    rc, out = run(["cover", "fiber", "--cusp", "--prime", "2",
                   "--field", "F2"])
    assert rc == 0
    assert json.loads(out)["rank"] == 8


def test_cech_empty_twist():
    rc, out = run(["cech", "--weights", "1,3", "--twists=-1..-1"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["h0"]["-1"] == [] and obj["h1"]["-1"] == []


def test_pi_table():
    rc, out = run(["descent", "--weights", "1,3", "--degrees", "0..12"])
    assert rc == 0
    obj = json.loads(out)
    assert [obj["pi"][str(d)]["rank"] for d in range(13)] == \
        [1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 2, 0, 3]


def test_determinism_byte_identical():
    for args in (
        ["curve", "invariants", "--curve", "1,2,3,4,5"],
        ["hopf", "cobar", "--algebroid", "z2_group", "--twists=-2..2",
         "--smax", "4"],
        ["steenrod", "primitives", "--window", "1..8", "--cutoff", "16"],
        ["descent", "--format", "tsv"],
    ):
        rc1, out1 = run(args)
        rc2, out2 = run(args)
        assert rc1 == 0 and out1 == out2


def test_unknown_verb_nonzero():
    with pytest.raises(SystemExit):
        dispatch(["frobnicate"])


def test_error_exit_code():
    rc, _ = run(["curve", "nseries", "--curve", "bogus", "--n", "2"])
    assert rc == 2


def test_invariant_failure_exit_code(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InvariantError("cross-check failed")

    # the handler imports the engine function when it runs
    monkeypatch.setattr(covers, "cech_weighted_projective", broken)
    assert dispatch(["cech"]) == cli.EXIT_INVARIANT == 1
    assert "cross-check failed" in capsys.readouterr().err


def test_emit_tsv_header_only():
    text = emit.tsv_text([], ["a", "b"])
    assert text == "a\tb\n"


def test_emit_json_round_trip_chart():
    H = builtin_algebroid("z2_group")
    chart = cobar_cohomology(H, range(-2, 3), 4)
    obj = emit.chart_to_obj(chart)
    text = emit.json_text(obj)
    back = emit.chart_from_obj(json.loads(text))
    assert back.cells == chart.cells
    assert back.t_values == chart.t_values


def test_atomic_write_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(emit.OUTPUT_DIR_ENV, str(tmp_path))
    emit.atomic_write_text("sub/file.txt", "hello\n")
    assert (tmp_path / "sub" / "file.txt").read_text() == "hello\n"
    assert not [f for f in os.listdir(tmp_path / "sub")
                if f.startswith(".tmp-")]


def test_empty_chart_grid_only():
    chart = BigradedChart(s_max=4, t_values=())
    render = chartmod.render_window_for(chart, (0, 8), (0, 4))
    svg = chartmod.chart_svg(render)
    assert "<rect" in svg and "circle" not in svg.replace(
        'marker', '')  # background rect only, no glyphs
    assert svg.count("<line") > 0


def test_chart_svg_deterministic_and_glyphs():
    H = builtin_algebroid("z2_group")
    chart = cobar_cohomology(H, range(-4, 5), 6)
    render = chartmod.render_window_for(chart, (-8, 8), (0, 6))
    svg1 = chartmod.chart_svg(render)
    svg2 = chartmod.chart_svg(render)
    assert svg1 == svg2
    # box at (0, 0); dot towers over x = 0 mod 4 columns
    assert "<rect" in svg1 and "<circle" in svg1


def test_chart_one_cluster_per_cell():
    chart = BigradedChart(s_max=2, t_values=(0,))
    chart.cells[(1, 2)] = (2, (2, 4))
    render = chartmod.render_window_for(chart, (0, 4), (0, 2))
    svg = chartmod.chart_svg(render)
    # 2 boxes + 2 dots, one labeled "4"
    assert svg.count('stroke="black"') == 2
    assert svg.count('fill="black"') == 2
    assert ">4</text>" in svg


def test_cli_chart_render_round_trip(tmp_path):
    rc, out = run(["hopf", "cobar", "--algebroid", "z2_group",
                   "--twists=-4..4", "--smax", "6"])
    assert rc == 0
    src = tmp_path / "chart.json"
    src.write_text(out)
    dst = tmp_path / "chart.svg"
    rc = dispatch(["chart", "render", "--input", str(src),
                   "--x-range=-8..8", "--s-range", "0..6",
                   "--output", str(dst)])
    assert rc == 0
    first = dst.read_bytes()
    rc = dispatch(["chart", "render", "--input", str(src),
                   "--x-range=-8..8", "--s-range", "0..6",
                   "--output", str(dst)])
    assert rc == 0
    assert dst.read_bytes() == first


def test_steenrod_verify_cli():
    rc, out = run(["steenrod", "verify", "--cutoff", "16"])
    assert rc == 0
    assert json.loads(out)["ok"]


def test_steenrod_verify_computes_primitives_once(monkeypatch):
    # both uniqueness probes read the same primitives through degree 16
    calls = []
    primitives = st.primitives

    def counting(*args, **kwargs):
        calls.append(args)
        return primitives(*args, **kwargs)

    monkeypatch.setattr(st, "primitives", counting)
    rc, out = run(["steenrod", "verify", "--cutoff", "16"])
    assert rc == 0 and json.loads(out)["ok"]
    assert calls == [(range(1, 17), 16)]


def test_hopf_h0_through_twist_12_is_pinned():
    # twist 12 is a 547 x 44 kernel; its printed basis is read off the
    # Smith form's V, so these bytes pin the elimination's pivot order
    # (the same digest as the benchmark's op)
    rc, out = run(["hopf", "h0", "--algebroid", "weierstrass",
                   "--twists=-12..12"])
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "cdd162ad7206ffe41ccc888456ae5dba"
        "10703580e86d6e284fc4f180bad792ba")


# the engine function each verb below calls first
ENGINES = {
    "descent": (covers, "cech_weighted_projective"),
    "chart render": (chartmod, "render_window_for"),
    "curve fgl": (fgl, "fgl_from_curve"),
    "curve landweber": (regseq, "landweber_report"),
    "tmf-mu": (covers, "tmf_mu_page"),
    "hopf synthesize": (hopf, "builtin_algebroid"),
    "hopf kucp2": (hopf, "ku_cp2_involution"),
    "steenrod conjugate": (st, "xi_ring"),
    "steenrod coproduct": (st, "xi_ring"),
}


# the last seven verbs have no tabular form: their --format takes json only
@pytest.mark.parametrize("argv", [
    ["descent", "--format", "svg"],
    ["chart", "render", "--input", "chart.json", "--format", "tsv"],
    ["curve", "fgl", "--format", "tsv"],
    ["curve", "landweber", "--format", "tsv"],
    ["tmf-mu", "--format", "tsv"],
    ["hopf", "synthesize", "--format", "tsv"],
    ["hopf", "kucp2", "--format", "tsv"],
    ["steenrod", "conjugate", "--k", "2", "--format", "tsv"],
    ["steenrod", "coproduct", "--k", "2", "--format", "tsv"],
])
def test_format_values_without_effect_are_rejected(argv, monkeypatch,
                                                   capsys):
    # rejected by the parser, before the verb runs its engine
    engine, name = ENGINES[verb_of(argv)]

    def unreached(*args, **kwargs):
        raise AssertionError("%s called" % name)

    monkeypatch.setattr(engine, name, unreached)
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--format" in err


@pytest.mark.parametrize("argv", [
    ["curve", "invariants"], ["curve", "fgl", "--order", "3"],
    ["curve", "nseries", "--n", "2"], ["curve", "hasse", "--imax", "1"],
    ["curve", "landweber", "--cutoff", "6"], ["cover", "fiber"], ["cech"],
    ["descent"], ["tmf-mu", "--window=-8..4"], ["hopf", "synthesize"],
    ["hopf", "cobar", "--twists", "0..2", "--smax", "1"],
    ["hopf", "h0", "--twists", "0..4"], ["hopf", "kucp2"],
    ["steenrod", "conjugate", "--k", "3"],
    ["steenrod", "coproduct", "--k", "3"],
    ["steenrod", "verify", "--cutoff", "16"],
    ["steenrod", "primitives", "--window", "1..8"],
], ids=" ".join)
def test_format_json_is_the_default(argv):
    rc, out = run(argv)
    assert rc == cli.EXIT_OK and out
    assert run(argv + ["--format", "json"]) == (rc, out)


def test_curve_fgl_at_order_3_passes_its_checks():
    rc, out = run(["curve", "fgl", "--order", "3"])
    obj = json.loads(out)
    assert rc == cli.EXIT_OK and obj["order"] == 3
    assert obj["checks"] and all(obj["checks"].values())


def test_curve_hasse_v0_is_the_prime():
    # v0 is the coefficient of z in [p](z), which is p
    rc, out = run(["curve", "hasse", "--prime", "3", "--imax", "1"])
    obj = json.loads(out)
    assert rc == cli.EXIT_OK and obj["prime"] == 3
    assert sorted(obj["v"]) == ["v0", "v1"] and obj["v"]["v0"] == "3"


@pytest.mark.parametrize("argv", [
    ["cech", "--prime", "5"],
    ["descent", "--prime", "3"],
    ["hopf", "synthesize", "--prime", "3"],
    ["hopf", "cobar", "--prime", "3"],
    ["hopf", "h0", "--prime", "7"],
    ["hopf", "kucp2", "--prime", "3"],
    ["steenrod", "conjugate", "--k", "2", "--prime", "3"],
    ["steenrod", "coproduct", "--k", "2", "--prime", "3"],
    ["steenrod", "verify", "--prime", "3"],
    ["steenrod", "primitives", "--prime", "3"],
])
def test_prime_is_rejected_where_it_is_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2


# the verbs that work at one prime default to 2; the other curve verbs
# default to None, over Z
DEFAULT_PRIME = {"curve hasse": 2, "curve landweber": 2, "cover fiber": 2,
                 "tmf-mu": 2, "curve invariants": None, "curve fgl": None,
                 "curve nseries": None}


@pytest.mark.parametrize("argv", [
    ["curve", "invariants"], ["curve", "fgl"],
    ["curve", "nseries", "--n", "2"], ["curve", "hasse"],
    ["curve", "landweber"], ["cover", "fiber"], ["tmf-mu"],
])
def test_prime_is_taken_where_it_is_read(argv):
    parse = cli.build_parser().parse_args
    assert parse(argv + ["--prime", "3"]).prime == 3
    assert parse(argv).prime == DEFAULT_PRIME[verb_of(argv)]


def test_dispatch_builds_the_parser_once():
    cli.build_parser.cache_clear()
    first = run(["curve", "invariants"])
    assert run(["curve", "invariants"]) == first
    assert first[0] == cli.EXIT_OK
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("argv", [
    ["curve", "invariants", "--prime", "4"],
    ["curve", "invariants", "--prime", "1"],
    ["curve", "invariants", "--prime", "0"],
    ["curve", "fgl", "--order", "2", "--prime", "6"],
    ["curve", "fgl", "--prime", "1"],
    ["curve", "nseries", "--n", "2", "--prime", "6"],
    ["curve", "hasse", "--prime", "4"],
    ["curve", "hasse", "--prime", "1"],
    ["curve", "hasse", "--prime", "0"],
    ["curve", "hasse", "--imax", "-1"],
    ["curve", "landweber", "--prime", "1"],
    ["curve", "landweber", "--prime", "0"],
    ["cover", "fiber", "--prime", "0"],
    ["tmf-mu", "--prime", "4", "--validate"],
    ["tmf-mu", "--prime", "0"],
    ["steenrod", "verify", "--cutoff", "-5"],
    # bp2 over tmf has a cell in degree 12, which cutoff 11 cannot see
    ["steenrod", "verify", "--cutoff", "11"],
    ["steenrod", "primitives", "--cutoff", "-1"],
    ["steenrod", "primitives", "--window", "64..64", "--cutoff", "32"],
    ["steenrod", "conjugate", "--k", "1", "--cutoff", "-1"],
    # no xi_k has degree 2^k - 1 <= 0: the range at cutoff 0 is empty
    ["steenrod", "conjugate", "--k", "1", "--cutoff", "0"],
    ["steenrod", "coproduct", "--k", "1", "--cutoff", "0"],
    ["steenrod", "conjugate", "--k", "2", "--cutoff", "0"],
], ids=" ".join)
def test_bad_prime_or_bound_exits_2(argv, capsys):
    # --prime 0 is not the default prime 2: it is rejected like any non-prime
    assert dispatch(argv) == cli.EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cubalg: error: ")
    if argv[-2:] == ["--cutoff", "0"]:
        assert err == "cubalg: error: k must be in 1..0 at cutoff 0, " \
            "got %s\n" % argv[argv.index("--k") + 1]


@pytest.mark.parametrize("argv", [["descent", "--degrees="],
                                  ["tmf-mu", "--window="],
                                  ["cech", "--twists="],
                                  ["hopf", "cobar", "--twists="],
                                  ["hopf", "h0", "--twists="],
                                  ["steenrod", "primitives", "--window="]],
                         ids=" ".join)
def test_empty_range_exits_2(argv, capsys):
    # rejected by name, not by min() of no entries
    assert dispatch(argv) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", "cubalg: error: empty range ''\n")


# one verb per range option, an abbreviated option and a curve, each value
# starting with "-": argparse alone reads a separate "-2..2" as an option
# and exits 2, "expected one argument"
@pytest.mark.parametrize("argv, option, value", [
    (["cech"], "--twists", "-2..2"),
    (["cech"], "--twist", "-2..2"),
    (["cech"], "--twists", "-2,-1,3"),
    (["hopf", "cobar", "--algebroid", "z2_group", "--smax", "2"],
     "--twists", "-4..4"),
    (["hopf", "h0"], "--twists", "-4..4"),
    (["tmf-mu"], "--window", "-70..12"),
    (["steenrod", "primitives"], "--window", "-1..4"),
    (["descent"], "--degrees", "-4..4"),
    (["chart", "render"], "--x-range", "-8..8"),
    (["chart", "render"], "--s-range", "-1..6"),
    (["cover", "fiber"], "--curve", "-1,0,0,0,1"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_negative_value_as_separate_argument(argv, option, value, tmp_path):
    if argv[0] == "chart":
        chart = tmp_path / "chart.json"
        chart.write_text(emit.json_text(emit.chart_to_obj(BigradedChart(
            s_max=2, t_values=(0, 2),
            cells={(0, 0): (1, ()), (1, 2): (0, (2,))}))))
        argv = argv + ["--input", str(chart)]
    joined = run(argv + [option + "=" + value])
    assert joined[0] == cli.EXIT_OK and joined[1]
    assert run(argv + [option, value]) == joined


def test_join_negative_values_touches_only_negative_values():
    assert cli.join_negative_values(
        ["cech", "--twists", "-2..2", "--weights", "1,3"]) == [
        "cech", "--twists=-2..2", "--weights", "1,3"]
    assert cli.join_negative_values(["hopf", "cobar", "--smax", "-1"]) == [
        "hopf", "cobar", "--smax=-1"]
    for argv in (["cech", "--twists", "--format", "tsv"],
                 ["cech", "--twists"],
                 ["cech", "--twists", "0..2"],
                 ["cech", "--twists=-2..2", "-3"],
                 ["cech", "--", "-2..2"]):
        assert cli.join_negative_values(argv) == argv


@pytest.mark.parametrize("argv", [["cover", "fiber", "--curve", "1,2,3"],
                                  ["cover", "fiber", "--curve", "1,2,3,4,5,6"],
                                  ["cover", "fiber", "--curve", "a1,0,0,0,0"],
                                  ["cech", "--weights", "1,3,5"],
                                  ["cech", "--weights", "1,x"],
                                  ["descent", "--weights", "2"]],
                         ids=" ".join)
def test_wrong_entry_count_names_the_option(argv, capsys):
    option = argv[-2]
    wants = {"--curve": "5 integers a1,a2,a3,a4,a6",
             "--weights": "2 integers w1,w2"}[option]
    assert dispatch(argv) == cli.EXIT_ERROR
    assert capsys.readouterr() == (
        "", "cubalg: error: %s wants %s\n" % (option, wants))


@pytest.mark.parametrize("prime, cutoff", [(5, 30), (3, 15), (2, 4)])
def test_landweber_rejects_a_cutoff_below_v2_first(prime, cutoff, capsys,
                                                   monkeypatch):
    # the weight of v2 is known from p: no series is built to find it
    def unbuilt(*args):
        raise AssertionError("hasse_coefficients called")

    monkeypatch.setattr(regseq, "hasse_coefficients", unbuilt)
    argv = ["curve", "landweber", "--prime", str(prime), "--cutoff",
            str(cutoff)]
    assert dispatch(argv) == cli.EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("cubalg: error: v2 has weight 2(p^2 - 1) = %d, above "
                   "the cutoff %d\n" % (2 * (prime ** 2 - 1), cutoff))


def test_landweber_runs_at_a_cutoff_equal_to_the_weight_of_v2():
    rc, out = run(["curve", "landweber", "--prime", "2", "--cutoff", "6"])
    assert rc == 0 and json.loads(out)["v"][2]


@pytest.mark.parametrize("flags", [
    ["--fp", "0"], ["--fp", "1"], ["--fp", "-3"], ["--fp", "9"],
    ["--fp", "15"],
    ["--p-local", "0"], ["--p-local", "1"], ["--p-local", "4"],
    ["--p-local", "-2"],
    ["--smax", "-1"], ["--extended", "-1"],
], ids="=".join)
def test_hopf_cobar_rejects_bad_coefficients(flags, capsys):
    # eta gives Z/2 at (s, t) = (1, 2): --p-local 1 has torsion to strip
    argv = ["hopf", "cobar", "--algebroid", "weierstrass", "--twists",
            "0..1", "--smax", "2"] + flags
    assert dispatch(argv) == cli.EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cubalg: error: ")


@pytest.mark.parametrize("verb", ["coproduct", "conjugate"])
@pytest.mark.parametrize("k", ["0", "-1", "7"])
def test_steenrod_generator_out_of_range_exits_2(verb, k, capsys):
    # cutoff 64 has generators xi1..xi6
    assert dispatch(["steenrod", verb, "--k=" + k]) == cli.EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "cubalg: error: k must be in 1..6 at cutoff 64, got %s\n" % k
