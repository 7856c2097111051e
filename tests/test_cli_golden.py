"""Whole-output regression test of the `gdms` command line.

Every subcommand runs through `cli.main` on small specs written to a fresh
directory. Each case pins the exit code, the whole stdout and stderr (the
directory reads `{d}` and the `wall_time_s` value reads `*`) and the text of
every file the command wrote. `--help` for the program and for each
subcommand is pinned the same way, at a fixed terminal width.
"""

import re

import pytest

from gdmskit import cli

SIM_HEADER = "space v 0 1\n"


def _edges(*rows):
    return "".join(f"edge {eid} v v similarity {r} {o} 1\n" for eid, r, o in rows)


def _allow(*pairs):
    return "incidence explicit\n" + "".join(f"allow {a} {b}\n" for a, b in pairs)


BLOCKS = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"),
          ("c", "c"), ("c", "d"), ("d", "c"), ("d", "d")]
TWO_COMPONENT_EDGES = _edges(("a", 0.3333333333333333, 0),
                             ("b", 0.3333333333333333, 0.6666666666666667),
                             ("c", 0.25, 0), ("d", 0.25, 0.75))


def _cantor_points():
    """The 1024 left ends of the level-10 middle-thirds intervals."""
    points = [sum(2 * ((k >> j) & 1) * 3.0 ** -(j + 1) for j in range(10))
              for k in range(1024)]
    return "point\n" + "".join(f"{p!r}\n" for p in points)


INPUTS = {
    "cantor.gdms": "system cantor\n" + SIM_HEADER
    + _edges(("e1", 0.3333333333333333, 0), ("e2", 0.3333333333333333, 0.6666666666666666))
    + "incidence full\n",
    "linked.gdms": "system linked\n" + SIM_HEADER + TWO_COMPONENT_EDGES
    + _allow(*BLOCKS, ("b", "c")),
    "unlinked.gdms": "system unlinked\n" + SIM_HEADER + TWO_COMPONENT_EDGES + _allow(*BLOCKS),
    # x1 -> x2 -> a feed the Cantor block {a, b}; z has no successor and is pruned
    "feeder.gdms": "system feeder\n" + SIM_HEADER
    + _edges(("a", 0.3333333333333333, 0), ("b", 0.3333333333333333, 0.6666666666666667),
             ("x1", 0.5, 0), ("x2", 0.5, 0.5), ("z", 0.125, 0))
    + _allow(("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"),
             ("x1", "x2"), ("x2", "a"), ("x1", "z")),
    "cf-full.gdms": "system g\nfamily cf\nincidence full\n",
    "cf-banded.gdms": "system band\nfamily cf\nincidence banded 1\n",
    "cf-upper.gdms": "system u\nfamily cf\nincidence upper\n",
    "cf-full2.gdms": "system t\nfamily cf truncate 2\nincidence full\n",
    "cf-upper4.gdms": "system u4\nfamily cf truncate 4\nincidence upper\n",
    "bad.gdms": "system x\nnonsense\n",
    "points.csv": _cantor_points(),
    "noheader.csv": "0.5\n",
}

BOX_SCALES = "0.1,0.04,0.012"

CASES = [
    ("cantor-scc", "scc {d}/cantor.gdms"),
    ("cantor-props", "props {d}/cantor.gdms"),
    ("cantor-pressure", "pressure {d}/cantor.gdms --t 0.5"),
    ("cantor-curve", "curve {d}/cantor.gdms --tmin 0 --tmax 1 --steps 3 --out {d}/curve.csv"),
    ("cantor-curve-stdout", "curve {d}/cantor.gdms --tmin 0.25 --tmax 0.75 --steps 2 --nmax 5"),
    ("cantor-dim", "dim {d}/cantor.gdms"),
    ("cantor-dim-tol", "dim {d}/cantor.gdms --tol 1e-6"),
    ("cantor-classify", "classify {d}/cantor.gdms --nmin 2 --nmax 6 --out {d}/z.csv"),
    ("cantor-theta", "theta {d}/cantor.gdms"),
    ("cantor-sample", "sample {d}/cantor.gdms --count 12 --depth 9 --seed 3 --out {d}/pts.csv"),
    ("cantor-sample-stdout", "sample {d}/cantor.gdms --count 5 --depth 4 --seed 11"),
    ("boxdim",
     f"boxdim {{d}}/points.csv --scales {BOX_SCALES} --errbound 1e-5 --out {{d}}/box.csv"),
    ("boxdim-stdout", f"boxdim {{d}}/points.csv --scales {BOX_SCALES} --anchor 0"),
    ("linked-scc", "scc {d}/linked.gdms"),
    ("linked-props", "props {d}/linked.gdms"),
    ("linked-dim", "dim {d}/linked.gdms"),
    ("linked-classify", "classify {d}/linked.gdms --nmax 6 --out {d}/z.csv"),
    ("unlinked-scc", "scc {d}/unlinked.gdms"),
    ("unlinked-classify", "classify {d}/unlinked.gdms --nmax 6"),
    ("feeder-scc", "scc {d}/feeder.gdms"),
    ("feeder-props", "props {d}/feeder.gdms"),
    ("feeder-pressure", "pressure {d}/feeder.gdms --t 1"),
    ("feeder-sample", "sample {d}/feeder.gdms --count 6 --depth 5 --seed 2"),
    ("cf-full-props", "props {d}/cf-full.gdms"),
    ("cf-full-theta", "theta {d}/cf-full.gdms --n 1,2"),
    ("cf-full-sweep", "sweep {d}/cf-full.gdms --sizes 2,4 --out {d}/sweep.csv"),
    ("cf-banded-props", "props {d}/cf-banded.gdms"),
    ("cf-banded-theta", "theta {d}/cf-banded.gdms"),
    ("cf-banded-sweep", "sweep {d}/cf-banded.gdms --sizes 2,3 --tol 1e-6"),
    ("cf-upper-props", "props {d}/cf-upper.gdms"),
    ("cf-upper-theta", "theta {d}/cf-upper.gdms --n 2"),
    ("cf-upper-sweep", "sweep {d}/cf-upper.gdms --sizes 3,6 --out {d}/sweep.csv"),
    ("cf-full2-scc", "scc {d}/cf-full2.gdms"),
    ("cf-full2-props", "props {d}/cf-full2.gdms"),
    ("cf-full2-pressure", "pressure {d}/cf-full2.gdms --t 0.5"),
    ("cf-full2-curve",
     "curve {d}/cf-full2.gdms --tmin 0.25 --tmax 1 --steps 4 --out {d}/curve.csv"),
    ("cf-full2-dim", "dim {d}/cf-full2.gdms"),
    ("cf-full2-classify", "classify {d}/cf-full2.gdms --nmax 5 --out {d}/z.csv"),
    # the count guard stops enumeration after n = 22; n = 23..30 are product brackets
    ("cf-full2-classify-switch",
     "classify {d}/cf-full2.gdms --nmin 20 --nmax 30 --out {d}/z.csv"),
    ("cf-full2-theta", "theta {d}/cf-full2.gdms"),
    ("cf-full2-sample", "sample {d}/cf-full2.gdms --count 4 --depth 6 --seed 5"),
    ("cf-upper4-scc", "scc {d}/cf-upper4.gdms"),
    # exit 2: spec, file and flag errors
    ("bad-spec", "scc {d}/bad.gdms"),
    ("missing-spec", "dim {d}/missing.gdms"),
    ("bad-flag", "pressure {d}/cantor.gdms --t not-a-number"),
    ("missing-flag", "curve {d}/cantor.gdms --tmin 0 --tmax 1"),
    ("bad-steps", "curve {d}/cantor.gdms --tmin 0 --tmax 1 --steps 1"),
    ("bad-classify-range", "classify {d}/cantor.gdms --nmin 5 --nmax 2 --out {d}/z.csv"),
    ("bad-sizes", "sweep {d}/cf-full.gdms --sizes 2,x"),
    ("bad-theta-n", "theta {d}/cf-full.gdms --n 1,y"),
    ("boxdim-no-header", f"boxdim {{d}}/noheader.csv --scales {BOX_SCALES}"),
    ("boxdim-missing", f"boxdim {{d}}/missing.csv --scales {BOX_SCALES}"),
    ("boxdim-bad-scales", "boxdim {d}/points.csv --scales 0.1,0.2"),
    ("sample-bad-depth", "sample {d}/cantor.gdms --count 3 --depth 0 --seed 1"),
    ("no-command", ""),
    ("unknown-command", "frobnicate {d}/cantor.gdms"),
    # exit 3: analysis not applicable
    ("sweep-finite", "sweep {d}/cantor.gdms --sizes 1,2"),
    ("pressure-above-theta", "pressure {d}/cf-full.gdms --t 0.9"),
    ("dim-infinite", "dim {d}/cf-full.gdms"),
    ("classify-empty", "classify {d}/cf-upper4.gdms"),
    ("sample-empty", "sample {d}/cf-upper4.gdms --count 3 --depth 4 --seed 1"),
    # help
    ("help", "--help"),
] + [(f"help-{cmd}", f"{cmd} --help") for cmd in
     ("scc", "props", "pressure", "curve", "dim", "classify", "theta", "sweep",
      "sample", "boxdim")]

WALL_TIME = re.compile(r"^wall_time_s = \d+\.\d{3}$", re.MULTILINE)


def _normalise(text, directory):
    return WALL_TIME.sub("wall_time_s = *", text.replace(directory, "{d}"))


@pytest.mark.parametrize("name, command", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, command, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("GDMS_COUNT_GUARD", raising=False)
    for fname, text in INPUTS.items():
        (tmp_path / fname).write_text(text)
    d = str(tmp_path)
    code = cli.main(command.replace("{d}", d).split())
    out, err = capsys.readouterr()
    written = {p.name: p.read_text() for p in sorted(tmp_path.iterdir())
               if p.name not in INPUTS}
    assert (code, _normalise(out, d), _normalise(err, d), written) == GOLDEN[name]


def test_resource_guard_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GDMS_COUNT_GUARD", "50")
    spec = tmp_path / "t.gdms"
    spec.write_text(INPUTS["cf-full2.gdms"])
    code = cli.main(["dim", str(spec)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (
        cli.EXIT_RESOURCE, "",
        "resource guard: collocation matrix of size 20 exceeds count guard of 50\n")


# (exit code, stdout, stderr, {file name: text} of the files written)
GOLDEN = {
    'cantor-scc': (0, """\
command = scc
spec = {d}/cantor.gdms
spec_sha256 = 4e54a422f560d98a2c21bbafa4592d4a1bf8efe2906817ec4bfff21fdd6b30d1
components = 1
component[0] = e1 e2
isolated = -
condensation = -
communication = -
wall_time_s = *
""", "", {}),
    'cantor-props': (0, """\
command = props
spec = {d}/cantor.gdms
spec_sha256 = 4e54a422f560d98a2c21bbafa4592d4a1bf8efe2906817ec4bfff21fdd6b30d1
irreducible = True
irreducible_why = the edge graph is strongly connected
primitive = True
primitive_why = gcd of cycle lengths is 1
finitely_irreducible = True
finitely_irreducible_why = finite edge set: one connecting word per ordered pair
wall_time_s = *
""", "", {}),
    'cantor-pressure': (0, """\
command = pressure
spec = {d}/cantor.gdms
spec_sha256 = 4e54a422f560d98a2c21bbafa4592d4a1bf8efe2906817ec4bfff21fdd6b30d1
t = 0.5
P_lower = 0.14384103622588681
P_upper = 0.14384103622589409
n_used = 0
method = transfer-matrix
wall_time_s = *
""", "", {}),
    'cantor-curve': (0, """\
command = curve
spec = {d}/cantor.gdms
spec_sha256 = 4e54a422f560d98a2c21bbafa4592d4a1bf8efe2906817ec4bfff21fdd6b30d1
csv = {d}/curve.csv
wall_time_s = *
""", "", {
        'curve.csv': """\
t,P_lower,P_upper,n_used
0,0.69314718055994184,0.69314718055994862,0
0.5,0.14384103622588681,0.14384103622589409,0
1,-0.40546510810816833,-0.40546510810816055,0
""",
    }),
    'cantor-curve-stdout': (0, """\
t,P_lower,P_upper,n_used
0.25,0.41849410839291434,0.41849410839292134,0
0.75,-0.13081203594114069,-0.1308120359411333,0
command = curve
spec = {d}/cantor.gdms
spec_sha256 = 4e54a422f560d98a2c21bbafa4592d4a1bf8efe2906817ec4bfff21fdd6b30d1
wall_time_s = *
""", "", {}),
    'cantor-dim': (0, """\
command = dim
spec = {d}/cantor.gdms
spec_sha256 = 4e54a422f560d98a2c21bbafa4592d4a1bf8efe2906817ec4bfff21fdd6b30d1
h_lo = 0.63092975354645753
h_hi = 0.63092975359645742
method = moran-exact
tolerance = 1e-10
iterations = 1
wall_time_s = *
""", "", {}),
    'cantor-dim-tol': (0, """\
command = dim
spec = {d}/cantor.gdms
spec_sha256 = 4e54a422f560d98a2c21bbafa4592d4a1bf8efe2906817ec4bfff21fdd6b30d1
h_lo = 0.6309295035714575
h_hi = 0.63093000357145745
method = moran-exact
tolerance = 9.9999999999999995e-07
iterations = 1
wall_time_s = *
""", "", {}),
    'cantor-classify': (0, """\
command = classify
spec = {d}/cantor.gdms
spec_sha256 = 4e54a422f560d98a2c21bbafa4592d4a1bf8efe2906817ec4bfff21fdd6b30d1
verdict = FiniteHMeasure
h_lo = 0.63092975332145751
h_hi = 0.63092975382145744
maximal_components = 0
communicating_pairs = -
growth_slope = -2.7504316770249049e-16
explanation = no two maximal components communicate => finite h-measure (Z_n(h) stays bounded)
csv = {d}/z.csv
wall_time_s = *
""", "", {
        'z.csv': """\
n,Z_n
2,0.99999999999999956
3,0.99999999999999933
4,0.99999999999999911
5,0.99999999999999889
6,0.99999999999999867
""",
    }),
    'cantor-theta': (0, """\
command = theta
spec = {d}/cantor.gdms
spec_sha256 = 4e54a422f560d98a2c21bbafa4592d4a1bf8efe2906817ec4bfff21fdd6b30d1
theta = 0
theta_n[1] = 0
theta_n[2] = 0
theta_n[3] = 0
justification = finite sums
wall_time_s = *
""", "", {}),
    'cantor-sample': (0, """\
command = sample
spec = {d}/cantor.gdms
spec_sha256 = 4e54a422f560d98a2c21bbafa4592d4a1bf8efe2906817ec4bfff21fdd6b30d1
count = 12
depth = 9
seed = 3
rng = numpy-pcg64-per-step
position_error_bound = 5.0805263425290837e-05
csv = {d}/pts.csv
wall_time_s = *
""", "", {
        'pts.csv': """\
point
0.0085606868871615088
0.07816389777980999
0.7685058172026622
0.66943555352334494
0.25821775135904074
0.2561855408220291
0.00043184473911497216
0.23454249860285525
0.89836407051770562
0.23047807752883198
0.25923385662754656
0.74107097495300511
""",
    }),
    'cantor-sample-stdout': (0, """\
point
0.10493827160493827
0.25308641975308643
0.96913580246913567
0.22839506172839505
0.30246913580246915
command = sample
spec = {d}/cantor.gdms
spec_sha256 = 4e54a422f560d98a2c21bbafa4592d4a1bf8efe2906817ec4bfff21fdd6b30d1
count = 5
depth = 4
seed = 11
rng = numpy-pcg64-per-step
position_error_bound = 0.012345679012345677
wall_time_s = *
""", "", {}),
    'boxdim': (0, """\
command = boxdim
slope = 0.65550533694234681
residual = 0.018555919455670995
csv = {d}/box.csv
wall_time_s = *
""", "", {
        'box.csv': """\
scale,count
0.10000000000000001,8
0.040000000000000001,14
0.012,32
""",
    }),
    'boxdim-stdout': (0, """\
scale,count
0.10000000000000001,8
0.040000000000000001,14
0.012,32
command = boxdim
slope = 0.65550533694234681
residual = 0.018555919455670995
wall_time_s = *
""", "", {}),
    'linked-scc': (0, """\
command = scc
spec = {d}/linked.gdms
spec_sha256 = b965ea3f5ff550540b12beaebf480407a478dfc8c91dbfa9d1c18d19af53c9a2
components = 2
component[0] = a b
component[1] = c d
isolated = -
condensation = 0->1
communication = 0->1
warning: images of edges 'a' and 'c' overlap on interior width 0.25; open set condition may fail
warning: images of edges 'b' and 'd' overlap on interior width 0.25; open set condition may fail
wall_time_s = *
""", "", {}),
    'linked-props': (0, """\
command = props
spec = {d}/linked.gdms
spec_sha256 = b965ea3f5ff550540b12beaebf480407a478dfc8c91dbfa9d1c18d19af53c9a2
irreducible = False
irreducible_why = the edge graph is not strongly connected
primitive = False
primitive_why = the edge graph is not strongly connected
finitely_irreducible = False
finitely_irreducible_why = the edge graph is not strongly connected
warning: images of edges 'a' and 'c' overlap on interior width 0.25; open set condition may fail
warning: images of edges 'b' and 'd' overlap on interior width 0.25; open set condition may fail
wall_time_s = *
""", "", {}),
    'linked-dim': (0, """\
command = dim
spec = {d}/linked.gdms
spec_sha256 = b965ea3f5ff550540b12beaebf480407a478dfc8c91dbfa9d1c18d19af53c9a2
h_lo = 0.63092975354645753
h_hi = 0.63092975359645742
method = perron-newton
tolerance = 1e-10
iterations = 2
warning: images of edges 'a' and 'c' overlap on interior width 0.25; open set condition may fail
warning: images of edges 'b' and 'd' overlap on interior width 0.25; open set condition may fail
wall_time_s = *
""", "", {}),
    'linked-classify': (0, """\
command = classify
spec = {d}/linked.gdms
spec_sha256 = b965ea3f5ff550540b12beaebf480407a478dfc8c91dbfa9d1c18d19af53c9a2
verdict = FiniteHMeasure
h_lo = 0.63092975332145751
h_hi = 0.63092975382145744
maximal_components = 0
communicating_pairs = -
growth_slope = 0.050032769696675444
explanation = no two maximal components communicate => finite h-measure (Z_n(h) stays bounded)
csv = {d}/z.csv
warning: images of edges 'a' and 'c' overlap on interior width 0.25; open set condition may fail
warning: images of edges 'b' and 'd' overlap on interior width 0.25; open set condition may fail
wall_time_s = *
""", "", {
        'z.csv': """\
n,Z_n
1,1.8340122578421609
2,1.9040795106915189
3,1.96251645844121
4,2.0112535891753338
5,2.0519009536196489
6,2.0858013538151856
""",
    }),
    'unlinked-scc': (0, """\
command = scc
spec = {d}/unlinked.gdms
spec_sha256 = 99a84ddb488b0f19f3eccfb3316be9241fd7f1a78fc7e563fac0600b5a30e2db
components = 2
component[0] = a b
component[1] = c d
isolated = -
condensation = -
communication = -
warning: images of edges 'a' and 'c' overlap on interior width 0.25; open set condition may fail
warning: images of edges 'b' and 'd' overlap on interior width 0.25; open set condition may fail
wall_time_s = *
""", "", {}),
    'unlinked-classify': (0, """\
n,Z_n
1,1.8340122578421609
2,1.6955764462309788
3,1.5801192824229249
4,1.4838265925513177
5,1.4035173088578032
6,1.3365383818388887
command = classify
spec = {d}/unlinked.gdms
spec_sha256 = 99a84ddb488b0f19f3eccfb3316be9241fd7f1a78fc7e563fac0600b5a30e2db
verdict = FiniteHMeasure
h_lo = 0.63092975332145751
h_hi = 0.63092975382145744
maximal_components = 0
communicating_pairs = -
growth_slope = -0.098852556628785546
explanation = no two maximal components communicate => finite h-measure (Z_n(h) stays bounded)
warning: images of edges 'a' and 'c' overlap on interior width 0.25; open set condition may fail
warning: images of edges 'b' and 'd' overlap on interior width 0.25; open set condition may fail
wall_time_s = *
""", "", {}),
    'feeder-scc': (0, """\
command = scc
spec = {d}/feeder.gdms
spec_sha256 = 1f0d8e16070635c9c5c942845a003cd6bd22719e300fc3e6411b36c515166e96
components = 1
component[0] = a b
isolated = x1 x2
condensation = -
communication = -
warning: images of edges 'a' and 'x1' overlap on interior width 0.333; open set condition may fail
warning: images of edges 'a' and 'z' overlap on interior width 0.125; open set condition may fail
warning: images of edges 'b' and 'x2' overlap on interior width 0.333; open set condition may fail
warning: images of edges 'x1' and 'z' overlap on interior width 0.125; open set condition may fail
warning: pruned 1 edge(s) with no successor: z
wall_time_s = *
""", "", {}),
    'feeder-props': (0, """\
command = props
spec = {d}/feeder.gdms
spec_sha256 = 1f0d8e16070635c9c5c942845a003cd6bd22719e300fc3e6411b36c515166e96
irreducible = False
irreducible_why = the edge graph is not strongly connected
primitive = False
primitive_why = the edge graph is not strongly connected
finitely_irreducible = False
finitely_irreducible_why = the edge graph is not strongly connected
warning: images of edges 'a' and 'x1' overlap on interior width 0.333; open set condition may fail
warning: images of edges 'a' and 'z' overlap on interior width 0.125; open set condition may fail
warning: images of edges 'b' and 'x2' overlap on interior width 0.333; open set condition may fail
warning: images of edges 'x1' and 'z' overlap on interior width 0.125; open set condition may fail
warning: pruned 1 edge(s) with no successor: z
wall_time_s = *
""", "", {}),
    'feeder-pressure': (0, """\
command = pressure
spec = {d}/feeder.gdms
spec_sha256 = 1f0d8e16070635c9c5c942845a003cd6bd22719e300fc3e6411b36c515166e96
t = 1
P_lower = -0.40546510810816833
P_upper = -0.40546510810816055
n_used = 0
method = transfer-matrix
warning: images of edges 'a' and 'x1' overlap on interior width 0.333; open set condition may fail
warning: images of edges 'a' and 'z' overlap on interior width 0.125; open set condition may fail
warning: images of edges 'b' and 'x2' overlap on interior width 0.333; open set condition may fail
warning: images of edges 'x1' and 'z' overlap on interior width 0.125; open set condition may fail
warning: pruned 1 edge(s) with no successor: z
wall_time_s = *
""", "", {}),
    'feeder-sample': (0, """\
point
0.97325102880658432
0.9979423868312759
0.54012345679012341
0.30658436213991769
0.27314814814814814
0.32870370370370372
command = sample
spec = {d}/feeder.gdms
spec_sha256 = 1f0d8e16070635c9c5c942845a003cd6bd22719e300fc3e6411b36c515166e96
count = 6
depth = 5
seed = 2
rng = numpy-pcg64-per-step
position_error_bound = 0.03125
warning: images of edges 'a' and 'x1' overlap on interior width 0.333; open set condition may fail
warning: images of edges 'a' and 'z' overlap on interior width 0.125; open set condition may fail
warning: images of edges 'b' and 'x2' overlap on interior width 0.333; open set condition may fail
warning: images of edges 'x1' and 'z' overlap on interior width 0.125; open set condition may fail
warning: pruned 1 edge(s) with no successor: z
wall_time_s = *
""", "", {}),
    'cf-full-props': (0, """\
command = props
spec = {d}/cf-full.gdms
spec_sha256 = 836d81be899378a6e14d2be86543a68e28a19c3e360f7fa8158be920e2e4cb64
irreducible = True
irreducible_why = every entry is 1, so any edge follows any edge
primitive = True
primitive_why = every entry is 1, so any edge follows any edge
finitely_irreducible = True
finitely_irreducible_why = every entry is 1, so any edge follows any edge
wall_time_s = *
""", "", {}),
    'cf-full-theta': (0, """\
command = theta
spec = {d}/cf-full.gdms
spec_sha256 = 836d81be899378a6e14d2be86543a68e28a19c3e360f7fa8158be920e2e4cb64
theta = 1/2
theta_n[1] = 1/2
theta_n[2] = 1/2
justification = sum over labels e of e^(-2t) converges exactly when t > 1/2, at every word length
wall_time_s = *
""", "", {}),
    'cf-full-sweep': (0, """\
command = sweep
spec = {d}/cf-full.gdms
spec_sha256 = 836d81be899378a6e14d2be86543a68e28a19c3e360f7fa8158be920e2e4cb64
sup_h_lo = 0.78869555748315745
final_interval = [0.78869555748315745, 1]
monotone = True
irreducible[2] = True
irreducible[4] = True
csv = {d}/sweep.csv
wall_time_s = *
""", "", {
        'sweep.csv': """\
size,h_lo,h_hi
2,0.5310305062772066,0.53153050627720655
4,0.78869555748315745,0.78919555748315739
""",
    }),
    'cf-banded-props': (0, """\
command = props
spec = {d}/cf-banded.gdms
spec_sha256 = 4126d62a5d9f1f2952239de988a15b3f529f1bc73845df6823bd4bebe5046cb4
irreducible = True
irreducible_why = labels walk the band one step at a time, so any two labels are joined, but no finite word set connects arbitrarily distant labels
primitive = False
primitive_why = labels walk the band one step at a time, so any two labels are joined, but no finite word set connects arbitrarily distant labels
finitely_irreducible = False
finitely_irreducible_why = labels walk the band one step at a time, so any two labels are joined, but no finite word set connects arbitrarily distant labels
wall_time_s = *
""", "", {}),
    'cf-banded-theta': (0, """\
command = theta
spec = {d}/cf-banded.gdms
spec_sha256 = 4126d62a5d9f1f2952239de988a15b3f529f1bc73845df6823bd4bebe5046cb4
theta = 0
theta_n[1] = 1/2
theta_n[2] = 1/4
theta_n[3] = 1/6
justification = length-n words stay within the band, so the label-k block contributes about k^(-2tn); convergence needs t > 1/(2n)
wall_time_s = *
""", "", {}),
    'cf-banded-sweep': (0, """\
size,h_lo,h_hi
2,0.53128025627720654,0.5312807562772065
3,0.57396101286311507,0.57396151286311503
command = sweep
spec = {d}/cf-banded.gdms
spec_sha256 = 4126d62a5d9f1f2952239de988a15b3f529f1bc73845df6823bd4bebe5046cb4
sup_h_lo = 0.57396101286311507
final_interval = [0.57396101286311507, 1]
monotone = True
irreducible[2] = True
irreducible[3] = True
wall_time_s = *
""", "", {}),
    'cf-upper-props': (0, """\
command = props
spec = {d}/cf-upper.gdms
spec_sha256 = c774c22c0d7379fa60eb975872cca1fcf1c8b1274a024d36e471d8155aed989f
irreducible = False
irreducible_why = labels must strictly increase, so no label is ever revisited
primitive = False
primitive_why = labels must strictly increase, so no label is ever revisited
finitely_irreducible = False
finitely_irreducible_why = labels must strictly increase, so no label is ever revisited
wall_time_s = *
""", "", {}),
    'cf-upper-theta': (0, """\
command = theta
spec = {d}/cf-upper.gdms
spec_sha256 = c774c22c0d7379fa60eb975872cca1fcf1c8b1274a024d36e471d8155aed989f
theta = 1/2
theta_n[2] = 1/2
justification = labels strictly increase; the n-fold sum behaves like the n-th power of sum e^(-2t), so every level needs t > 1/2
wall_time_s = *
""", "", {}),
    'cf-upper-sweep': (0, """\
command = sweep
spec = {d}/cf-upper.gdms
spec_sha256 = c774c22c0d7379fa60eb975872cca1fcf1c8b1274a024d36e471d8155aed989f
sup_h_lo = 0
final_interval = [0, 1]
monotone = True
irreducible[3] = False
irreducible[6] = False
csv = {d}/sweep.csv
warning: sup over finite subsystems = 0 < theta = 0.5: the pressure-root dimension formula fails for this system (every finite truncation has an empty limit set)
wall_time_s = *
""", "", {
        'sweep.csv': """\
size,h_lo,h_hi
3,0,0
6,0,0
""",
    }),
    'cf-full2-scc': (0, """\
command = scc
spec = {d}/cf-full2.gdms
spec_sha256 = 6f54af13e4a3dce1dc41c0cd4c62682e5601c3d92eb6308b25bb1065634a0365
components = 1
component[0] = 1 2
isolated = -
condensation = -
communication = -
wall_time_s = *
""", "", {}),
    'cf-full2-props': (0, """\
command = props
spec = {d}/cf-full2.gdms
spec_sha256 = 6f54af13e4a3dce1dc41c0cd4c62682e5601c3d92eb6308b25bb1065634a0365
irreducible = True
irreducible_why = the edge graph is strongly connected
primitive = True
primitive_why = gcd of cycle lengths is 1
finitely_irreducible = True
finitely_irreducible_why = finite edge set: one connecting word per ordered pair
wall_time_s = *
""", "", {}),
    'cf-full2-pressure': (0, """\
command = pressure
spec = {d}/cf-full2.gdms
spec_sha256 = 6f54af13e4a3dce1dc41c0cd4c62682e5601c3d92eb6308b25bb1065634a0365
t = 0.5
P_lower = 0.039628465963877008
P_upper = 0.039628465963998306
n_used = 0
method = chebyshev-collocation
wall_time_s = *
""", "", {}),
    'cf-full2-curve': (0, """\
command = curve
spec = {d}/cf-full2.gdms
spec_sha256 = 6f54af13e4a3dce1dc41c0cd4c62682e5601c3d92eb6308b25bb1065634a0365
csv = {d}/curve.csv
wall_time_s = *
""", "", {
        'curve.csv': """\
t,P_lower,P_upper,n_used
0.25,0.36157746557398557,0.36157746557409259,0
0.5,0.039628465963875092,0.039628465964000228,0
0.75,-0.2731834242838197,-0.2731834242836616,0
1,-0.57745179817260717,-0.57745179817240255,0
""",
    }),
    'cf-full2-dim': (0, """\
command = dim
spec = {d}/cf-full2.gdms
spec_sha256 = 6f54af13e4a3dce1dc41c0cd4c62682e5601c3d92eb6308b25bb1065634a0365
h_lo = 0.53128050625220535
h_hi = 0.53128050630220525
method = collocation-newton
tolerance = 1e-10
iterations = 2
wall_time_s = *
""", "", {}),
    'cf-full2-classify': (0, """\
command = classify
spec = {d}/cf-full2.gdms
spec_sha256 = 6f54af13e4a3dce1dc41c0cd4c62682e5601c3d92eb6308b25bb1065634a0365
verdict = FiniteHMeasure
h_lo = 0.53128050602720533
h_hi = 0.53128050652720527
maximal_components = 0
communicating_pairs = -
growth_slope = -0.027297604639365727
explanation = no two maximal components communicate => finite h-measure (Z_n(h) stays bounded)
csv = {d}/z.csv
wall_time_s = *
""", "", {
        'z.csv': """\
n,Z_n
1,1.4787813919304613
2,1.2820100241338617
3,1.3361632928143079
4,1.3186008052093823
5,1.3239979781958722
""",
    }),
    'cf-full2-classify-switch': (0, """\
command = classify
spec = {d}/cf-full2.gdms
spec_sha256 = 6f54af13e4a3dce1dc41c0cd4c62682e5601c3d92eb6308b25bb1065634a0365
verdict = FiniteHMeasure
h_lo = 0.53128050602720533
h_hi = 0.53128050652720527
maximal_components = 0
communicating_pairs = -
growth_slope = 0.16914064867704232
explanation = no two maximal components communicate => finite h-measure (Z_n(h) stays bounded)
csv = {d}/z.csv
wall_time_s = *
""", "", {
        'z.csv': """\
n,Z_n
20,1.3227080241678262
21,1.3227080242109832
22,1.322708024197528
23,2.4507632818093557
24,2.5076907240540982
25,2.5659405027744095
26,2.6255433338023368
27,2.6865306464512133
28,2.7489346000887411
29,2.8127881010950007
30,2.8781248202144254
""",
    }),
    'cf-full2-theta': (0, """\
command = theta
spec = {d}/cf-full2.gdms
spec_sha256 = 6f54af13e4a3dce1dc41c0cd4c62682e5601c3d92eb6308b25bb1065634a0365
theta = 0
theta_n[1] = 0
theta_n[2] = 0
theta_n[3] = 0
justification = finite sums
wall_time_s = *
""", "", {}),
    'cf-full2-sample': (0, """\
point
0.42260781181936979
0.38266583229036294
0.41421356242727342
0.70321085164835173
command = sample
spec = {d}/cf-full2.gdms
spec_sha256 = 6f54af13e4a3dce1dc41c0cd4c62682e5601c3d92eb6308b25bb1065634a0365
count = 4
depth = 6
seed = 5
rng = numpy-pcg64-per-step
position_error_bound = 0.015625
wall_time_s = *
""", "", {}),
    'cf-upper4-scc': (0, """\
command = scc
spec = {d}/cf-upper4.gdms
spec_sha256 = a53aa204fae382bc2935c32bfa53a246fadc47bc89a4aedc1a479c85f1e987d4
components = 0
isolated = 1 2 3 4
condensation = -
communication = -
wall_time_s = *
""", "", {}),
    'bad-spec': (2, "", """\
error: line 2: unknown keyword 'nonsense'
""", {}),
    'missing-spec': (2, "", """\
error: cannot read spec file {d}/missing.gdms: [Errno 2] No such file or directory: '{d}/missing.gdms'
""", {}),
    'bad-flag': (2, "", """\
usage: gdms pressure [-h] --t T [--nmax NMAX] spec
gdms pressure: error: argument --t: invalid float value: 'not-a-number'
""", {}),
    'missing-flag': (2, "", """\
usage: gdms curve [-h] --tmin TMIN --tmax TMAX --steps STEPS [--nmax NMAX]
                  [--out OUT]
                  spec
gdms curve: error: the following arguments are required: --steps
""", {}),
    'bad-steps': (2, "", """\
error: need steps >= 2 and tmax > tmin
""", {}),
    'bad-classify-range': (2, "", """\
error: need at least two word lengths in n_range
""", {}),
    'bad-sizes': (2, "", """\
error: expected comma-separated integers, got '2,x'
""", {}),
    'bad-theta-n': (2, "", """\
error: expected comma-separated integers, got '1,y'
""", {}),
    'boxdim-no-header': (2, "", """\
error: point CSV must start with a 'point' header row
""", {}),
    'boxdim-missing': (2, "", """\
error: cannot read {d}/missing.csv: [Errno 2] No such file or directory: '{d}/missing.csv'
""", {}),
    'boxdim-bad-scales': (2, "", """\
error: scales must be positive and strictly decreasing
""", {}),
    'sample-bad-depth': (2, "", """\
error: depth must be >= 1
""", {}),
    'no-command': (2, "", """\
usage: gdms [-h]
            {scc,props,pressure,curve,dim,classify,theta,sweep,sample,boxdim}
            ...
gdms: error: the following arguments are required: command
""", {}),
    'unknown-command': (2, "", """\
usage: gdms [-h]
            {scc,props,pressure,curve,dim,classify,theta,sweep,sample,boxdim}
            ...
gdms: error: argument command: invalid choice: 'frobnicate' (choose from 'scc', 'props', 'pressure', 'curve', 'dim', 'classify', 'theta', 'sweep', 'sample', 'boxdim')
""", {}),
    'sweep-finite': (3, "", """\
not applicable: truncation sweeps apply to infinite systems
""", {}),
    'pressure-above-theta': (3, "", """\
not applicable: pressure of an infinite system needs a truncation sweep
""", {}),
    'dim-infinite': (3, "", """\
not applicable: truncate the system first
""", {}),
    'classify-empty': (3, "", """\
not applicable: empty limit set: no dimension to classify
""", {}),
    'sample-empty': (3, "", """\
not applicable: empty limit set: nothing to sample
""", {}),
    'help': (0, """\
usage: gdms [-h]
            {scc,props,pressure,curve,dim,classify,theta,sweep,sample,boxdim}
            ...

Dimension and pressure analyses of graph-directed Markov systems

positional arguments:
  {scc,props,pressure,curve,dim,classify,theta,sweep,sample,boxdim}
    scc                 strongly connected component report
    props               incidence matrix properties
    pressure            pressure bracket at one exponent
    curve               pressure brackets over a t grid (CSV)
    dim                 Bowen dimension bracket
    classify            Hausdorff-measure finiteness verdict
    theta               finiteness parameters
    sweep               dimension sweep over truncations (CSV)
    sample              random limit-set points (CSV)
    boxdim              box-counting slope from a point CSV

options:
  -h, --help            show this help message and exit
""", "", {}),
    'help-scc': (0, """\
usage: gdms scc [-h] spec

positional arguments:
  spec

options:
  -h, --help  show this help message and exit
""", "", {}),
    'help-props': (0, """\
usage: gdms props [-h] spec

positional arguments:
  spec

options:
  -h, --help  show this help message and exit
""", "", {}),
    'help-pressure': (0, """\
usage: gdms pressure [-h] --t T [--nmax NMAX] spec

positional arguments:
  spec

options:
  -h, --help   show this help message and exit
  --t T
  --nmax NMAX
""", "", {}),
    'help-curve': (0, """\
usage: gdms curve [-h] --tmin TMIN --tmax TMAX --steps STEPS [--nmax NMAX]
                  [--out OUT]
                  spec

positional arguments:
  spec

options:
  -h, --help     show this help message and exit
  --tmin TMIN
  --tmax TMAX
  --steps STEPS
  --nmax NMAX
  --out OUT
""", "", {}),
    'help-dim': (0, """\
usage: gdms dim [-h] [--tol TOL] spec

positional arguments:
  spec

options:
  -h, --help  show this help message and exit
  --tol TOL
""", "", {}),
    'help-classify': (0, """\
usage: gdms classify [-h] [--nmin NMIN] [--nmax NMAX] [--out OUT] spec

positional arguments:
  spec

options:
  -h, --help   show this help message and exit
  --nmin NMIN
  --nmax NMAX
  --out OUT
""", "", {}),
    'help-theta': (0, """\
usage: gdms theta [-h] [--n N] spec

positional arguments:
  spec

options:
  -h, --help  show this help message and exit
  --n N       comma-separated word lengths
""", "", {}),
    'help-sweep': (0, """\
usage: gdms sweep [-h] --sizes SIZES [--tol TOL] [--out OUT] spec

positional arguments:
  spec

options:
  -h, --help     show this help message and exit
  --sizes SIZES  comma-separated truncation sizes
  --tol TOL
  --out OUT
""", "", {}),
    'help-sample': (0, """\
usage: gdms sample [-h] --count COUNT --depth DEPTH --seed SEED [--out OUT]
                   spec

positional arguments:
  spec

options:
  -h, --help     show this help message and exit
  --count COUNT
  --depth DEPTH
  --seed SEED
  --out OUT
""", "", {}),
    'help-boxdim': (0, """\
usage: gdms boxdim [-h] --scales SCALES [--anchor ANCHOR]
                   [--errbound ERRBOUND] [--out OUT]
                   csv

positional arguments:
  csv

options:
  -h, --help           show this help message and exit
  --scales SCALES      comma-separated decreasing scales
  --anchor ANCHOR
  --errbound ERRBOUND
  --out OUT
""", "", {}),
}
