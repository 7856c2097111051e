import math

import numpy as np
import pytest

import gdmskit as gk
from gdmskit import graph as gg
from gdmskit import maps as gm

CANTOR = """\
system cantor
space v 0 1
edge e1 v v similarity 0.3333333333333333 0 1
edge e2 v v similarity 0.3333333333333333 0.6666666666666666 1
incidence full
"""

CF_FULL = """\
# the full continued-fraction system
system gauss
family cf
incidence full
"""

TWO_COMPONENT = """\
system linked
space v 0 1
edge a v v similarity 0.3333333333333333 0 1
edge b v v similarity 0.3333333333333333 0.6666666666666666 1
edge c v v similarity 0.25 0 1
edge d v v similarity 0.25 0.75 1
incidence explicit
allow a a
allow a b
allow b a
allow b b
allow b c
allow c c
allow c d
allow d c
allow d d
"""

# a two-edge block fed by the chain x1 -> x2 -> a; z follows only x1 and
# has no successor, so loading drops it
FEEDER = """\
system feeder
space v 0 1
edge a v v similarity 0.3333333333333333 0 1
edge b v v similarity 0.3333333333333333 0.66666666666666674 1
edge x1 v v similarity 0.5 0 1
edge x2 v v similarity 0.5 0.5 1
edge z v v similarity 0.125 0 1
incidence explicit
allow a a
allow a b
allow b a
allow b b
allow x1 x2
allow x2 a
allow x1 z
"""

# edge ids that are integers, so that every named rule applies; listed out
# of label order so that the matrix rows follow the edge lines
INTEGER_IDS = """\
system ints
space v 0 1
edge 1 v v similarity 0.25 0 1
edge 3 v v similarity 0.25 0.75 1
edge 2 v v similarity 0.25 0.375 1
incidence full
"""


class TestParsing:
    def test_similarity_round_trip(self):
        sys1, _ = gk.parse_spec(CANTOR)
        text = gk.serialize_spec(sys1)
        sys2, _ = gk.parse_spec(text)
        assert gk.serialize_spec(sys2) == text
        assert sys2.name == "cantor"
        assert sys2.edge_ids == ("e1", "e2")

    def test_cf_round_trip(self):
        sys1, _ = gk.parse_spec(CF_FULL)
        assert sys1.infinite
        text = gk.serialize_spec(sys1)
        sys2, _ = gk.parse_spec(text)
        assert gk.serialize_spec(sys2) == text

    def test_round_trip_keeps_an_incidence_whose_width_its_rule_ignores(self):
        sys1 = gk.cf_system(gk.IncidenceSpec(gg.FULL, 1), truncate=3)
        sys2, _ = gk.parse_spec(gk.serialize_spec(sys1))
        assert sys2.incidence == sys1.incidence == gk.IncidenceSpec(gg.FULL)

    def test_pruned_explicit_round_trip(self):
        sys1, warnings = gk.parse_spec(FEEDER)
        assert "pruned 1 edge(s) with no successor: z" in warnings
        text = gk.serialize_spec(sys1)
        assert "z" not in text.split()
        sys2, _ = gk.parse_spec(text)
        assert gk.serialize_spec(sys2) == text
        assert sys2.edge_ids == sys1.edge_ids == ("a", "b", "x1", "x2")
        assert np.array_equal(sys2.incidence_matrix, sys1.incidence_matrix)
        assert sys2.successor_map == sys1.successor_map

    def test_truncated_cf_round_trip(self):
        sys1, _ = gk.parse_spec("system t\nfamily cf truncate 3\nincidence banded 1\n")
        assert not sys1.infinite
        assert sys1.edge_ids == (1, 2, 3)
        text = gk.serialize_spec(sys1)
        sys2, _ = gk.parse_spec(text)
        assert sys2.edge_ids == (1, 2, 3)
        assert sys2.incidence.kind == gg.BANDED

    def test_truncated_cf_keeps_the_spec_name(self):
        sys1, _ = gk.parse_spec("system t\nfamily cf truncate 2\nincidence full\n")
        assert sys1.name == "t"

    @pytest.mark.parametrize("kind,width", [(gg.FULL, 0), (gg.BANDED, 1), (gg.UPPER, 0)])
    def test_serialized_cf_truncation_is_a_fixed_point(self, kind, width):
        for size in range(1, 7):
            sys1 = gk.cf_system(gk.IncidenceSpec(kind, width), truncate=size)
            text = gk.serialize_spec(sys1)
            sys2, _ = gk.parse_spec(text)
            assert sys2.name == sys1.name
            assert gk.serialize_spec(sys2) == text

    def test_cf_subset_of_digits_is_refused(self):
        # `family cf truncate N` states the digits 1..N; {2, 3} would come
        # back as {1, 2}, another system
        full3 = gk.cf_system(gk.IncidenceSpec(gg.FULL), truncate=3)
        assert "\nfamily cf truncate 2\n" in gk.serialize_spec(full3.restrict([1, 2]))
        for edges in ([2, 3], [1, 3], []):
            with pytest.raises(gk.InputError, match="states only the cf digits 1..N"):
                gk.serialize_spec(full3.restrict(edges))

    @pytest.mark.parametrize("rule,expected", [
        ("banded 1", [[1, 0, 1], [0, 1, 1], [1, 1, 1]]),
        ("upper", [[0, 1, 1], [0, 0, 0], [0, 1, 0]]),
    ])
    def test_named_rule_on_integer_edge_ids(self, rule, expected):
        sys, _ = gk.parse_spec(INTEGER_IDS.replace("incidence full", f"incidence {rule}"))
        assert sys.edge_ids == (1, 3, 2)
        assert sys.incidence_matrix.tolist() == expected

    @pytest.mark.parametrize("text", [
        INTEGER_IDS.replace("incidence full", "incidence upper"),
        "system u\nfamily cf\nincidence upper\n",
    ])
    def test_upper_rule_round_trip(self, text):
        sys1, _ = gk.parse_spec(text)
        written = gk.serialize_spec(sys1)
        assert written.endswith("\nincidence upper\n")
        sys2, _ = gk.parse_spec(written)
        assert gk.serialize_spec(sys2) == written
        assert sys2.incidence == sys1.incidence
        assert sys2.edge_ids == sys1.edge_ids

    @pytest.mark.parametrize("width,stored", [(True, 1), (np.int64(2), 2), (3, 3)])
    def test_integer_band_width_round_trips_as_an_int(self, width, stored):
        edges = [(e, "v", "v", gm.SimilarityMap(0.25, 0.375 * (e - 1))) for e in (1, 2, 3)]
        sys1 = gk.similarity_system("ints", ("v",), {"v": gm.VertexSpace("v", 0.0, 1.0)},
                                    edges, gk.IncidenceSpec(gg.BANDED, width))
        assert type(sys1.incidence.width) is int and sys1.incidence.width == stored
        text = gk.serialize_spec(sys1)
        assert text.endswith(f"\nincidence banded {stored}\n")
        sys2, _ = gk.parse_spec(text)
        assert sys2.incidence == sys1.incidence
        assert gk.serialize_spec(sys2) == text

    @pytest.mark.parametrize("width", [1.5, 2.0, math.nan, "2", None])
    def test_band_width_that_is_not_an_integer_is_refused(self, width):
        # such a width would be written as a token that parse_spec refuses
        with pytest.raises(gk.InputError, match="band width must be an integer"):
            gk.IncidenceSpec(gg.BANDED, width)

    @pytest.mark.parametrize("sign,stored", [(True, 1), (np.int64(-1), -1), (-1, -1)])
    def test_integer_sign_round_trips_as_an_int(self, sign, stored):
        sys1 = gk.full_shift([0.3], offsets=[0.35], signs=[sign])
        assert type(sys1.family.map_for("e1").sign) is int
        text = gk.serialize_spec(sys1)
        assert f" {stored}\nincidence full\n" in text
        sys2, _ = gk.parse_spec(text)
        assert sys2.family == sys1.family
        assert gk.serialize_spec(sys2) == text

    @pytest.mark.parametrize("sign", [1.0, -1.0, 0.5, math.nan, "1"])
    def test_sign_that_is_not_an_integer_is_refused(self, sign):
        with pytest.raises(gk.InputError, match="sign must be an integer"):
            gm.SimilarityMap(0.3, 0.0, sign)

    def test_explicit_system(self):
        sys, _ = gk.parse_spec(TWO_COMPONENT)
        assert gk.is_admissible(sys, ("b", "c"))
        assert not gk.is_admissible(sys, ("c", "a"))

    def test_duplicate_allow_lines_count_once(self):
        text = TWO_COMPONENT.replace("allow b c\n", "allow b c\nallow b c  # again\nallow b c\n")
        sys_dup, warnings = gk.parse_spec(text)
        sys, plain_warnings = gk.parse_spec(TWO_COMPONENT)
        assert warnings == plain_warnings
        assert sys_dup.incidence_matrix[1, 2] == 1.0
        assert np.array_equal(sys_dup.incidence_matrix, sys.incidence_matrix)
        assert gk.serialize_spec(sys_dup) == gk.serialize_spec(sys)
        assert gk.serialize_spec(sys_dup).count("allow b c\n") == 1

    def test_comments_and_blank_lines_ignored(self):
        text = CANTOR.replace("incidence full", "\n# note\nincidence full  # trailing")
        sys, _ = gk.parse_spec(text)
        assert sys.edge_ids == ("e1", "e2")


class TestRejections:
    def reject(self, text, fragment, line=None):
        with pytest.raises(gk.SpecError) as exc:
            gk.parse_spec(text)
        assert fragment in str(exc.value)
        if line is not None:
            assert exc.value.line == line

    @pytest.mark.parametrize("text,fragment,line", [
        (CANTOR.replace("space v 0 1", "space v 0 one"), "space hi must be a number, got 'one'", 2),
        (CANTOR.replace("space v 0 1", "space v x 1"), "space lo must be a number, got 'x'", 2),
        (CANTOR.replace("0 1\nedge e2", "zero 1\nedge e2"), "offset must be a number", 3),
        (CANTOR.replace("0.3333333333333333 0 1", "r 0 1"), "ratio must be a number", 3),
        (CANTOR.replace("0.3333333333333333 0 1", "0.3333333333333333 0 1.0"),
         "sign must be an integer, got '1.0'", 3),
        ("system c\nfamily cf truncate two\nincidence full\n",
         "truncation size must be an integer, got 'two'", 2),
        (CANTOR.replace("incidence full", "incidence banded w"),
         "band width must be an integer, got 'w'", 5),
        (CANTOR + "system again\n", "duplicate system directive", 6),
        (CANTOR + "space v 0 1\n", "duplicate space for vertex 'v'", 6),
        ("system c\nfamily cf\nfamily cf\nincidence full\n", "duplicate family directive", 3),
        (CANTOR + "incidence upper\n", "duplicate incidence directive", 6),
        (CANTOR.replace("incidence full", "incidence explicit") + "allow e1\n",
         "usage: allow <a> <b>", 6),
        ("system\n", "usage: system <name>", 1),
        (CANTOR.replace("space v 0 1", "space v 0"), "usage: space <vertex> <lo> <hi>", 2),
        (CANTOR.replace("similarity 0.3333333333333333 0 1", "affine 0.3333333333333333 0 1"),
         "usage: edge <id> <from> <to> similarity <ratio> <offset> <sign>", 3),
        (CANTOR.replace(" 0 1\nedge e2", " 0\nedge e2"),
         "usage: edge <id> <from> <to> similarity <ratio> <offset> <sign>", 3),
        ("system c\nfamily cf 3\nincidence full\n", "usage: family cf [truncate <N>]", 2),
        ("system c\nfamily cf truncate\nincidence full\n", "usage: family cf [truncate <N>]", 2),
        (CANTOR.replace("incidence full", "incidence lower"),
         "usage: incidence full | banded <w> | upper | explicit", 5),
        (CANTOR.replace("incidence full", "incidence banded"),
         "usage: incidence full | banded <w> | upper | explicit", 5),
        ("system c\nfamily moebius\nincidence full\n", "only 'family cf' is supported", 2),
        (CANTOR.replace("space v 0 1", "space v 1 1"), "space needs lo < hi", 2),
        (CANTOR.replace("space v 0 1", "space v 1 0"), "space needs lo < hi", 2),
        (CANTOR.replace("0.3333333333333333 0 1", "0.3333333333333333 0 2"),
         "sign must be 1 or -1", 3),
        # a bad sign and a bad ratio on one line: the sign is named
        (CANTOR.replace("0.3333333333333333 0 1", "1.5 0 2"), "sign must be 1 or -1", 3),
        ("system c\nfamily cf truncate 0\nincidence full\n", "truncation size must be >= 1", 2),
        (CANTOR.replace("incidence full", "incidence banded 0"), "band width must be >= 1", 5),
        ("system c\nfamily cf\nincidence explicit\nallow 1 1\n",
         "the cf family uses a named incidence rule", 2),
        ("system c\nspace v 0 1\nspace w 0 1\nfamily cf\nincidence full\n",
         "the cf family lives on a single vertex", 4),
        ("system c\nspace v 0 1\nincidence full\n", "no edges and no family directive", None),
        (CANTOR.replace("edge e2 v v", "edge e2 w v"), "edge 'e2': no space for vertex 'w'", 4),
        (CANTOR.replace("edge e2 v v", "edge e2 v w"), "edge 'e2': no space for vertex 'w'", 4),
    ])
    def test_parse_refusals(self, text, fragment, line):
        with pytest.raises(gk.SpecError) as exc:
            gk.parse_spec(text)
        assert fragment in str(exc.value)
        assert exc.value.line == line

    def test_unknown_keyword(self):
        self.reject("system x\nweird 1 2\n", "unknown keyword", line=2)

    def test_missing_incidence(self):
        self.reject("system x\nspace v 0 1\nedge e v v similarity 0.5 0 1\n",
                    "incidence")

    def test_allow_without_explicit(self):
        self.reject(CANTOR + "allow e1 e2\n", "explicit")

    def test_explicit_without_allow(self):
        self.reject(CANTOR.replace("incidence full", "incidence explicit"),
                    "allow")

    def test_cf_with_edges(self):
        self.reject(CANTOR + "family cf\n", "mutually exclusive")

    def test_cf_wrong_space(self):
        self.reject("system x\nspace v 0 2\nfamily cf\nincidence full\n",
                    "[0, 1]")

    def test_bad_ratio(self):
        self.reject(CANTOR.replace("0.3333333333333333 0 1", "1.5 0 1"),
                    "between 0 and 1", line=3)

    def test_named_rule_needs_integer_ids(self):
        self.reject(CANTOR.replace("incidence full", "incidence banded 1"),
                    "integer edge ids")

    @pytest.mark.parametrize("rule", ["banded 1", "upper"])
    @pytest.mark.parametrize("eid", ["1_0", "+2", "\u0663", "\uff11"])
    def test_integer_edge_ids_are_ascii_decimal(self, rule, eid):
        # Python's int would read these as 10, 2, 3 and 1 and rename the edge
        kind = rule.split()[0]
        text = (CANTOR.replace("edge e1", f"edge {eid}").replace("edge e2", "edge 5")
                .replace("incidence full", f"incidence {rule}"))
        with pytest.raises(gk.SpecError) as exc:
            gk.parse_spec(text)
        assert str(exc.value) == (f"line 3: incidence rule {kind!r} needs integer "
                                  f"edge ids, got {eid!r}")

    def test_duplicate_edge_id(self):
        bad = CANTOR.replace("edge e2", "edge e1")
        self.reject(bad, "duplicate edge id")

    @pytest.mark.parametrize("rule", ["banded 1", "upper"])
    def test_integer_ids_equal_after_reading_are_duplicates(self, rule):
        # '1' and '01' are one label under a rule over integer labels
        text = (CANTOR.replace("edge e1", "edge 1").replace("edge e2", "edge 01")
                .replace("incidence full", f"incidence {rule}"))
        with pytest.raises(gk.SpecError) as exc:
            gk.parse_spec(text)
        assert str(exc.value) == "line 4: duplicate edge id 1"

    def test_incompatible_allow_pair(self):
        # a allow pair must respect the vertex structure
        text = """\
system bad
space u 0 1
space w 2 3
edge a u u similarity 0.5 0 1
edge b w w similarity 0.5 2 1
incidence explicit
allow a b
"""
        self.reject(text, "compat")

    def test_incompatible_allow_pair_carries_its_line(self):
        # a runs u -> w, so it cannot follow itself; the pair is on line 8
        text = """\
system bad
space u 0 1
space w 0 1
edge a u w similarity 0.5 0 1
edge b w u similarity 0.5 0 1
incidence explicit
allow a b
allow a a
allow b a
"""
        self.reject(text, "allow pair ('a', 'a') is incompatible", line=8)

    def test_unknown_allow_label_carries_its_line(self):
        self.reject(CANTOR.replace("incidence full", "incidence explicit")
                    + "allow e1 e2\nallow e2 zz\nallow aa e1\n",
                    "allow pair names unknown edge ('e2', 'zz')", line=7)

    def test_first_failing_allow_pair_in_str_order(self):
        # ('a', 'a') and ('b', 'b') break the vertex structure and
        # ('zz', 'a') names no edge; the pairs are reported in str order
        space = {v: gm.VertexSpace(v, 0.0, 1.0) for v in ("u", "w")}
        edges = [("a", "u", "w", gm.SimilarityMap(0.3, 0.0)),
                 ("b", "w", "u", gm.SimilarityMap(0.3, 0.0)),
                 ("c", "u", "u", gm.SimilarityMap(0.3, 0.5))]

        def check(pairs, fragment):
            with pytest.raises(gk.SpecError) as exc:
                gk.similarity_system("bad", ("u", "w"), space, edges,
                                     gk.IncidenceSpec(gg.EXPLICIT), pairs)
            assert str(exc.value) == fragment

        good = {("a", "b"), ("b", "a"), ("c", "c"), ("b", "c")}
        check(good | {("a", "a"), ("b", "b"), ("zz", "a")},
              "allow pair ('a', 'a') is incompatible: terminal vertex of 'a' is 'w' "
              "but initial vertex of 'a' is 'u'")
        check(good | {("A", "a"), ("a", "a")},
              "allow pair ('A', 'a') names an unknown edge")
        sys = gk.similarity_system("good", ("u", "w"), space, edges,
                                   gk.IncidenceSpec(gg.EXPLICIT), good)
        assert gk.validate(sys)[0].successor_map == {"a": ("b",), "b": ("a", "c"), "c": ("c",)}

    def test_nan_offset_refused(self):
        # a NaN image end fails every comparison, so it must not pass as inside
        self.reject(CANTOR.replace("0.3333333333333333 0 1", "0.3333333333333333 nan 1"),
                    "leaves the target space")

    @pytest.mark.parametrize("ends", ["0 inf", "-inf 1", "-inf inf"])
    def test_infinite_space_end_refused(self, ends):
        self.reject(CANTOR.replace("space v 0 1", f"space v {ends}"),
                    "space for vertex 'v' needs finite ends", line=2)

    def test_image_outside_space(self):
        text = """\
system bad
space v 0 1
edge a v v similarity 0.5 0.9 1
incidence full
"""
        self.reject(text, "image")


class TestValidationEffects:
    def test_explicit_dead_edges_pruned(self):
        # edge z has no admissible successor and is removed at load time
        text = TWO_COMPONENT + "edge z v v similarity 0.1 0.2 1\n"
        text = text.replace("allow d d\n", "allow d d\nallow z z\n")
        # give z a successor loop so it stays, then drop it to see pruning
        sys_kept, _ = gk.parse_spec(text)
        assert "z" in sys_kept.edge_ids
        text2 = TWO_COMPONENT + "edge z v v similarity 0.1 0.2 1\n" \
            + "# z allowed only into a dead end\n"
        text2 = text2.replace("allow d d\n", "allow d d\nallow z c\n")
        sys2, _ = gk.parse_spec(text2.replace("allow z c\n", ""))
        assert "z" not in sys2.edge_ids

    def test_overlap_warning_emitted(self):
        text = """\
system overlap
space v 0 1
edge a v v similarity 0.6 0 1
edge b v v similarity 0.6 0.4 1
incidence full
"""
        _, warnings = gk.parse_spec(text)
        assert any("overlap" in w.lower() for w in warnings)

    def test_cf_truncation_images_are_checked(self, monkeypatch):
        # every CF image [1/(e+1), 1/e] lies in [0, 1]; one that leaves it
        # is refused as for a similarity edge
        def leaving(self, letters):
            # x -> 1.5x - 0.5 maps [0, 1] onto [-0.5, 1]
            n = len(letters)
            return np.full(n, 1.5), np.full(n, -0.5), np.zeros(n), np.ones(n)
        monkeypatch.setattr(gm.MoebiusCfFamily, "coefficients", leaving)
        with pytest.raises(gk.SpecError, match=r"edge 1: image \[-0.5, 1.0\] leaves"):
            gk.validate(gk.cf_system(gk.IncidenceSpec(gg.FULL), truncate=3))
        with pytest.raises(gk.SpecError, match="leaves the target space"):
            gk.parse_spec("system c\nfamily cf truncate 2\nincidence upper\n")
        # an infinite system lists no edges, so there is no image to check
        assert gk.validate(gk.cf_system(gk.IncidenceSpec(gg.FULL)))[1] == ()

    @pytest.mark.parametrize("rule,width", [(gg.FULL, 0), (gg.BANDED, 1), (gg.UPPER, 0)])
    def test_cf_truncation_images_meet_only_at_endpoints(self, rule, width):
        for size in range(1, 41):
            system = gk.cf_system(gk.IncidenceSpec(rule, width), truncate=size)
            checked, warnings = gk.validate(system)
            assert checked is system
            assert warnings == ()
