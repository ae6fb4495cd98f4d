"""Galileo format: parsing, serialisation, round-trips and error reporting."""

import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudy import build_covid_tree
from repro.errors import GalileoFormatError
from repro.ft import FaultTreeBuilder, GateType, dumps, galileo, loads
from repro.ft.galileo import dump, load
from repro.service import kernel_key, tree_fingerprint


SAMPLE = """
// COVID excerpt
toplevel "CP/R";
"CP/R" or "CP" "CR";
"CP" and "IW" "H3";
"CR" and "IT" "H2";
"IW" prob=0.1;
"H3";
"IT";
"H2";
"""


class TestParsing:
    def test_basic_document(self):
        tree = loads(SAMPLE)
        assert tree.top == "CP/R"
        assert tree.gate_type("CP/R") is GateType.OR
        assert tree.children("CP") == ("IW", "H3")
        assert tree.basic_event("IW").probability == 0.1

    def test_unquoted_names(self):
        tree = loads("toplevel top; top and a b; a; b;")
        assert tree.top == "top"
        assert set(tree.basic_events) == {"a", "b"}

    def test_vot_gate(self):
        tree = loads("toplevel v; v 2of3 a b c; a; b; c;")
        gate = tree.gate("v")
        assert gate.gate_type is GateType.VOT
        assert gate.threshold == 2

    def test_implicit_basic_events(self):
        tree = loads("toplevel g; g and x y;")
        assert set(tree.basic_events) == {"x", "y"}

    def test_comments_stripped(self):
        text = (
            "// line comment\n"
            "toplevel g; # hash comment\n"
            "/* block\ncomment */ g or a; a;"
        )
        tree = loads(text)
        assert tree.top == "g"

    def test_other_attributes_ignored(self):
        tree = loads("toplevel g; g or a; a lambda=0.5 dorm=0.1;")
        assert tree.basic_event("a").probability is None


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "g or a; a;",  # missing toplevel
            "toplevel g; toplevel h; g or a; a;",  # duplicate toplevel
            "toplevel g; g or;",  # gate without children
            "toplevel v; v 2of3 a b; a; b;",  # VOT arity mismatch
            "toplevel g; g or a; a prob=xx;",  # bad probability
            "toplevel g; g or a; a; a;",  # duplicate basic event
            "toplevel;",  # malformed toplevel
            "toplevel g; g or a; what is this;",  # unrecognised statement
            '"T" or "a"; toplevel "T"; "a" prob=1.5;',  # probability > 1
            '"T" or "a"; toplevel "T"; "a" prob=nan;',  # probability nan
            'toplevel "T"; "T" or "" "b";',  # empty quoted name
            "toplevel g; g or a; a prob=-0.1;",  # probability < 0
            "toplevel g; g or a; a prob=inf;",  # probability inf
            'toplevel "g; "g" or a;',  # unterminated quote
            "toplevel g; g or a; /* open",  # unterminated block comment
            "toplevel g; g or g;",  # cycle (WellFormednessError cause)
            "toplevel g; g or a a;",  # repeated child (GateArityError)
            "toplevel g; g 0of1 a;",  # VOT threshold 0 (GateArityError)
            "toplevel g; g or a; h or b;",  # h not connected to the top
        ],
    )
    def test_rejected_documents(self, text):
        with pytest.raises(GalileoFormatError):
            loads(text)

    def test_structural_cause_is_chained(self):
        from repro.errors import WellFormednessError

        with pytest.raises(GalileoFormatError) as info:
            loads("toplevel g; g or g;")
        assert isinstance(info.value.__cause__, WellFormednessError)

    def test_bad_variant_fragment_is_a_structured_error(self):
        # subtree-replace fragments go through loads; a bad probability
        # must surface as a ReproError, never a bare ValueError.
        from repro.ft.edits import apply_edits
        from repro.errors import ReproError

        tree = loads("toplevel T; T or G b; G and a c;")
        edit = {
            "op": "subtree-replace",
            "element": "G",
            "fragment": 'toplevel "x"; "x" and "c" "d"; "c" prob=2;',
        }
        with pytest.raises(ReproError):
            apply_edits(tree, [edit])


class TestQuotedNames:
    """Comment markers and ``;`` are part of a quoted name."""

    @pytest.mark.parametrize("name", ["a#1", "a//b", "a/*b*/c", "a/*b", "a;b"])
    def test_marker_inside_quotes(self, name):
        tree = loads(
            f'toplevel "T"; "T" or "{name}" "b"; "{name}" prob=0.1;'
        )
        assert tree.elements == (name, "b", "T")
        assert tree.basic_event(name).probability == 0.1

    def test_comments_outside_quotes_still_skipped(self):
        tree = loads(
            'toplevel "T"; # "not a name\n'
            '"T" or "a#1" /* "x" */ "b"; // trailing "quote\n'
        )
        assert tree.children("T") == ("a#1", "b")

    def test_block_comment_opened_in_line_comment(self):
        # Block comments used to be stripped before line comments, so a
        # "/*" inside a line comment runs to its "*/"; kept as it was.
        tree = loads('toplevel T; // x /* y\n z; w */ more\nT or a;')
        assert tree.elements == ("a", "T")

    def test_round_trip_of_awkward_names(self):
        names = ["has#hash", "has//slashes", "has;semi", "has space",
                 "/*block*/", "#"]
        builder = FaultTreeBuilder()
        builder.basic_events(*names)
        builder.or_gate("top gate; #1", *names)
        tree = builder.build("top gate; #1")
        reparsed = loads(dumps(tree))
        assert reparsed.elements == tree.elements
        assert reparsed.children("top gate; #1") == tuple(names)
        assert tree_fingerprint(reparsed) == tree_fingerprint(tree)

    def test_kernel_key_of_a_plain_document_is_unchanged(self):
        # Pinned before the one-pass scanner: documents without comment
        # markers inside quoted names parse to the same tree.
        text = (
            "// covid excerpt\n"
            'toplevel "CP/R";  # top\n'
            '"CP/R" or "CP" "CR";\n'
            "/* gates\n */ CP and IW H3;\n"
            '"CR" and "IT" "H2"; "IW" prob=0.1;'
        )
        assert kernel_key(loads(text)) == (
            "ac9901753e781044eaf34dc1f9eea88656fe68e8ab6c2e41d10496ba2544eaa2"
        )


def _hostile_texts():
    alphabet = st.sampled_from(
        list('"#/*;= \n\tabT') + ["toplevel", "and", "or", "2of3", "prob="]
    )
    return st.lists(alphabet, max_size=60).map("".join) | st.text(max_size=200)


class TestHostileText:
    @settings(max_examples=300, deadline=None)
    @given(_hostile_texts())
    def test_parses_or_raises_format_error_quickly(self, text):
        start = time.perf_counter()
        try:
            loads(text)
        except GalileoFormatError:
            pass
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("prefix", ["", "/* closed */ "])
    def test_many_unclosed_block_markers_in_line_comments_stay_linear(
        self, prefix
    ):
        text = prefix + "toplevel g; g or a;\n" + "# /*\n" * 20000
        start = time.perf_counter()
        assert loads(text).top == "g"
        assert time.perf_counter() - start < 2.0

    def test_unclosable_block_marker_after_the_last_close_is_rejected(self):
        with pytest.raises(GalileoFormatError, match="unterminated /\\*"):
            loads("/* a */ toplevel g; g or a; # /*\n b/* c")

    @pytest.mark.parametrize("text", [
        "toplevel g; g or a/* b;",
        "toplevel g; g or a; /* b",
        'toplevel g; g or "a/*"; # /*\n b/* c',
    ])
    def test_block_marker_that_never_closes_is_rejected(self, text):
        with pytest.raises(GalileoFormatError, match="unterminated /\\*"):
            loads(text)

    def test_scanner_compiles_on_python_3_10(self):
        # Possessive quantifiers and atomic groups need Python 3.11; the
        # package supports 3.10, where they fail at import.
        for pattern in (galileo._SCAN.pattern, galileo._VOT_RE.pattern):
            assert not re.search(r"(?<!\\)[*+?}]\+|\(\?>", pattern)


class TestRoundTrip:
    def test_fig1_round_trip(self):
        from repro.ft import figure1_tree

        tree = figure1_tree()
        reparsed = loads(dumps(tree))
        assert reparsed.top == tree.top
        assert set(reparsed.basic_events) == set(tree.basic_events)
        for name in tree.gate_names:
            assert reparsed.children(name) == tree.children(name)
            assert reparsed.gate_type(name) == tree.gate_type(name)

    def test_covid_round_trip(self):
        tree = build_covid_tree()
        reparsed = loads(dumps(tree))
        assert reparsed.top == tree.top
        assert set(reparsed.elements) == set(tree.elements)
        for name in tree.gate_names:
            assert reparsed.children(name) == tree.children(name)

    def test_vot_round_trip(self):
        from repro.ft import example_vot_tree

        tree = example_vot_tree()
        reparsed = loads(dumps(tree))
        assert reparsed.gate("V").threshold == 2

    def test_probability_round_trip(self):
        tree = loads("toplevel g; g or a b; a prob=0.25; b;")
        reparsed = loads(dumps(tree))
        assert reparsed.basic_event("a").probability == 0.25
        assert reparsed.basic_event("b").probability is None

    def test_file_io(self, tmp_path):
        tree = build_covid_tree()
        path = tmp_path / "covid.dft"
        dump(tree, str(path))
        reparsed = load(str(path))
        assert reparsed.top == "IWoS"
