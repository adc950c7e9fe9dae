"""Tests for validation helpers, RNG plumbing and table rendering."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import DataError, EncodingError, InvalidParameterError
from repro.util.jsonio import RenderedObject, canonical_dumps
from repro.util.rng import DEFAULT_SEED, ensure_rng
from repro.util.tables import format_table
from repro.util.validation import (
    require_finite_array,
    require_in_range,
    require_positive,
)


class TestRequirePositive:
    def test_accepts_positive(self):
        assert require_positive("x", 2.5) == 2.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(InvalidParameterError, match="x"):
            require_positive("x", 0.0)

    def test_accepts_zero_when_not_strict(self):
        assert require_positive("x", 0.0, strict=False) == 0.0

    def test_rejects_negative_even_when_not_strict(self):
        with pytest.raises(InvalidParameterError):
            require_positive("x", -1.0, strict=False)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidParameterError):
            require_positive("x", float("nan"))
        with pytest.raises(InvalidParameterError):
            require_positive("x", float("inf"))


class TestRequireInRange:
    def test_inclusive_bounds(self):
        assert require_in_range("x", 0.0, 0.0, 1.0) == 0.0
        assert require_in_range("x", 1.0, 0.0, 1.0) == 1.0

    def test_exclusive_bounds_reject_edges(self):
        with pytest.raises(InvalidParameterError):
            require_in_range("x", 0.0, 0.0, 1.0, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError, match=r"\[0.*1"):
            require_in_range("x", 2.0, 0.0, 1.0)


class TestRequireFiniteArray:
    def test_coerces_lists(self):
        out = require_finite_array("x", [1, 2, 3])
        assert out.dtype == float
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_rejects_2d(self):
        with pytest.raises(DataError, match="one-dimensional"):
            require_finite_array("x", np.zeros((2, 2)))

    def test_rejects_short(self):
        with pytest.raises(DataError, match="at least 3"):
            require_finite_array("x", [1.0, 2.0], min_len=3)

    def test_rejects_nan(self):
        with pytest.raises(DataError, match="non-finite"):
            require_finite_array("x", [1.0, float("nan")])


class TestEnsureRng:
    def test_none_uses_default_seed(self):
        a = ensure_rng(None).standard_normal(4)
        b = np.random.default_rng(DEFAULT_SEED).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_int_seed(self):
        a = ensure_rng(7).standard_normal(4)
        b = np.random.default_rng(7).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(1)
        assert ensure_rng(generator) is generator


class TestFormatTable:
    def test_basic_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "---" not in lines[0]
        assert len(lines) == 4

    def test_title_renders_with_underline(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"
        assert text.splitlines()[1] == "=" * len("My Table")

    def test_bool_rendering(self):
        text = format_table(["ok"], [[True], [False]])
        assert "yes" in text and "no" in text

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError, match="2 cells"):
            format_table(["a"], [[1, 2]])

    def test_float_format_respected(self):
        text = format_table(["v"], [[3.14159]], float_format=".2f")
        assert "3.14" in text and "3.142" not in text


class TestRenderedObject:
    PAYLOAD = {
        "kind": "select",
        "results": [{"series": "a", "rows": [[1, 0.5, None]]}],
        "approx": True,
        "matched": ["a", "\u00e9"],
    }

    def test_body_is_canonical_json(self):
        rendered = RenderedObject(self.PAYLOAD)
        assert rendered.body == canonical_dumps(self.PAYLOAD).encode()
        assert RenderedObject({}).body == b"{}"

    @pytest.mark.parametrize("key", ["aaa", "kind", "m", "trace", "zzz"])
    def test_with_member_lands_at_the_canonical_position(self, key):
        # "trace" sorts last in a select payload but before "tuples" in a
        # view payload: the member goes where sort_keys would put it.
        for payload in (self.PAYLOAD, {"kind": "view", "tuples": [1]}, {}):
            payload = {k: v for k, v in payload.items() if k != key}
            expected = canonical_dumps({**payload, key: {"wall_ms": 1.5}})
            rendered = RenderedObject(payload)
            assert rendered.with_member(key, {"wall_ms": 1.5}) == (
                expected.encode()
            )

    def test_with_member_refuses_a_present_key(self):
        with pytest.raises(ValueError):
            RenderedObject({"kind": "x"}).with_member("kind", "y")

    def test_non_finite_numbers_raise_encoding_error(self):
        with pytest.raises(EncodingError):
            RenderedObject({"score": float("nan")})
        with pytest.raises(ValueError):  # Still a ValueError to old callers.
            canonical_dumps([float("inf")])


def test_format_allowlist_names_only_existing_files():
    # The list may only shrink: a deleted file takes its line with it.
    root = Path(__file__).resolve().parent.parent
    listed = (root / ".github/ruff-format-allowlist.txt").read_text()
    paths = [p for p in listed.splitlines() if p and p[0] != "#"]
    assert paths and not [p for p in paths if not (root / p).is_file()]


def test_catalog_module_holds_no_segment_layout_knowledge():
    # What a segment is called and looks like on disk is store/binary.py's
    # business; it must not drift back into the catalog.
    import ast

    root = Path(__file__).resolve().parent.parent
    source = (root / "src/repro/store/catalog.py").read_text()
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            for index in range(docstring.lineno - 1, docstring.end_lineno):
                lines[index] = ""
    code = "\n".join(lines)
    banned = (".npz", ".v2", ".synopsis.json", "seg-", "SEGMENT_SUFFIX")
    assert not [fragment for fragment in banned if fragment in code]
