"""Unit tests for repro.core.fields."""

import pytest

from repro.core import FieldSpec, dtype, flatten_offset
from repro.core.fields import Access
from repro.errors import DefinitionError


class TestFieldSpec:
    def test_full_3d(self):
        spec = FieldSpec("a", dtype("float32"), ("i", "j", "k"))
        assert spec.rank == 3
        assert not spec.is_scalar

    def test_scalar(self):
        spec = FieldSpec("c", dtype("float32"), ())
        assert spec.rank == 0
        assert spec.is_scalar

    def test_lower_dimensional(self):
        spec = FieldSpec("a2", dtype("float32"), ("i", "k"))
        assert spec.rank == 2

    def test_shape_full(self):
        spec = FieldSpec("a", dtype("float32"), ("i", "j", "k"))
        assert spec.shape((4, 5, 6), ("i", "j", "k")) == (4, 5, 6)

    def test_shape_subset(self):
        spec = FieldSpec("a2", dtype("float32"), ("i", "k"))
        assert spec.shape((4, 5, 6), ("i", "j", "k")) == (4, 6)

    def test_shape_scalar(self):
        spec = FieldSpec("c", dtype("float32"), ())
        assert spec.shape((4, 5, 6), ("i", "j", "k")) == ()

    def test_invalid_name(self):
        with pytest.raises(DefinitionError, match="invalid field name"):
            FieldSpec("2bad", dtype("float32"), ("i",))

    def test_unknown_dim(self):
        with pytest.raises(DefinitionError, match="unknown dimension"):
            FieldSpec("a", dtype("float32"), ("i", "x"))

    def test_duplicate_dim(self):
        with pytest.raises(DefinitionError, match="duplicate"):
            FieldSpec("a", dtype("float32"), ("i", "i"))

    def test_out_of_order_dims(self):
        with pytest.raises(DefinitionError, match="iteration order"):
            FieldSpec("a", dtype("float32"), ("j", "i"))

    def test_json_roundtrip(self):
        spec = FieldSpec("a2", dtype("float64"), ("i", "k"))
        again = FieldSpec.from_json("a2", spec.to_json())
        assert again == spec

    def test_from_json_defaults_dims(self):
        spec = FieldSpec.from_json("a", {"dtype": "float32"})
        assert spec.dims == ("i", "j", "k")

    def test_from_json_missing_dtype(self):
        with pytest.raises(DefinitionError, match="missing 'dtype'"):
            FieldSpec.from_json("a", {})


class TestAccess:
    def test_str_scalar(self):
        assert str(Access("c", ())) == "c"

    def test_str_offsets(self):
        assert str(Access("a", (-1, 0, 2))) == "a[-1, 0, 2]"

    def test_expand(self):
        acc = Access("a2", (1, -2))
        assert acc.expand(("i", "k"), ("i", "j", "k")) == (1, None, -2)


class TestFlattenOffset:
    def test_innermost_is_contiguous(self):
        assert flatten_offset((0, 0, 1), (32, 32, 32)) == 1

    def test_middle_dimension(self):
        assert flatten_offset((0, 1, 0), (32, 32, 32)) == 32

    def test_outer_dimension(self):
        assert flatten_offset((1, 0, 0), (32, 32, 32)) == 1024

    def test_negative(self):
        assert flatten_offset((-1, 0, 0), (32, 32, 32)) == -1024

    def test_mixed(self):
        assert flatten_offset((1, -1, 2), (4, 8, 16)) == 128 - 16 + 2

    def test_2d(self):
        assert flatten_offset((1, 1), (10, 20)) == 21
