"""Unit tests for StencilProgram definition, validation and JSON I/O."""

import pickle
import sys
import threading

import pytest

from repro.core import StencilProgram
from repro.errors import DefinitionError
from repro.programs import available_programs, build, horizontal_diffusion
from util import assert_facts_sound, lst1_program, lst1_spec


class TestConstruction:
    def test_lst1_parses(self):
        program = lst1_program()
        assert program.stencil_names == ("b0", "b1", "b2", "b3", "b4")
        assert program.rank == 3
        assert program.num_cells == 512

    def test_index_names_by_rank(self):
        program = lst1_program()
        assert program.index_names == ("i", "j", "k")

    def test_2d_program(self):
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float32", "dims": ["i", "j"]}},
            "outputs": ["s"],
            "shape": [16, 16],
            "program": {"s": {"code": "a[i,j-1] + a[i,j+1]",
                              "boundary_condition": "shrink"}},
        })
        assert program.rank == 2
        assert program.index_names == ("i", "j")

    def test_string_code_shorthand(self):
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float32", "dims": ["i"]}},
            "outputs": ["s"],
            "shape": [16],
            "program": {"s": "a[i] + 1"},
        })
        assert program.stencil("s").boundary.shrink

    def test_consumers_of(self):
        program = lst1_program()
        assert set(program.consumers_of("b0")) == {"b1", "b2"}
        assert program.consumers_of("b4") == ()

    def test_field_dims(self):
        program = lst1_program()
        assert program.field_dims("a2") == ("i", "k")
        assert program.field_dims("b0") == ("i", "j", "k")

    def test_field_dtype(self):
        program = lst1_program()
        assert program.field_dtype("a0").name == "float32"
        assert program.field_dtype("b4").name == "float32"

    def test_stencil_lookup(self):
        program = lst1_program()
        assert program.stencil("b3").name == "b3"
        with pytest.raises(DefinitionError):
            program.stencil("nope")

    def test_with_vectorization(self):
        program = lst1_program().with_vectorization(4)
        assert program.vectorization == 4


class TestValidation:
    def _spec(self, **overrides):
        spec = lst1_spec()
        spec.update(overrides)
        return spec

    def test_missing_key(self):
        spec = self._spec()
        del spec["outputs"]
        with pytest.raises(DefinitionError, match="missing top-level"):
            StencilProgram.from_json(spec)

    def test_too_many_dims(self):
        with pytest.raises(DefinitionError, match="1, 2, or 3"):
            StencilProgram.from_json(self._spec(shape=[4, 4, 4, 4]))

    def test_nonpositive_extent(self):
        with pytest.raises(DefinitionError, match="non-positive"):
            StencilProgram.from_json(self._spec(shape=[4, 0, 4]))

    def test_vectorization_must_divide(self):
        with pytest.raises(DefinitionError, match="divide"):
            StencilProgram.from_json(self._spec(vectorization=3))

    def test_unknown_output(self):
        with pytest.raises(DefinitionError, match="not produced"):
            StencilProgram.from_json(self._spec(outputs=["zz"]))

    def test_undefined_field_read(self):
        spec = self._spec()
        spec["program"]["b1"]["code"] = "qq[i,j,k] + 1"
        with pytest.raises(DefinitionError, match="undefined field"):
            StencilProgram.from_json(spec)

    def test_cycle_rejected(self):
        spec = {
            "inputs": {"a": {"dtype": "float32", "dims": ["i"]}},
            "outputs": ["x"],
            "shape": [8],
            "program": {
                "x": {"code": "y[i] + 1", "boundary_condition": "shrink"},
                "y": {"code": "x[i] + 1", "boundary_condition": "shrink"},
            },
        }
        with pytest.raises(DefinitionError, match="cycle"):
            StencilProgram.from_json(spec)

    def test_wrong_access_dims(self):
        from repro.errors import StencilFlowError
        spec = self._spec()
        spec["program"]["b1"]["code"] = "a2[i,j,k] + 1"
        with pytest.raises(StencilFlowError, match="declared over dims"):
            StencilProgram.from_json(spec)

    def test_duplicate_name_with_input(self):
        spec = self._spec()
        spec["program"]["a0"] = {"code": "a1[i,j,k]",
                                 "boundary_condition": "shrink"}
        with pytest.raises(DefinitionError, match="duplicate"):
            StencilProgram.from_json(spec)

    def test_empty_program(self):
        with pytest.raises(DefinitionError, match="no stencils"):
            StencilProgram.from_json(self._spec(program={}))


class TestSerialization:
    def test_roundtrip(self):
        program = lst1_program()
        again = StencilProgram.from_json_string(program.to_json_string())
        assert again.to_json() == program.to_json()

    def test_file_roundtrip(self, tmp_path):
        program = lst1_program()
        path = tmp_path / "prog.json"
        path.write_text(program.to_json_string())
        again = StencilProgram.from_json_file(path)
        assert again.to_json() == program.to_json()

    def test_extent(self):
        program = lst1_program()
        assert program.stencil("b3").extent() == {
            "i": (-1, 1), "j": (0, 0), "k": (0, 0)}


class TestProgramFacts:
    """Expression-derived quantities are facts of the frozen object
    they describe: derived once, equal to the pure functions."""

    @pytest.mark.parametrize("name", available_programs())
    def test_catalog_facts_equal_the_pure_functions(self, name):
        program = build(name)
        assert_facts_sound(program)
        assert_facts_sound(program.with_vectorization(2))

    def test_facts_are_derived_once(self):
        program = lst1_program()
        stencil = program.stencil("b3")
        assert stencil.accesses is stencil.accesses
        assert stencil.census_cse is stencil.census_cse
        assert program.content_hash is program.content_hash

    def test_vectorized_copy_shares_the_stencil_objects(self):
        program = horizontal_diffusion(shape=(8, 8, 8))
        for stencil in program.stencils:
            stencil.census_cse
        wide = program.with_vectorization(4)
        for mine, theirs in zip(wide.stencils, program.stencils):
            assert mine is theirs
            assert "census_cse" in vars(mine)
        assert wide.family_hash == program.family_hash
        assert wide.content_hash != program.content_hash

    def test_transformed_programs_carry_their_own_facts(self):
        from repro.transforms.canonicalize import fold_program
        from repro.transforms.stencil_fusion import aggressive_fusion
        program = horizontal_diffusion(shape=(8, 8, 8))
        assert_facts_sound(program)
        fused = aggressive_fusion(program)
        assert len(fused.stencils) < len(program.stencils)
        # Fusion inlines producers: the survivors read other fields,
        # so nothing may be inherited from the unfused program.
        changed = [s.name for s in fused.stencils
                   if s.accessed_fields
                   != program.stencil(s.name).accessed_fields]
        assert changed
        assert fused.family_hash != program.family_hash
        assert_facts_sound(fused)
        assert_facts_sound(fold_program(program))

    def test_populated_facts_survive_pickling(self):
        program = horizontal_diffusion(shape=(8, 8, 8), vectorization=2)
        assert_facts_sound(program)
        clone = pickle.loads(pickle.dumps(program))
        assert clone == program
        assert clone.content_hash == program.content_hash
        assert_facts_sound(clone)

    def test_pickled_analysis_carries_a_program_with_facts(self):
        from repro.analysis import analyze_buffers
        program = lst1_program()
        assert_facts_sound(program)
        built = analyze_buffers(program)
        loaded = pickle.loads(pickle.dumps(built))
        assert loaded.program == program
        assert loaded.pipeline_latency == built.pipeline_latency
        assert_facts_sound(loaded.program)

    def test_concurrent_first_access_agrees(self):
        # Python 3.11's cached_property serializes first access under
        # a lock; 3.12's takes none, so racing threads may each compute
        # the value.  Either way every reader must see an equal one.
        program = horizontal_diffusion(shape=(8, 8, 8))
        expected = horizontal_diffusion(shape=(8, 8, 8))
        barrier = threading.Barrier(8)
        seen, errors = [], []

        def read():
            try:
                barrier.wait(timeout=10)
                seen.append((
                    program.content_hash,
                    [program.field_dtype(n) for n in program.stencil_names],
                    [program.consumers_of(n) for n in program.inputs],
                    [(s.accesses, s.census_cse) for s in program.stencils]))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        want = (expected.content_hash,
                [expected.field_dtype(n) for n in expected.stencil_names],
                [expected.consumers_of(n) for n in expected.inputs],
                [(s.accesses, s.census_cse) for s in expected.stencils])
        assert all(row == want for row in seen)

    def test_name_lookups_reject_unknown_names(self):
        program = lst1_program()
        for lookup in (program.stencil, program.field_dims,
                       program.field_dtype):
            with pytest.raises(DefinitionError):
                lookup("nope")
        assert program.consumers_of("nope") == ()
