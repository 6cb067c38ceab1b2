"""Integration tests for the end-to-end Session."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.run import Session
from repro.programs import horizontal_diffusion
from util import lst1_inputs, lst1_program, random_inputs


class TestSession:
    def test_full_pipeline(self):
        session = Session(lst1_program())
        result = session.run(lst1_inputs())
        assert result.validated
        assert result.simulation.cycles > 0
        assert set(result.outputs) == {"b4"}

    def test_analysis_cached(self):
        session = Session(lst1_program())
        assert session.analysis is session.analysis

    def test_code_package(self):
        session = Session(lst1_program())
        files = session.code_package()
        assert "host.cpp" in files

    def test_performance_report(self):
        session = Session(lst1_program())
        report = session.performance()
        assert report.gops > 0

    def test_canonicalize_option(self):
        session = Session(lst1_program(), canonicalize=True)
        # b3+b4 fuse: fewer stencils than the raw program.
        assert len(session.program.stencils) < 5
        result = session.run(lst1_inputs())
        assert result.validated

    def test_from_json(self):
        from util import lst1_spec
        session = Session.from_json(lst1_spec())
        assert session.program.name == "lst1"

    def test_from_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(lst1_program().to_json_string())
        session = Session.from_file(path)
        assert session.program.name == "lst1"

    def test_validation_catches_mismatch(self):
        # Corrupt the simulator output by comparing against different
        # inputs — simplest way to exercise the failure path is a
        # tolerance of zero on a non-trivial program.
        session = Session(lst1_program())
        with pytest.raises(ValidationError):
            session.run(lst1_inputs(), rtol=0.0, atol=0.0)

    @pytest.mark.parametrize("dtype, planted, message", [
        # NaN against a number fails allclose: its error is not 0.
        ("float32", np.nan, "got nan, expected 1.0; max abs error inf)"),
        # The int32 difference is taken in float64, not wrapped.
        ("int32", 2**31 - 1,
         "got 2147483647, expected -5; max abs error 2147483652)"),
    ], ids=["nan", "int32"])
    def test_validation_message_names_the_deviation(self, monkeypatch, dtype,
                                                    planted, message):
        from repro.core import StencilProgram
        from repro.run import reference, session as session_module
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": dtype, "dims": ["i", "j"]}},
            "outputs": ["s"],
            "shape": [5, 4],
            "program": {"s": {"code": "a[i,j]",
                              "boundary_condition": "shrink"}},
        })
        a = np.ones((5, 4), dtype=dtype)
        a[3, 2] = -5 if dtype == "int32" else 1
        simulate = session_module.simulate

        def planting(*args, **kwargs):
            result = simulate(*args, **kwargs)
            result.outputs["s"][3, 2] = planted
            result.outputs["s"][4, 0] = planted
            return result

        monkeypatch.setattr(session_module, "simulate", planting)
        # One row per block: the two deviations sit in different blocks.
        monkeypatch.setattr(reference, "_BLOCK_CELLS", 4)
        with pytest.raises(ValidationError) as caught:
            Session(program).run({"a": a})
        assert str(caught.value) == (
            f"output 's' deviates from the reference in 2 of 20 valid "
            f"cells (first at (3, 2): {message}")

    def test_unvalidated_run_skips_the_reference(self, monkeypatch):
        import repro.run.session as session_mod
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("the reference ran")

        monkeypatch.setattr(session_mod, "run_reference", spy)
        result = Session(lst1_program()).run(lst1_inputs(),
                                             validate=False)
        assert calls == []
        assert not result.validated
        assert result.simulation.cycles > 0

    def test_distributed_run(self):
        session = Session(lst1_program())
        result = session.run(lst1_inputs(), device_of={
            "b0": 0, "b1": 0, "b2": 0, "b3": 1, "b4": 1})
        assert result.validated

    def test_partition_strategy_run(self):
        session = Session(lst1_program())
        contiguous = session.run(lst1_inputs(),
                                 partition="contiguous", devices=2)
        assert contiguous.validated
        auto = session.run(lst1_inputs(), partition="auto", devices=2)
        assert auto.validated

    def test_placement_strategies(self):
        session = Session(lst1_program())
        contiguous = session.placement("contiguous", 2)
        assert max(contiguous.values()) == 1
        auto = session.placement("auto", 4)
        assert set(auto) == set(session.program.stencil_names)
        with pytest.raises(ValidationError, match="partition strategy"):
            session.placement("scatter", 2)

    def test_partition_and_device_of_conflict(self):
        session = Session(lst1_program())
        with pytest.raises(ValidationError, match="not both"):
            session.run(lst1_inputs(), partition="auto",
                        device_of={"b0": 0})


class TestDeprecatedRunKwargs:
    """The pre-``repro.api`` spellings ``engine`` / ``placement`` had
    their deprecation cycle; they are unknown keywords now."""

    def test_engine_is_a_type_error(self):
        session = Session(lst1_program())
        with pytest.raises(TypeError, match="unexpected keyword"):
            session.run(lst1_inputs(), engine="scalar")

    def test_placement_is_a_type_error(self):
        session = Session(lst1_program())
        with pytest.raises(TypeError, match="unexpected keyword"):
            session.run(lst1_inputs(), placement="contiguous", devices=2)

    def test_unknown_kwarg_still_a_type_error(self):
        session = Session(lst1_program())
        with pytest.raises(TypeError, match="unexpected keyword"):
            session.run(lst1_inputs(), engin="scalar")


class TestHdiffEndToEnd:
    """The application study runs through the entire stack."""

    def _inputs(self, program):
        rng = np.random.default_rng(5)
        inputs = {}
        for name, spec in program.inputs.items():
            shape = spec.shape(program.shape, program.index_names)
            inputs[name] = (rng.random(shape, dtype=np.float32) * 0.1
                            + 1.0)
        return inputs

    def test_hdiff_simulates_and_validates(self):
        program = horizontal_diffusion(shape=(16, 16, 8))
        session = Session(program)
        result = session.run(self._inputs(program))
        assert result.validated
        assert all(result.simulation.output_continuous.values())

    def test_hdiff_vectorized(self):
        program = horizontal_diffusion(shape=(16, 16, 8),
                                       vectorization=4)
        session = Session(program)
        result = session.run(self._inputs(program))
        assert result.validated

    def test_hdiff_fused(self):
        program = horizontal_diffusion(shape=(16, 16, 8))
        session = Session(program, canonicalize=True)
        result = session.run(self._inputs(session.program))
        assert result.validated

    def test_hdiff_two_devices(self):
        program = horizontal_diffusion(shape=(16, 16, 8))
        placement = {}
        for stencil in program.stencils:
            # u/v pipeline on device 0, w/pp on device 1 (plus smag).
            placement[stencil.name] = 0 if ("_u" in stencil.name
                                            or "_v" in stencil.name
                                            or stencil.name in
                                            ("t_s", "s_uv")) else 1
        session = Session(program)
        result = session.run(self._inputs(program), device_of=placement)
        assert result.validated
