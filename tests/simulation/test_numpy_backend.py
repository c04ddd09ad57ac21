"""Equivalence suite for the numpy bit-plane simulation backend.

The ``"numpy"`` backend (level-batched ndarray gate evaluation plus the
fault-vectorised union-cone PPSFP scan,
:mod:`repro.simulation.numpy_backend`) claims **bit-identity** with the
``"python"`` bigint interpreter, which remains the default and the oracle.
This suite asserts exactly that on randomized circuits across block sizes
{1, 17, 64, 256, 1024}: full value tables, fault detection statuses /
first-detection indices / coverage curves / per-pattern detection credits,
the campaign shard primitive, the transition launch-on-capture engine, the
strict-stimulus mode, and gate-evaluation accounting.  Backend selection
errors (unknown name, NumPy absent) are covered too.
"""

import random

import pytest

from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.faults import (
    FaultList,
    FaultSimulator,
    TransitionFaultSimulator,
    collapse_stuck_at,
)
from repro.oracle import (
    derive_capture_patterns,
    simulate_patterns,
    simulate_with_derived_capture,
)
from repro.simulation import (
    HAVE_NUMPY,
    SimBackendError,
    StrictStimulusError,
    iter_blocks,
    resolve_backend,
    shared_kernel,
)
from repro.simulation.numpy_backend import numpy_kernel_for
from test_kernel_equivalence import block_values

pytestmark = pytest.mark.numpy

BLOCK_SIZES = (1, 17, 64, 256, 1024)


def make_core(seed: int, domains: int = 2):
    config = SyntheticCoreConfig(
        name=f"np_backend_core_{seed}",
        clock_domains=tuple(f"clk{i + 1}" for i in range(domains)),
        num_inputs=8,
        num_outputs=5,
        register_width=6,
        pipeline_stages=1,
        adder_slices=1,
        adder_width=4,
        comparator_widths=(6,),
        decode_cone_width=5,
        cross_domain_links=1,
        seed=seed,
    )
    return generate_synthetic_core(config).circuit


def random_patterns(circuit, count: int, seed: int):
    rng = random.Random(seed)
    nets = circuit.stimulus_nets()
    return [{net: rng.randint(0, 1) for net in nets} for _ in range(count)]


def assert_fault_lists_identical(reference, candidate):
    assert len(reference) == len(candidate)
    for fault in reference.faults():
        ref = reference.record(fault)
        got = candidate.record(fault)
        assert got.status is ref.status, str(fault)
        assert got.first_detection == ref.first_detection, str(fault)


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        circuit = make_core(1)
        with pytest.raises(SimBackendError, match="unknown sim backend"):
            resolve_backend("cuda")
        with pytest.raises(SimBackendError, match="unknown sim backend"):
            FaultSimulator(circuit, backend="jax")

    def test_missing_numpy_raises_actionable_error(self, monkeypatch):
        """Graceful degradation: a clear message, not an ImportError."""
        from repro.simulation import numpy_backend

        monkeypatch.setattr(numpy_backend, "HAVE_NUMPY", False)
        circuit = make_core(1)
        with pytest.raises(SimBackendError, match="repro\\[fast\\]"):
            FaultSimulator(circuit, backend="numpy")

    def test_python_backend_never_needs_numpy(self, monkeypatch):
        from repro.simulation import numpy_backend

        monkeypatch.setattr(numpy_backend, "HAVE_NUMPY", False)
        circuit = make_core(1)
        engine = FaultSimulator(circuit)  # default stays dependency-free
        assert engine.backend == "python"


class TestValueTableEquivalence:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_simulate_block_bit_identical(self, block_size):
        circuit = make_core(2)
        patterns = random_patterns(circuit, 2 * block_size + 7, 100)
        nets = circuit.stimulus_nets()
        for block in iter_blocks(patterns, block_size=block_size, nets=nets):
            expected = block_values(circuit, block.assignments, block.num_patterns)
            actual = block_values(
                circuit, block.assignments, block.num_patterns, "numpy"
            )
            assert actual == expected

    def test_shared_kernel_across_backends(self):
        """Both backends compile from one shared kernel per circuit."""
        circuit = make_core(2)
        py = FaultSimulator(circuit)
        vec = FaultSimulator(circuit, backend="numpy")
        assert py.kernel is vec.kernel
        assert py.kernel is shared_kernel(circuit)
        assert numpy_kernel_for(py.kernel).kernel is py.kernel

    def test_single_input_variadic_gates(self):
        """Regression: 1-input AND/OR/XOR families (legal per gate_opcode and
        common in .bench netlists) must evaluate, not crash, on the numpy
        backend -- and agree with the python backend bit for bit."""
        from repro.netlist.circuit import Circuit
        from repro.netlist.gates import GateType

        circuit = Circuit("single_input")
        for name in ("a", "b"):
            circuit.add_input(name)
        circuit.add_gate("and1", GateType.AND, ["a"])
        circuit.add_gate("or1", GateType.OR, ["b"])
        circuit.add_gate("xor1", GateType.XOR, ["and1"])
        circuit.add_gate("nand1", GateType.NAND, ["or1"])
        circuit.add_gate("nor1", GateType.NOR, ["xor1"])
        circuit.add_gate("xnor1", GateType.XNOR, ["nand1"])
        circuit.add_gate("out", GateType.AND, ["nor1", "xnor1"])
        circuit.add_output("out")
        stimulus = {"a": 0b1010, "b": 0b0110}
        expected = block_values(circuit, stimulus, 4)
        actual = block_values(circuit, stimulus, 4, "numpy")
        assert actual == expected
        fl_py = collapse_stuck_at(circuit).to_fault_list()
        fl_np = collapse_stuck_at(circuit).to_fault_list()
        patterns = random_patterns(circuit, 16, 1)
        simulate_patterns(FaultSimulator(circuit), fl_py, patterns)
        simulate_patterns(FaultSimulator(circuit, backend="numpy"), fl_np, patterns)
        assert_fault_lists_identical(fl_py, fl_np)

    def test_strict_stimulus_mode(self):
        circuit = make_core(3)
        stimulus = {net: 1 for net in circuit.stimulus_nets()}
        complete = block_values(circuit, stimulus, 1, "numpy", strict=True)
        assert all(complete[net] == 1 for net in circuit.stimulus_nets())
        broken = dict(stimulus)
        first = next(iter(broken))
        broken[first + "_typo"] = broken.pop(first)
        with pytest.raises(StrictStimulusError):
            block_values(circuit, broken, 1, "numpy", strict=True)


class TestFaultSimEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_detections_bit_identical(self, seed, block_size):
        circuit = make_core(seed, domains=1 + seed % 3)
        patterns = random_patterns(circuit, 96, seed + 31)

        fl_py = collapse_stuck_at(circuit).to_fault_list()
        result_py = simulate_patterns(
            FaultSimulator(circuit), fl_py, patterns, block_size=block_size
        )
        fl_np = collapse_stuck_at(circuit).to_fault_list()
        result_np = simulate_patterns(
            FaultSimulator(circuit, backend="numpy"), fl_np, patterns, block_size=block_size
        )

        assert result_np.patterns_simulated == result_py.patterns_simulated
        assert result_np.coverage_curve == result_py.coverage_curve
        assert result_np.detections_per_pattern == result_py.detections_per_pattern
        assert_fault_lists_identical(fl_py, fl_np)

    def test_no_dropping_and_pattern_offset(self):
        circuit = make_core(5)
        patterns = random_patterns(circuit, 96, 17)
        blocks = list(
            iter_blocks(patterns, block_size=32, nets=circuit.stimulus_nets())
        )
        fl_py = collapse_stuck_at(circuit).to_fault_list()
        result_py = FaultSimulator(circuit).simulate_blocks(
            fl_py, blocks, drop_detected=False, pattern_offset=500
        )
        fl_np = collapse_stuck_at(circuit).to_fault_list()
        result_np = FaultSimulator(circuit, backend="numpy").simulate_blocks(
            fl_np, blocks, drop_detected=False, pattern_offset=500
        )
        assert result_np.coverage_curve == result_py.coverage_curve
        assert result_np.detections_per_pattern == result_py.detections_per_pattern
        assert_fault_lists_identical(fl_py, fl_np)

    def test_first_detections_shard_primitive(self):
        circuit = make_core(7)
        patterns = random_patterns(circuit, 128, 9)
        blocks = list(
            iter_blocks(patterns, block_size=64, nets=circuit.stimulus_nets())
        )
        offset_blocks = [(1000 + i * 64, block) for i, block in enumerate(blocks)]
        faults = tuple(collapse_stuck_at(circuit).representatives)
        expected = FaultSimulator(circuit).first_detections(faults, offset_blocks)
        actual = FaultSimulator(circuit, backend="numpy").first_detections(
            faults, offset_blocks
        )
        assert actual == expected

    def test_gate_eval_accounting_matches(self):
        """Throughput bookkeeping is backend-invariant, not just results."""
        circuit = make_core(4)
        patterns = random_patterns(circuit, 64, 3)
        blocks = list(
            iter_blocks(patterns, block_size=64, nets=circuit.stimulus_nets())
        )
        py = FaultSimulator(circuit)
        vec = FaultSimulator(circuit, backend="numpy")
        py.simulate_blocks(collapse_stuck_at(circuit).to_fault_list(), blocks)
        vec.simulate_blocks(collapse_stuck_at(circuit).to_fault_list(), blocks)
        assert py.gate_evals == vec.gate_evals > 0

    def test_observation_points_invalidate_scan(self):
        """Adding an observation net recompiles the vectorised scan."""
        circuit = make_core(6)
        patterns = random_patterns(circuit, 48, 5)
        candidates = [
            gate.name
            for gate in circuit.combinational_gates()
            if gate.name not in set(circuit.observation_nets())
        ]
        py = FaultSimulator(circuit)
        vec = FaultSimulator(circuit, backend="numpy")
        fl_py = collapse_stuck_at(circuit).to_fault_list()
        fl_np = collapse_stuck_at(circuit).to_fault_list()
        simulate_patterns(py, fl_py, patterns)
        simulate_patterns(vec, fl_np, patterns)
        assert_fault_lists_identical(fl_py, fl_np)
        py.add_observation_net(candidates[0])
        vec.add_observation_net(candidates[0])
        fl_py2 = collapse_stuck_at(circuit).to_fault_list()
        fl_np2 = collapse_stuck_at(circuit).to_fault_list()
        simulate_patterns(py, fl_py2, patterns)
        simulate_patterns(vec, fl_np2, patterns)
        assert_fault_lists_identical(fl_py2, fl_np2)


class TestWidthLruWorkspaces:
    """Per-width workspace/table caches keep only the two most-recent widths.

    The pre-LRU caches retained a full bit-plane table per block width
    forever, so a session mixing widths {64, 256, 4096} held three full
    tables simultaneously.  Thrashing widths through the bounded cache must
    evict (peak memory stays two widths deep) while never changing a result
    bit -- eviction only ever costs a reallocation.
    """

    def test_thrashed_widths_stay_bit_identical(self):
        circuit = make_core(11)
        # 520 patterns yields block widths {1, 4, 9} words across the block
        # sizes below (full blocks plus partial tails), enough to overflow
        # a two-entry cache.
        patterns = random_patterns(circuit, 520, 41)
        fl_py = collapse_stuck_at(circuit).to_fault_list()
        simulate_patterns(FaultSimulator(circuit), fl_py, patterns, block_size=64)
        vec = FaultSimulator(circuit, backend="numpy")
        scan = None
        for block_size in (64, 256, 1024, 64, 256):
            fl_np = collapse_stuck_at(circuit).to_fault_list()
            simulate_patterns(vec, fl_np, patterns, block_size=block_size)
            # Detection statuses and first-detection indices are
            # block-size-invariant, so one python run oracles every width.
            assert_fault_lists_identical(fl_py, fl_np)
            scan = vec._np_scan[1]
            assert len(scan._workspaces) <= 2
        # Drive three widths through the workspace cache directly (pruning
        # legitimately clears it mid-campaign, so the simulate loop above
        # can finish without ever holding three): the third must evict.
        before = scan._workspaces.stats.evictions
        for num_words in (1, 2, 3):
            scan.workspace(num_words)
        assert len(scan._workspaces) == 2
        assert scan._workspaces.stats.evictions > before

    def test_eval_buffers_bounded(self):
        circuit = make_core(12)
        nk = numpy_kernel_for(shared_kernel(circuit))
        patterns = random_patterns(circuit, 600, 43)
        nets = circuit.stimulus_nets()
        for block_size in (64, 256, 1024, 64):
            for block in iter_blocks(patterns, block_size=block_size, nets=nets):
                expected = block_values(circuit, block.assignments, block.num_patterns)
                actual = block_values(
                    circuit, block.assignments, block.num_patterns, "numpy"
                )
                assert actual == expected
            assert len(nk._eval_buffers) <= 2
        assert nk._eval_buffers.stats.evictions > 0


class TestMemoryBudgetTiling:
    """Memory-budgeted tiled scans stay bit-identical at every tile count.

    ``memory_budget_mb`` caps the vectorised scan's per-width slot table plus
    workspace: the live fault set is tiled into groups whose union-cone slot
    demand fits the budget and one recycled arena serves every tile in turn.
    Tiling may only change *when* slot rows are computed, never a result
    bit -- against the python oracle AND the unbounded numpy scan -- and the
    measured workspace of a feasible budget must actually fit under it.
    """

    @staticmethod
    def _mb(nbytes: float) -> float:
        return nbytes / (1024.0 * 1024.0)

    def _no_drop_reference(self, circuit, patterns, block_size=64):
        blocks = list(
            iter_blocks(patterns, block_size=block_size, nets=circuit.stimulus_nets())
        )
        fl = collapse_stuck_at(circuit).to_fault_list()
        result = FaultSimulator(circuit).simulate_blocks(
            fl, blocks, drop_detected=False
        )
        return fl, result, blocks

    def _scan_demand(self, circuit, blocks, fl_py, result_py):
        """(full, floor) workspace bytes of the unbounded and the maximally
        tiled scan, measured on no-drop runs (dropping would prune and
        re-tile, shrinking the demand being measured)."""
        unbounded = FaultSimulator(circuit, backend="numpy")
        fl_un = collapse_stuck_at(circuit).to_fault_list()
        result_un = unbounded.simulate_blocks(fl_un, blocks, drop_detected=False)
        assert result_un.coverage_curve == result_py.coverage_curve
        assert_fault_lists_identical(fl_py, fl_un)
        scan_un = unbounded._np_scan[1]
        assert scan_un.num_tiles == 1
        full = scan_un.workspace_nbytes(1)

        # An absurd budget (8 bytes) degenerates to one tile per fault and
        # sets ``budget_clamped`` -- graceful, never an error -- and its
        # workspace is the feasibility floor of any tiling.
        clamped = FaultSimulator(
            circuit, backend="numpy", memory_budget_mb=self._mb(8)
        )
        fl_cl = collapse_stuck_at(circuit).to_fault_list()
        result_cl = clamped.simulate_blocks(fl_cl, blocks, drop_detected=False)
        assert result_cl.coverage_curve == result_py.coverage_curve
        assert result_cl.detections_per_pattern == result_py.detections_per_pattern
        assert_fault_lists_identical(fl_py, fl_cl)
        scan_cl = clamped._np_scan[1]
        assert scan_cl.budget_clamped
        assert scan_cl.num_tiles > 2
        floor = scan_cl.workspace_nbytes(1)
        assert floor < full
        return full, floor

    def test_budget_ladder_forces_tiles_and_stays_identical(self):
        circuit = make_core(21)
        # 128 = two exact 64-pattern blocks: a single 1-word width, so the
        # per-width workspace is the whole scan footprint being bounded.
        patterns = random_patterns(circuit, 128, 77)
        fl_py, result_py, blocks = self._no_drop_reference(circuit, patterns)
        full, floor = self._scan_demand(circuit, blocks, fl_py, result_py)

        tile_counts = []
        for frac in (0.5, 0.25, 0.1):
            budget_bytes = floor + (full - floor) * frac
            vec = FaultSimulator(
                circuit, backend="numpy", memory_budget_mb=self._mb(budget_bytes)
            )
            fl_np = collapse_stuck_at(circuit).to_fault_list()
            result_np = vec.simulate_blocks(fl_np, blocks, drop_detected=False)
            assert result_np.patterns_simulated == result_py.patterns_simulated
            assert result_np.coverage_curve == result_py.coverage_curve
            assert result_np.detections_per_pattern == result_py.detections_per_pattern
            assert_fault_lists_identical(fl_py, fl_np)
            scan = vec._np_scan[1]
            # Any budget at or above the floor is feasible: never clamped,
            # and the measured workspace really fits under it.
            assert not scan.budget_clamped
            assert scan.workspace_nbytes(1) <= scan.memory_budget_bytes
            assert scan.num_tiles > 1
            tile_counts.append(scan.num_tiles)
        # Tighter budgets can only need more tiles.
        assert tile_counts == sorted(tile_counts)
        assert tile_counts[-1] >= 3

    def test_budgeted_scan_with_dropping_and_prunes(self):
        """Fault dropping prunes and re-tiles mid-run (and across widths);
        a budget must survive both without costing a bit."""
        circuit = make_core(22)
        patterns = random_patterns(circuit, 256, 78)
        _, _, blocks = self._no_drop_reference(circuit, patterns)
        fl_probe = collapse_stuck_at(circuit).to_fault_list()
        probe_result = FaultSimulator(circuit).simulate_blocks(
            fl_probe, blocks, drop_detected=False
        )
        full, floor = self._scan_demand(circuit, blocks, fl_probe, probe_result)
        budget_mb = self._mb(floor + (full - floor) * 0.3)

        fl_py = collapse_stuck_at(circuit).to_fault_list()
        simulate_patterns(FaultSimulator(circuit), fl_py, patterns, block_size=64)
        vec = FaultSimulator(circuit, backend="numpy", memory_budget_mb=budget_mb)
        for block_size in (64, 256, 17):
            fl_np = collapse_stuck_at(circuit).to_fault_list()
            simulate_patterns(vec, fl_np, patterns, block_size=block_size)
            # Statuses and first detections are block-size-invariant, so the
            # one python run oracles every width.
            assert_fault_lists_identical(fl_py, fl_np)
            scan = vec._np_scan[1]
            if not scan.budget_clamped:
                width = max(1, (min(block_size, 256) + 63) // 64)
                assert scan.workspace_nbytes(width) <= scan.memory_budget_bytes

    def test_transition_budget_multi_width_reuse(self):
        """Transition pair scans under a budget, driven through several block
        widths on one engine (per-width workspaces recycle through the width
        LRU): bit-identical to the python oracle at every width."""
        circuit = make_core(23)
        launch = random_patterns(circuit, 96, 79)
        fl_py = FaultList.transition(circuit)
        result_py = simulate_with_derived_capture(
            TransitionFaultSimulator(circuit), fl_py, launch, block_size=64
        )
        vec = TransitionFaultSimulator(
            circuit, backend="numpy", memory_budget_mb=0.02
        )
        assert vec.stuck_engine.memory_budget_mb == 0.02
        for block_size in (64, 17, 256):
            fl_np = FaultList.transition(circuit)
            result_np = simulate_with_derived_capture(
                vec, fl_np, launch, block_size=block_size
            )
            assert_fault_lists_identical(fl_py, fl_np)
            if block_size == 64:
                assert result_np.coverage_curve == result_py.coverage_curve

    def test_invalid_budget_rejected(self):
        circuit = make_core(1)
        with pytest.raises(ValueError, match="sim_memory_budget_mb"):
            FaultSimulator(circuit, backend="numpy", memory_budget_mb=0)
        with pytest.raises(ValueError, match="sim_memory_budget_mb"):
            FaultSimulator(circuit, memory_budget_mb=-4)


class TestScanCompile:
    """The array-assembled scan compile: prune by re-assembly, and the
    vectorised budgeted tiler against a reference greedy."""

    @staticmethod
    def _scan(circuit, faults, budget_kb=None):
        engine = FaultSimulator(
            circuit,
            backend="numpy",
            memory_budget_mb=None if budget_kb is None else budget_kb / 1024.0,
        )
        return engine, engine._numpy_scan(engine.table.ids_of(faults))

    @pytest.mark.parametrize("budget_kb", (None, 16))
    @pytest.mark.parametrize("width", (64, 1024))
    def test_pruned_kernel_matches_fresh_compile(self, width, budget_kb):
        from repro.simulation.numpy_backend import plane_to_word

        circuit = make_core(31)
        faults = collapse_stuck_at(circuit).representatives
        block = next(
            iter_blocks(
                random_patterns(circuit, width, 91),
                block_size=width,
                nets=circuit.stimulus_nets(),
            )
        )
        engine, state = self._scan(circuit, faults, budget_kb)
        engine._np_block_pass(state, block, list(range(len(faults))))
        survivors = list(range(0, len(faults), 3))
        state.maybe_prune(survivors)
        assert state._live_count == len(survivors)
        rows, _ = engine._np_block_pass(state, block, survivors)
        pruned = {p: plane_to_word(row) for p, row in rows.items()}

        fresh_engine, fresh_state = self._scan(
            circuit, [faults[p] for p in survivors], budget_kb
        )
        rows, _ = fresh_engine._np_block_pass(
            fresh_state, block, list(range(len(survivors)))
        )
        fresh = {survivors[i]: plane_to_word(row) for i, row in rows.items()}
        assert pruned and pruned == fresh

    def test_unbudgeted_prune_never_calls_the_tiler(self, monkeypatch):
        from repro.simulation.numpy_backend import FaultScanKernel

        calls = {"tile_cuts": 0, "_assemble_tile": 0}

        def counting(name):
            original = getattr(FaultScanKernel, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)

            monkeypatch.setattr(FaultScanKernel, name, wrapper)

        counting("tile_cuts")
        counting("_assemble_tile")
        circuit = make_core(32)
        patterns = random_patterns(circuit, 640, 92)
        fl_py = collapse_stuck_at(circuit).to_fault_list()
        simulate_patterns(FaultSimulator(circuit), fl_py, patterns, block_size=64)
        fl_np = collapse_stuck_at(circuit).to_fault_list()
        engine = FaultSimulator(circuit, backend="numpy")
        simulate_patterns(engine, fl_np, patterns, block_size=64)
        assert_fault_lists_identical(fl_py, fl_np)
        scan = engine._np_scan[1]
        # Dropping pruned the live set; the prune re-assembled the one tile
        # without running the tiler.
        assert scan._live_count < scan.num_faults // 4
        assert calls["tile_cuts"] == 0 and calls["_assemble_tile"] >= 2

    @staticmethod
    def _reference_cuts(scan, num_words):
        """The greedy split, fault by fault: join unless the tile's running
        demand, joined with the closed tiles' maxima, exceeds the budget."""
        live = scan._live_positions
        rows, segs = scan._demand(live)
        keyed = [{} for _ in live]
        for row, key, count in zip(
            rows.tolist(), scan._store.seg_keys[segs].tolist(),
            scan._store.counts[segs].tolist(),
        ):
            keyed[row][key] = count
        closed, tile, cuts = (0, 0, 0, 1), None, [0]
        for i, position in enumerate(live.tolist()):
            slots, obs = scan.fault_slots[position], scan.fault_obs[position]
            if tile is not None:
                joined = [tile[4].get(k, 0) + n for k, n in keyed[i].items()]
                batch = max([tile[3], *joined])
                grown = (tile[0] + slots, tile[1] + 1, tile[2] + obs, batch)
                charge = scan._workspace_rows(*map(max, closed, grown))
                if charge * num_words * 8 > scan.memory_budget_bytes:
                    closed = tuple(map(max, closed, tile[:4]))
                    cuts.append(i)
                    tile = None
            tile = tile or [0, 0, 0, 0, {}]
            for key, count in keyed[i].items():
                tile[4][key] = tile[4].get(key, 0) + count
            tile[:4] = [tile[0] + slots, tile[1] + 1, tile[2] + obs,
                        max([tile[3], *tile[4].values()])]
        return cuts + [len(live)] if len(live) else cuts

    @pytest.mark.parametrize("num_words", (1, 16))
    def test_tile_cuts_match_reference_greedy(self, num_words):
        circuit = make_core(33)
        faults = collapse_stuck_at(circuit).representatives
        _, state = self._scan(circuit, faults)
        full = state.workspace_nbytes(num_words)
        counts = []
        for fraction in (2.0, 0.6, 0.3, 0.15, 0.05, 0.0):
            budget = max(1, int(full * fraction))
            _, state = self._scan(circuit, faults, budget / 1024.0)
            scan = state
            for live in (None, list(range(1, len(faults), 3))):
                if live is not None:
                    scan.maybe_prune(live)
                cuts = scan.tile_cuts(num_words)
                assert cuts == self._reference_cuts(scan, num_words)
                scan.workspace(num_words)
                assert [len(t.positions) for t in scan._tiles] == [
                    hi - lo for lo, hi in zip(cuts, cuts[1:])
                ]
            counts.append(len(cuts) - 1)
        # The ladder spans one tile, several, and the clamped one-per-fault.
        assert counts[0] == 1 and counts[-1] == scan._live_count
        assert counts == sorted(counts) and len(set(counts)) > 3

    def test_tiler_memory_is_linear_in_fault_key_pairs(self):
        # A dense (faults x batch keys) demand matrix would cost ~200 bytes
        # per (fault, key) pair here; the tiler's temporaries are a fixed
        # number of arrays over the pairs, whatever the number of keys.
        import tracemalloc

        from repro.cores import core_y_recipe

        circuit = core_y_recipe(scale=1, seed=1).build().circuit
        faults = collapse_stuck_at(circuit).representatives
        _, state = self._scan(circuit, faults)
        full = state.workspace_nbytes(1)
        for fraction in (2.0, 0.25):
            _, state = self._scan(circuit, faults, full * fraction / 1024.0)
            scan = state
            pairs = len(scan._demand(scan._live_positions)[0])
            tracemalloc.start()
            try:
                cuts = scan.tile_cuts(1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (len(cuts) == 2) == (fraction > 1)
            assert peak <= 128 * pairs


class TestTransitionEquivalence:
    @pytest.mark.parametrize("block_size", (17, 64, 256))
    def test_derived_capture_pairs_bit_identical(self, block_size):
        circuit = make_core(8)
        launch = random_patterns(circuit, 96, 21)
        fl_py = FaultList.transition(circuit)
        result_py = simulate_with_derived_capture(
            TransitionFaultSimulator(circuit), fl_py, launch, block_size=block_size
        )
        fl_np = FaultList.transition(circuit)
        result_np = simulate_with_derived_capture(
            TransitionFaultSimulator(circuit, backend="numpy"),
            fl_np, launch, block_size=block_size,
        )
        assert result_np.coverage_curve == result_py.coverage_curve
        assert_fault_lists_identical(fl_py, fl_np)

    def test_pair_first_detections(self):
        circuit = make_core(9)
        launch = random_patterns(circuit, 96, 33)
        capture = derive_capture_patterns(circuit, launch)
        nets = circuit.stimulus_nets()
        launch_blocks = list(iter_blocks(launch, block_size=32, nets=nets))
        capture_blocks = list(iter_blocks(capture, block_size=32, nets=nets))
        pair_blocks = [
            (i * 32, lb, cb)
            for i, (lb, cb) in enumerate(zip(launch_blocks, capture_blocks))
        ]
        faults = list(FaultList.transition(circuit).undetected())
        expected = TransitionFaultSimulator(circuit).first_detections(
            faults, pair_blocks
        )
        actual = TransitionFaultSimulator(circuit, backend="numpy").first_detections(
            faults, pair_blocks
        )
        assert actual == expected


class TestFuzzedEquivalence:
    """Randomized generator configurations, mirroring the kernel-equivalence
    fuzz family: fresh structure per seed (domain count, widths, depths,
    X sources), so the backends are compared on netlists neither was tuned
    for."""

    def fuzz_core(self, seed: int):
        rng = random.Random(4000 + seed)
        domains = tuple(f"clk{i + 1}" for i in range(rng.randint(1, 3)))
        config = SyntheticCoreConfig(
            name=f"np_fuzz_core_{seed}",
            clock_domains=domains,
            num_inputs=rng.randint(6, 14),
            num_outputs=rng.randint(3, 8),
            register_width=rng.randint(4, 8),
            pipeline_stages=rng.randint(1, 2),
            adder_slices=rng.randint(1, 2),
            adder_width=rng.randint(3, 6),
            comparator_widths=tuple(
                rng.randint(4, 8) for _ in range(rng.randint(1, 2))
            ),
            decode_cone_width=rng.randint(2, 7),
            cross_domain_links=rng.randint(0, 2) if len(domains) > 1 else 0,
            x_sources=rng.randint(0, 1),
            seed=seed,
        )
        return generate_synthetic_core(config).circuit

    @pytest.mark.parametrize("seed", range(5))
    def test_fuzzed_fault_sim_bit_identical(self, seed):
        circuit = self.fuzz_core(seed)
        rng = random.Random(5000 + seed)
        block_size = rng.choice(BLOCK_SIZES)
        patterns = random_patterns(circuit, rng.randint(40, 120), 6000 + seed)
        fl_py = collapse_stuck_at(circuit).to_fault_list()
        result_py = simulate_patterns(
            FaultSimulator(circuit), fl_py, patterns, block_size=block_size
        )
        fl_np = collapse_stuck_at(circuit).to_fault_list()
        result_np = simulate_patterns(
            FaultSimulator(circuit, backend="numpy"), fl_np, patterns, block_size=block_size
        )
        assert result_np.coverage_curve == result_py.coverage_curve
        assert result_np.detections_per_pattern == result_py.detections_per_pattern
        assert_fault_lists_identical(fl_py, fl_np)


def test_have_numpy_is_true_when_suite_runs():
    """These tests only run when the auto-skip hook saw NumPy installed."""
    assert HAVE_NUMPY
