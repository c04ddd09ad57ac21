"""The per-process compiled-kernel cache and the service-tier prep cache.

Both key on circuit content (:attr:`repro.netlist.Circuit.digest`), so an
equal circuit built anew, unpickled or resubmitted shares a compiled kernel
or a prepared scenario.  What this module pins down:

* a kernel served for one circuit object is never read through another
  one that has since been edited in place (TPI adds observation flops to
  the circuit it profiled);
* the kernel cache is bounded: compiled kernels no longer live as long as
  the process;
* eviction only ever costs a recompile -- a size-1 kernel cache and a
  size-1 prep cache change no report byte.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.campaign import CampaignRunner, CampaignScenario, KeyedLruCache
from repro.core import LogicBistConfig, LogicBistFlow
from repro.service.cache import ScenarioPrepCache
from repro.simulation import kernel as kernel_module
from repro.simulation.kernel import shared_kernel

from test_pipeline_equivalence import make_core


class TestKeyedLruCacheCounters:
    """The generic counted LRU underneath every kernel/prep cache."""

    def test_hits_misses_evictions_are_counted(self):
        cache = KeyedLruCache(maxsize=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("a", lambda: 2)  # hit: build not called
        cache.get_or_build("b", lambda: 3)
        cache.get_or_build("c", lambda: 4)  # evicts "a"
        stats = cache.stats.as_dict()
        assert stats == {"hits": 1, "misses": 3, "evictions": 1}
        assert cache.keys() == ["b", "c"]

    def test_hit_does_not_invoke_build(self):
        cache = KeyedLruCache(maxsize=2)
        cache.get_or_build("a", lambda: "value")

        def explode():
            raise AssertionError("build called on a hit")

        assert cache.get_or_build("a", explode) == "value"

    def test_counters_monotone_under_mixed_traffic(self):
        cache = KeyedLruCache(maxsize=2)
        previous = cache.stats.as_dict()
        for key in ["a", "b", "a", "c", "b", "c", "a", "a"]:
            cache.get_or_build(key, object)
            current = cache.stats.as_dict()
            assert all(current[name] >= previous[name] for name in current)
            previous = current
        assert previous["hits"] + previous["misses"] == 8

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            KeyedLruCache(maxsize=0)


def flow_fingerprint(result) -> tuple:
    """Everything a flow reports except timings and object identities."""
    faults = tuple(
        (str(fault), record.status.name, record.first_detection)
        for fault in result.fault_list
        for record in (result.fault_list.record(fault),)
    )
    topup = result.topup
    transition = result.transition
    return (
        sorted(result.signatures.items()),
        result.coverage_curve,
        result.fault_coverage_random,
        result.fault_coverage_final,
        result.test_point_count,
        faults,
        None
        if topup is None
        else (
            topup.attempted_faults,
            topup.successful_faults,
            topup.untestable_faults,
            topup.aborted_faults,
            topup.backtracks,
            repr(topup.patterns),
        ),
        None
        if transition is None
        else (
            transition.coverage,
            transition.detected,
            transition.coverage_curve,
            sorted(transition.first_detections.items()),
        ),
    )


class TestSharedKernelCache:
    def test_equal_circuits_share_one_kernel(self):
        first, second = make_core(61), make_core(61)
        assert first is not second and first.digest == second.digest
        kernel = shared_kernel(first)
        assert shared_kernel(second) is kernel
        assert kernel.circuit is second

    def test_mutated_circuit_misses(self):
        circuit = make_core(62)
        kernel = shared_kernel(circuit)
        circuit.add_output(circuit.primary_inputs[0])
        assert shared_kernel(circuit) is not kernel

    def test_hit_never_reads_a_circuit_edited_since(self):
        """Flow A's TPI edits the scan-inserted circuit its kernels were
        compiled on; flow B (no TPI) scan-inserts an equal circuit and gets
        that kernel from the cache.  B's ATPG adjacency and capture
        derivation read ``kernel.circuit`` lazily, so they must see B's
        circuit, not A's edited one."""
        raw = make_core(63)
        flow_a = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="fault_sim",
            observation_point_budget=4,
            tpi_profile_patterns=48,
            random_patterns=64,
            signature_patterns=8,
            measure_transition_coverage=True,
            transition_patterns=32,
        )
        flow_b = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=64,
            signature_patterns=8,
            measure_transition_coverage=True,
            transition_patterns=32,
        )
        kernel_module.KERNEL_CACHE.clear()
        result_a = LogicBistFlow(flow_a).run(raw)
        assert result_a.test_point_count > 0
        after_a = flow_fingerprint(LogicBistFlow(flow_b).run(raw))
        kernel_module.KERNEL_CACHE.clear()
        cold = flow_fingerprint(LogicBistFlow(flow_b).run(raw))
        assert after_a == cold

    def test_kernels_do_not_outlive_the_bound(self, monkeypatch):
        """Flows on fresh circuits used to pin every compiled kernel (and
        its circuit) for the life of the process."""
        live = []
        real_init = kernel_module.CompiledKernel.__init__

        def tracking_init(self, circuit):
            real_init(self, circuit)
            live.append(weakref.ref(self))

        monkeypatch.setattr(kernel_module.CompiledKernel, "__init__", tracking_init)
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=32,
            signature_patterns=4,
        )
        bound = kernel_module.KERNEL_CACHE.maxsize
        for seed in range(70, 70 + bound + 4):
            LogicBistFlow(config).run(make_core(seed, domains=1))
        gc.collect()
        assert len(live) > bound
        assert sum(ref() is not None for ref in live) <= bound
        assert len(kernel_module.KERNEL_CACHE) <= bound


class TestEvictionDoesNotChangeResults:
    def test_campaign_identical_under_thrashing_kernel_cache(self, monkeypatch):
        """maxsize=1 forces an eviction between every scenario's stages."""
        scenarios = [
            CampaignScenario(
                f"core{seed}",
                make_core(seed, domains=1),
                LogicBistConfig(
                    total_scan_chains=4,
                    tpi_method="none",
                    observation_point_budget=0,
                    random_patterns=64,
                    signature_patterns=8,
                ),
            )
            for seed in (51, 52)
        ]
        reference = CampaignRunner(num_workers=1, fault_shards=2).run(scenarios)
        cache = KeyedLruCache(maxsize=1)
        monkeypatch.setattr(kernel_module, "KERNEL_CACHE", cache)
        thrashed = CampaignRunner(num_workers=1, fault_shards=2).run(scenarios)
        assert thrashed.report_bytes() == reference.report_bytes()
        assert cache.stats.evictions > 0
        assert len(cache) <= 1

    @pytest.mark.transition
    def test_at_speed_campaign_identical_under_thrashing_kernel_cache(
        self, monkeypatch
    ):
        """The transition and skew stages go through the same kernel LRU:
        at maxsize=1 the scenarios' pre- and post-TPI kernels evict each
        other, and the report must not change a byte."""
        scenarios = [
            CampaignScenario(
                f"atspeed{seed}",
                make_core(seed),
                LogicBistConfig(
                    total_scan_chains=4,
                    tpi_method="fault_sim",
                    observation_point_budget=2,
                    tpi_profile_patterns=32,
                    random_patterns=64,
                    signature_patterns=8,
                    measure_transition_coverage=True,
                    transition_patterns=32,
                    skew_trials=20,
                ),
            )
            for seed in (53, 54)
        ]
        reference = CampaignRunner(num_workers=1, fault_shards=2).run(scenarios)
        cache = KeyedLruCache(maxsize=1)
        monkeypatch.setattr(kernel_module, "KERNEL_CACHE", cache)
        thrashed = CampaignRunner(num_workers=1, fault_shards=2).run(scenarios)
        assert thrashed.report_bytes() == reference.report_bytes()
        assert b'"transition"' in thrashed.report_bytes()  # section really ran
        assert cache.stats.evictions > 0
        assert len(cache) <= 1


class _FakeRun:
    """A finished run holding just the two preparation artifacts."""

    def __init__(self, values):
        self.values = values

    def value(self, key):
        return self.values[key]


class TestScenarioPrepCacheKeys:
    KEYS = {"core": "s/core", "tpi": "s/tpi"}

    def _harvested(self, circuit, config):
        cache = ScenarioPrepCache(maxsize=2)
        cache.harvest(
            circuit, config, _FakeRun({"s/core": "CORE", "s/tpi": "TPI"}), self.KEYS
        )
        return cache

    def test_equal_distinct_circuit_hits(self):
        config = LogicBistConfig(total_scan_chains=4)
        cache = self._harvested(make_core(64), config)
        assert cache.preloads(make_core(64), config, self.KEYS) == {
            "s/core": "CORE",
            "s/tpi": "TPI",
        }
        assert cache.stats.hits == 1

    def test_mutated_circuit_or_other_config_misses(self):
        config = LogicBistConfig(total_scan_chains=4)
        circuit = make_core(65)
        cache = self._harvested(circuit, config)
        other = dataclasses.replace(config, random_patterns=config.random_patterns + 1)
        assert cache.preloads(circuit, other, self.KEYS) == {}
        circuit.add_output(circuit.primary_inputs[0])
        assert cache.preloads(circuit, config, self.KEYS) == {}
        assert cache.stats.as_dict() == {"hits": 0, "misses": 2, "evictions": 0}


# --------------------------------------------------------------------- #
# Service-tier prepared-scenario cache (cross-request kernel reuse)
# --------------------------------------------------------------------- #
@pytest.mark.service
class TestServiceTierKernelCache:
    """The :class:`~repro.service.ScenarioPrepCache` over the kernel LRU.

    Two jobs sharing a circuit's content and config must compile nothing
    the second time, and thrashing the prep cache at maxsize 1 must change
    no report byte.
    """

    @staticmethod
    def _shared_config(**overrides):
        defaults = dict(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=48,
            signature_patterns=8,
        )
        defaults.update(overrides)
        return LogicBistConfig(**defaults)

    @staticmethod
    def _run_jobs(service_kwargs, submissions):
        """Drive one service through several sequential jobs; returns the
        service, the job records and ``status()`` after each job."""
        import asyncio

        from repro.service import CampaignService

        async def main():
            service = CampaignService(num_workers=1, **service_kwargs)
            await service.start()
            records, statuses = [], []
            for scenarios in submissions:
                job_id = await service.submit(scenarios)
                records.append(await service.wait(job_id))
                statuses.append(service.status())
            await service.stop()
            return service, records, statuses

        return asyncio.run(main())

    def test_two_jobs_sharing_a_circuit_compile_once(self, monkeypatch):
        compiles = []
        real_init = kernel_module.CompiledKernel.__init__

        def counting_init(self, circuit, *args, **kwargs):
            compiles.append(circuit.name)
            return real_init(self, circuit, *args, **kwargs)

        monkeypatch.setattr(
            kernel_module.CompiledKernel, "__init__", counting_init
        )
        core = make_core(55, domains=1)
        config = self._shared_config()
        submissions = [
            [CampaignScenario("shared", core, config)],
            # An equal circuit built anew: same digest, so the same entry.
            [CampaignScenario("shared", make_core(55, domains=1), config)],
        ]
        kernel_module.KERNEL_CACHE.clear()
        service, records, statuses = self._run_jobs({}, submissions)

        assert compiles, "the first job compiled nothing"
        assert records[0].report == records[1].report
        assert service.prep_cache.stats.hits == 1
        assert service.prep_cache.stats.misses == 1
        # The second job preloaded the prepared core, so every kernel it
        # asked for was a hit: all compiles happened during job 1.
        first, second = (status["kernel_cache"] for status in statuses)
        assert second["misses"] == first["misses"]
        assert second["hits"] > first["hits"]
        assert second["entries"] == first["entries"]

    def test_prep_cache_maxsize_one_thrashing_changes_no_byte(self):
        from repro.core.config import ServiceConfig

        core_a = make_core(56, domains=1)
        core_b = make_core(57, domains=1)
        config = self._shared_config()
        scenarios_a = [CampaignScenario("thrash", core_a, config)]
        scenarios_b = [CampaignScenario("thrash", core_b, config)]
        oracle_a = CampaignRunner(num_workers=1).run(scenarios_a).report_bytes()
        oracle_b = CampaignRunner(num_workers=1).run(scenarios_b).report_bytes()

        service, records, _ = self._run_jobs(
            {"service_config": ServiceConfig(prep_cache_size=1)},
            [scenarios_a, scenarios_b, scenarios_a, scenarios_b],
        )
        assert service.prep_cache.stats.evictions > 0
        assert len(service.prep_cache) == 1
        reports = [record.report for record in records]
        assert reports == [oracle_a, oracle_b, oracle_a, oracle_b]

    def test_cache_distinguishes_configs(self):
        core = make_core(58, domains=1)
        config_a = self._shared_config()
        config_b = self._shared_config(random_patterns=64)
        service, records, _ = self._run_jobs(
            {},
            [
                [CampaignScenario("s", core, config_a)],
                [CampaignScenario("s", core, config_b)],
            ],
        )
        # Different configs may not share prepared scenarios.
        assert service.prep_cache.stats.hits == 0
        assert service.prep_cache.stats.misses == 2
        assert records[0].report != records[1].report
