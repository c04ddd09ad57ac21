"""Service-tier cross-request cache of prepared scenarios.

The per-process kernel cache below the campaign layer (``shared_kernel``,
keyed by :attr:`Circuit.digest <repro.netlist.circuit.Circuit.digest>`)
already stops recompiles of the same circuit content.  What it cannot save
is the *preparation* itself: every job scan-inserts the submitted circuit
and TPI-profiles it afresh.

:class:`ScenarioPrepCache` closes that gap at the service tier.  It caches
the *preparation artifacts* of a scenario -- the scan-inserted
``BistReadyCore`` and the TPI-profiled
:class:`~repro.campaign.pipeline.TpiOutcome` -- keyed by the submitted
circuit's digest and a conservative config fingerprint, so an equal circuit
resubmitted as another object hits too.  A hit preloads those artifacts
into the next job's stage graph, so the prepared circuit flows into the
random/top-up/at-speed phases and ``shared_kernel`` serves its compiled
kernel **and** every memoised ``analysis_cache`` entry (stuck-at table,
collapsed and transition fault universes, site plans, ATPG adjacency)
while the kernel is still in its LRU.

Correctness story: preparation is deterministic, preloading it skips stages
that would have produced equal artifacts, and the prepared objects are not
mutated by later phases (pooled stages work on pickled copies; the stages
in the parent read, never write, the prepared core) -- so cache hits and
evictions change no report byte, which ``tests/campaign/test_kernel_cache.py``
pins down with a maxsize-1 thrashing run.
"""

from __future__ import annotations

from ..core.config import LogicBistConfig
from ..netlist.circuit import Circuit
from ..util.cache import KeyedLruCache


def config_fingerprint(config: LogicBistConfig) -> str:
    """A conservative content key for a scenario config.

    ``repr`` of the (nested) dataclasses covers every field, so any config
    difference -- even one that could not affect preparation -- misses.
    Conservative beats clever here: a false miss costs one re-preparation,
    a false hit would corrupt a report.
    """
    return repr(config)


def _key(circuit: Circuit, config: LogicBistConfig) -> tuple[str, str]:
    return (circuit.digest, config_fingerprint(config))


class ScenarioPrepCache(KeyedLruCache):
    """LRU of prepared scenarios keyed by (circuit digest, config
    fingerprint)."""

    def __init__(self, maxsize: int = 8) -> None:
        super().__init__(maxsize)

    def preloads(
        self,
        circuit: Circuit,
        config: LogicBistConfig,
        artifact_keys: dict[str, str],
    ) -> dict[str, object]:
        """Stage-graph preloads for one scenario, ``{}`` on a miss.

        Maps the scenario's ``core``/``tpi`` node keys (from
        :func:`~repro.campaign.pipeline.scenario_stage_nodes`) to the cached
        artifacts, ready to pass as the scheduler's ``preloaded`` mapping.
        """
        artifacts = self.lookup(_key(circuit, config))
        if artifacts is None:
            return {}
        return {
            artifact_keys["core"]: artifacts["core"],
            artifact_keys["tpi"]: artifacts["tpi"],
        }

    def harvest(
        self,
        circuit: Circuit,
        config: LogicBistConfig,
        run,
        artifact_keys: dict[str, str],
    ) -> None:
        """Insert a finished run's preparation artifacts for the next job.

        ``run`` is the completed
        :class:`~repro.campaign.scheduler.PipelineRun`; re-inserting after a
        cache-hit run is harmless (same objects, refreshed LRU slot).
        """
        try:
            artifacts = {
                "core": run.value(artifact_keys["core"]),
                "tpi": run.value(artifact_keys["tpi"]),
            }
        except KeyError:
            return
        self.insert(_key(circuit, config), artifacts)
