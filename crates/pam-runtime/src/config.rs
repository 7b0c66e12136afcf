//! Runtime configuration.

use pam_nf::ProfileCatalog;
use pam_sim::{DeviceConfig, LinkModel, PcieLinkConfig};
use pam_types::{ByteSize, SimDuration};
use serde::value::{Map, Value};
use serde::{Deserialize, Error, Serialize};

use crate::migration::{DivergencePolicy, MigrationConfig, MigrationMode};

/// Doorbell batching knobs of the [`crate::ChainRuntime`] datapath.
///
/// Each chain hop stages arriving packets into an open batch and rings the
/// device's doorbell — one batch service event, one coalesced PCIe DMA burst
/// towards the next hop — when either bound is hit:
///
/// * **size**: the batch reaches [`BatchConfig::max_batch`] packets, or
/// * **timeout**: [`BatchConfig::max_wait`] elapses after the first packet of
///   the batch arrived (so a lone packet is never held hostage).
///
/// `max_batch = 1` (the default) disables staging entirely: every packet is
/// serviced the instant it arrives and crosses PCIe alone, reproducing the
/// unbatched datapath event-for-event — the committed `BENCH_baseline.json`
/// is pinned to this setting. `max_batch > 1` trades a bounded added wait
/// (≤ `max_wait` per hop) for `1/batch` of the per-packet DMA setups (see
/// [`pam_sim::PcieLink::propagate_burst`]) and amortised vNF work (see
/// [`pam_nf::NetworkFunction::process_batch`]), which is also what makes the
/// simulator itself measurably faster on heavy small-packet workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum packets per batch; the doorbell rings when a hop's open batch
    /// reaches this size. `1` disables batching (and is the baseline mode).
    pub max_batch: usize,
    /// Maximum time the first packet of a batch may wait before the doorbell
    /// rings regardless of batch size (the latency bound of batching).
    pub max_wait: SimDuration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::unbatched()
    }
}

impl BatchConfig {
    /// The unbatched datapath: one packet per service event, one DMA per
    /// packet. This is the configuration every baseline number is pinned to.
    pub const fn unbatched() -> Self {
        BatchConfig {
            max_batch: 1,
            max_wait: SimDuration::ZERO,
        }
    }

    /// A batched datapath closing at `max_batch` packets or after the
    /// default 5 µs doorbell timeout, whichever comes first.
    pub fn of(max_batch: usize) -> Self {
        BatchConfig {
            max_batch: max_batch.max(1),
            max_wait: SimDuration::from_micros(5),
        }
    }

    /// Overrides the doorbell timeout.
    pub const fn with_max_wait(mut self, max_wait: SimDuration) -> Self {
        self.max_wait = max_wait;
        self
    }

    /// True when staging is enabled (`max_batch > 1`).
    pub fn is_batched(&self) -> bool {
        self.max_batch > 1
    }
}

/// Configuration of a [`crate::ChainRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Capacity/latency profiles of the vNF kinds in use.
    pub catalog: ProfileCatalog,
    /// SmartNIC device model.
    pub nic: DeviceConfig,
    /// CPU device model.
    pub cpu: DeviceConfig,
    /// PCIe link model.
    pub pcie: PcieLinkConfig,
    /// How often the runtime publishes a metrics snapshot to the registry.
    pub metrics_interval: SimDuration,
    /// Fixed control-plane overhead added to every live migration on top of
    /// the state-transfer time (ring reconfiguration, rule updates).
    pub migration_control_overhead: SimDuration,
    /// Maximum amount of traffic-time a migrating vNF may hold packets back;
    /// packets that would wait longer than this during the blackout are
    /// dropped (models a bounded staging buffer).
    pub migration_buffer_bound: SimDuration,
    /// Per-flow serialisation overhead charged when exporting vNF state
    /// (models OpenNF's per-entry marshalling cost).
    pub state_overhead_per_flow: ByteSize,
    /// Live-migration engine knobs: transfer mode, pre-copy round cap and
    /// convergence bound.
    pub migration: MigrationConfig,
    /// Datapath doorbell-batching knobs (defaults to unbatched).
    pub batch: BatchConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            catalog: ProfileCatalog::figure1_scenario(),
            nic: DeviceConfig::smartnic(),
            cpu: DeviceConfig::cpu(),
            pcie: PcieLinkConfig::default(),
            metrics_interval: SimDuration::from_millis(1),
            migration_control_overhead: SimDuration::from_micros(150),
            migration_buffer_bound: SimDuration::from_millis(2),
            state_overhead_per_flow: ByteSize::bytes(64),
            migration: MigrationConfig::default(),
            batch: BatchConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// The configuration used by the paper-reproduction experiments.
    pub fn evaluation_default() -> Self {
        Self::default()
    }

    /// Overrides the capacity catalogue.
    pub fn with_catalog(mut self, catalog: ProfileCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Overrides the PCIe link model (used by the PCIe-latency ablation).
    pub fn with_pcie(mut self, pcie: PcieLinkConfig) -> Self {
        self.pcie = pcie;
        self
    }

    /// Overrides the live-migration engine configuration.
    pub fn with_migration(mut self, migration: MigrationConfig) -> Self {
        self.migration = migration;
        self
    }

    /// Selects the live-migration transfer mode, keeping the other engine
    /// knobs at their current values.
    pub fn with_migration_mode(mut self, mode: MigrationMode) -> Self {
        self.migration.mode = mode;
        self
    }

    /// Overrides the datapath batching knobs.
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Selects a doorbell batch size with the default timeout, keeping every
    /// other knob at its current value (`1` restores the unbatched baseline).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.batch = if max_batch <= 1 {
            BatchConfig::unbatched()
        } else {
            BatchConfig::of(max_batch)
        };
        self
    }

    /// Applies an experiment tuning bundle: every `Some` dimension
    /// overrides the corresponding knob, every `None` keeps the baseline.
    /// The single builder path for experiment dimensions — new dimensions
    /// extend [`RuntimeTuning`] instead of adding parallel `with_*` setters.
    pub fn tuned(mut self, tuning: &RuntimeTuning) -> Self {
        if let Some(link_model) = tuning.link_model {
            self.pcie = self.pcie.with_link_model(link_model);
        }
        if let Some(mode) = tuning.migration_mode {
            self.migration.mode = mode;
        }
        if let Some(policy) = tuning.divergence {
            self.migration.on_divergence = policy;
        }
        if let Some(max_batch) = tuning.max_batch {
            self = self.with_max_batch(max_batch);
        }
        self
    }
}

/// The experiment dimensions of a [`RuntimeConfig`], bundled.
///
/// Every field is optional: `None` keeps the committed-baseline knob, `Some`
/// overrides it — so a tuning serialises to exactly the dimensions it moves
/// and an empty object is the baseline. Ablations build one `RuntimeTuning`
/// and apply it with [`RuntimeConfig::tuned`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RuntimeTuning {
    /// PCIe link throughput model (`None` = FIFO-fixed baseline).
    pub link_model: Option<LinkModel>,
    /// Live-migration transfer mode (`None` = stop-and-copy baseline).
    pub migration_mode: Option<MigrationMode>,
    /// Pre-copy divergence policy (`None` = force-freeze baseline).
    pub divergence: Option<DivergencePolicy>,
    /// Doorbell batch size (`None` = unbatched baseline).
    pub max_batch: Option<usize>,
}

impl RuntimeTuning {
    /// Overrides the PCIe link throughput model.
    pub fn with_link_model(mut self, link_model: LinkModel) -> Self {
        self.link_model = Some(link_model);
        self
    }

    /// Overrides the live-migration transfer mode.
    pub fn with_migration_mode(mut self, mode: MigrationMode) -> Self {
        self.migration_mode = Some(mode);
        self
    }

    /// Overrides the pre-copy divergence policy.
    pub fn with_divergence(mut self, policy: DivergencePolicy) -> Self {
        self.divergence = Some(policy);
        self
    }

    /// Overrides the doorbell batch size.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = Some(max_batch);
        self
    }
}

// Hand-serialised: only the overridden dimensions appear as keys, and every
// missing key deserialises to `None` (the baseline), so tunings written
// before a dimension existed keep parsing (the vendored serde derive has no
// `#[serde(default)]` and no `Option` support).
impl Serialize for RuntimeTuning {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        if let Some(link_model) = &self.link_model {
            map.insert("link_model".to_owned(), link_model.to_value());
        }
        if let Some(mode) = &self.migration_mode {
            map.insert("migration_mode".to_owned(), mode.to_value());
        }
        if let Some(policy) = &self.divergence {
            map.insert("divergence".to_owned(), policy.to_value());
        }
        if let Some(max_batch) = &self.max_batch {
            map.insert("max_batch".to_owned(), max_batch.to_value());
        }
        Value::Object(map)
    }
}

impl Deserialize for RuntimeTuning {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let map = match value {
            Value::Object(map) => map,
            _ => return Err(Error::custom("RuntimeTuning must be an object")),
        };
        Ok(RuntimeTuning {
            link_model: match map.get("link_model") {
                Some(value) => Some(LinkModel::from_value(value)?),
                None => None,
            },
            migration_mode: match map.get("migration_mode") {
                Some(value) => Some(MigrationMode::from_value(value)?),
                None => None,
            },
            divergence: match map.get("divergence") {
                Some(value) => Some(DivergencePolicy::from_value(value)?),
                None => None,
            },
            max_batch: match map.get("max_batch") {
                Some(value) => Some(usize::from_value(value)?),
                None => None,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pam_types::SimDuration;

    #[test]
    fn defaults_are_sane() {
        let config = RuntimeConfig::default();
        assert_eq!(config.nic.device, pam_types::Device::SmartNic);
        assert_eq!(config.cpu.device, pam_types::Device::Cpu);
        assert!(config.metrics_interval > SimDuration::ZERO);
        assert!(config.migration_buffer_bound > config.migration_control_overhead);
        assert!(config.catalog.get(pam_nf::NfKind::Monitor).is_some());
    }

    #[test]
    fn builders_override_fields() {
        let pcie = PcieLinkConfig::with_crossing_latency(SimDuration::from_micros(5));
        let config = RuntimeConfig::evaluation_default()
            .with_pcie(pcie)
            .with_catalog(ProfileCatalog::table1());
        assert_eq!(config.pcie.crossing_latency, SimDuration::from_micros(5));
        assert_eq!(
            config
                .catalog
                .require(pam_nf::NfKind::Logger)
                .unwrap()
                .load_factor,
            1.0
        );
    }

    #[test]
    fn batch_builders_and_defaults() {
        let config = RuntimeConfig::default();
        assert_eq!(config.batch, BatchConfig::unbatched());
        assert!(!config.batch.is_batched());
        assert_eq!(config.batch.max_batch, 1);

        let batched = RuntimeConfig::default().with_max_batch(8);
        assert!(batched.batch.is_batched());
        assert_eq!(batched.batch.max_batch, 8);
        assert_eq!(batched.batch.max_wait, SimDuration::from_micros(5));

        // Degenerate sizes collapse to the unbatched baseline.
        assert_eq!(
            RuntimeConfig::default().with_max_batch(0).batch,
            BatchConfig::unbatched()
        );
        assert_eq!(BatchConfig::of(0).max_batch, 1);

        let tuned = BatchConfig::of(16).with_max_wait(SimDuration::from_micros(50));
        assert_eq!(tuned.max_wait, SimDuration::from_micros(50));
        let config = RuntimeConfig::default().with_batch(tuned);
        assert_eq!(config.batch, tuned);
    }

    #[test]
    fn tuning_bundle_overrides_only_some_dimensions() {
        let tuning = RuntimeTuning::default()
            .with_link_model(LinkModel::fair_share())
            .with_migration_mode(MigrationMode::PreCopy)
            .with_divergence(DivergencePolicy::Abort)
            .with_max_batch(8);
        let config = RuntimeConfig::evaluation_default().tuned(&tuning);
        assert_eq!(config.pcie.link_model, LinkModel::fair_share());
        assert_eq!(config.migration.mode, MigrationMode::PreCopy);
        assert_eq!(config.migration.on_divergence, DivergencePolicy::Abort);
        assert_eq!(config.batch.max_batch, 8);

        // An empty tuning is the identity: every knob keeps its baseline.
        let baseline = RuntimeConfig::evaluation_default().tuned(&RuntimeTuning::default());
        assert_eq!(baseline.pcie, RuntimeConfig::evaluation_default().pcie);
        assert_eq!(baseline.batch, BatchConfig::unbatched());
        assert_eq!(baseline.migration.mode, MigrationMode::StopAndCopy);
    }

    #[test]
    fn tuning_serde_round_trips_and_defaults_missing_keys() {
        let tuning = RuntimeTuning::default()
            .with_link_model(LinkModel::fair_share())
            .with_max_batch(4);
        let value = tuning.to_value();
        assert_eq!(RuntimeTuning::from_value(&value).unwrap(), tuning);
        // Unset dimensions serialise to no key at all...
        if let Value::Object(map) = &value {
            assert!(map.get("migration_mode").is_none());
            assert!(map.get("divergence").is_none());
        } else {
            panic!("tuning serialises to an object");
        }
        // ...and an empty object is the all-baseline tuning.
        let empty = RuntimeTuning::from_value(&Value::Object(Map::new())).unwrap();
        assert_eq!(empty, RuntimeTuning::default());
        assert!(RuntimeTuning::from_value(&Value::Null).is_err());
    }

    #[test]
    fn migration_builders_select_mode_and_knobs() {
        let config = RuntimeConfig::default();
        assert_eq!(config.migration.mode, MigrationMode::StopAndCopy);
        let pre = RuntimeConfig::default().with_migration_mode(MigrationMode::PreCopy);
        assert_eq!(pre.migration.mode, MigrationMode::PreCopy);
        let custom = RuntimeConfig::default().with_migration(MigrationConfig {
            mode: MigrationMode::PreCopy,
            max_precopy_rounds: 3,
            convergence_flows: 8,
            ..MigrationConfig::default()
        });
        assert_eq!(custom.migration.max_precopy_rounds, 3);
        assert_eq!(custom.migration.convergence_flows, 8);
        assert_eq!(
            custom.migration.on_divergence,
            DivergencePolicy::ForceFreeze
        );
        let aborting = RuntimeConfig::default()
            .with_migration_mode(MigrationMode::PreCopy)
            .tuned(&RuntimeTuning::default().with_divergence(DivergencePolicy::Abort));
        assert_eq!(aborting.migration.on_divergence, DivergencePolicy::Abort);
        assert_eq!(aborting.migration.mode, MigrationMode::PreCopy);
    }
}
