//! Declarative scenario suites: one serde-backed spec → a grid of
//! [`FlSession`] runs → one machine-readable report per cell.
//!
//! Every paper figure is a sweep over the same axes — framework, defense,
//! building, fleet shape, attack, participation, network conditions and
//! seed. A [`ScenarioSpec`] names the axes declaratively; a [`SuiteRunner`]
//! expands the cartesian grid into [`ScenarioCell`]s, pretrains one
//! template per `(framework, building, fleet)` and clones it across cells,
//! and runs each cell through a seeded session. The outcome of a suite is a
//! [`SuiteRun`] holding per-sample errors and the full
//! [`RoundReport`] trail per cell, from which a
//! serializable [`SuiteReport`] (accuracy, per-rule rejection and
//! false-positive rates, train/aggregate wall times) is derived. The
//! spec's [`ReportView`] renders the run as the figure's table.
//!
//! Specs serialize to JSON; every figure is a file in `scenarios/` at the
//! repo root and runs end to end through the `suite` binary:
//!
//! ```text
//! cargo run --release -p safeloc-bench --bin suite -- --spec scenarios/fig6_comparison.json --quick
//! ```

use crate::harness::{default_buildings, evaluate_errors, HarnessConfig};
use crate::stats::ErrorStats;
use crate::table::{heatmap, markdown_table};
use rayon::prelude::*;
use safeloc::{AggregationMode, DaeAugment, SafeLoc, SaliencyAggregator};
use safeloc_attacks::{Attack, PoisonInjector};
use safeloc_baselines::{fedcc, fedhil, fedloc, fedls, krum, Onlad};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, DeviceProfile, FingerprintSet};
use safeloc_fl::defense::{
    Combiner, CoordinateMedian, DefensePipeline, DefenseStage, NonFiniteGuard, NormClip,
    TrimmedMean, UniformMean,
};
use safeloc_fl::{
    Client, ClusterAggregator, CohortSampler, DeltaSpec, FedAvg, FlSession, Framework,
    HistoryScreen, Krum, LatentFilterAggregator, RoundReport, RoundTally, SelectiveAggregator,
};
use safeloc_wire::FaultProfile;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

// ------------------------------------------------------------- spec axes

/// The framework axis of a suite cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FrameworkSpec {
    /// SAFELOC at the scale's default configuration.
    Safeloc,
    /// SAFELOC with the reconstruction threshold overridden after
    /// pretraining (Fig. 4's sweep; all τ points share one pretrained
    /// template).
    SafelocTau {
        /// Reconstruction threshold τ.
        tau: f32,
    },
    /// A SAFELOC ablation variant (its configuration differs *before*
    /// pretraining, so each variant pretrains its own template).
    SafelocVariant {
        /// Which design choice is toggled.
        variant: SafelocVariant,
    },
    /// ONLAD baseline.
    Onlad,
    /// FEDLS baseline.
    FedLs,
    /// FEDCC baseline.
    FedCc,
    /// FEDHIL baseline.
    FedHil,
    /// FEDLOC baseline.
    FedLoc,
    /// Krum selection baseline.
    Krum,
}

/// SAFELOC ablation variants (`scenarios/ablation.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SafelocVariant {
    /// The full framework: detection + de-noising + saliency.
    Full,
    /// τ = ∞ disables the client-side detector.
    NoDenoise,
    /// Saliency sharpness 0 (S ≡ 1 ⇒ plain delta averaging).
    NoSaliency,
    /// The printed Eq. 9, damped.
    LiteralEq9,
    /// Fused network trained with heterogeneity augmentation (this
    /// repository's extension).
    WithAugment,
    /// Reconstruction gradients flow into the encoder.
    JointDecoder,
}

impl SafelocVariant {
    /// Short display name, matching the ablation table rows.
    pub fn label(&self) -> &'static str {
        match self {
            SafelocVariant::Full => "full",
            SafelocVariant::NoDenoise => "no-denoise",
            SafelocVariant::NoSaliency => "no-saliency",
            SafelocVariant::LiteralEq9 => "literal-eq9",
            SafelocVariant::WithAugment => "with-augment",
            SafelocVariant::JointDecoder => "joint-decoder",
        }
    }
}

/// A pretrained framework template the runner clones across cells.
enum Template {
    /// SAFELOC kept concrete so per-cell τ overrides can be applied.
    Safeloc(Box<SafeLoc>),
    /// Any other framework behind the uniform trait.
    Boxed(Box<dyn Framework>),
}

impl Template {
    /// Server-side pretraining on the survey split.
    fn pretrain(&mut self, train: &FingerprintSet) {
        match self {
            Template::Safeloc(f) => f.pretrain(train),
            Template::Boxed(f) => f.pretrain(train),
        }
    }

    /// A fresh framework for one cell: clones the template and applies the
    /// cell's post-pretraining overrides (currently: τ).
    fn instantiate(&self, spec: &FrameworkSpec) -> Box<dyn Framework> {
        match self {
            Template::Safeloc(f) => {
                let mut clone = (**f).clone();
                if let FrameworkSpec::SafelocTau { tau } = spec {
                    clone.set_tau(*tau);
                }
                Box::new(clone)
            }
            Template::Boxed(f) => f.clone_box(),
        }
    }
}

impl FrameworkSpec {
    /// Display name for tables and reports.
    pub fn label(&self) -> String {
        match self {
            FrameworkSpec::Safeloc => "SAFELOC".to_string(),
            FrameworkSpec::SafelocTau { tau } => format!("SAFELOC(tau={tau:.2})"),
            FrameworkSpec::SafelocVariant { variant } => {
                format!("SAFELOC[{}]", variant.label())
            }
            FrameworkSpec::Onlad => "ONLAD".to_string(),
            FrameworkSpec::FedLs => "FEDLS".to_string(),
            FrameworkSpec::FedCc => "FEDCC".to_string(),
            FrameworkSpec::FedHil => "FEDHIL".to_string(),
            FrameworkSpec::FedLoc => "FEDLOC".to_string(),
            FrameworkSpec::Krum => "KRUM".to_string(),
        }
    }

    /// Cache key for pretrained templates. All τ points share the base
    /// SAFELOC template (τ only matters after pretraining); ablation
    /// variants pretrain differently and get their own entries.
    pub fn template_key(&self) -> String {
        match self {
            FrameworkSpec::Safeloc | FrameworkSpec::SafelocTau { .. } => "SAFELOC".to_string(),
            other => other.label(),
        }
    }

    /// Builds the (untrained) template for a building geometry.
    fn build(&self, input_dim: usize, n_classes: usize, cfg: &HarnessConfig) -> Template {
        match self {
            FrameworkSpec::Safeloc | FrameworkSpec::SafelocTau { .. } => Template::Safeloc(
                Box::new(SafeLoc::new(input_dim, n_classes, cfg.safeloc_config())),
            ),
            FrameworkSpec::SafelocVariant { variant } => {
                let mut vcfg = cfg.safeloc_config();
                match variant {
                    SafelocVariant::Full | SafelocVariant::NoSaliency => {}
                    SafelocVariant::NoDenoise => vcfg.tau = f32::INFINITY,
                    SafelocVariant::LiteralEq9 => vcfg.aggregation = AggregationMode::Literal,
                    SafelocVariant::WithAugment => vcfg.augment = Some(DaeAugment::paper()),
                    SafelocVariant::JointDecoder => vcfg.detach_decoder = false,
                }
                let mut f = SafeLoc::new(input_dim, n_classes, vcfg);
                if *variant == SafelocVariant::NoSaliency {
                    f.set_saliency_sharpness(0.0);
                }
                Template::Safeloc(Box::new(f))
            }
            FrameworkSpec::Onlad => Template::Boxed(Box::new(Onlad::new(
                input_dim,
                n_classes,
                cfg.server_config(),
            ))),
            FrameworkSpec::FedLs => {
                Template::Boxed(Box::new(fedls(input_dim, n_classes, cfg.server_config())))
            }
            FrameworkSpec::FedCc => {
                Template::Boxed(Box::new(fedcc(input_dim, n_classes, cfg.server_config())))
            }
            FrameworkSpec::FedHil => {
                Template::Boxed(Box::new(fedhil(input_dim, n_classes, cfg.server_config())))
            }
            FrameworkSpec::FedLoc => {
                Template::Boxed(Box::new(fedloc(input_dim, n_classes, cfg.server_config())))
            }
            FrameworkSpec::Krum => {
                Template::Boxed(Box::new(krum(input_dim, n_classes, cfg.server_config())))
            }
        }
    }
}

/// The fleet axis: how many clients, how many of them compromised.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Total clients; 0 = the paper's six-phone protocol.
    #[serde(default = "usize_zero")]
    pub total: usize,
    /// Compromised clients when the cell's attack is not clean (paper: 1,
    /// the HTC U11).
    #[serde(default = "usize_one")]
    pub attackers: usize,
}

impl FleetSpec {
    /// The paper's fleet: six phones, one compromised.
    pub fn paper() -> Self {
        Self {
            total: 0,
            attackers: 1,
        }
    }

    /// Fig. 7-style grown fleet.
    pub fn grown(total: usize, attackers: usize) -> Self {
        Self { total, attackers }
    }

    /// Display label.
    pub fn label(&self) -> String {
        let total = if self.total == 0 { 6 } else { self.total };
        format!("({total}, {})", self.attackers)
    }

    /// Dataset configuration for this fleet shape.
    pub fn dataset_config(&self, seed: u64) -> DatasetConfig {
        let base = DatasetConfig::paper();
        if self.total == 0 {
            base
        } else {
            base.with_fleet(self.total, seed)
        }
    }

    /// The compromised client indices: the HTC U11 first (the paper's
    /// attacker device) when the fleet has one, topped up from the back of
    /// the fleet, skipping the training device (Fig. 7's assignment). If the
    /// fleet cannot host the requested count (everything but the training
    /// device is already compromised), the shortfall is reported rather
    /// than silently run with a weaker attack.
    pub fn attacker_ids(&self, data: &BuildingDataset) -> Vec<usize> {
        if self.attackers == 0 {
            return Vec::new();
        }
        let htc = DeviceProfile::ATTACKER_DEVICE;
        let mut ids = Vec::new();
        if htc < data.num_clients() && htc != data.train_device {
            ids.push(htc);
        }
        let mut next = data.num_clients();
        while ids.len() < self.attackers && next > 0 {
            next -= 1;
            if !ids.contains(&next) && next != data.train_device {
                ids.push(next);
            }
        }
        if ids.len() < self.attackers {
            eprintln!(
                "  warning: fleet {} can only host {} of {} requested attackers \
                 (training device is never compromised)",
                self.label(),
                ids.len(),
                self.attackers
            );
        }
        ids
    }
}

/// The attack axis: one attack (or the clean baseline) per entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackSpec {
    /// Optional display-name override for tables.
    pub name: Option<String>,
    /// The attack; `None` is the clean baseline.
    pub attack: Option<Attack>,
}

impl AttackSpec {
    /// The clean baseline.
    pub fn clean() -> Self {
        Self {
            name: None,
            attack: None,
        }
    }

    /// An attack cell with the derived label.
    pub fn of(attack: Attack) -> Self {
        Self {
            name: None,
            attack: Some(attack),
        }
    }

    /// An attack cell with an explicit label.
    pub fn named(name: &str, attack: Attack) -> Self {
        Self {
            name: Some(name.to_string()),
            attack: Some(attack),
        }
    }

    /// Display label.
    pub fn label(&self) -> String {
        if let Some(name) = &self.name {
            return name.clone();
        }
        match &self.attack {
            None => "Clean".to_string(),
            Some(a) => format!("{} eps={:.2}", a.kind().label(), a.epsilon()),
        }
    }
}

/// How the cohort is drawn in a cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParticipationMode {
    /// Every client, every round (the paper's protocol).
    Full,
    /// A uniform cohort of `round(fraction · n)` clients (≥ 1); 1.0 maps to
    /// the exact full-participation fast path.
    Fraction {
        /// Participation fraction in `(0, 1]`.
        fraction: f32,
    },
    /// A uniform cohort of exactly `k` clients.
    UniformK {
        /// Cohort size.
        k: usize,
    },
    /// `k` clients drawn proportionally to their local data volume
    /// ([`CohortSampler::weighted_by_data_volume`]).
    WeightedByData {
        /// Cohort size.
        k: usize,
    },
}

/// The participation axis: cohort strategy plus churn rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParticipationSpec {
    /// Cohort strategy.
    pub mode: ParticipationMode,
    /// Probability a sampled client never responds.
    #[serde(default = "f64_zero")]
    pub dropout: f64,
    /// Probability a sampled, non-dropped client misses the deadline.
    #[serde(default = "f64_zero")]
    pub straggle: f64,
}

impl ParticipationSpec {
    /// The paper's shape: full participation, no churn.
    pub fn full() -> Self {
        Self {
            mode: ParticipationMode::Full,
            dropout: 0.0,
            straggle: 0.0,
        }
    }

    /// Uniform participation at `fraction`, no churn.
    pub fn fraction(fraction: f32) -> Self {
        Self {
            mode: ParticipationMode::Fraction { fraction },
            dropout: 0.0,
            straggle: 0.0,
        }
    }

    /// Adds churn rates.
    pub fn with_churn(mut self, dropout: f64, straggle: f64) -> Self {
        self.dropout = dropout;
        self.straggle = straggle;
        self
    }

    /// Checks a spec-file participation: `dropout` and `straggle` in
    /// `[0, 1]`, a `Fraction` finite and in `(0, 1]`, a `UniformK` or
    /// `WeightedByData` cohort with `k >= 1`.
    ///
    /// # Errors
    ///
    /// A message naming the first offending field and its value.
    pub fn validate(&self) -> Result<(), String> {
        match self.mode {
            ParticipationMode::Fraction { fraction }
                if !(fraction.is_finite() && fraction > 0.0 && fraction <= 1.0) =>
            {
                return Err(format!(
                    "fraction must be finite and in (0, 1], got {fraction}"
                ));
            }
            ParticipationMode::UniformK { k: 0 } | ParticipationMode::WeightedByData { k: 0 } => {
                return Err("k must be at least 1, got 0".to_string());
            }
            _ => {}
        }
        for (field, rate) in [("dropout", self.dropout), ("straggle", self.straggle)] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{field} must be in [0, 1], got {rate}"));
            }
        }
        Ok(())
    }

    /// The cohort size this spec draws from a fleet of `n` clients.
    pub fn cohort_size(&self, n: usize) -> usize {
        match self.mode {
            ParticipationMode::Full => n,
            ParticipationMode::Fraction { fraction } => {
                ((fraction * n as f32).round() as usize).clamp(1, n.max(1))
            }
            ParticipationMode::UniformK { k } | ParticipationMode::WeightedByData { k } => k.min(n),
        }
    }

    /// The seeded sampler for a concrete fleet.
    pub fn sampler(&self, clients: &[Client], seed: u64) -> CohortSampler {
        let n = clients.len();
        let base = match self.mode {
            ParticipationMode::Full => CohortSampler::full(),
            ParticipationMode::Fraction { .. } => {
                let k = self.cohort_size(n);
                if k >= n {
                    CohortSampler::full()
                } else {
                    CohortSampler::uniform(k, seed)
                }
            }
            ParticipationMode::UniformK { k } => CohortSampler::uniform(k, seed),
            ParticipationMode::WeightedByData { k } => {
                CohortSampler::weighted_by_data_volume(k, clients, seed)
            }
        };
        base.with_dropout(self.dropout).with_straggle(self.straggle)
    }

    /// Display label (`n` = fleet size, for fraction-derived cohorts).
    pub fn label(&self, n: usize) -> String {
        let mut out = match self.mode {
            ParticipationMode::Full => "full".to_string(),
            ParticipationMode::Fraction { fraction } => {
                format!("{fraction:.2} ({}/{n})", self.cohort_size(n))
            }
            ParticipationMode::UniformK { k } => format!("k={k}"),
            ParticipationMode::WeightedByData { k } => format!("weighted k={k}"),
        };
        if self.dropout > 0.0 {
            out.push_str(&format!(" drop={:.2}", self.dropout));
        }
        if self.straggle > 0.0 {
            out.push_str(&format!(" strag={:.2}", self.straggle));
        }
        out
    }
}

// -------------------------------------------------------- the network axis

/// The network axis of a suite cell: a named transport-fault profile plus
/// the server's round deadline.
///
/// Each round's sampled cohort plan is replayed through the wire crate's
/// fault-injection shim ([`FaultProfile::degrade_plan`]) before the
/// framework runs it: a drawn connection drop benches the client as a
/// dropout, and a slow reader — or a latency draw beyond `deadline_ms` —
/// benches it as a straggler. The draws are the *same* deterministic
/// stream the `fl_client` process applies to a real TCP transport, so a
/// spec cell and a cross-process deployment under the same profile and
/// seed degrade identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Optional display-name override for tables (`"lan"`, `"wan-lossy"`).
    #[serde(default = "Option::default")]
    pub name: Option<String>,
    /// Mean injected one-way latency, milliseconds.
    #[serde(default = "f64_zero")]
    pub latency_ms_mean: f64,
    /// Standard deviation of the injected latency (0 = constant).
    #[serde(default = "f64_zero")]
    pub latency_ms_std: f64,
    /// Per-(round, client) probability of dropping the connection instead
    /// of delivering the update.
    #[serde(default = "f64_zero")]
    pub drop_probability: f64,
    /// Per-(round, client) probability of trickling the update slower than
    /// any deadline (a slow-reader straggler).
    #[serde(default = "f64_zero")]
    pub slow_reader_probability: f64,
    /// Server round deadline, milliseconds: a latency draw beyond it turns
    /// the client into a straggler. 0 = no deadline (only drops and slow
    /// readers bite).
    #[serde(default = "f64_zero")]
    pub deadline_ms: f64,
}

impl NetworkSpec {
    /// The perfect network: zero latency, no drops, no stragglers. Cells
    /// under it take the exact pre-axis execution path, bit for bit.
    pub fn ideal() -> Self {
        Self {
            name: None,
            latency_ms_mean: 0.0,
            latency_ms_std: 0.0,
            drop_probability: 0.0,
            slow_reader_probability: 0.0,
            deadline_ms: 0.0,
        }
    }

    /// `true` when the profile can degrade nothing.
    pub fn is_ideal(&self) -> bool {
        self.fault(0).is_ideal()
    }

    /// Checks a spec-file network: `deadline_ms` finite and `>= 0`, the
    /// rest as [`FaultProfile::validate`] checks it.
    ///
    /// # Errors
    ///
    /// A message naming the first offending field and its value.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.deadline_ms.is_finite() && self.deadline_ms >= 0.0) {
            return Err(format!(
                "deadline_ms must be finite and >= 0, got {}",
                self.deadline_ms
            ));
        }
        self.fault(0).validate()
    }

    /// The seeded fault profile this spec describes; `seed` comes from the
    /// cell ([`ScenarioCell::network_seed`]) so distinct repetitions draw
    /// independent fault streams.
    pub fn fault(&self, seed: u64) -> FaultProfile {
        FaultProfile {
            latency_ms_mean: self.latency_ms_mean,
            latency_ms_std: self.latency_ms_std,
            drop_probability: self.drop_probability,
            slow_reader_probability: self.slow_reader_probability,
            seed,
        }
    }

    /// Display label: the override, or a compact derived form.
    pub fn label(&self) -> String {
        if let Some(name) = &self.name {
            return name.clone();
        }
        if self.is_ideal() {
            return "ideal".to_string();
        }
        let mut parts = Vec::new();
        if self.latency_ms_mean > 0.0 || self.latency_ms_std > 0.0 {
            parts.push(format!(
                "lat={}±{}ms",
                self.latency_ms_mean, self.latency_ms_std
            ));
        }
        if self.drop_probability > 0.0 {
            parts.push(format!("drop={}", self.drop_probability));
        }
        if self.slow_reader_probability > 0.0 {
            parts.push(format!("slow={}", self.slow_reader_probability));
        }
        if self.deadline_ms > 0.0 {
            parts.push(format!("ddl={}ms", self.deadline_ms));
        }
        parts.join(" ")
    }
}

// -------------------------------------------------------- the defense axis

/// The defense axis of a suite cell: the framework's own rule, or a
/// composed stage/combiner pipeline swapped in after pretraining (the
/// global model and client-side protocol are untouched, so every defense
/// variant shares one pretrained template).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DefenseSpec {
    /// The framework's built-in rule (the paper's configuration).
    Builtin,
    /// A composed defense pipeline replacing the built-in rule via
    /// [`Framework::set_defense`].
    Pipeline(PipelineSpec),
}

impl DefenseSpec {
    /// Display label; `"builtin"` for the framework's own rule.
    pub fn label(&self) -> String {
        match self {
            DefenseSpec::Builtin => "builtin".to_string(),
            DefenseSpec::Pipeline(p) => p.label(),
        }
    }
}

/// A serde-buildable [`DefensePipeline`]: named stages in order plus one
/// terminal combiner. This is the spec surface that turns robust-
/// aggregation compositions ("norm-clip then Krum", "latent screen then
/// history screen then mean") into `scenarios/*.json` cells instead of
/// new Rust types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineSpec {
    /// Optional display-name override for tables.
    #[serde(default = "Option::default")]
    pub name: Option<String>,
    /// Screening stages, in execution order.
    #[serde(default = "Vec::new")]
    pub stages: Vec<StageSpec>,
    /// Terminal combiner.
    pub combiner: CombinerSpec,
}

impl PipelineSpec {
    /// Display label: the override, or `stage→stage→combiner`.
    pub fn label(&self) -> String {
        if let Some(name) = &self.name {
            return name.clone();
        }
        let mut parts: Vec<String> = self.stages.iter().map(StageSpec::label).collect();
        parts.push(self.combiner.label());
        parts.join("→")
    }

    /// Checks a spec-file pipeline: every parameter in the range its stage
    /// or combiner honours as written. Outside it the cell would run a
    /// different defense than its label names — `TrimmedMean` clamps
    /// `trim_fraction` into `[0, 0.5]`, and a `NormClip` multiple of 0
    /// switches the stage off.
    ///
    /// # Errors
    ///
    /// A message naming the first offending field and its value.
    pub fn validate(&self) -> Result<(), String> {
        fn require(
            ok: bool,
            field: &str,
            range: &str,
            value: impl std::fmt::Display,
        ) -> Result<(), String> {
            match ok {
                true => Ok(()),
                false => Err(format!("{field} must be {range}, got {value}")),
            }
        }
        let z = |z_threshold: f32| {
            let ok = z_threshold.is_finite() && z_threshold > 0.0;
            require(ok, "z_threshold", "finite and > 0", z_threshold)
        };
        for stage in &self.stages {
            match *stage {
                StageSpec::NonFinite => {}
                StageSpec::NormClip { multiple } => {
                    let ok = multiple.is_finite() && multiple > 0.0;
                    require(ok, "multiple", "finite and > 0", multiple)?;
                }
                StageSpec::ClusterSplit {
                    separation_threshold: t,
                } => require(
                    (0.0..=2.0).contains(&t),
                    "separation_threshold",
                    "in [0, 2]",
                    t,
                )?,
                StageSpec::LatentScreen { z_threshold } => z(z_threshold)?,
                StageSpec::HistoryScreen {
                    z_threshold,
                    min_history,
                } => {
                    z(z_threshold)?;
                    require(min_history >= 1, "min_history", "at least 1", min_history)?;
                }
            }
        }
        match self.combiner {
            CombinerSpec::TrimmedMean { trim_fraction: t } => {
                require((0.0..0.5).contains(&t), "trim_fraction", "in [0, 0.5)", t)
            }
            CombinerSpec::Selective {
                aggregate_fraction: a,
            } => require(a > 0.0 && a <= 1.0, "aggregate_fraction", "in (0, 1]", a),
            CombinerSpec::Saliency { sharpness: k } => {
                require(k.is_finite() && k >= 0.0, "sharpness", "finite and >= 0", k)
            }
            CombinerSpec::Mean
            | CombinerSpec::SampleWeightedMean
            | CombinerSpec::Krum { .. }
            | CombinerSpec::CoordinateMedian => Ok(()),
        }
    }

    /// Builds the runnable pipeline; `seed` feeds the stateful stages'
    /// projections so distinct cells draw independent streams.
    pub fn build(&self, seed: u64) -> DefensePipeline {
        let stages: Vec<Box<dyn DefenseStage>> =
            self.stages.iter().map(|s| s.build(seed)).collect();
        DefensePipeline::new(self.label(), stages, self.combiner.build())
    }
}

/// One screening stage of a [`PipelineSpec`]. Unknown stage names fail
/// spec parsing with serde's unknown-variant error (naming the offender
/// and the valid set) instead of silently running without the stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StageSpec {
    /// Reject NaN/Inf updates. Stage zero of every pipeline whether a spec
    /// lists it or not (a leading one is not doubled); listing it keeps a
    /// spec's label self-describing.
    NonFinite,
    /// Cap update delta norms at `multiple ×` the round's lower-median
    /// norm ([`NormClip`]).
    NormClip {
        /// Cap as a multiple of the round's lower-median delta norm.
        multiple: f32,
    },
    /// FEDCC's majority-cluster screen ([`ClusterAggregator`]).
    ClusterSplit {
        /// Minimum centroid cosine separation for the split to count.
        separation_threshold: f32,
    },
    /// FEDLS's latent-space anomaly screen ([`LatentFilterAggregator`]).
    LatentScreen {
        /// Rejection threshold in σ above the mean reconstruction error.
        z_threshold: f32,
    },
    /// The benign-history screen ([`HistoryScreen`]) — the opt-in stage
    /// closing FEDLS's small-but-≥3-round gap.
    HistoryScreen {
        /// Rejection threshold in σ above the history's mean distance.
        z_threshold: f32,
        /// Accepted rows required before screening activates.
        min_history: usize,
    },
}

impl StageSpec {
    /// Short label for derived pipeline names, parameters included, so
    /// two stages that screen differently never share a label.
    pub fn label(&self) -> String {
        match self {
            StageSpec::NonFinite => "non-finite".to_string(),
            StageSpec::NormClip { multiple } => format!("norm-clip({multiple})"),
            StageSpec::ClusterSplit {
                separation_threshold,
            } => format!("cluster({separation_threshold})"),
            StageSpec::LatentScreen { z_threshold } => format!("latent(z={z_threshold})"),
            StageSpec::HistoryScreen {
                z_threshold,
                min_history,
            } => format!("history-screen(z={z_threshold}, min={min_history})"),
        }
    }

    /// Builds the stage, seeding its internal streams from `seed`.
    pub fn build(&self, seed: u64) -> Box<dyn DefenseStage> {
        match *self {
            StageSpec::NonFinite => Box::new(NonFiniteGuard),
            StageSpec::NormClip { multiple } => Box::new(NormClip::new(multiple)),
            StageSpec::ClusterSplit {
                separation_threshold,
            } => Box::new(ClusterAggregator::new(separation_threshold)),
            StageSpec::LatentScreen { z_threshold } => {
                let mut stage = LatentFilterAggregator::new(seed);
                stage.z_threshold = z_threshold;
                Box::new(stage)
            }
            StageSpec::HistoryScreen {
                z_threshold,
                min_history,
            } => {
                let mut stage = HistoryScreen::new(seed);
                stage.z_threshold = z_threshold;
                stage.min_history = min_history;
                Box::new(stage)
            }
        }
    }
}

/// The terminal combiner of a [`PipelineSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CombinerSpec {
    /// Uniform mean of the survivors ([`UniformMean`]).
    Mean,
    /// Sample-count-weighted mean ([`FedAvg`]).
    SampleWeightedMean,
    /// Krum selection ([`Krum`]).
    Krum {
        /// Assumed number of Byzantine clients.
        assumed_byzantine: usize,
    },
    /// Coordinate-wise trimmed mean ([`TrimmedMean`]).
    TrimmedMean {
        /// Fraction trimmed from each tail, in `[0, 0.5)`.
        trim_fraction: f32,
    },
    /// Coordinate-wise median ([`CoordinateMedian`]).
    CoordinateMedian,
    /// FEDHIL's selective per-tensor mean ([`SelectiveAggregator`]).
    Selective {
        /// Fraction of tensors (output side) that are aggregated.
        aggregate_fraction: f32,
    },
    /// SAFELOC's saliency-damped combining ([`SaliencyAggregator`]).
    Saliency {
        /// Deviation sharpness `k` in `S = 1/(1 + k·|ΔW|)`.
        sharpness: f32,
    },
}

impl CombinerSpec {
    /// Short label for derived pipeline names.
    pub fn label(&self) -> String {
        match self {
            CombinerSpec::Mean => "mean".to_string(),
            CombinerSpec::SampleWeightedMean => "sample-mean".to_string(),
            CombinerSpec::Krum { assumed_byzantine } => format!("krum(f={assumed_byzantine})"),
            CombinerSpec::TrimmedMean { trim_fraction } => {
                format!("trimmed-mean({trim_fraction})")
            }
            CombinerSpec::CoordinateMedian => "coordinate-median".to_string(),
            CombinerSpec::Selective { aggregate_fraction } => {
                format!("selective({aggregate_fraction})")
            }
            CombinerSpec::Saliency { sharpness } => format!("saliency(k={sharpness})"),
        }
    }

    /// Builds the runnable combiner.
    pub fn build(&self) -> Box<dyn Combiner> {
        match *self {
            CombinerSpec::Mean => Box::new(UniformMean),
            CombinerSpec::SampleWeightedMean => Box::new(FedAvg),
            CombinerSpec::Krum { assumed_byzantine } => Box::new(Krum::new(assumed_byzantine)),
            CombinerSpec::TrimmedMean { trim_fraction } => {
                Box::new(TrimmedMean::new(trim_fraction))
            }
            CombinerSpec::CoordinateMedian => Box::new(CoordinateMedian),
            CombinerSpec::Selective { aggregate_fraction } => {
                Box::new(SelectiveAggregator::new(aggregate_fraction))
            }
            CombinerSpec::Saliency { sharpness } => {
                Box::new(SaliencyAggregator::default().with_sharpness(sharpness))
            }
        }
    }
}

// --------------------------------------------------------------- the spec

/// A declarative scenario suite: the cartesian grid of eight axes
/// (framework × defense × building × fleet × attack × participation ×
/// network × seed).
///
/// Empty `buildings` means "the scale's default buildings"; `rounds` 0
/// means "the scale's default round count" — so one spec file serves
/// `--quick`, the default and `--full` runs alike.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Suite name (used for the default report filename).
    pub name: String,
    /// One-line description, echoed in the report.
    #[serde(default = "String::new")]
    pub description: String,
    /// Framework axis.
    pub frameworks: Vec<FrameworkSpec>,
    /// Defense axis: each entry runs every framework with that defense
    /// ([`DefenseSpec::Builtin`] = the framework's own rule). Defaults to
    /// builtin only, so pre-existing specs are unchanged.
    #[serde(default = "default_defenses")]
    pub defenses: Vec<DefenseSpec>,
    /// Paper building ids; empty = the scale's defaults.
    #[serde(default = "Vec::new")]
    pub buildings: Vec<usize>,
    /// Fleet axis; defaults to the paper's six-phone fleet.
    #[serde(default = "default_fleets")]
    pub fleets: Vec<FleetSpec>,
    /// Attack axis.
    pub attacks: Vec<AttackSpec>,
    /// Participation axis; defaults to full participation.
    #[serde(default = "default_participation")]
    pub participation: Vec<ParticipationSpec>,
    /// Network axis: transport-fault profiles replayed onto every round's
    /// cohort plan. Defaults to the ideal network only, so pre-existing
    /// specs are unchanged (and bitwise identical).
    #[serde(default = "default_networks")]
    pub networks: Vec<NetworkSpec>,
    /// Delta-representation axis: every client uploads its update under
    /// this compression spec ([`DeltaSpec::Dense`] = the exact path).
    /// Unknown representation names fail spec parsing with serde's
    /// unknown-variant error, like [`DefenseSpec`] stages. Defaults to
    /// dense only, so pre-existing specs are unchanged (and bitwise
    /// identical). The axis does not salt the scenario seed — compression
    /// variants of a cell train on identical streams and stay comparable.
    #[serde(default = "default_deltas")]
    pub deltas: Vec<DeltaSpec>,
    /// Rounds per cell; 0 = the scale's default.
    #[serde(default = "usize_zero")]
    pub rounds: usize,
    /// Seed axis: salts XORed into the harness master seed, one cell
    /// repetition per entry.
    #[serde(default = "default_seed_salts")]
    pub seed_salts: Vec<u64>,
    /// Attacker update-boost factor; `None` = model replacement
    /// (`n_clients / n_attackers`, shared across colluders).
    pub boost: Option<f32>,
    /// Colluding attackers share one poison stream (Fig. 7).
    #[serde(default = "bool_false")]
    pub coherent: bool,
    /// How the `suite` binary renders the run; defaults to one row per
    /// cell.
    #[serde(default = "default_view")]
    pub view: ReportView,
}

fn usize_zero() -> usize {
    0
}
fn usize_one() -> usize {
    1
}
fn f64_zero() -> f64 {
    0.0
}
fn bool_false() -> bool {
    false
}
fn default_fleets() -> Vec<FleetSpec> {
    vec![FleetSpec::paper()]
}
fn default_participation() -> Vec<ParticipationSpec> {
    vec![ParticipationSpec::full()]
}
fn default_seed_salts() -> Vec<u64> {
    vec![0]
}
fn default_defenses() -> Vec<DefenseSpec> {
    vec![DefenseSpec::Builtin]
}
fn default_networks() -> Vec<NetworkSpec> {
    vec![NetworkSpec::ideal()]
}
fn default_deltas() -> Vec<DeltaSpec> {
    vec![DeltaSpec::Dense]
}
fn default_view() -> ReportView {
    ReportView::Cells
}

impl ScenarioSpec {
    /// A minimal spec over one framework and the clean scenario; builders
    /// add axes from here.
    pub fn new(name: &str, frameworks: Vec<FrameworkSpec>, attacks: Vec<AttackSpec>) -> Self {
        Self {
            name: name.to_string(),
            description: String::new(),
            frameworks,
            defenses: default_defenses(),
            buildings: Vec::new(),
            fleets: default_fleets(),
            attacks,
            participation: default_participation(),
            networks: default_networks(),
            deltas: default_deltas(),
            rounds: 0,
            seed_salts: default_seed_salts(),
            boost: None,
            coherent: false,
            view: default_view(),
        }
    }
}

// ------------------------------------------------------------- expansion

/// Position of a cell along each spec axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellIndex {
    /// Index into [`ScenarioSpec::frameworks`].
    pub framework: usize,
    /// Index into [`ScenarioSpec::defenses`].
    pub defense: usize,
    /// Index into the effective building list.
    pub building: usize,
    /// Index into [`ScenarioSpec::fleets`].
    pub fleet: usize,
    /// Index into [`ScenarioSpec::attacks`].
    pub attack: usize,
    /// Index into [`ScenarioSpec::participation`].
    pub participation: usize,
    /// Index into [`ScenarioSpec::networks`].
    pub network: usize,
    /// Index into [`ScenarioSpec::deltas`].
    pub delta: usize,
    /// Index into [`ScenarioSpec::seed_salts`].
    pub seed: usize,
}

/// One fully resolved grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioCell {
    /// Framework under test.
    pub framework: FrameworkSpec,
    /// Defense composition.
    pub defense: DefenseSpec,
    /// Paper building id.
    pub building: usize,
    /// Fleet shape.
    pub fleet: FleetSpec,
    /// Attack (or clean).
    pub attack: AttackSpec,
    /// Cohort strategy + churn.
    pub participation: ParticipationSpec,
    /// Network conditions.
    pub network: NetworkSpec,
    /// Update representation every client uploads under.
    pub delta: DeltaSpec,
    /// Seed salt from the spec's seed axis.
    pub seed_salt: u64,
    /// Federated rounds.
    pub rounds: usize,
    /// Attacker boost override.
    pub boost: Option<f32>,
    /// Coherent colluders.
    pub coherent: bool,
    /// Axis indices.
    pub index: CellIndex,
}

impl ScenarioCell {
    /// The scenario seed: the harness master seed decorated with per-axis
    /// salts, so distinct attacks/fleets/repetitions draw independent
    /// poison and training streams while participation variants of the
    /// same scenario stay comparable.
    pub fn scenario_seed(&self, base: u64) -> u64 {
        base ^ self.seed_salt
            ^ ((self.index.attack as u64 + 1) << 16)
            ^ ((self.index.fleet as u64 + 1) << 24)
    }

    /// The cohort-sampler seed (decorrelated from the scenario stream).
    pub fn sampler_seed(&self, base: u64) -> u64 {
        self.scenario_seed(base) ^ 0xC0_4082 ^ ((self.index.participation as u64 + 1) << 8)
    }

    /// Seed for spec-built defense stages (projections, AE init). Derived
    /// from the scenario seed *without* a defense-index salt, so two
    /// defense variants of the same scenario screen the same training
    /// stream and stay comparable.
    pub fn defense_seed(&self, base: u64) -> u64 {
        self.scenario_seed(base) ^ 0xDE_FE2E
    }

    /// Seed for the cell's transport-fault stream. Salted by the network
    /// index so two network variants of the same scenario draw independent
    /// fault streams (while sharing training streams — the scenario seed
    /// carries no network salt, keeping variants comparable).
    pub fn network_seed(&self, base: u64) -> u64 {
        self.scenario_seed(base) ^ 0x4E_77E7 ^ ((self.index.network as u64 + 1) << 12)
    }

    /// Checks the cell's network, participation and defense pipeline
    /// ([`NetworkSpec::validate`], [`ParticipationSpec::validate`],
    /// [`PipelineSpec::validate`]). A run records an invalid cell as failed
    /// without running it; `suite --check-specs` refuses its file.
    ///
    /// # Errors
    ///
    /// A message naming the axis, the first offending field and its value.
    pub fn validate(&self) -> Result<(), String> {
        (self.network.validate()).map_err(|e| format!("network {}: {e}", self.network.label()))?;
        (self.participation.validate()).map_err(|e| format!("participation: {e}"))?;
        match &self.defense {
            DefenseSpec::Pipeline(p) => p
                .validate()
                .map_err(|e| format!("defense {}: {e}", p.label())),
            DefenseSpec::Builtin => Ok(()),
        }
    }

    /// Compact display label.
    pub fn label(&self) -> String {
        let defense = match &self.defense {
            DefenseSpec::Builtin => String::new(),
            spec => format!(" +{}", spec.label()),
        };
        let network = if self.network.is_ideal() {
            String::new()
        } else {
            format!(" net={}", self.network.label())
        };
        let delta = if self.delta.is_dense() {
            String::new()
        } else {
            format!(" delta={}", self.delta.label())
        };
        format!(
            "{}{} B{} {} {}{}{}",
            self.framework.label(),
            defense,
            self.building,
            self.fleet.label(),
            self.attack.label(),
            network,
            delta
        )
    }
}

// ---------------------------------------------------------------- runner

/// Builds the experimental bundle for one cell's `(building, fleet)` pair.
type DatasetBuilder = Box<dyn Fn(usize, &FleetSpec, u64) -> BuildingDataset>;

/// A cell paired with its instantiated framework, or with the reason the
/// run refuses it ([`ScenarioCell::validate`]): the unit the parallel
/// executor consumes.
type PreparedCell = (ScenarioCell, Result<Box<dyn Framework>, String>);

/// Expands a [`ScenarioSpec`] over a [`HarnessConfig`] and executes the
/// grid, caching datasets per `(building, fleet)` and pretrained framework
/// templates per `(framework, building, fleet)`.
pub struct SuiteRunner {
    cfg: HarnessConfig,
    spec: ScenarioSpec,
    dataset_builder: DatasetBuilder,
    datasets: HashMap<(usize, usize), BuildingDataset>,
    templates: HashMap<(String, usize, usize), Template>,
}

impl SuiteRunner {
    /// Creates a runner over the paper's synthetic buildings.
    pub fn new(cfg: HarnessConfig, spec: ScenarioSpec) -> Self {
        Self {
            cfg,
            spec,
            dataset_builder: Box::new(|building, fleet, seed| {
                BuildingDataset::generate(
                    Building::paper(building),
                    &fleet.dataset_config(seed),
                    seed,
                )
            }),
            datasets: HashMap::new(),
            templates: HashMap::new(),
        }
    }

    /// Replaces the dataset source (tests swap in tiny buildings).
    pub fn with_dataset_builder(
        mut self,
        builder: impl Fn(usize, &FleetSpec, u64) -> BuildingDataset + 'static,
    ) -> Self {
        self.dataset_builder = Box::new(builder);
        self
    }

    /// The spec being expanded.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Effective building ids: the spec's, or the scale's defaults.
    pub fn buildings(&self) -> Vec<usize> {
        if self.spec.buildings.is_empty() {
            default_buildings(self.cfg.scale)
                .iter()
                .map(|b| b.id)
                .collect()
        } else {
            self.spec.buildings.clone()
        }
    }

    /// Effective rounds per cell: the spec's, or the scale's default.
    pub fn rounds(&self) -> usize {
        if self.spec.rounds == 0 {
            self.cfg.rounds()
        } else {
            self.spec.rounds
        }
    }

    /// Expands the full cartesian grid, in deterministic axis order
    /// (framework-major, seed-minor).
    pub fn cells(&self) -> Vec<ScenarioCell> {
        let buildings = self.buildings();
        let rounds = self.rounds();
        let mut out = Vec::new();
        for (fi, framework) in self.spec.frameworks.iter().enumerate() {
            for (di, defense) in self.spec.defenses.iter().enumerate() {
                for (bi, &building) in buildings.iter().enumerate() {
                    for (li, fleet) in self.spec.fleets.iter().enumerate() {
                        for (ai, attack) in self.spec.attacks.iter().enumerate() {
                            for (pi, participation) in self.spec.participation.iter().enumerate() {
                                for (ni, network) in self.spec.networks.iter().enumerate() {
                                    for (ci, &delta) in self.spec.deltas.iter().enumerate() {
                                        for (si, &seed_salt) in
                                            self.spec.seed_salts.iter().enumerate()
                                        {
                                            out.push(ScenarioCell {
                                                framework: framework.clone(),
                                                defense: defense.clone(),
                                                building,
                                                fleet: fleet.clone(),
                                                attack: attack.clone(),
                                                participation: participation.clone(),
                                                network: network.clone(),
                                                delta,
                                                seed_salt,
                                                rounds,
                                                boost: self.spec.boost,
                                                coherent: self.spec.coherent,
                                                index: CellIndex {
                                                    framework: fi,
                                                    defense: di,
                                                    building: bi,
                                                    fleet: li,
                                                    attack: ai,
                                                    participation: pi,
                                                    network: ni,
                                                    delta: ci,
                                                    seed: si,
                                                },
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The (cached) dataset for a cell's `(building, fleet)` pair.
    fn dataset(&mut self, cell: &ScenarioCell) -> &BuildingDataset {
        let key = (cell.building, cell.fleet.total);
        if !self.datasets.contains_key(&key) {
            let data = (self.dataset_builder)(cell.building, &cell.fleet, self.cfg.seed);
            self.datasets.insert(key, data);
        }
        self.datasets.get(&key).expect("just inserted")
    }

    /// Ensures the cell's pretrained template exists and returns its key.
    fn ensure_template(&mut self, cell: &ScenarioCell) -> (String, usize, usize) {
        let key = (
            cell.framework.template_key(),
            cell.building,
            cell.fleet.total,
        );
        if !self.templates.contains_key(&key) {
            self.dataset(cell);
            let template = {
                let data = self
                    .datasets
                    .get(&(cell.building, cell.fleet.total))
                    .expect("dataset just ensured");
                let mut t = cell.framework.build(
                    data.building.num_aps(),
                    data.building.num_rps(),
                    &self.cfg,
                );
                t.pretrain(&data.server_train);
                t
            };
            eprintln!("  pretrained {} for B{}", key.0, cell.building);
            self.templates.insert(key.clone(), template);
        }
        key
    }

    /// A ready-to-run framework for one cell: the pretrained template,
    /// cloned and specialized (τ overrides applied, the cell's defense
    /// pipeline swapped in).
    pub fn framework(&mut self, cell: &ScenarioCell) -> Box<dyn Framework> {
        let key = self.ensure_template(cell);
        let mut framework = self.templates[&key].instantiate(&cell.framework);
        if let DefenseSpec::Pipeline(spec) = &cell.defense {
            let pipeline = spec.build(cell.defense_seed(self.cfg.seed));
            framework.set_defense(pipeline);
        }
        framework
    }

    /// The cell's framework ([`SuiteRunner::framework`]) once
    /// [`ScenarioCell::validate`] passes, else its message. A refused cell
    /// gets its dataset (its [`CellRun`] reports the fleet size) but
    /// never pretrains a template or clones a framework.
    fn prepare(&mut self, cell: &ScenarioCell) -> Result<Box<dyn Framework>, String> {
        self.dataset(cell);
        cell.validate()?;
        Ok(self.framework(cell))
    }

    /// Executes one cell end to end: fleet construction with the cell's
    /// attackers wired in, a seeded session under the cell's participation
    /// spec, and error evaluation over the held-out devices.
    pub fn run_cell(&mut self, cell: &ScenarioCell) -> CellRun {
        let framework = self.prepare(cell);
        run_prepared_cell(&self.datasets, self.cfg.seed, cell.clone(), framework)
    }

    /// Runs the whole grid and collects the suite outcome.
    ///
    /// Preparation (dataset generation + template pretraining) runs
    /// serially so every cell sharing a template pretrains exactly once;
    /// the independent per-cell sessions then fan out over a rayon-style
    /// thread pool. Each cell derives its streams from its own decorated
    /// seed, so the parallel path is bitwise identical to the serial one
    /// for any thread count (`crates/bench/tests/suite.rs` pins this). A
    /// cell that panics is recorded as a failed [`CellRun`] (see
    /// [`CellRun::error`]) instead of taking the suite down.
    pub fn run(&mut self) -> SuiteRun {
        let cells = self.cells();
        let total = cells.len();
        let seed = self.cfg.seed;
        let progress = AtomicUsize::new(0);
        // Cells are prepared (dataset/template caches filled, one cloned
        // framework each) and executed in waves of a few per thread, so
        // peak memory holds O(threads) pretrained-model clones instead of
        // one per grid cell — a τ-sweep × attack × repetition grid can
        // easily reach hundreds of cells.
        let wave_len = (rayon::current_num_threads() * 2).max(1);
        let mut runs: Vec<CellRun> = Vec::with_capacity(total);
        for wave in cells.chunks(wave_len) {
            let prepared: Vec<PreparedCell> = wave
                .iter()
                .map(|cell| (cell.clone(), self.prepare(cell)))
                .collect();
            // Parallel execute: cells only read the shared dataset cache.
            let datasets = &self.datasets;
            let executed: Vec<CellRun> = prepared
                .into_par_iter()
                .map(|(cell, framework)| {
                    let run = run_prepared_cell(datasets, seed, cell, framework);
                    // relaxed: progress ticker for log lines only; cells
                    // never synchronize through it.
                    let done = progress.fetch_add(1, Ordering::Relaxed) + 1;
                    match &run.error {
                        None => eprintln!("  [{done}/{total}] {} done", run.cell.label()),
                        Some(err) => {
                            eprintln!("  [{done}/{total}] {} FAILED: {err}", run.cell.label())
                        }
                    }
                    run
                })
                .collect();
            runs.extend(executed);
        }
        SuiteRun {
            name: self.spec.name.clone(),
            description: self.spec.description.clone(),
            scale: format!("{:?}", self.cfg.scale),
            seed: self.cfg.seed,
            cells: runs,
        }
    }
}

/// Executes one prepared cell against the dataset cache, converting a
/// refused or panicking cell into a [`CellRun`] with [`CellRun::error`]
/// set.
///
/// The cell's fleet gets its attackers wired in (k colluders share the
/// model-replacement boost) and its delta compressor; its session draws
/// cohorts from the participation spec's sampler and replays each plan
/// through the network axis's fault shim ([`FaultProfile::degrade_plan`],
/// the session's plan transform) before the framework runs it: a drawn
/// connection drop becomes
/// [`Availability::DropsOut`](safeloc_fl::Availability::DropsOut), a slow
/// reader or a latency draw beyond `deadline_ms` becomes
/// [`Availability::Straggles`](safeloc_fl::Availability::Straggles). The
/// ideal network returns every plan untouched.
fn run_prepared_cell(
    datasets: &HashMap<(usize, usize), BuildingDataset>,
    base_seed: u64,
    cell: ScenarioCell,
    framework: Result<Box<dyn Framework>, String>,
) -> CellRun {
    let data = datasets
        .get(&(cell.building, cell.fleet.total))
        .expect("prepare ensured the dataset");
    let outcome = framework.and_then(|framework| {
        catch_unwind(AssertUnwindSafe(|| {
            let seed = cell.scenario_seed(base_seed);
            let mut clients = Client::from_dataset(data, seed);
            if let Some(attack) = &cell.attack.attack {
                let attacker_ids = cell.fleet.attacker_ids(data);
                // Model-replacement boost: k colluding attackers share the
                // n× factor so their combined mass steers a plain mean
                // exactly once.
                let boost = cell
                    .boost
                    .unwrap_or(clients.len() as f32 / attacker_ids.len().max(1) as f32);
                for &id in &attacker_ids {
                    let stream = if cell.coherent {
                        seed ^ 0xC0117DE
                    } else {
                        seed ^ ((id as u64 + 1) << 24)
                    };
                    if let Some(client) = clients.get_mut(id) {
                        client.injector =
                            Some(PoisonInjector::new(attack.clone(), stream).with_boost(boost));
                    }
                }
            }
            if !cell.delta.is_dense() {
                for client in &mut clients {
                    client.compressor = cell.delta.compressor();
                }
            }
            let sampler = cell
                .participation
                .sampler(&clients, cell.sampler_seed(base_seed));
            let fault = cell.network.fault(cell.network_seed(base_seed));
            let deadline_ms = cell.network.deadline_ms;
            let mut session = FlSession::builder(framework)
                .clients(clients)
                .sampler(sampler)
                .plan_transform(Box::new(move |round, plan| {
                    fault.degrade_plan(&plan, round as u64, deadline_ms)
                }))
                .build();
            let reports = session.run(cell.rounds);
            (evaluate_errors(session.framework(), data), reports)
        }))
        .map_err(|payload| panic_message(payload.as_ref()))
    });
    let (errors, reports, error) = match outcome {
        Ok((errors, reports)) => (errors, reports, None),
        Err(e) => (Vec::new(), Vec::new(), Some(e)),
    };
    CellRun {
        cell,
        fleet_size: data.num_clients(),
        errors,
        reports,
        error,
    }
}

/// Best-effort human-readable form of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell panicked with a non-string payload".to_string()
    }
}

// --------------------------------------------------------------- results

/// One executed cell: the resolved axes plus raw per-sample errors and the
/// complete round-telemetry trail.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell that ran.
    pub cell: ScenarioCell,
    /// Fleet size of the cell's dataset (for participation labels).
    pub fleet_size: usize,
    /// Per-sample localization errors (meters) over the held-out devices.
    pub errors: Vec<f32>,
    /// One report per federated round.
    pub reports: Vec<RoundReport>,
    /// The cell's panic message, if it failed to execute (errors and
    /// reports are empty in that case).
    pub error: Option<String>,
}

impl CellRun {
    /// Best/mean/worst statistics over the cell's errors.
    pub fn stats(&self) -> ErrorStats {
        ErrorStats::from_errors(&self.errors)
    }

    /// Fleet label from the *actual* dataset size (the spec's `total: 0`
    /// shorthand resolves to whatever the dataset builder produced).
    pub fn fleet_label(&self) -> String {
        format!("({}, {})", self.fleet_size, self.cell.fleet.attackers)
    }

    /// Exact-hit accuracy (errors below 1 µm count as the right RP).
    pub fn accuracy(&self) -> f32 {
        if self.errors.is_empty() {
            return 0.0;
        }
        self.errors.iter().filter(|e| **e < 1e-6).count() as f32 / self.errors.len() as f32
    }

    /// The serializable per-cell report.
    pub fn report(&self) -> SuiteCellReport {
        let stats = self.stats();
        let tally = RoundTally::of(&self.reports);
        let delivered = tally.delivered();
        SuiteCellReport {
            framework: self.cell.framework.label(),
            defense: self.cell.defense.label(),
            building: self.cell.building,
            fleet: self.fleet_label(),
            attack: self.cell.attack.label(),
            participation: self.cell.participation.label(self.fleet_size),
            network: self.cell.network.label(),
            delta: self.cell.delta.label(),
            rounds: self.cell.rounds,
            seed_salt: self.cell.seed_salt,
            best_m: stats.best,
            mean_m: stats.mean,
            worst_m: stats.worst,
            accuracy: self.accuracy(),
            attacker_rejection_rate: tally.attacker_rejection_rate(),
            honest_rejection_rate: tally.honest_rejection_rate(),
            mean_attacker_weight: tally.mean_attacker_weight(),
            rules: tally
                .rule_rejections()
                .map(|(rule, r)| RuleStats {
                    rule: rule.to_string(),
                    attacker_rejections: r.malicious,
                    honest_rejections: r.honest,
                    attacker_rejection_rate: (delivered.malicious > 0)
                        .then(|| r.malicious as f32 / delivered.malicious as f32),
                    false_positive_rate: (delivered.honest > 0)
                        .then(|| r.honest as f32 / delivered.honest as f32),
                })
                .collect(),
            stage_stats: tally
                .stages()
                .into_iter()
                .map(|s| StageSuiteStats {
                    stage: s.stage,
                    rejections: s.rejections,
                    mean_wall_ms: s.wall_ms,
                })
                .collect(),
            mean_train_ms: tally.mean_train_ms(),
            mean_aggregate_ms: tally.mean_aggregate_ms(),
            error: self.error.clone(),
            cell: self.cell.clone(),
        }
    }
}

/// The outcome of a whole suite: every cell with its raw errors and
/// telemetry, plus helpers formatters use to pool across cells.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// Suite name.
    pub name: String,
    /// Suite description.
    pub description: String,
    /// Scale the suite ran at.
    pub scale: String,
    /// Harness master seed.
    pub seed: u64,
    /// Every executed cell, in grid order.
    pub cells: Vec<CellRun>,
}

impl SuiteRun {
    /// Per-sample errors pooled over every cell matching the predicate —
    /// the pooling the paper's figures apply across buildings and attacks.
    pub fn pooled_errors(&self, pred: impl Fn(&CellRun) -> bool) -> Vec<f32> {
        let mut out = Vec::new();
        for cell in self.cells.iter().filter(|c| pred(c)) {
            out.extend_from_slice(&cell.errors);
        }
        out
    }

    /// The serializable suite report.
    pub fn report(&self) -> SuiteReport {
        SuiteReport {
            schema: SUITE_SCHEMA.to_string(),
            name: self.name.clone(),
            description: self.description.clone(),
            scale: self.scale.clone(),
            seed: self.seed,
            cells: self.cells.iter().map(CellRun::report).collect(),
        }
    }

    /// One markdown row per cell — the `suite` binary's default rendering.
    pub fn markdown(&self) -> String {
        let fmt_rate = |r: Option<f32>| match r {
            Some(r) => format!("{:.0}%", r * 100.0),
            None => "—".to_string(),
        };
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                let r = c.report();
                let mut stages: Vec<String> = r
                    .stage_stats
                    .iter()
                    .filter(|s| s.rejections > 0)
                    .map(|s| format!("{}:{}", s.stage, s.rejections))
                    .collect();
                if stages.is_empty() {
                    stages.push("—".into());
                }
                vec![
                    r.framework,
                    r.defense,
                    format!("B{}", r.building),
                    r.fleet,
                    r.attack,
                    r.participation,
                    r.network,
                    format!("{:.2}", r.mean_m),
                    format!("{:.1}%", r.accuracy * 100.0),
                    fmt_rate(r.attacker_rejection_rate),
                    fmt_rate(r.honest_rejection_rate),
                    r.mean_attacker_weight
                        .map(|w| format!("{w:.3}"))
                        .unwrap_or_else(|| "—".to_string()),
                    stages.join(" "),
                    format!("{:.1}", r.mean_train_ms),
                    format!("{:.2}", r.mean_aggregate_ms),
                ]
            })
            .collect();
        markdown_table(
            &[
                "framework",
                "defense",
                "building",
                "fleet",
                "attack",
                "participation",
                "network",
                "mean err (m)",
                "accuracy",
                "attacker rej.",
                "honest rej.",
                "attacker weight",
                "stage rejections",
                "train ms",
                "agg ms",
            ],
            &rows,
        )
    }
}

// ----------------------------------------------------------------- views

/// A cell attribute a [`ReportView`] groups by. Cells with the same label
/// along a key share a row (or column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Key {
    /// Framework label.
    Framework,
    /// Paper building id.
    Building,
    /// Fleet shape, from the cell's actual fleet size.
    Fleet,
    /// One entry of the attack axis.
    Attack,
    /// The attack's kind (`Clean` for the clean baseline).
    AttackKind,
    /// The attack's perturbation magnitude ε.
    Epsilon,
}

impl Key {
    fn name(self) -> &'static str {
        match self {
            Key::Framework => "framework",
            Key::Building => "building",
            Key::Fleet => "fleet",
            Key::Attack => "attack",
            Key::AttackKind => "attack kind",
            Key::Epsilon => "eps",
        }
    }

    /// The cell's label along this key.
    fn of(self, c: &CellRun) -> String {
        let attack = c.cell.attack.attack.as_ref();
        match self {
            Key::Framework => c.cell.framework.label(),
            Key::Building => format!("B{}", c.cell.building),
            Key::Fleet => c.fleet_label(),
            Key::Attack => c.cell.attack.label(),
            Key::AttackKind => attack.map_or("Clean".to_string(), |a| a.kind().label().to_string()),
            Key::Epsilon => attack.map_or("—".to_string(), |a| format!("{:.2}", a.epsilon())),
        }
    }

    /// The distinct labels along this key, in grid order.
    fn labels(self, run: &SuiteRun) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for c in &run.cells {
            let label = self.of(c);
            if !out.contains(&label) {
                out.push(label);
            }
        }
        out
    }
}

/// How the `suite` binary renders a run — the spec's `view` field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReportView {
    /// One row per cell ([`SuiteRun::markdown`]).
    Cells,
    /// Mean error per `rows` × `cols` label, pooled over every other axis.
    Pivot {
        /// Key of the table rows.
        rows: Key,
        /// Key of the table columns.
        cols: Key,
    },
    /// Best/mean/worst error per framework × attack, pooled over every
    /// other axis, and the mean over the baseline mean: the cells at the
    /// first label along `baseline` that share the row's framework and
    /// attack, except on `baseline` itself. "—" when that baseline mean is
    /// under 0.05 m.
    Stats {
        /// Key whose first label is the ratio's denominator.
        baseline: Key,
    },
}

impl ReportView {
    /// Renders the run as a markdown table.
    pub fn render(&self, run: &SuiteRun) -> String {
        match *self {
            ReportView::Cells => run.markdown(),
            ReportView::Pivot { rows, cols } => pivot(run, rows, cols),
            ReportView::Stats { baseline } => stats(run, baseline),
        }
    }
}

fn pivot(run: &SuiteRun, rows: Key, cols: Key) -> String {
    let (row_labels, col_labels) = (rows.labels(run), cols.labels(run));
    let mean = |r: &String, col: &String| {
        ErrorStats::from_errors(&run.pooled_errors(|c| rows.of(c) == *r && cols.of(c) == *col)).mean
    };
    let values: Vec<Vec<f32>> = row_labels
        .iter()
        .map(|r| col_labels.iter().map(|col| mean(r, col)).collect())
        .collect();
    let corner = format!("{} \\ {}", rows.name(), cols.name());
    heatmap(&corner, &col_labels, &row_labels, &values)
}

fn stats(run: &SuiteRun, baseline: Key) -> String {
    let Some(first) = run.cells.first() else {
        return String::new();
    };
    let base = baseline.of(first);
    let mut rows = Vec::new();
    for f in Key::Framework.labels(run) {
        for a in Key::Attack.labels(run) {
            let row = |c: &CellRun| Key::Framework.of(c) == f && Key::Attack.of(c) == a;
            let s = ErrorStats::from_errors(&run.pooled_errors(row));
            let base_mean = ErrorStats::from_errors(&run.pooled_errors(|c| {
                baseline.of(c) == base
                    && (baseline == Key::Framework || Key::Framework.of(c) == f)
                    && (baseline == Key::Attack || Key::Attack.of(c) == a)
            }))
            .mean;
            // Synthetic clean errors can be ~0 m; a ratio against ~0 is
            // meaningless.
            let ratio = if base_mean >= 0.05 {
                format!("{:.2}x", s.mean / base_mean)
            } else {
                "—".to_string()
            };
            rows.push(vec![
                f.clone(),
                a,
                format!("{:.2}", s.best),
                format!("{:.2}", s.mean),
                format!("{:.2}", s.worst),
                ratio,
            ]);
        }
    }
    let vs = format!("mean vs {base}");
    let header = [
        "framework",
        "attack",
        "best (m)",
        "mean (m)",
        "worst (m)",
        &vs,
    ];
    markdown_table(&header, &rows)
}

/// Schema tag of serialized suite reports.
pub const SUITE_SCHEMA: &str = "safeloc-bench/suite-report/v2";

/// Per-rule rejection statistics of one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleStats {
    /// Rejecting rule name (`"latent"`, `"krum"`, `"non-finite"`, …).
    pub rule: String,
    /// Malicious deliveries this rule rejected.
    pub attacker_rejections: usize,
    /// Honest deliveries this rule rejected (collateral damage).
    pub honest_rejections: usize,
    /// `attacker_rejections` over all malicious updates delivered in the
    /// cell's rounds — a count ratio, so each delivery weighs the same —
    /// or `None` when no malicious client delivered.
    pub attacker_rejection_rate: Option<f32>,
    /// `honest_rejections` over all honest updates delivered in the cell's
    /// rounds (the rule's false-positive rate, a count ratio), or `None`
    /// when no honest client delivered.
    pub false_positive_rate: Option<f32>,
}

/// Per-stage defense telemetry of one cell, pooled over its rounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSuiteStats {
    /// Stage (or combiner) name, in pipeline order.
    pub stage: String,
    /// Total updates this stage rejected over the cell's rounds.
    pub rejections: usize,
    /// Mean wall time per round, milliseconds.
    pub mean_wall_ms: f64,
}

/// The serializable record of one executed cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteCellReport {
    /// Framework display name.
    pub framework: String,
    /// Defense composition label (`"builtin"` for the framework's own
    /// rule).
    pub defense: String,
    /// Paper building id.
    pub building: usize,
    /// Fleet label (`"(total, attackers)"`).
    pub fleet: String,
    /// Attack label.
    pub attack: String,
    /// Participation label.
    pub participation: String,
    /// Network-conditions label.
    pub network: String,
    /// Delta-representation label.
    pub delta: String,
    /// Federated rounds run.
    pub rounds: usize,
    /// Seed salt of the repetition.
    pub seed_salt: u64,
    /// Best per-sample error, meters.
    pub best_m: f32,
    /// Mean per-sample error, meters.
    pub mean_m: f32,
    /// Worst per-sample error, meters.
    pub worst_m: f32,
    /// Exact-hit accuracy.
    pub accuracy: f32,
    /// Mean over rounds of each round's attacker-rejection rate ([`RoundTally`]).
    pub attacker_rejection_rate: Option<f32>,
    /// Mean over rounds of each round's honest-rejection rate.
    pub honest_rejection_rate: Option<f32>,
    /// Mean over rounds of each round's mean attacker weight (soft defenses).
    pub mean_attacker_weight: Option<f32>,
    /// Per-rule rejections; their rates are count ratios over the cell.
    pub rules: Vec<RuleStats>,
    /// Per-stage rejections and wall time, in pipeline order.
    pub stage_stats: Vec<StageSuiteStats>,
    /// Mean client-training wall time per round, ms.
    pub mean_train_ms: f64,
    /// Mean aggregation wall time per round, ms.
    pub mean_aggregate_ms: f64,
    /// Panic message of a failed cell (`None` for healthy cells). The
    /// `suite` binary exits nonzero when any cell carries one, so CI fails
    /// on embedded errors instead of silently uploading them.
    pub error: Option<String>,
    /// The fully resolved cell, for exact reproduction.
    pub cell: ScenarioCell,
}

/// The serializable record of a whole suite — written by the `suite`
/// binary (`SUITE_<name>.json`) and uploaded as a CI artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteReport {
    /// Report format version.
    pub schema: String,
    /// Suite name.
    pub name: String,
    /// Suite description.
    pub description: String,
    /// Scale the suite ran at (`Quick`/`Default`/`Full`).
    pub scale: String,
    /// Harness master seed.
    pub seed: u64,
    /// One record per cell, in grid order.
    pub cells: Vec<SuiteCellReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    fn spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(
            "unit",
            vec![FrameworkSpec::FedLoc, FrameworkSpec::Krum],
            vec![AttackSpec::clean(), AttackSpec::of(Attack::label_flip(0.8))],
        );
        spec.buildings = vec![5];
        spec.participation = vec![
            ParticipationSpec::full(),
            ParticipationSpec::fraction(0.5).with_churn(0.1, 0.0),
        ];
        spec.seed_salts = vec![0, 1];
        spec.rounds = 2;
        spec
    }

    #[test]
    #[allow(clippy::identity_op)] // the full axis product documents the grid
    fn grid_expansion_is_the_axis_product() {
        let cfg = HarnessConfig {
            scale: Scale::Quick,
            seed: 7,
        };
        let runner = SuiteRunner::new(cfg, spec());
        let cells = runner.cells();
        // frameworks × buildings × fleets × attacks × participation × seeds
        assert_eq!(cells.len(), 2 * 1 * 1 * 2 * 2 * 2);
        // Deterministic order, framework-major.
        assert_eq!(cells[0].index.framework, 0);
        assert_eq!(cells.last().unwrap().index.framework, 1);
        // Every cell resolves rounds and distinct seed salts.
        assert!(cells.iter().all(|c| c.rounds == 2));
        let a = &cells[0];
        let b = &cells[1];
        assert_ne!(a.scenario_seed(7), b.scenario_seed(7));
    }

    #[test]
    fn empty_buildings_fall_back_to_the_scale_defaults() {
        let mut s = spec();
        s.buildings = Vec::new();
        let quick = SuiteRunner::new(
            HarnessConfig {
                scale: Scale::Quick,
                seed: 0,
            },
            s.clone(),
        );
        assert_eq!(quick.buildings(), vec![5]);
        let full = SuiteRunner::new(
            HarnessConfig {
                scale: Scale::Default,
                seed: 0,
            },
            s,
        );
        assert_eq!(full.buildings().len(), 5);
    }

    #[test]
    fn spec_serde_round_trips() {
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn spec_defaults_fill_omitted_axes() {
        let json = r#"{
            "name": "minimal",
            "frameworks": ["FedLoc"],
            "attacks": [{"name": null, "attack": null}],
            "boost": null
        }"#;
        let s: ScenarioSpec = serde_json::from_str(json).unwrap();
        assert_eq!(s.fleets, vec![FleetSpec::paper()]);
        assert_eq!(s.participation, vec![ParticipationSpec::full()]);
        assert_eq!(s.networks, vec![NetworkSpec::ideal()]);
        assert_eq!(s.seed_salts, vec![0]);
        assert_eq!(s.rounds, 0);
        assert!(!s.coherent);
        assert!(s.buildings.is_empty());
        assert_eq!(s.view, ReportView::Cells);
    }

    /// FEDLOC and KRUM × clean and label flip, with chosen errors: FEDLOC's
    /// clean mean (0.02 m) is under the 0.05 m floor, KRUM's (2 m) is not.
    fn stats_run() -> SuiteRun {
        let mut s = spec();
        s.participation = vec![ParticipationSpec::full()];
        s.seed_salts = vec![0];
        let runner = SuiteRunner::new(
            HarnessConfig {
                scale: Scale::Quick,
                seed: 7,
            },
            s,
        );
        let errors = [
            vec![0.01, 0.03],
            vec![2.0, 4.0],
            vec![1.0, 3.0],
            vec![5.0, 7.0],
        ];
        SuiteRun {
            name: "stats".into(),
            description: String::new(),
            scale: "Quick".into(),
            seed: 7,
            cells: runner
                .cells()
                .into_iter()
                .zip(errors)
                .map(|(cell, errors)| CellRun {
                    cell,
                    fleet_size: 6,
                    errors,
                    reports: Vec::new(),
                    error: None,
                })
                .collect(),
        }
    }

    /// The rendered row for `framework` × `attack`.
    fn row<'a>(table: &'a str, framework: &str, attack: &str) -> Vec<&'a str> {
        let prefix = format!("| {framework} | {attack} |");
        let line = table
            .lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("no row {prefix} in\n{table}"));
        line.trim_matches('|').split('|').map(str::trim).collect()
    }

    #[test]
    fn stats_ratios_divide_by_the_baseline_mean_or_print_a_dash() {
        let run = stats_run();
        let flip = "Label Flip eps=0.80";

        let vs_clean = ReportView::Stats {
            baseline: Key::Attack,
        }
        .render(&run);
        assert!(vs_clean.lines().next().unwrap().contains("mean vs Clean"));
        assert_eq!(
            row(&vs_clean, "KRUM", flip),
            ["KRUM", flip, "5.00", "6.00", "7.00", "3.00x"]
        );
        assert_eq!(row(&vs_clean, "KRUM", "Clean")[5], "1.00x");
        // FEDLOC's clean mean is 0.02 m: no ratio against ~0.
        assert_eq!(row(&vs_clean, "FEDLOC", flip)[5], "—");
        assert_eq!(row(&vs_clean, "FEDLOC", "Clean")[5], "—");

        let vs_fedloc = ReportView::Stats {
            baseline: Key::Framework,
        }
        .render(&run);
        assert!(vs_fedloc.lines().next().unwrap().contains("mean vs FEDLOC"));
        assert_eq!(row(&vs_fedloc, "KRUM", flip)[5], "2.00x");
        assert_eq!(row(&vs_fedloc, "FEDLOC", flip)[5], "1.00x");
        assert_eq!(row(&vs_fedloc, "KRUM", "Clean")[5], "—");
    }

    #[test]
    fn participation_cohort_sizes_and_labels() {
        let full = ParticipationSpec::full();
        assert_eq!(full.cohort_size(6), 6);
        let half = ParticipationSpec::fraction(0.5);
        assert_eq!(half.cohort_size(6), 3);
        assert!(half.label(6).contains("3/6"));
        let one = ParticipationSpec::fraction(0.01);
        assert_eq!(one.cohort_size(6), 1, "fractions clamp to at least one");
        let k = ParticipationSpec {
            mode: ParticipationMode::UniformK { k: 9 },
            dropout: 0.0,
            straggle: 0.0,
        };
        assert_eq!(k.cohort_size(4), 4, "k clamps to the fleet");
    }

    #[test]
    fn fraction_one_maps_to_the_full_participation_fast_path() {
        let spec = ParticipationSpec::fraction(1.0);
        let clients: Vec<Client> = Vec::new();
        let sampler = spec.sampler(&clients, 3);
        assert_eq!(sampler, CohortSampler::full());
    }

    #[test]
    fn fleet_attacker_ids_match_fig7_assignment() {
        let data = BuildingDataset::generate(
            Building::tiny(3),
            &DatasetConfig::paper().with_fleet(9, 3),
            3,
        );
        let ids = FleetSpec::grown(9, 3).attacker_ids(&data);
        assert_eq!(ids[0], DeviceProfile::ATTACKER_DEVICE);
        assert_eq!(ids.len(), 3);
        assert!(!ids.contains(&data.train_device));
        let clean = FleetSpec {
            total: 0,
            attackers: 0,
        };
        assert!(clean.attacker_ids(&data).is_empty());

        // Saturated fleet: everything but the training device compromised —
        // including client 0 — and the unreachable fourth slot reported,
        // not silently dropped.
        let small = BuildingDataset::generate(
            Building::tiny(3),
            &DatasetConfig::paper().with_fleet(4, 3),
            3,
        );
        let ids = FleetSpec::grown(4, 4).attacker_ids(&small);
        assert_eq!(ids.len(), small.num_clients() - 1);
        assert!(ids.contains(&0));
        assert!(!ids.contains(&small.train_device));

        // Three phones: no HTC U11, and the last client is the training
        // device, so the back-fill alone picks the attacker.
        let three = BuildingDataset::generate(
            Building::tiny(3),
            &DatasetConfig::paper().with_fleet(3, 3),
            3,
        );
        let ids = FleetSpec::grown(3, 1).attacker_ids(&three);
        assert_eq!(ids, vec![1]);
        assert!(!ids.contains(&three.train_device));
    }

    /// A spec-file participation that would panic `CohortSampler` (a rate
    /// outside `[0, 1]`) or be silently clamped (a fraction outside
    /// `(0, 1]`) is refused, naming the field; the checked-in shapes pass.
    #[test]
    fn participation_specs_are_validated_field_by_field() {
        let churny = ParticipationSpec::full().with_churn(1.5, 0.0);
        assert!(churny.validate().unwrap_err().contains("dropout"));
        let late = ParticipationSpec::full().with_churn(0.0, -0.1);
        assert!(late.validate().unwrap_err().contains("straggle"));
        let nan = ParticipationSpec::full().with_churn(f64::NAN, 0.0);
        assert!(nan.validate().unwrap_err().contains("dropout"));
        for fraction in [0.0, 1.5, f32::NAN, f32::INFINITY] {
            let err = ParticipationSpec::fraction(fraction)
                .validate()
                .unwrap_err();
            assert!(err.contains("fraction"), "{err}");
        }
        for mode in [
            ParticipationMode::UniformK { k: 0 },
            ParticipationMode::WeightedByData { k: 0 },
        ] {
            let empty = ParticipationSpec {
                mode,
                ..ParticipationSpec::full()
            };
            let err = empty.validate().unwrap_err();
            assert!(err.starts_with("k "), "{err}");
        }
        assert_eq!(ParticipationSpec::full().validate(), Ok(()));
        assert_eq!(
            ParticipationSpec::fraction(0.33)
                .with_churn(0.15, 0.1)
                .validate(),
            Ok(())
        );
    }

    /// A spec-file pipeline whose stage or combiner would run something
    /// other than its label names (a clamped trim fraction, a norm clip
    /// switched off) is refused, naming the field and the value, by the
    /// pipeline and by the cell that carries it; the boundary values pass.
    #[test]
    fn pipeline_specs_are_validated_field_by_field() {
        let stage = |json: &str| PipelineSpec {
            name: None,
            stages: vec![serde_json::from_str(json).unwrap()],
            combiner: CombinerSpec::Mean,
        };
        let combiner = |json: &str| PipelineSpec {
            name: None,
            stages: Vec::new(),
            combiner: serde_json::from_str(json).unwrap(),
        };
        for (pipeline, field, value) in [
            (
                combiner(r#"{"TrimmedMean":{"trim_fraction":0.7}}"#),
                "trim_fraction",
                "0.7",
            ),
            (
                combiner(r#"{"TrimmedMean":{"trim_fraction":-0.1}}"#),
                "trim_fraction",
                "-0.1",
            ),
            (
                combiner(r#"{"TrimmedMean":{"trim_fraction":0.5}}"#),
                "trim_fraction",
                "0.5",
            ),
            (stage(r#"{"NormClip":{"multiple":0}}"#), "multiple", "0"),
            (
                stage(r#"{"NormClip":{"multiple":1e999}}"#),
                "multiple",
                "inf",
            ),
            (
                stage(r#"{"ClusterSplit":{"separation_threshold":2.5}}"#),
                "separation_threshold",
                "2.5",
            ),
            (
                stage(r#"{"LatentScreen":{"z_threshold":0}}"#),
                "z_threshold",
                "0",
            ),
            (
                stage(r#"{"HistoryScreen":{"z_threshold":1e999,"min_history":3}}"#),
                "z_threshold",
                "inf",
            ),
            (
                stage(r#"{"HistoryScreen":{"z_threshold":2,"min_history":0}}"#),
                "min_history",
                "0",
            ),
            (
                combiner(r#"{"Selective":{"aggregate_fraction":0}}"#),
                "aggregate_fraction",
                "0",
            ),
            (
                combiner(r#"{"Saliency":{"sharpness":-1}}"#),
                "sharpness",
                "-1",
            ),
        ] {
            let err = pipeline.validate().unwrap_err();
            assert!(err.starts_with(field) && err.ends_with(value), "{err}");
        }
        for ok in [
            combiner(r#"{"TrimmedMean":{"trim_fraction":0}}"#),
            combiner(r#"{"Selective":{"aggregate_fraction":1}}"#),
            combiner(r#"{"Saliency":{"sharpness":0}}"#),
            stage(r#"{"ClusterSplit":{"separation_threshold":2}}"#),
            stage(r#"{"HistoryScreen":{"z_threshold":2,"min_history":1}}"#),
        ] {
            assert_eq!(ok.validate(), Ok(()), "{}", ok.label());
        }
        let cfg = HarnessConfig {
            scale: Scale::Quick,
            seed: 7,
        };
        let mut cell = SuiteRunner::new(cfg, spec()).cells().remove(0);
        assert_eq!(cell.validate(), Ok(()));
        cell.defense = DefenseSpec::Pipeline(combiner(r#"{"TrimmedMean":{"trim_fraction":0.7}}"#));
        assert_eq!(
            cell.validate().unwrap_err(),
            "defense trimmed-mean(0.7): trim_fraction must be in [0, 0.5), got 0.7"
        );
    }

    /// An unnamed pipeline's label carries every stage parameter, so two
    /// cells that screen differently never share a table row.
    #[test]
    fn unnamed_pipelines_label_every_stage_parameter() {
        let label = |json: &str| {
            PipelineSpec {
                name: None,
                stages: vec![serde_json::from_str(json).unwrap()],
                combiner: CombinerSpec::Mean,
            }
            .label()
        };
        for (a, b, expected) in [
            (
                r#"{"ClusterSplit":{"separation_threshold":0.15}}"#,
                r#"{"ClusterSplit":{"separation_threshold":0.3}}"#,
                "cluster(0.15)→mean",
            ),
            (
                r#"{"LatentScreen":{"z_threshold":1.8}}"#,
                r#"{"LatentScreen":{"z_threshold":2.5}}"#,
                "latent(z=1.8)→mean",
            ),
            (
                r#"{"HistoryScreen":{"z_threshold":2,"min_history":3}}"#,
                r#"{"HistoryScreen":{"z_threshold":2.5,"min_history":3}}"#,
                "history-screen(z=2, min=3)→mean",
            ),
            (
                r#"{"HistoryScreen":{"z_threshold":2,"min_history":3}}"#,
                r#"{"HistoryScreen":{"z_threshold":2,"min_history":4}}"#,
                "history-screen(z=2, min=3)→mean",
            ),
        ] {
            assert_eq!(label(a), expected);
            assert_ne!(label(a), label(b), "{a} vs {b}");
        }
    }

    /// A cell the run refuses is refused before its framework is built:
    /// with no valid cell of that framework in the grid, the run leaves
    /// the template cache empty, and the cell's error is the message
    /// [`ScenarioCell::validate`] gives.
    #[test]
    fn a_refused_cell_pretrains_no_template() {
        let mut s = ScenarioSpec::new(
            "refused",
            vec![FrameworkSpec::Krum],
            vec![AttackSpec::clean()],
        );
        s.buildings = vec![4];
        s.rounds = 1;
        s.defenses = vec![DefenseSpec::Pipeline(PipelineSpec {
            name: None,
            stages: Vec::new(),
            combiner: CombinerSpec::TrimmedMean { trim_fraction: 0.7 },
        })];
        let cfg = HarnessConfig {
            scale: Scale::Quick,
            seed: 7,
        };
        let mut runner = SuiteRunner::new(cfg, s).with_dataset_builder(|building, _, seed| {
            BuildingDataset::generate(
                Building::tiny(building as u64),
                &DatasetConfig::tiny(),
                seed,
            )
        });
        let expected = runner.cells()[0].validate().unwrap_err();
        let run = runner.run();
        assert_eq!(run.cells.len(), 1);
        assert_eq!(run.cells[0].error.as_deref(), Some(expected.as_str()));
        assert!(run.cells[0].fleet_size > 0);
        assert!(runner.templates.is_empty());
    }

    #[test]
    #[allow(clippy::identity_op)] // the full axis product documents the grid
    fn network_axis_multiplies_the_grid_with_independent_fault_seeds() {
        let mut s = spec();
        s.networks = vec![
            NetworkSpec::ideal(),
            NetworkSpec {
                name: Some("lossy".into()),
                drop_probability: 0.2,
                ..NetworkSpec::ideal()
            },
        ];
        let runner = SuiteRunner::new(
            HarnessConfig {
                scale: Scale::Quick,
                seed: 7,
            },
            s,
        );
        let cells = runner.cells();
        // frameworks × defense × buildings × fleets × attacks ×
        // participation × networks × seeds
        assert_eq!(cells.len(), 2 * 1 * 1 * 1 * 2 * 2 * 2 * 2);
        let ideal = cells.iter().find(|c| c.index.network == 0).unwrap();
        let lossy = cells
            .iter()
            .find(|c| {
                c.index.network == 1
                    && c.index
                        == CellIndex {
                            network: 1,
                            ..ideal.index
                        }
            })
            .unwrap();
        // Network variants share the training stream but not the fault one.
        assert_eq!(ideal.scenario_seed(7), lossy.scenario_seed(7));
        assert_ne!(ideal.network_seed(7), lossy.network_seed(7));
        assert!(lossy.label().contains("net=lossy"));
        assert!(!ideal.label().contains("net="), "{}", ideal.label());
    }

    #[test]
    fn delta_axis_multiplies_the_grid_without_salting_the_scenario_seed() {
        let mut s = spec();
        s.deltas = vec![
            DeltaSpec::Dense,
            DeltaSpec::TopK { fraction: 0.05 },
            DeltaSpec::QuantizedI8,
        ];
        let runner = SuiteRunner::new(
            HarnessConfig {
                scale: Scale::Quick,
                seed: 7,
            },
            s,
        );
        let cells = runner.cells();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2 * 3);
        let dense = cells.iter().find(|c| c.index.delta == 0).unwrap();
        let topk = cells
            .iter()
            .find(|c| {
                c.index.delta == 1
                    && c.index
                        == CellIndex {
                            delta: 1,
                            ..dense.index
                        }
            })
            .unwrap();
        // Compression variants of a cell train on identical streams.
        assert_eq!(dense.scenario_seed(7), topk.scenario_seed(7));
        assert_eq!(dense.sampler_seed(7), topk.sampler_seed(7));
        assert!(topk.label().contains("delta=topk=0.05"), "{}", topk.label());
        assert!(!dense.label().contains("delta="), "{}", dense.label());
    }

    #[test]
    fn unknown_delta_repr_names_fail_spec_parsing_naming_the_offender() {
        let json = r#"{
            "name": "bad",
            "frameworks": ["FedLoc"],
            "attacks": [{}],
            "deltas": ["Sparse9000"]
        }"#;
        let err = serde_json::from_str::<ScenarioSpec>(json).unwrap_err();
        let msg = format!("{err:?}");
        assert!(
            msg.contains("Sparse9000"),
            "error names the offender: {msg}"
        );
    }

    #[test]
    fn specs_without_a_delta_axis_default_to_dense_only() {
        let json = r#"{
            "name": "plain",
            "frameworks": ["FedLoc"],
            "attacks": [{}]
        }"#;
        let spec: ScenarioSpec = serde_json::from_str(json).unwrap();
        assert_eq!(spec.deltas, vec![DeltaSpec::Dense]);
    }

    #[test]
    fn network_labels_derive_from_the_profile() {
        assert_eq!(NetworkSpec::ideal().label(), "ideal");
        let wan = NetworkSpec {
            latency_ms_mean: 40.0,
            latency_ms_std: 8.0,
            drop_probability: 0.1,
            deadline_ms: 250.0,
            ..NetworkSpec::ideal()
        };
        assert_eq!(wan.label(), "lat=40±8ms drop=0.1 ddl=250ms");
        let named = NetworkSpec {
            name: Some("wan".into()),
            ..wan
        };
        assert_eq!(named.label(), "wan");
        assert!(!named.is_ideal());
        // The built profile carries every knob plus the cell seed.
        let fault = named.fault(9);
        assert_eq!(fault.latency_ms_mean, 40.0);
        assert_eq!(fault.drop_probability, 0.1);
        assert_eq!(fault.seed, 9);
    }

    /// A spec-file network that would panic `degrade_plan` (an infinite
    /// std) or bench nobody sensibly (a negative deadline) is refused,
    /// naming the field; the checked-in shapes pass.
    #[test]
    fn network_specs_are_validated_field_by_field() {
        let inf_std: NetworkSpec =
            serde_json::from_str(r#"{"latency_ms_mean": 5, "latency_ms_std": 1e999}"#).unwrap();
        let err = inf_std.validate().unwrap_err();
        assert!(err.contains("latency_ms_std"), "{err}");
        let early = NetworkSpec {
            deadline_ms: -1.0,
            ..NetworkSpec::ideal()
        };
        assert!(early.validate().unwrap_err().contains("deadline_ms"));
        let lossy = NetworkSpec {
            drop_probability: 2.0,
            ..NetworkSpec::ideal()
        };
        assert!(lossy.validate().unwrap_err().contains("drop_probability"));
        assert_eq!(NetworkSpec::ideal().validate(), Ok(()));
    }

    #[test]
    fn framework_labels_and_template_keys() {
        assert_eq!(FrameworkSpec::Safeloc.label(), "SAFELOC");
        assert_eq!(
            FrameworkSpec::SafelocTau { tau: 0.25 }.template_key(),
            "SAFELOC",
            "tau points share the base template"
        );
        assert_eq!(
            FrameworkSpec::SafelocVariant {
                variant: SafelocVariant::NoDenoise
            }
            .label(),
            "SAFELOC[no-denoise]"
        );
        assert_eq!(FrameworkSpec::Krum.label(), "KRUM");
    }
}
