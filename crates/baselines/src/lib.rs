//! The six baseline FL indoor-localization frameworks the paper compares
//! SAFELOC against (§II, §V).
//!
//! | Framework | Global model | Aggregation | Defense |
//! |---|---|---|---|
//! | [`fedloc`] | 3-layer DNN | FedAvg | none |
//! | [`fedhil`] | 3-layer DNN | selective per-tensor | outlier tensors dropped |
//! | [`krum`] | small MLP | Krum selection | distance-based LM filtering |
//! | [`fedcc`] | DNN | 2-means clustering | minority cluster dropped |
//! | [`fedls`] | large DNN + server AE | latent-space filtering | anomalous updates dropped |
//! | [`Onlad`] | DNN + on-device AE | FedAvg | poisoned *samples* dropped on device |
//!
//! The first five differ from one another in three values — display name,
//! layer widths ([`arch`]) and server-side defense — so each is a
//! constructor returning a [`SequentialFlServer`]; [`Onlad`] owns an
//! on-device detector and its own round, so it is a type. All implement
//! [`safeloc_fl::Framework`], so the benches treat them interchangeably
//! with SAFELOC. Layer widths are chosen to preserve the paper's Table I
//! parameter-count ordering (SAFELOC < FEDCC < FEDHIL < ONLAD < FEDLOC <
//! FEDLS); the originals' exact widths are not published for the
//! localization setting.
//!
//! # Example
//!
//! ```
//! use safeloc_baselines::fedloc;
//! use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
//! use safeloc_fl::{Client, Framework, RoundPlan, ServerConfig};
//!
//! let data = BuildingDataset::generate(Building::tiny(2), &DatasetConfig::tiny(), 2);
//! let mut f = fedloc(data.building.num_aps(), data.building.num_rps(), ServerConfig::tiny());
//! f.pretrain(&data.server_train);
//! let mut clients = Client::from_dataset(&data, 0);
//! let plan = RoundPlan::full(clients.len());
//! let report = f.run_round(&mut clients, &plan);
//! assert_eq!(f.name(), "FEDLOC");
//! assert_eq!(report.accepted(), clients.len());
//! ```

pub mod arch;
pub mod onlad;

pub use onlad::Onlad;

use safeloc_fl::{
    ClusterAggregator, DefensePipeline, SelectiveAggregator, SequentialFlServer, ServerConfig,
};

/// FEDLOC (Yin et al., IEEE JSP 2020): a three-layer DNN aggregated with
/// FedAvg and no defense — the paper's most vulnerable baseline (highest
/// errors in Figs. 1 and 6).
pub fn fedloc(input_dim: usize, n_classes: usize, cfg: ServerConfig) -> SequentialFlServer {
    SequentialFlServer::named(
        "FEDLOC",
        &arch::fedloc_dims(input_dim, n_classes),
        DefensePipeline::fedavg(),
        cfg,
    )
}

/// FEDHIL (Gufran et al., ACM TECS 2023): heterogeneity-resilient FL with
/// selective weight aggregation — per-tensor outlier rejection against the
/// median client deviation.
///
/// Fig. 1 shows it more resilient than FEDLOC to backdoors but *worse* under
/// label flipping: flipped-label LMs deviate on most tensors at once, so the
/// median itself shifts and poisoned tensors get accepted.
pub fn fedhil(input_dim: usize, n_classes: usize, cfg: ServerConfig) -> SequentialFlServer {
    SequentialFlServer::named(
        "FEDHIL",
        &arch::fedhil_dims(input_dim, n_classes),
        DefensePipeline::selective(SelectiveAggregator::default().aggregate_fraction),
        cfg,
    )
}

/// FEDCC (Jeong et al. 2022): clusters client updates by gradient
/// similarity and aggregates only the majority cluster.
///
/// Resilient to label flipping (flipped LMs form their own cluster) but —
/// per the paper's Fig. 6 analysis — weak against strong backdoors, where
/// honest heterogeneous clients scatter enough that legitimate updates land
/// in the discarded cluster.
pub fn fedcc(input_dim: usize, n_classes: usize, cfg: ServerConfig) -> SequentialFlServer {
    SequentialFlServer::named(
        "FEDCC",
        &arch::fedcc_dims(input_dim, n_classes),
        DefensePipeline::cluster(ClusterAggregator::default().separation_threshold),
        cfg,
    )
}

/// FEDLS (Luong et al. 2023): every round, the server projects the received
/// update deltas into a latent space, fits an autoencoder, and drops updates
/// whose reconstruction error is anomalous before FedAvg.
///
/// The "resource-intensive" baseline of Table I: it deploys the largest
/// localizer and runs a second model server-side. Strong on label flipping;
/// weaker on backdoors whose LM-space footprint hides inside the
/// heterogeneity scatter (Fig. 6).
pub fn fedls(input_dim: usize, n_classes: usize, cfg: ServerConfig) -> SequentialFlServer {
    SequentialFlServer::named(
        "FEDLS",
        &arch::fedls_dims(input_dim, n_classes),
        DefensePipeline::latent(cfg.seed),
        cfg,
    )
}

/// KRUM (El Mhamdi et al. 2018; §II): a simple MLP global model whose next
/// version is the single LM closest to its peers, assuming one Byzantine
/// client. Robust to isolated outliers but discards the collaborative
/// signal — weak device-heterogeneity resilience.
pub fn krum(input_dim: usize, n_classes: usize, cfg: ServerConfig) -> SequentialFlServer {
    SequentialFlServer::named(
        "KRUM",
        &arch::krum_dims(input_dim, n_classes),
        DefensePipeline::krum(1),
        cfg,
    )
}

// One test module per framework (a function and a module may share a
// name): each test keeps the path it has had since the frameworks were
// five files — `fedloc::tests::trains_and_names_itself` and so on.

#[cfg(test)]
mod fedloc {
    mod tests {
        use crate::{arch::fedloc_dims, fedloc};
        use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
        use safeloc_fl::{Client, Framework, RoundPlan, ServerConfig};

        #[test]
        fn trains_and_names_itself() {
            let data = BuildingDataset::generate(Building::tiny(1), &DatasetConfig::tiny(), 1);
            let mut f = fedloc(
                data.building.num_aps(),
                data.building.num_rps(),
                ServerConfig::tiny(),
            );
            assert_eq!(f.name(), "FEDLOC");
            f.pretrain(&data.server_train);
            assert!(f.accuracy(&data.server_train.x, &data.server_train.labels) > 0.7);
            let mut clients = Client::from_dataset(&data, 0);
            let plan = RoundPlan::full(clients.len());
            f.run_round(&mut clients, &plan);
        }

        #[test]
        fn param_count_matches_architecture() {
            let f = fedloc(50, 10, ServerConfig::tiny());
            let dims = fedloc_dims(50, 10);
            let expect: usize = dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum();
            assert_eq!(f.num_params(), expect);
        }
    }
}

#[cfg(test)]
mod fedhil {
    mod tests {
        use crate::fedhil;
        use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
        use safeloc_fl::{Client, Framework, RoundPlan, ServerConfig};

        #[test]
        fn trains_and_uses_selective_aggregation() {
            let data = BuildingDataset::generate(Building::tiny(1), &DatasetConfig::tiny(), 1);
            let mut f = fedhil(
                data.building.num_aps(),
                data.building.num_rps(),
                ServerConfig::tiny(),
            );
            assert_eq!(f.name(), "FEDHIL");
            f.pretrain(&data.server_train);
            let before = f.accuracy(&data.server_train.x, &data.server_train.labels);
            assert!(before > 0.7, "pretrain accuracy {before}");
            let mut clients = Client::from_dataset(&data, 0);
            let plan = RoundPlan::full(clients.len());
            f.run_round(&mut clients, &plan);
            let after = f.accuracy(&data.server_train.x, &data.server_train.labels);
            assert!(after > before - 0.3);
        }
    }
}

#[cfg(test)]
mod fedcc {
    mod tests {
        use crate::fedcc;
        use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
        use safeloc_fl::{Client, Framework, RoundPlan, ServerConfig};

        #[test]
        fn trains_with_clustering() {
            let data = BuildingDataset::generate(Building::tiny(1), &DatasetConfig::tiny(), 1);
            let mut f = fedcc(
                data.building.num_aps(),
                data.building.num_rps(),
                ServerConfig::tiny(),
            );
            assert_eq!(f.name(), "FEDCC");
            f.pretrain(&data.server_train);
            let mut clients = Client::from_dataset(&data, 0);
            let plan = RoundPlan::full(clients.len());
            f.run_round(&mut clients, &plan);
            assert!(f.accuracy(&data.server_train.x, &data.server_train.labels) > 0.5);
        }
    }
}

#[cfg(test)]
mod fedls {
    mod tests {
        use crate::{fedloc, fedls};
        use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
        use safeloc_fl::{Client, Framework, RoundPlan, ServerConfig};

        #[test]
        fn trains_with_latent_filtering() {
            let data = BuildingDataset::generate(Building::tiny(1), &DatasetConfig::tiny(), 1);
            let mut f = fedls(
                data.building.num_aps(),
                data.building.num_rps(),
                ServerConfig::tiny(),
            );
            assert_eq!(f.name(), "FEDLS");
            f.pretrain(&data.server_train);
            let mut clients = Client::from_dataset(&data, 0);
            let plan = RoundPlan::full(clients.len());
            f.run_round(&mut clients, &plan);
            assert!(f.accuracy(&data.server_train.x, &data.server_train.labels) > 0.5);
        }

        #[test]
        fn is_the_largest_framework() {
            let f = fedls(100, 20, ServerConfig::tiny());
            let fedloc = fedloc(100, 20, ServerConfig::tiny());
            assert!(f.num_params() > fedloc.num_params());
        }
    }
}

#[cfg(test)]
mod krum {
    mod tests {
        use crate::{fedloc, krum};
        use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
        use safeloc_fl::{Client, Framework, RoundPlan, ServerConfig};

        #[test]
        fn trains_with_krum_selection() {
            let data = BuildingDataset::generate(Building::tiny(1), &DatasetConfig::tiny(), 1);
            let mut f = krum(
                data.building.num_aps(),
                data.building.num_rps(),
                ServerConfig::tiny(),
            );
            assert_eq!(f.name(), "KRUM");
            f.pretrain(&data.server_train);
            let mut clients = Client::from_dataset(&data, 0);
            let plan = RoundPlan::full(clients.len());
            f.run_round(&mut clients, &plan);
            assert!(f.accuracy(&data.server_train.x, &data.server_train.labels) > 0.4);
        }

        #[test]
        fn is_the_smallest_baseline() {
            let f = krum(100, 20, ServerConfig::tiny());
            let fedloc = fedloc(100, 20, ServerConfig::tiny());
            assert!(f.num_params() < fedloc.num_params());
        }
    }
}
