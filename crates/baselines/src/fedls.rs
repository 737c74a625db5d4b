//! FEDLS (Luong et al. 2023): large DNN + server-side latent-space
//! anomaly filtering of updates.

use crate::arch::fedls_dims;
use safeloc_dataset::FingerprintSet;
use safeloc_fl::{
    Client, DefensePipeline, Framework, RoundPlan, RoundReport, SequentialFlServer, ServerConfig,
};
use safeloc_nn::Matrix;

/// FEDLS: every round, the server projects the received update deltas into
/// a latent space, fits an autoencoder, and drops updates whose
/// reconstruction error is anomalous before FedAvg.
///
/// The "resource-intensive" baseline of Table I: it deploys the largest
/// localizer and runs a second model server-side. Strong on label flipping;
/// weaker on backdoors whose LM-space footprint hides inside the
/// heterogeneity scatter (Fig. 6).
#[derive(Debug, Clone)]
pub struct FedLs {
    inner: SequentialFlServer,
}

impl FedLs {
    /// Creates FEDLS for a building.
    pub fn new(input_dim: usize, n_classes: usize, cfg: ServerConfig) -> Self {
        Self {
            inner: SequentialFlServer::named(
                "FEDLS",
                &fedls_dims(input_dim, n_classes),
                Box::new(DefensePipeline::latent(cfg.seed)),
                cfg,
            ),
        }
    }
}

impl Framework for FedLs {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pretrain(&mut self, train: &FingerprintSet) {
        self.inner.pretrain(train);
    }

    fn run_round(&mut self, clients: &mut [Client], plan: &RoundPlan) -> RoundReport {
        self.inner.run_round(clients, plan)
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.inner.predict(x)
    }

    fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    fn global_params(&self) -> safeloc_nn::NamedParams {
        self.inner.global_params()
    }

    fn clone_box(&self) -> Box<dyn Framework> {
        Box::new(self.clone())
    }

    fn set_aggregator(&mut self, aggregator: Box<dyn safeloc_fl::Aggregator>) {
        self.inner.set_aggregator(aggregator);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};

    #[test]
    fn trains_with_latent_filtering() {
        let data = BuildingDataset::generate(Building::tiny(1), &DatasetConfig::tiny(), 1);
        let mut f = FedLs::new(
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
        let f = FedLs::new(100, 20, ServerConfig::tiny());
        let fedloc = crate::FedLoc::new(100, 20, ServerConfig::tiny());
        assert!(f.num_params() > fedloc.num_params());
    }
}
