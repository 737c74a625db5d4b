//! KRUM (El Mhamdi et al. 2018): simple MLP + Krum LM selection.

use crate::arch::krum_dims;
use safeloc_dataset::FingerprintSet;
use safeloc_fl::{
    Client, DefensePipeline, Framework, RoundPlan, RoundReport, SequentialFlServer, ServerConfig,
};
use safeloc_nn::Matrix;

/// The KRUM baseline (§II): a simple MLP global model whose next version is
/// the single LM closest to its peers. Robust to isolated outliers but
/// discards the collaborative signal — weak device-heterogeneity resilience.
#[derive(Debug, Clone)]
pub struct KrumFramework {
    inner: SequentialFlServer,
}

impl KrumFramework {
    /// Creates the KRUM framework assuming one Byzantine client.
    pub fn new(input_dim: usize, n_classes: usize, cfg: ServerConfig) -> Self {
        Self::with_byzantine(input_dim, n_classes, cfg, 1)
    }

    /// Creates the KRUM framework assuming `f` Byzantine clients.
    pub fn with_byzantine(input_dim: usize, n_classes: usize, cfg: ServerConfig, f: usize) -> Self {
        Self {
            inner: SequentialFlServer::named(
                "KRUM",
                &krum_dims(input_dim, n_classes),
                Box::new(DefensePipeline::krum(f)),
                cfg,
            ),
        }
    }
}

impl Framework for KrumFramework {
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
    fn trains_with_krum_selection() {
        let data = BuildingDataset::generate(Building::tiny(1), &DatasetConfig::tiny(), 1);
        let mut f = KrumFramework::new(
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
        let f = KrumFramework::new(100, 20, ServerConfig::tiny());
        let fedloc = crate::FedLoc::new(100, 20, ServerConfig::tiny());
        assert!(f.num_params() < fedloc.num_params());
    }
}
