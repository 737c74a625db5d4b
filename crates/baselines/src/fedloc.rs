//! FEDLOC (Yin et al., IEEE JSP 2020): DNN global model + plain FedAvg.

use crate::arch::fedloc_dims;
use safeloc_dataset::FingerprintSet;
use safeloc_fl::{
    Client, DefensePipeline, Framework, RoundPlan, RoundReport, SequentialFlServer, ServerConfig,
};
use safeloc_nn::Matrix;

/// FEDLOC: a three-layer DNN aggregated with FedAvg and no defense — the
/// paper's most vulnerable baseline (highest errors in Figs. 1 and 6).
#[derive(Debug, Clone)]
pub struct FedLoc {
    inner: SequentialFlServer,
}

impl FedLoc {
    /// Creates FEDLOC for a building.
    pub fn new(input_dim: usize, n_classes: usize, cfg: ServerConfig) -> Self {
        Self {
            inner: SequentialFlServer::named(
                "FEDLOC",
                &fedloc_dims(input_dim, n_classes),
                Box::new(DefensePipeline::fedavg()),
                cfg,
            ),
        }
    }
}

impl Framework for FedLoc {
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
    fn trains_and_names_itself() {
        let data = BuildingDataset::generate(Building::tiny(1), &DatasetConfig::tiny(), 1);
        let mut f = FedLoc::new(
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
        let f = FedLoc::new(50, 10, ServerConfig::tiny());
        let dims = fedloc_dims(50, 10);
        let expect: usize = dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum();
        assert_eq!(f.num_params(), expect);
    }
}
