//! FEDCC (Jeong et al. 2022): DNN + similarity clustering of updates.

use crate::arch::fedcc_dims;
use safeloc_dataset::FingerprintSet;
use safeloc_fl::{
    Client, ClusterAggregator, DefensePipeline, Framework, RoundPlan, RoundReport,
    SequentialFlServer, ServerConfig,
};
use safeloc_nn::Matrix;

/// FEDCC: clusters client updates by gradient similarity and aggregates
/// only the majority cluster.
///
/// Resilient to label flipping (flipped LMs form their own cluster) but —
/// per the paper's Fig. 6 analysis — weak against strong backdoors, where
/// honest heterogeneous clients scatter enough that legitimate updates land
/// in the discarded cluster.
#[derive(Debug, Clone)]
pub struct FedCc {
    inner: SequentialFlServer,
}

impl FedCc {
    /// Creates FEDCC for a building.
    pub fn new(input_dim: usize, n_classes: usize, cfg: ServerConfig) -> Self {
        Self {
            inner: SequentialFlServer::named(
                "FEDCC",
                &fedcc_dims(input_dim, n_classes),
                Box::new(DefensePipeline::cluster(
                    ClusterAggregator::default().separation_threshold,
                )),
                cfg,
            ),
        }
    }
}

impl Framework for FedCc {
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
    fn trains_with_clustering() {
        let data = BuildingDataset::generate(Building::tiny(1), &DatasetConfig::tiny(), 1);
        let mut f = FedCc::new(
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
