//! FEDHIL (Gufran et al., ACM TECS 2023): DNN global model + selective
//! per-tensor aggregation.

use crate::arch::fedhil_dims;
use safeloc_dataset::FingerprintSet;
use safeloc_fl::{
    Client, DefensePipeline, Framework, RoundPlan, RoundReport, SelectiveAggregator,
    SequentialFlServer, ServerConfig,
};
use safeloc_nn::Matrix;

/// FEDHIL: heterogeneity-resilient FL with selective weight aggregation —
/// per-tensor outlier rejection against the median client deviation.
///
/// Fig. 1 shows it more resilient than FEDLOC to backdoors but *worse* under
/// label flipping: flipped-label LMs deviate on most tensors at once, so the
/// median itself shifts and poisoned tensors get accepted.
#[derive(Debug, Clone)]
pub struct FedHil {
    inner: SequentialFlServer,
}

impl FedHil {
    /// Creates FEDHIL for a building.
    pub fn new(input_dim: usize, n_classes: usize, cfg: ServerConfig) -> Self {
        Self {
            inner: SequentialFlServer::named(
                "FEDHIL",
                &fedhil_dims(input_dim, n_classes),
                Box::new(DefensePipeline::selective(
                    SelectiveAggregator::default().aggregate_fraction,
                )),
                cfg,
            ),
        }
    }
}

impl Framework for FedHil {
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
    fn trains_and_uses_selective_aggregation() {
        let data = BuildingDataset::generate(Building::tiny(1), &DatasetConfig::tiny(), 1);
        let mut f = FedHil::new(
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
