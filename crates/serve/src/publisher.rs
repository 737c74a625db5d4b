//! The training→serving bridge: an [`FlSession`](safeloc_fl::FlSession)
//! publisher that pushes every round's aggregated global model into a
//! [`ModelRegistry`].
//!
//! Attach a [`RegistryPublisher`] via
//! [`FlSessionBuilder::publisher`](safeloc_fl::FlSessionBuilder::publisher)
//! and every executed round hot-swaps the session's hardened global model
//! under the configured registry key while traffic is being served — the
//! closed training→publish→serve loop.

use crate::registry::{ModelKey, ModelRegistry};
use safeloc_fl::{ModelPublisher, RoundReport};
use safeloc_nn::NamedParams;
use std::sync::Arc;

/// Publishes every round's global model under one registry key.
///
/// The registry key must already hold a base model of the session's
/// architecture (publish the pretrained model before starting the
/// session); rounds whose parameters do not fit are counted in
/// [`RegistryPublisher::skipped`] instead of poisoning the registry — a
/// session of the wrong architecture must not take serving down.
pub struct RegistryPublisher {
    registry: Arc<ModelRegistry>,
    key: ModelKey,
    published: u64,
    skipped: u64,
}

impl RegistryPublisher {
    /// A publisher pushing into `registry` under `key`.
    pub fn new(registry: Arc<ModelRegistry>, key: ModelKey) -> Self {
        Self {
            registry,
            key,
            published: 0,
            skipped: 0,
        }
    }

    /// Rounds successfully published so far.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Rounds skipped because their parameters did not fit the key's
    /// serving architecture.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }
}

impl ModelPublisher for RegistryPublisher {
    fn publish_round(&mut self, report: &RoundReport, global: &NamedParams) {
        match self.registry.publish_params(&self.key, global) {
            Ok(_) => self.published += 1,
            Err(err) => {
                self.skipped += 1;
                eprintln!(
                    "registry publisher: skipping round {} for {}: {err}",
                    report.round, self.key
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
    use safeloc_fl::{
        Client, DefensePipeline, FlSession, Framework, SequentialFlServer, ServerConfig,
    };
    use safeloc_nn::HasParams;

    #[test]
    fn session_rounds_hot_swap_the_registry() {
        let data = BuildingDataset::generate(Building::tiny(3), &DatasetConfig::tiny(), 3);
        let mut server = SequentialFlServer::new(
            &[data.building.num_aps(), 16, data.building.num_rps()],
            DefensePipeline::fedavg(),
            ServerConfig::tiny(),
        );
        server.pretrain(&data.server_train);

        let registry = Arc::new(ModelRegistry::new());
        let key = ModelKey::default_for(data.building.id);
        registry.publish(
            key.clone(),
            server.global_model().clone(),
            Some(data.building.clone()),
        );

        let rounds = 3;
        let mut session = FlSession::builder(Box::new(server))
            .clients(Client::from_dataset(&data, 1))
            .publisher(Box::new(RegistryPublisher::new(
                Arc::clone(&registry),
                key.clone(),
            )))
            .build();
        session.run(rounds);

        let served = registry.get(&key).expect("still published");
        assert_eq!(
            served.version,
            1 + rounds as u64,
            "pretrained base + one version per round"
        );
        assert_eq!(
            served.network.snapshot(),
            session.framework().global_params(),
            "registry serves the session's final GM bitwise"
        );
        assert!(
            served.geometry.is_some(),
            "geometry survives parameter publishes"
        );
    }

    #[test]
    fn arch_mismatch_rounds_are_skipped_not_fatal() {
        let data = BuildingDataset::generate(Building::tiny(4), &DatasetConfig::tiny(), 4);
        let mut server = SequentialFlServer::new(
            &[data.building.num_aps(), 16, data.building.num_rps()],
            DefensePipeline::fedavg(),
            ServerConfig::tiny(),
        );
        server.pretrain(&data.server_train);

        // The registry key holds a model of a *different* architecture.
        let registry = Arc::new(ModelRegistry::new());
        let key = ModelKey::default_for(99);
        registry.publish(
            key.clone(),
            safeloc_nn::Sequential::mlp(&[3, 2], safeloc_nn::Activation::Relu, 0),
            None,
        );

        let mut session = FlSession::builder(Box::new(server))
            .clients(Client::from_dataset(&data, 1))
            .publisher(Box::new(RegistryPublisher::new(
                Arc::clone(&registry),
                key.clone(),
            )))
            .build();
        session.run(2);

        let served = registry.get(&key).expect("base model untouched");
        assert_eq!(served.version, 1, "mismatched rounds must not publish");
    }
}
