//! Fleet-scaling demo: grow the client fleet with synthetic phones and an
//! increasing number of colluding attackers, as in the paper's Fig. 7 —
//! then go past what a materialized fleet can hold: a streaming round
//! over 50 000 synthetic clients shipping top-k compressed deltas.
//!
//! ```text
//! cargo run -p safeloc-bench --release --example scalability
//! ```

use safeloc::{SafeLoc, SafeLocConfig};
use safeloc_attacks::{Attack, PoisonInjector};
use safeloc_bench::SyntheticFleet;
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
use safeloc_fl::{
    Client, ClientOutcome, CohortSampler, DefensePipeline, DeltaRepr, DeltaSpec, FlSession,
    Framework, SequentialFlServer, ServerConfig,
};
use safeloc_metrics::{localization_errors, ErrorStats};

fn main() {
    for (total, poisoned) in [(6usize, 1usize), (12, 4), (18, 8)] {
        let cfg = DatasetConfig::paper().with_fleet(total, 9);
        let data = BuildingDataset::generate(Building::paper(5), &cfg, 9);

        let mut framework = SafeLoc::new(
            data.building.num_aps(),
            data.building.num_rps(),
            SafeLocConfig::default_scale(9),
        );
        framework.pretrain(&data.server_train);

        let mut clients = Client::from_dataset(&data, 9);
        let boost = total as f32 / poisoned as f32;
        let mut compromised = 0;
        for id in (0..clients.len()).rev() {
            if compromised == poisoned {
                break;
            }
            if id == data.train_device {
                continue;
            }
            clients[id].injector =
                Some(PoisonInjector::new(Attack::label_flip(0.6), 9 + id as u64).with_boost(boost));
            compromised += 1;
        }

        let mut session = FlSession::builder(Box::new(framework))
            .clients(clients)
            .build();
        session.run(3);

        let mut errors = Vec::new();
        for (_, set) in data.eval_sets() {
            let pred = session.framework().predict(&set.x);
            errors.extend(localization_errors(&data.building, &pred, &set.labels));
        }
        println!(
            "fleet ({total:>2} clients, {poisoned:>2} poisoned): {}",
            ErrorStats::from_errors(&errors)
        );
    }

    // Past Fig. 7: a fleet no Vec<Client> should hold. The provider
    // generates each sampled client on demand and retains only the
    // compressor residuals between rounds, so memory is bounded by the
    // 64-client cohort — never the 50 000-client fleet.
    const FLEET: usize = 50_000;
    const COHORT: usize = 64;
    let delta = DeltaSpec::TopK { fraction: 0.05 };
    let dims = [128usize, 64, 32];
    let num_params: usize = dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum();
    let fleet = SyntheticFleet::new(FLEET, dims[0], dims[2], 128, 9, delta);
    let materialized_mib = fleet.materialized_bytes() as f64 / (1024.0 * 1024.0);
    let server = SequentialFlServer::new(&dims, DefensePipeline::fedavg(), ServerConfig::tiny());
    let mut session = FlSession::builder(Box::new(server))
        .fleet(Box::new(fleet))
        .sampler(CohortSampler::uniform(COHORT, 9))
        .build();
    for _ in 0..2 {
        let report = session.next_round();
        let trained = report
            .clients
            .iter()
            .filter(|c| matches!(c.outcome, ClientOutcome::Trained { .. }))
            .count();
        let compressed_kib = (4 + 8 * (num_params as f32 * 0.05) as usize) * trained / 1024;
        let dense_kib = DeltaRepr::Dense.wire_bytes(num_params) * trained / 1024;
        println!(
            "streaming round {} over {FLEET} clients ({}): cohort {trained}/{COHORT} trained, \
             ~{compressed_kib} KiB on wire vs {dense_kib} KiB dense \
             (materialized fleet would be {materialized_mib:.0} MiB)",
            report.round,
            delta.label(),
        );
    }
}
