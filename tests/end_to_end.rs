//! Integration: the full SAFELOC pipeline and every baseline, end to end on
//! a tiny building — dataset generation → pretraining → poisoned federated
//! rounds → evaluation.

use safeloc::{SafeLoc, SafeLocConfig};
use safeloc_attacks::{Attack, PoisonInjector};
use safeloc_baselines::{fedcc, fedhil, fedloc, fedls, krum, Onlad};
use safeloc_bench::{evaluate_errors, ErrorStats};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
use safeloc_fl::{Client, Framework, RoundPlan, ServerConfig};

fn dataset() -> BuildingDataset {
    BuildingDataset::generate(Building::tiny(42), &DatasetConfig::tiny(), 42)
}

fn run_full_rounds(f: &mut dyn Framework, clients: &mut [Client], n: usize) {
    let plan = RoundPlan::full(clients.len());
    for _ in 0..n {
        f.run_round(clients, &plan);
    }
}

fn eval(framework: &dyn Framework, data: &BuildingDataset) -> ErrorStats {
    ErrorStats::from_errors(&evaluate_errors(framework, data))
}

#[test]
fn safeloc_full_pipeline_under_attack() {
    let data = dataset();
    let mut f = SafeLoc::new(
        data.building.num_aps(),
        data.building.num_rps(),
        SafeLocConfig::tiny(),
    );
    f.pretrain(&data.server_train);
    let clean = eval(&f, &data);

    let mut clients = Client::from_dataset(&data, 42);
    let last = clients.len() - 1;
    clients[last].injector = Some(PoisonInjector::new(Attack::label_flip(1.0), 42).with_boost(3.0));
    run_full_rounds(&mut f, &mut clients, 3);
    let attacked = eval(&f, &data);

    // The tiny floor is ~10 m across; random guessing gives ~2.5 m mean.
    assert!(clean.mean < 2.0, "clean mean {}", clean.mean);
    assert!(
        attacked.mean < clean.mean + 1.5,
        "SAFELOC lost robustness: clean {} -> attacked {}",
        clean.mean,
        attacked.mean
    );
}

#[test]
fn every_baseline_completes_rounds() {
    let data = dataset();
    let (aps, rps) = (data.building.num_aps(), data.building.num_rps());
    let cfg = ServerConfig::tiny();
    let mut frameworks: Vec<Box<dyn Framework>> = vec![
        Box::new(fedloc(aps, rps, cfg)),
        Box::new(fedhil(aps, rps, cfg)),
        Box::new(fedcc(aps, rps, cfg)),
        Box::new(fedls(aps, rps, cfg)),
        Box::new(Onlad::new(aps, rps, cfg)),
        Box::new(krum(aps, rps, cfg)),
    ];
    for f in &mut frameworks {
        f.pretrain(&data.server_train);
        let mut clients = Client::from_dataset(&data, 1);
        clients[0].injector = Some(PoisonInjector::new(Attack::fgsm(0.3), 1));
        run_full_rounds(f.as_mut(), &mut clients, 2);
        let stats = eval(f.as_ref(), &data);
        assert!(
            stats.mean.is_finite() && stats.n > 0,
            "{} produced no finite errors",
            f.name()
        );
    }
}

#[test]
fn safeloc_beats_fedloc_under_boosted_label_flip() {
    let data = dataset();
    let rounds = 4;
    let run = |mut f: Box<dyn Framework>| -> f32 {
        f.pretrain(&data.server_train);
        let mut clients = Client::from_dataset(&data, 3);
        let last = clients.len() - 1;
        clients[last].injector =
            Some(PoisonInjector::new(Attack::label_flip(1.0), 3).with_boost(3.0));
        run_full_rounds(f.as_mut(), &mut clients, rounds);
        eval(f.as_ref(), &data).mean
    };
    let safeloc = run(Box::new(SafeLoc::new(
        data.building.num_aps(),
        data.building.num_rps(),
        SafeLocConfig::tiny(),
    )));
    let fedloc = run(Box::new(fedloc(
        data.building.num_aps(),
        data.building.num_rps(),
        ServerConfig::tiny(),
    )));
    assert!(
        safeloc <= fedloc + 0.3,
        "SAFELOC ({safeloc}) should not be worse than FEDLOC ({fedloc}) under attack"
    );
}

#[test]
fn cloned_framework_is_independent() {
    let data = dataset();
    let mut f = SafeLoc::new(
        data.building.num_aps(),
        data.building.num_rps(),
        SafeLocConfig::tiny(),
    );
    f.pretrain(&data.server_train);
    let template: Box<dyn Framework> = Box::new(f);
    let before = eval(template.as_ref(), &data);

    let mut fork = template.clone_box();
    let mut clients = Client::from_dataset(&data, 0);
    run_full_rounds(fork.as_mut(), &mut clients, 2);

    // The template must be untouched by the fork's rounds.
    let after = eval(template.as_ref(), &data);
    assert_eq!(before, after, "clone_box shares state with the template");
}
