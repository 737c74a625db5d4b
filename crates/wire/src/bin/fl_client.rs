//! A federated client as its own OS process.
//!
//! Rebuilds one fleet member deterministically from CLI arguments (the
//! same dataset/fleet seeds the server's mirror fleet uses) and hands it
//! to [`run_remote_client`], the one client loop: join the round server,
//! answer every GM broadcast with the in-process engine's own client step,
//! apply the `--fault` profile's draws to the real socket. With an ideal
//! [`FaultProfile`] the uploaded update is bitwise the in-process one.

use safeloc_attacks::{Attack, PoisonInjector};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
use safeloc_fl::{Client, DeltaCompressor, DeltaSpec, LocalTrainConfig, ServerConfig};
use safeloc_wire::{run_remote_client, FaultProfile};

struct Args {
    addr: String,
    client: usize,
    dims: Vec<usize>,
    dataset: String,
    building_seed: u64,
    building_id: usize,
    data_seed: u64,
    fleet_seed: u64,
    local: String,
    label_flip: Option<f32>,
    boost: f32,
    fault: FaultProfile,
    delta: DeltaSpec,
}

/// Parses `--delta dense | topk:<fraction> | q8`.
fn parse_delta(value: &str) -> Result<DeltaSpec, String> {
    if value == "dense" {
        return Ok(DeltaSpec::Dense);
    }
    if value == "q8" {
        return Ok(DeltaSpec::QuantizedI8);
    }
    if let Some(fraction) = value.strip_prefix("topk:") {
        let fraction: f32 = fraction
            .parse()
            .map_err(|e| format!("--delta topk fraction: {e}"))?;
        return Ok(DeltaSpec::TopK { fraction });
    }
    Err(format!(
        "unknown --delta {value} (dense|topk:<fraction>|q8)"
    ))
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            addr: String::new(),
            client: usize::MAX,
            dims: Vec::new(),
            dataset: "tiny".to_string(),
            building_seed: 3,
            building_id: 0,
            data_seed: 3,
            fleet_seed: 0,
            local: "tiny".to_string(),
            label_flip: None,
            boost: 1.0,
            fault: FaultProfile::ideal(),
            delta: DeltaSpec::Dense,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--addr" => args.addr = value("--addr")?,
                "--client" => {
                    args.client = value("--client")?
                        .parse()
                        .map_err(|e| format!("--client: {e}"))?
                }
                "--dims" => {
                    args.dims = value("--dims")?
                        .split(',')
                        .map(|d| d.trim().parse::<usize>())
                        .collect::<Result<_, _>>()
                        .map_err(|e| format!("--dims: {e}"))?
                }
                "--dataset" => args.dataset = value("--dataset")?,
                "--building-seed" => {
                    args.building_seed = value("--building-seed")?
                        .parse()
                        .map_err(|e| format!("--building-seed: {e}"))?
                }
                "--building-id" => {
                    args.building_id = value("--building-id")?
                        .parse()
                        .map_err(|e| format!("--building-id: {e}"))?
                }
                "--data-seed" => {
                    args.data_seed = value("--data-seed")?
                        .parse()
                        .map_err(|e| format!("--data-seed: {e}"))?
                }
                "--fleet-seed" => {
                    args.fleet_seed = value("--fleet-seed")?
                        .parse()
                        .map_err(|e| format!("--fleet-seed: {e}"))?
                }
                "--local" => args.local = value("--local")?,
                "--label-flip" => {
                    args.label_flip = Some(
                        value("--label-flip")?
                            .parse()
                            .map_err(|e| format!("--label-flip: {e}"))?,
                    )
                }
                "--boost" => {
                    args.boost = value("--boost")?
                        .parse()
                        .map_err(|e| format!("--boost: {e}"))?
                }
                "--fault" => {
                    args.fault = serde_json::from_str(&value("--fault")?)
                        .map_err(|e| format!("--fault: {e:?}"))?;
                    args.fault.validate().map_err(|e| format!("--fault: {e}"))?;
                }
                "--delta" => args.delta = parse_delta(&value("--delta")?)?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.addr.is_empty() {
            return Err("--addr is required".to_string());
        }
        if args.client == usize::MAX {
            return Err("--client is required".to_string());
        }
        if args.dims.len() < 2 {
            return Err("--dims needs at least two comma-separated widths".to_string());
        }
        Ok(args)
    }

    fn dataset(&self) -> Result<BuildingDataset, String> {
        let (building, cfg) = match self.dataset.as_str() {
            "tiny" => (Building::tiny(self.building_seed), DatasetConfig::tiny()),
            "paper" => (Building::paper(self.building_id), DatasetConfig::paper()),
            other => return Err(format!("unknown --dataset {other} (tiny|paper)")),
        };
        Ok(BuildingDataset::generate(building, &cfg, self.data_seed))
    }

    fn local_config(&self) -> Result<LocalTrainConfig, String> {
        Ok(match self.local.as_str() {
            "tiny" => ServerConfig::tiny().local,
            "default" => ServerConfig::default_scale(0).local,
            "paper" => ServerConfig::paper(0).local,
            other => return Err(format!("unknown --local {other} (tiny|default|paper)")),
        })
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("fl_client: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    let data = args.dataset()?;
    let local = args.local_config()?;
    let mut clients = Client::from_dataset(&data, args.fleet_seed);
    if args.client >= clients.len() {
        return Err(format!(
            "--client {} out of range for a {}-client fleet",
            args.client,
            clients.len()
        ));
    }
    let mut me = clients.swap_remove(args.client);
    if let Some(fraction) = args.label_flip {
        // The harness's non-coherent attacker stream: seed ^ ((id+1) << 24).
        let stream = args.fleet_seed ^ ((me.id as u64 + 1) << 24);
        me.injector =
            Some(PoisonInjector::new(Attack::label_flip(fraction), stream).with_boost(args.boost));
    }
    if !args.delta.is_dense() {
        me.compressor = Some(DeltaCompressor::new(args.delta));
    }

    run_remote_client(
        args.addr.as_str(),
        &mut me,
        &args.dims,
        &local,
        &args.fault,
        data.building.id as u32,
    )
    .map_err(|e| e.to_string())
}
