//! Fault-tolerant training demo: crash mid-run, restart, and watch the
//! checkpoint make the resumed run bit-identical to an uninterrupted one.
//!
//! ```sh
//! cargo run --release --example fault_demo -- run     /tmp/a.ckpt
//! cargo run --release --example fault_demo -- crash   /tmp/b.ckpt   # dies mid-epoch 2
//! cargo run --release --example fault_demo -- resume  /tmp/b.ckpt   # picks up at epoch 2
//! cargo run --release --example fault_demo -- diverge /tmp/c.ckpt   # guard exhausts its budget
//! ```
//!
//! `run` and `resume` print a fingerprint of the final embedding store
//! (`inf2vec::serve::store_checksum`); matching fingerprints demonstrate
//! the bit-identical resume guarantee.

use std::process::exit;

use inf2vec::core::train::{train_resumable_on_source, CheckpointConfig, FaultTolerance};
use inf2vec::core::{Inf2vecConfig, InfluenceContextSource};
use inf2vec::diffusion::synth::{generate, SyntheticConfig};
use inf2vec::diffusion::PropagationNetwork;
use inf2vec::embed::faultinject::PanicAfter;
use inf2vec::embed::{DivergenceGuard, NegativeTable, PairSource};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, ckpt) = match args.as_slice() {
        [m, p] => (m.as_str(), p.clone()),
        _ => {
            eprintln!("usage: fault_demo <run|crash|resume|diverge> <checkpoint-path>");
            exit(2);
        }
    };

    let synth = generate(&SyntheticConfig::tiny(), 7);
    let dataset = &synth.dataset;
    let config = Inf2vecConfig {
        k: 16,
        epochs: 6,
        seed: 42,
        ..Inf2vecConfig::default()
    };
    let nets: Vec<PropagationNetwork> = dataset
        .log
        .episodes()
        .iter()
        .map(|ep| PropagationNetwork::build(&dataset.graph, ep))
        .collect();
    let n_nodes = dataset.graph.node_count() as usize;
    let source = InfluenceContextSource::new(nets, &config);
    let negatives = NegativeTable::from_counts(&source.context_target_counts(n_nodes));
    let per_epoch = source.pairs_per_epoch();
    println!("dataset: {n_nodes} users, {per_epoch} influence pairs/epoch");

    let ft = FaultTolerance {
        checkpoint: Some(CheckpointConfig::every_epoch(&ckpt)),
        guard: if mode == "diverge" {
            Some(DivergenceGuard {
                blowup: 0.0, // every epoch looks like a blow-up: exhausts the budget
                backoff: 0.5,
                max_recoveries: 2,
            })
        } else {
            None
        },
    };

    let result = if mode == "crash" {
        // The injector panics mid-epoch 2, exactly like a process crash;
        // the epoch-1 checkpoint survives on disk for `resume`.
        let wrapped = PanicAfter::new(source, 2 * per_epoch as u64 + 7, "simulated crash");
        train_resumable_on_source(n_nodes, &wrapped, &negatives, &config, &ft)
    } else {
        train_resumable_on_source(n_nodes, &source, &negatives, &config, &ft)
    };

    match result {
        Ok((model, report)) => {
            println!(
                "trained: {} total epochs, {} run by this process",
                report.epochs,
                report.epoch_losses.len()
            );
            for (i, loss) in report.epoch_losses.iter().enumerate() {
                let epoch = report.epochs - report.epoch_losses.len() + i;
                println!("  epoch {epoch}: loss {loss:.6}");
            }
            if !report.recoveries.is_empty() {
                println!("recoveries: {:?}", report.recoveries);
            }
            println!(
                "fingerprint: {:016x}",
                inf2vec::serve::store_checksum(&model.store)
            );
        }
        Err(e) => {
            eprintln!("training failed: {e}");
            exit(1);
        }
    }
}
