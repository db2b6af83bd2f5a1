//! Workload inputs, all derived from the `--seed`.
//!
//! The datasets are the flickr-like synthetic preset that `repro` uses
//! for the paper's tables, generated and split with the same seed
//! derivations, so a benchmark seed and a `repro --seed` describe the
//! same data.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use inf2vec_diffusion::synth::{generate, SyntheticConfig, SyntheticDataset};
use inf2vec_diffusion::{DatasetSplit, Episode};
use inf2vec_eval::activation::ActivationTask;
use inf2vec_graph::DiGraph;
use inf2vec_util::rng::split_seed;

/// Cascades interleaved round-robin in the action log. More than one
/// cascade is live at a time, as in a real feed; with the pipeline's
/// `close_after = 64`, eight lanes still close every episode only after
/// its last record.
pub const LOG_LANES: usize = 8;

/// A generated dataset and its 80/10/10 episode split.
pub struct Bundle {
    /// Graph, action log and latent ground truth.
    pub synth: SyntheticDataset,
    /// Episode indices per split.
    pub split: DatasetSplit,
}

impl Bundle {
    /// Generates `config` from `seed` exactly as `repro` does.
    pub fn generate(config: &SyntheticConfig, seed: u64) -> Self {
        let synth = generate(config, split_seed(seed, 0xDA7A));
        let split = synth.dataset.split(0.8, 0.1, split_seed(seed, 0x5917));
        Self { synth, split }
    }

    /// The social graph.
    pub fn graph(&self) -> &DiGraph {
        &self.synth.dataset.graph
    }

    /// Users in the graph.
    pub fn users(&self) -> usize {
        self.graph().node_count() as usize
    }

    /// The training episodes, in split order.
    pub fn train_episodes(&self) -> Vec<&Episode> {
        self.synth.dataset.episodes_at(&self.split.train).collect()
    }

    /// The held-out activation-prediction task over the test episodes.
    pub fn test_task(&self) -> ActivationTask {
        ActivationTask::build(
            self.graph(),
            self.synth.dataset.episodes_at(&self.split.test),
        )
    }
}

/// Writes `episodes` as a `user<TAB>item<TAB>time` action log with
/// [`LOG_LANES`] cascades interleaved round-robin: each lane emits its
/// cascade's next activation in turn, and a finished lane takes the next
/// cascade. Returns the number of records written.
pub fn write_interleaved_log(path: &Path, episodes: &[&Episode]) -> std::io::Result<u64> {
    let mut w = BufWriter::new(File::create(path)?);
    let mut next = episodes.iter();
    let mut lanes: Vec<Option<(&Episode, usize)>> = (0..LOG_LANES)
        .map(|_| next.next().map(|e| (*e, 0)))
        .collect();
    let mut records = 0u64;
    while lanes.iter().any(Option::is_some) {
        for lane in lanes.iter_mut() {
            let Some((e, i)) = lane else { continue };
            let (u, t) = e.activations()[*i];
            writeln!(w, "{}\t{}\t{}", u.0, e.item.0, t)?;
            records += 1;
            *i += 1;
            if *i == e.activations().len() {
                *lane = next.next().map(|e| (*e, 0));
            }
        }
    }
    w.flush()?;
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inf2vec_diffusion::ItemId;
    use inf2vec_graph::NodeId;

    #[test]
    fn lanes_interleave_and_every_activation_is_written_once() {
        let eps: Vec<Episode> = (0..10u32)
            .map(|i| {
                let acts = (0..=i % 3 + 1)
                    .map(|u| (NodeId(u), u as u64 * 10))
                    .collect();
                Episode::new(ItemId(i), acts)
            })
            .collect();
        let refs: Vec<&Episode> = eps.iter().collect();
        let dir =
            std::env::temp_dir().join(format!("inf2vec-benchmark-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("actions.log");
        let n = write_interleaved_log(&path, &refs).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let total: usize = eps.iter().map(Episode::len).sum();
        assert_eq!(n as usize, total);
        assert_eq!(text.lines().count(), total);
        // The first LOG_LANES records are the first activation of the
        // first LOG_LANES cascades, in order.
        let items: Vec<&str> = text
            .lines()
            .take(LOG_LANES)
            .map(|l| l.split('\t').nth(1).unwrap())
            .collect();
        assert_eq!(items, ["0", "1", "2", "3", "4", "5", "6", "7"]);
        // Within a cascade, activations stay in time order.
        for e in &eps {
            let times: Vec<u64> = text
                .lines()
                .filter(|l| l.split('\t').nth(1) == Some(&e.item.0.to_string()))
                .map(|l| l.split('\t').nth(2).unwrap().parse().unwrap())
                .collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
