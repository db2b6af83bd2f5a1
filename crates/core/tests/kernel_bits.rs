//! Pins the bits that batch and online SGNS produce, on every host.
//!
//! The Eq. 6 kernel has a portable body and an x86_64 AVX2 body chosen at
//! run time, and the negative sampler's alias draw is branchless. None of
//! that may move a bit: Algorithm 2 on a small flickr-like split, the same
//! train episodes replayed through the online trainer, and a skewed alias
//! table's draws must all reproduce the values pinned here, which the
//! scalar kernel and the branching draw produced. The test passes with or
//! without AVX2, so each kind of host checks the body it runs.

use inf2vec_core::{episode_pairs, train, Inf2vecConfig};
use inf2vec_diffusion::synth::{generate, SyntheticConfig};
use inf2vec_embed::{EmbeddingStore, OnlineConfig, OnlineSgns};
use inf2vec_util::{split_seed, AliasTable, Fnv1a, Xoshiro256pp};
use rand::RngCore as _;

/// FNV-1a over the store's shape, bias flag and every parameter's bits.
fn checksum(store: &EmbeddingStore) -> u64 {
    let mut h = Fnv1a::default();
    h.update(&(store.len() as u64).to_le_bytes());
    h.update(&(store.k() as u64).to_le_bytes());
    h.update(&[u8::from(store.use_bias)]);
    for m in [
        &store.source,
        &store.target,
        &store.bias_src,
        &store.bias_tgt,
    ] {
        for x in m.as_slice() {
            h.update(&x.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

#[test]
fn batch_and_online_sgns_reproduce_the_pinned_bits() {
    let seed = 42;
    let synth = generate(
        &SyntheticConfig::flickr_like().scaled(300, 150),
        split_seed(seed, 0xDA7A),
    );
    let dataset = &synth.dataset;
    let split = dataset.split(0.8, 0.1, split_seed(seed, 0x5917));
    let config = Inf2vecConfig {
        k: 50,
        epochs: 2,
        seed,
        ..Inf2vecConfig::default()
    };

    let model = train(dataset, &split.train, &config);
    assert!(!model.store.has_non_finite());

    let n = dataset.graph.node_count() as usize;
    let mut online = OnlineSgns::new(n, config.k, OnlineConfig::default(), seed);
    let mut pairs = 0;
    for (seq, episode) in dataset.episodes_at(&split.train).enumerate() {
        let (ep_pairs, _) = episode_pairs(&dataset.graph, episode, &config, seq as u64);
        online.apply_episode(seq as u64, &ep_pairs);
        pairs += ep_pairs.len();
    }
    assert!(
        pairs > 1000,
        "the replay must exercise the kernel: {pairs} pairs"
    );
    assert!(!online.store().has_non_finite());

    assert_eq!(
        (checksum(&model.store), checksum(online.store())),
        (0x523e_de37_946d_8f06, 0x7ce7_5304_e4a0_2172),
        "batch and online stores"
    );
}

#[test]
fn a_skewed_alias_table_draws_the_pinned_ids() {
    // Weights 1, 4, 9, …: most buckets split between home and alias.
    let weights: Vec<f64> = (1..=37).map(|i| (i * i) as f64).collect();
    let table = AliasTable::new(&weights);
    let mut rng = Xoshiro256pp::new(7);
    let draws: Vec<usize> = (0..64).map(|_| table.sample(&mut rng)).collect();
    let expect: [usize; 64] = [
        28, 26, 35, 26, 36, 30, 27, 18, 32, 30, 24, 29, 31, 25, 14, 29, //
        36, 35, 34, 29, 36, 28, 31, 11, 35, 28, 33, 20, 32, 35, 32, 28, //
        24, 32, 27, 19, 26, 19, 33, 16, 32, 36, 18, 12, 25, 33, 30, 29, //
        30, 36, 19, 16, 15, 28, 23, 23, 22, 20, 20, 18, 13, 36, 32, 14, //
    ];
    assert_eq!(draws, expect);
    // Each draw consumed the same RNG words as before.
    assert_eq!(rng.next_u64(), 0xf872_cbcc_7614_96b2);
}
