//! Property tests: every on-disk loader must return `Err` on damaged
//! input — truncation, bit rot, random byte edits — and must never panic
//! or let non-finite values through.
//!
//! The damaged payloads are produced by the `inf2vec_util::faultinject`
//! writers, the same harness the fault-tolerance tests use.

use std::io::Write;

use inf2vec::core::Inf2vecModel;
use inf2vec::diffusion::dataset::read_log;
use inf2vec::diffusion::synth::{generate, SyntheticConfig};
use inf2vec::embed::{Checkpoint, EmbeddingStore};
use inf2vec::graph::io::{read_edge_list, write_edge_list};
use inf2vec::util::error::{DataError, Inf2vecError};
use inf2vec::util::faultinject::{CorruptingWriter, TruncatingWriter};
use proptest::prelude::*;

/// A healthy serialized store (the model format is the store format).
fn store_bytes() -> Vec<u8> {
    let store = EmbeddingStore::new(12, 4, 3);
    let mut buf = Vec::new();
    store.save(&mut buf).unwrap();
    buf
}

fn checkpoint_bytes() -> Vec<u8> {
    let ck = Checkpoint {
        epochs_done: 3,
        pairs_processed: 999,
        lr_scale: 0.5,
        last_good_loss: Some(2.25),
        store: EmbeddingStore::new(12, 4, 3),
    };
    let mut buf = Vec::new();
    ck.save(&mut buf).unwrap();
    buf
}

fn graph_bytes() -> Vec<u8> {
    let synth = generate(&SyntheticConfig::tiny(), 5);
    let mut buf = Vec::new();
    write_edge_list(&synth.dataset.graph, &mut buf).unwrap();
    buf
}

fn log_bytes() -> Vec<u8> {
    let synth = generate(&SyntheticConfig::tiny(), 5);
    let mut buf = Vec::new();
    synth.dataset.write_log(&mut buf).unwrap();
    buf
}

/// Truncates `bytes` to `cut` via the injected-fault writer, as if the
/// process died mid-write with no atomic rename protecting the file.
fn truncated(bytes: &[u8], cut: usize) -> Vec<u8> {
    let mut w = TruncatingWriter::new(Vec::new(), cut);
    w.write_all(bytes).unwrap();
    w.into_inner()
}

/// Flips the low bit of every `period`-th byte — slow bit rot.
fn bitrotted(bytes: &[u8], period: usize) -> Vec<u8> {
    let mut w = CorruptingWriter::new(Vec::new(), period);
    w.write_all(bytes).unwrap();
    w.into_inner()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A store/model file cut anywhere that loses at least one token is
    /// incomplete: loading must fail cleanly. (A cut *inside* the final
    /// characters of the last number can shorten it to another valid
    /// float — "0.123" → "0.12" — so the cut stays 16 bytes clear of the
    /// end to guarantee real damage.)
    #[test]
    fn truncated_store_is_rejected(frac in 0.0f64..1.0) {
        let bytes = store_bytes();
        let cut = ((bytes.len() as f64 - 16.0) * frac) as usize;
        prop_assert!(EmbeddingStore::load(truncated(&bytes, cut).as_slice()).is_err());
        prop_assert!(Inf2vecModel::load(truncated(&bytes, cut).as_slice()).is_err());
    }

    /// Same for checkpoints, which prepend a state header to the store.
    #[test]
    fn truncated_checkpoint_is_rejected(frac in 0.0f64..1.0) {
        let bytes = checkpoint_bytes();
        let cut = ((bytes.len() as f64 - 16.0) * frac) as usize;
        prop_assert!(Checkpoint::load(truncated(&bytes, cut).as_slice()).is_err());
    }

    /// Bit rot may happen to still parse (a digit can decay into another
    /// digit), but it must never panic and never smuggle in a non-finite
    /// parameter.
    #[test]
    fn bitrotted_store_never_panics_or_goes_non_finite(period in 1usize..64) {
        let damaged = bitrotted(&store_bytes(), period);
        if let Ok(store) = EmbeddingStore::load(damaged.as_slice()) {
            prop_assert!(!store.has_non_finite());
        }
    }

    #[test]
    fn bitrotted_checkpoint_never_panics_or_goes_non_finite(period in 1usize..64) {
        let damaged = bitrotted(&checkpoint_bytes(), period);
        if let Ok(ck) = Checkpoint::load(damaged.as_slice()) {
            prop_assert!(!ck.store.has_non_finite());
            prop_assert!(ck.lr_scale.is_finite());
        }
    }

    /// Random byte edits anywhere in a store file: `load` is total — it
    /// returns, it does not panic.
    #[test]
    fn randomly_edited_store_never_panics(
        edits in prop::collection::vec((0.0f64..1.0, any::<u8>()), 1..8),
    ) {
        let mut bytes = store_bytes();
        for (pos, byte) in edits {
            let i = ((bytes.len() as f64) * pos) as usize;
            let i = i.min(bytes.len() - 1);
            bytes[i] = byte;
        }
        if let Ok(store) = EmbeddingStore::load(bytes.as_slice()) {
            prop_assert!(!store.has_non_finite());
        }
    }

    /// Text formats with per-line records (edge lists, action logs) may
    /// legitimately truncate to a shorter valid file at a line boundary;
    /// the property is totality: no panic, and damage inside a line is an
    /// error, not garbage data.
    #[test]
    fn damaged_edge_list_never_panics(frac in 0.0f64..1.0, period in 1usize..64) {
        let bytes = graph_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        let _ = read_edge_list(truncated(&bytes, cut).as_slice());
        let _ = read_edge_list(bitrotted(&bytes, period).as_slice());
    }

    #[test]
    fn damaged_action_log_never_panics(frac in 0.0f64..1.0, period in 1usize..64) {
        let bytes = log_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        let _ = read_log(truncated(&bytes, cut).as_slice());
        let _ = read_log(bitrotted(&bytes, period).as_slice());
    }
}

/// Deterministic spot-checks of the classic poisoned payloads: loaders
/// must refuse to materialize NaN/Inf even though Rust's float parser
/// happily accepts them.
#[test]
fn loaders_reject_textual_nan_and_inf() {
    let good = String::from_utf8(store_bytes()).unwrap();
    for poison in ["NaN", "inf", "-inf", "infinity"] {
        // Replace the first parameter value on the second line.
        let mut lines: Vec<String> = good.lines().map(|l| l.to_string()).collect();
        let mut fields: Vec<String> =
            lines[1].split_whitespace().map(|f| f.to_string()).collect();
        fields[1] = poison.to_string();
        lines[1] = fields.join(" ");
        let bad = lines.join("\n");
        assert!(
            EmbeddingStore::load(bad.as_bytes()).is_err(),
            "loader accepted {poison}"
        );
    }
}

/// A store header is a claim the body has to back: a header declaring
/// 4e12 rows (or an `n·k` that overflows) fails typed instead of sizing an
/// allocation that aborts the process.
#[test]
fn header_sized_claims_fail_typed_without_allocating_them() {
    match EmbeddingStore::load_data("4000000000000 50 1\n1 2\n".as_bytes()) {
        Err(Inf2vecError::Data(DataError::Malformed { line: 2, .. })) => {}
        other => panic!("expected Malformed at line 2, got {other:?}"),
    }
    let one_row = format!("4000000000000 50 1\n{}0\n", "0 ".repeat(101));
    match EmbeddingStore::load_data(one_row.as_bytes()) {
        Err(Inf2vecError::Data(DataError::Truncated { .. })) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
    let overflow = format!("{} 2 1\n", usize::MAX);
    match EmbeddingStore::load_data(overflow.as_bytes()) {
        Err(Inf2vecError::Data(DataError::Invalid { .. })) => {}
        other => panic!("expected Invalid, got {other:?}"),
    }
}
