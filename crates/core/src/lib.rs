#![warn(missing_docs)]

//! Inf2vec: latent representation learning for social influence embedding.
//!
//! This crate is the paper's primary contribution (ICDE 2018). Given a
//! social graph and an action log, it learns for every user `u` a source
//! embedding `S_u`, a target embedding `T_u`, an influence-ability bias
//! `b_u`, and a conformity bias `b̃_u` (Definition 2), such that
//! `x(u, v) = S_u · T_v + b_u + b̃_v` scores how likely `u` is to influence
//! `v`.
//!
//! The pipeline (Algorithm 2):
//!
//! 1. For each training episode, extract the influence propagation network
//!    (Definition 3, [`inf2vec_diffusion::PropagationNetwork`]).
//! 2. For each active user, generate an **influence context** (Algorithm 1,
//!    [`context`]): `L·α` nodes from a random walk with restart on the
//!    propagation DAG (local influence) plus `L·(1−α)` uniform samples from
//!    the episode's adopters (global user-interest similarity).
//! 3. Train skip-gram with negative sampling on the `(user, context)`
//!    tuples ([`inf2vec_embed::sgns`], Eq. 4–6).
//!
//! [`Inf2vecConfig::inf2vec_l`] gives the Inf2vec-L ablation (α = 1, local
//! context only, Table IV); [`train::train_on_pairs`] trains on first-order
//! influence pairs directly (the Table VI citation case study and the
//! paper's Emb-IC-comparable efficiency setting).

pub mod config;
pub mod context;
pub mod corpus;
pub mod model;
pub mod stream;
pub mod train;

pub use config::Inf2vecConfig;
pub use corpus::InfluenceContextSource;
pub use stream::episode_pairs;
pub use model::Inf2vecModel;
pub use train::{
    resume_from_checkpoint, select_alpha, train, train_on_pairs, train_resumable,
    try_select_alpha, try_train, try_train_on_pairs, CheckpointConfig, FaultTolerance,
};
