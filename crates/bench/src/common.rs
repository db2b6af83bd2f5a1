//! Shared experiment infrastructure for the `repro` harness.

use std::path::PathBuf;

use inf2vec_baselines::{
    de::Degree,
    em::{IcEm, IcEmConfig},
    emb_ic::{EmbIc, EmbIcConfig},
    mf::{MfBpr, MfConfig},
    node2vec::{Node2vec, Node2vecConfig},
    st::Static,
};
use inf2vec_core::{train as inf2vec_train, Inf2vecConfig};
use inf2vec_diffusion::synth::{generate, SyntheticConfig, SyntheticDataset};
use inf2vec_diffusion::{DatasetSplit, Episode};
use inf2vec_eval::activation::ActivationTask;
use inf2vec_eval::diffusion_task::DiffusionTask;
use inf2vec_eval::runner::{observe_evaluation, MethodRuns};
use inf2vec_ingest::ErrorPolicy;
use inf2vec_obs::{Event, Telemetry};
use inf2vec_eval::{Aggregator, RankingMetrics, ScoringModel};
use inf2vec_util::rng::split_seed;

/// Global harness options (shared by all subcommands).
#[derive(Debug, Clone)]
pub struct Opts {
    /// Shrink datasets and run counts for smoke runs.
    pub quick: bool,
    /// Runs per stochastic method (paper: 10).
    pub runs: usize,
    /// Master seed.
    pub seed: u64,
    /// Monte-Carlo simulations per diffusion-prediction instance
    /// (paper: 5,000).
    pub mc_runs: usize,
    /// Output directory for CSV artifacts.
    pub out: PathBuf,
    /// Hogwild threads for trainable models.
    pub threads: usize,
    /// Override training epochs for SGD models (None = mode default).
    pub epochs_override: Option<usize>,
    /// Override the Inf2vec learning rate (None = paper's 0.005).
    pub lr_override: Option<f32>,
    /// Suppress table/progress output (warnings still print). Telemetry
    /// events are unaffected, so `--quiet --telemetry-jsonl` gives a
    /// machine-readable run with a silent terminal.
    pub quiet: bool,
    /// Metrics/event destination, threaded into every trained model and
    /// mirrored by the harness's own output helpers.
    pub telemetry: Telemetry,
    /// Edge-list file for the `ingest` command (`--edges`).
    pub edges: Option<PathBuf>,
    /// Action-log file for the `ingest` command (`--actions`).
    pub actions: Option<PathBuf>,
    /// Defect-handling policy for the `ingest` command (`--on-error`).
    pub on_error: ErrorPolicy,
    /// Quarantine budget for `--on-error skip` (`--max-errors`).
    pub max_errors: Option<u64>,
    /// Destination for the ingest report JSON (`--ingest-report`).
    pub ingest_report: Option<PathBuf>,
    /// Worker threads for the `serve` chaos command (`--serve-workers`).
    pub serve_workers: usize,
    /// Overload policy for the `serve` chaos command (`--serve-policy`).
    pub serve_policy: inf2vec_serve::OverloadPolicy,
    /// Destination for the serve chaos report JSON (`--serve-report`).
    pub serve_report: Option<PathBuf>,
    /// Crash/recover cycles for the `soak` command (`--soak-cycles`).
    pub soak_cycles: Option<u32>,
    /// Records per traffic chunk for the `soak` command (`--soak-records`).
    pub soak_records: Option<u32>,
    /// Run the long-soak preset (`--long`): more users, more cycles,
    /// several times the traffic, a tighter relative disk budget.
    pub soak_long: bool,
    /// Live-log compaction budget override in bytes for the `soak`
    /// command (`--soak-budget-bytes`; 0 disables compaction).
    pub soak_budget_bytes: Option<u64>,
    /// Wall-clock soak duration in seconds (`--wall-clock`): keep
    /// cycling crash/recover until this much real time has elapsed
    /// instead of a fixed cycle count.
    pub wall_clock: Option<f64>,
    /// Action log whose archive the `restore` / `verify-archive`
    /// commands operate on (`--archive-log`; default: the soak
    /// workdir's `actions.log`).
    pub archive_log: Option<PathBuf>,
    /// Destination for the reconstructed stream written by `restore`
    /// (`--restore-out`; default: `restored.log` next to the soak
    /// workdir).
    pub restore_out: Option<PathBuf>,
    /// Destination for the `verify-archive` report JSON
    /// (`--archive-report`).
    pub archive_report: Option<PathBuf>,
    /// Destination for the soak report JSON (`--soak-report`).
    pub soak_report: Option<PathBuf>,
    /// Bind address for the live introspection endpoint during `soak` and
    /// `serve` (`--introspect`), e.g. `127.0.0.1:9600`.
    pub introspect: Option<String>,
    /// Bind address for the network front-end: `serve --listen ADDR`
    /// runs a long-lived scoring server instead of the chaos scenario.
    pub listen: Option<String>,
    /// Bounds a `serve --listen` server's lifetime in seconds
    /// (`--load-seconds`); unset, it serves until killed.
    pub load_seconds: Option<f64>,
    /// Trace-stamped JSONL file for the `trace` command (`--trace-jsonl`).
    pub trace_jsonl: Option<PathBuf>,
    /// Record sequence number to narrate in the `trace` command
    /// (`--trace-record`); omitted = fate summary of every record.
    pub trace_record: Option<u64>,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            quick: false,
            runs: 3,
            seed: 42,
            mc_runs: 1000,
            out: PathBuf::from("results"),
            threads: 1,
            epochs_override: None,
            lr_override: None,
            quiet: false,
            telemetry: Telemetry::disabled(),
            edges: None,
            actions: None,
            on_error: ErrorPolicy::Strict,
            max_errors: None,
            ingest_report: None,
            serve_workers: 8,
            serve_policy: inf2vec_serve::OverloadPolicy::Shed,
            serve_report: None,
            soak_cycles: None,
            soak_records: None,
            soak_long: false,
            soak_budget_bytes: None,
            wall_clock: None,
            archive_log: None,
            restore_out: None,
            archive_report: None,
            soak_report: None,
            introspect: None,
            listen: None,
            load_seconds: None,
            trace_jsonl: None,
            trace_record: None,
        }
    }
}

impl Opts {
    /// Epochs for the SGD-trained models (smaller in quick mode).
    pub fn epochs(&self) -> usize {
        self.epochs_override
            .unwrap_or(if self.quick { 5 } else { 10 })
    }

    /// Product output (tables, plots): stdout unless `--quiet`, mirrored
    /// as a `"report"` event when a sink is configured.
    pub fn say(&self, text: &str) {
        if !self.quiet {
            println!("{text}");
        }
        self.report("stdout", text);
    }

    /// Like [`say`](Self::say) but without the trailing newline, for
    /// blocks (tables, plots) that already end in one.
    pub fn say_raw(&self, text: &str) {
        if !self.quiet {
            print!("{text}");
        }
        self.report("stdout", text.trim_end_matches('\n'));
    }

    /// Progress output: stderr unless `--quiet`, mirrored as a `"report"`
    /// event.
    pub fn note(&self, text: &str) {
        if !self.quiet {
            eprintln!("{text}");
        }
        self.report("stderr", text);
    }

    /// Warning: stderr even under `--quiet`, mirrored as a `"warn"` event.
    pub fn warn(&self, text: &str) {
        eprintln!("{text}");
        if self.telemetry.enabled() {
            self.telemetry.emit(Event::new("warn").str("text", text));
        }
    }

    fn report(&self, channel: &str, text: &str) {
        if self.telemetry.enabled() {
            self.telemetry.emit(
                Event::new("report")
                    .str("channel", channel)
                    .str("text", text),
            );
        }
    }
}

/// `println!` through [`Opts::say`]: honors `--quiet` and mirrors the line
/// into the telemetry sink. `outln!(opts)` prints a blank line.
macro_rules! outln {
    ($opts:expr) => { $opts.say("") };
    ($opts:expr, $($arg:tt)*) => { $opts.say(&format!($($arg)*)) };
}

/// `print!` through [`Opts::say_raw`], for newline-terminated blocks.
macro_rules! out {
    ($opts:expr, $($arg:tt)*) => { $opts.say_raw(&format!($($arg)*)) };
}

pub(crate) use {out, outln};

/// A dataset prepared for experiments.
pub struct Bundle {
    /// The generated dataset + ground truth.
    pub synth: SyntheticDataset,
    /// The 80/10/10 episode split.
    pub split: DatasetSplit,
}

impl Bundle {
    /// Training episodes.
    pub fn train_episodes(&self) -> Vec<&Episode> {
        self.split
            .train
            .iter()
            .map(|&i| &self.synth.dataset.log.episodes()[i])
            .collect()
    }

    /// Test episodes.
    pub fn test_episodes(&self) -> Vec<&Episode> {
        self.split
            .test
            .iter()
            .map(|&i| &self.synth.dataset.log.episodes()[i])
            .collect()
    }

    /// Dataset display name.
    pub fn name(&self) -> &str {
        &self.synth.dataset.name
    }
}

/// Generates the two evaluation datasets (digg-like, flickr-like), scaled
/// down in quick mode.
pub fn datasets(opts: &Opts) -> Vec<Bundle> {
    let configs = if opts.quick {
        vec![
            SyntheticConfig::digg_like().scaled(500, 80),
            SyntheticConfig::flickr_like().scaled(600, 80),
        ]
    } else {
        vec![SyntheticConfig::digg_like(), SyntheticConfig::flickr_like()]
    };
    configs
        .into_iter()
        .map(|c| {
            let synth = generate(&c, split_seed(opts.seed, 0xDA7A));
            let split = synth.dataset.split(0.8, 0.1, split_seed(opts.seed, 0x5917));
            Bundle { synth, split }
        })
        .collect()
}

/// The methods of Tables II/III, in the paper's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Degree heuristic.
    De,
    /// Static MLE.
    St,
    /// IC expectation-maximization.
    Em,
    /// Embedded cascade model.
    EmbIc,
    /// BPR matrix factorization.
    Mf,
    /// node2vec.
    Node2vec,
    /// The paper's model.
    Inf2vec,
    /// Inf2vec with α = 1 (local context only, Table IV).
    Inf2vecL,
}

impl Method {
    /// The Table II/III roster.
    pub const TABLE2: [Method; 7] = [
        Method::De,
        Method::St,
        Method::Em,
        Method::EmbIc,
        Method::Mf,
        Method::Node2vec,
        Method::Inf2vec,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::De => "DE",
            Method::St => "ST",
            Method::Em => "EM",
            Method::EmbIc => "Emb-IC",
            Method::Mf => "MF",
            Method::Node2vec => "Node2vec",
            Method::Inf2vec => "Inf2vec",
            Method::Inf2vecL => "Inf2vec-L",
        }
    }

    /// Whether the method has run-to-run randomness (the paper averages
    /// latent models over 10 runs; counting models are deterministic).
    pub fn is_stochastic(self) -> bool {
        !matches!(self, Method::De | Method::St | Method::Em)
    }
}

/// Which evaluation task to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// §V-B1 activation prediction.
    Activation,
    /// §V-B2 diffusion prediction.
    Diffusion,
}

/// Trains `method` with `run_seed` and hands the scoring view to `f`.
///
/// Models borrow the bundle's graph, so the callback style keeps lifetimes
/// simple while every method flows through the identical evaluation path.
pub fn with_model<R>(
    bundle: &Bundle,
    method: Method,
    opts: &Opts,
    run_seed: u64,
    aggregator: Aggregator,
    f: impl FnOnce(&ScoringModel<'_>) -> R,
) -> R {
    let graph = &bundle.synth.dataset.graph;
    let train_eps = bundle.train_episodes();
    match method {
        Method::De => f(&ScoringModel::Cascade(&Degree::new(graph))),
        Method::St => {
            let st = Static::train(graph, train_eps.iter().copied());
            f(&ScoringModel::Cascade(&st))
        }
        Method::Em => {
            let em = IcEm::train(
                graph,
                &train_eps,
                &IcEmConfig {
                    iterations: opts.epochs(),
                    init_prob: 0.1,
                },
            )
            .bind(graph);
            f(&ScoringModel::Cascade(&em))
        }
        Method::EmbIc => {
            let model = EmbIc::train(
                graph.node_count() as usize,
                &train_eps,
                &emb_ic_config(opts, run_seed),
            );
            f(&ScoringModel::Cascade(&model))
        }
        Method::Mf => {
            let model = MfBpr::train(
                graph.node_count() as usize,
                &train_eps,
                &MfConfig {
                    k: 50,
                    epochs: opts.epochs(),
                    seed: run_seed,
                    ..MfConfig::default()
                },
            );
            f(&ScoringModel::Representation(&model, aggregator))
        }
        Method::Node2vec => {
            let model = Node2vec::train(
                graph,
                &Node2vecConfig {
                    k: 50,
                    epochs: 3,
                    seed: run_seed,
                    ..Node2vecConfig::default()
                },
            );
            f(&ScoringModel::Representation(&model, aggregator))
        }
        Method::Inf2vec | Method::Inf2vecL => {
            let mut config = inf2vec_config(opts, run_seed);
            if method == Method::Inf2vecL {
                config = config.inf2vec_l();
            }
            let model = inf2vec_train(&bundle.synth.dataset, &bundle.split.train, &config);
            f(&ScoringModel::Representation(&model, aggregator))
        }
    }
}

/// The harness's Inf2vec configuration (paper defaults, shared epochs).
pub fn inf2vec_config(opts: &Opts, run_seed: u64) -> Inf2vecConfig {
    let mut cfg = Inf2vecConfig {
        epochs: opts.epochs(),
        threads: opts.threads,
        seed: run_seed,
        telemetry: opts.telemetry.clone(),
        // The paper tunes α on the tuning split and lands on 0.1 for its
        // datasets; the same procedure on our synthetic tuning split picks
        // 0.25 (see `repro ablate-alpha`).
        alpha: 0.25,
        ..Inf2vecConfig::default()
    };
    if let Some(lr) = opts.lr_override {
        cfg.lr = lr;
    }
    cfg
}

/// The harness's Emb-IC configuration.
pub fn emb_ic_config(opts: &Opts, run_seed: u64) -> EmbIcConfig {
    EmbIcConfig {
        k: 50,
        iterations: opts.epochs(),
        negatives_per_episode: if opts.quick { 20 } else { 200 },
        seed: run_seed,
        ..EmbIcConfig::default()
    }
}

/// Evaluates one method on one task over `runs` seeds; deterministic
/// methods run once.
pub fn evaluate_method(
    bundle: &Bundle,
    method: Method,
    task: Task,
    opts: &Opts,
    aggregator: Aggregator,
) -> MethodRuns {
    let runs = if method.is_stochastic() { opts.runs } else { 1 };
    let activation = match task {
        Task::Activation => Some(ActivationTask::build(
            &bundle.synth.dataset.graph,
            bundle.test_episodes(),
        )),
        Task::Diffusion => None,
    };
    let diffusion = match task {
        Task::Diffusion => Some(DiffusionTask::build(
            bundle.test_episodes(),
            DiffusionTask::SEED_FRACTION,
            opts.mc_runs,
        )),
        Task::Activation => None,
    };

    let mut results: Vec<RankingMetrics> = Vec::with_capacity(runs);
    for run in 0..runs {
        let run_seed = split_seed(opts.seed, 0x1000 + run as u64);
        let metrics = with_model(bundle, method, opts, run_seed, aggregator, |model| {
            let task_name = match task {
                Task::Activation => "activation",
                Task::Diffusion => "diffusion",
            };
            observe_evaluation(&opts.telemetry, task_name, || {
                match (&activation, &diffusion) {
                    (Some(task), _) => task.evaluate(model),
                    (_, Some(task)) => {
                        task.evaluate(&bundle.synth.dataset.graph, model, run_seed)
                    }
                    _ => unreachable!("one task is always built"),
                }
            })
        });
        results.push(metrics);
    }
    MethodRuns::new(method.name(), results)
}

/// Writes a text artifact under the output directory, creating it on
/// demand; prints the destination.
pub fn write_artifact(opts: &Opts, name: &str, content: &str) {
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        opts.warn(&format!("warning: cannot create {}: {e}", opts.out.display()));
        return;
    }
    let path = opts.out.join(name);
    match std::fs::write(&path, content) {
        Ok(()) => outln!(opts, "[artifact] {}", path.display()),
        Err(e) => opts.warn(&format!("warning: cannot write {}: {e}", path.display())),
    }
}

/// Formats a metrics row: 4-decimal columns in paper order.
pub fn metrics_cells(m: &RankingMetrics) -> Vec<String> {
    m.values().iter().map(|v| format!("{v:.4}")).collect()
}
