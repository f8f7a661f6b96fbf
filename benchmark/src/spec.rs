//! What the benchmark measures and at which sizes: workload names, the
//! metric tables `BENCHMARK.json` declares, and the frozen input sizes,
//! rates and limits. `tests/smoke.rs` checks this file against
//! `BENCHMARK.json`, so the two cannot drift apart.

/// Tables→matches where blocking, row generation and the sink do all the work.
pub const DEDUP_BLOCK: &str = "dedup_block";
/// Tables→matches where the f32 forward does nearly all the work.
pub const DEDUP_SERVE: &str = "dedup_serve";
/// HTTP→score, every pair unique, int8 forward on every request.
pub const GATEWAY_OPEN: &str = "gateway_open";
/// HTTP→score, 90 % of pairs from a hot set the score cache holds.
pub const GATEWAY_HOT: &str = "gateway_hot";
/// The paper's own cost: fine-tuning time per epoch (Table 6).
pub const FINETUNE: &str = "finetune";

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    DEDUP_BLOCK,
    DEDUP_SERVE,
    GATEWAY_OPEN,
    GATEWAY_HOT,
    FINETUNE,
];

/// One declared metric: name, unit, and whether larger is better.
#[derive(Debug, Clone, Copy)]
pub struct MetricDecl {
    /// Name as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        higher_is_better,
    }
}

/// The nine end-to-end metrics. Every workload prints all nine (the run
/// contract asks for that); README.md says which cells are a workload's
/// own measurement and which repeat its nearest own number.
pub const END_TO_END: [MetricDecl; 9] = [
    m("setup_s", "s", false),
    m("pairs_per_s", "pairs/s", true),
    m("recall", "ratio", true),
    m("reduction_ratio", "ratio", true),
    m("p50_ms", "ms", false),
    m("p99_ms", "ms", false),
    m("goodput_pairs_per_s", "pairs/s", true),
    m("examples_per_s", "examples/s", true),
    m("peak_rss_mib", "MiB", false),
];

/// Per-layer metrics of the traced run. A layer a workload never enters
/// reports 0 there, which is itself the bypass prediction.
pub const PER_LAYER: [MetricDecl; 69] = [
    // The timed wall the busy times below are shares of.
    m("bench.traced_wall_s", "s", false),
    // em-data, through a wrapped `TableSource::row`.
    m("data.rowgen.calls", "count", false),
    m("data.rowgen.busy_s", "s", false),
    // em-block, stand-alone over the workload's own tables.
    m("block.index_build.busy_s", "s", false),
    m("block.index.postings", "count", false),
    m("block.probe.calls", "count", false),
    m("block.probe.busy_s", "s", false),
    m("block.candidates", "count", false),
    m("block.candidates_per_probe", "ratio", false),
    m("block.candidate_precision", "ratio", true),
    m("block.pipeline.chunks", "count", false),
    m("block.pipeline.other_s", "s", false),
    // em-tokenizers, through `ServeMatcher::encode_text`.
    m("tokenizers.encode.calls", "count", false),
    m("tokenizers.encode.busy_s", "s", false),
    m("tokenizers.encode.tokens", "count", false),
    m("tokenizers.encode.us_per_pair", "us", false),
    // em-serve matcher: wrapped `PairScorer`, `ServeStats`, em-obs histograms.
    m("serve.submit.busy_s", "s", false),
    m("serve.wait.blocked_s", "s", false),
    m("serve.requests", "count", false),
    m("serve.batches", "count", false),
    m("serve.examples", "count", false),
    m("serve.batch_fill", "ratio", true),
    m("serve.cache_hit_rate", "ratio", true),
    m("serve.plan_cache_hit_rate", "ratio", true),
    m("serve.retries", "count", false),
    m("serve.shed", "count", false),
    m("serve.queue_wait.p50_ms", "ms", false),
    m("serve.queue_wait.p99_ms", "ms", false),
    m("serve.batch_wait.p50_ms", "ms", false),
    m("serve.forward.p50_ms", "ms", false),
    m("serve.e2e.p50_ms", "ms", false),
    m("serve.e2e.p99_ms", "ms", false),
    // em-serve frozen forward + em-graph.
    m("serve.forward.us_per_pair.f32", "us", false),
    m("serve.forward.us_per_pair.int8", "us", false),
    m("graph.plan_build.busy_s", "s", false),
    m("graph.arena_bytes", "bytes", false),
    m("graph.fused_ops", "count", true),
    // em-kernels at the bench model's GEMM shapes.
    m("kernels.gemm_f32.gflops", "GFLOP/s", true),
    m("kernels.gemm_i8.gops", "GOP/s", true),
    m("kernels.flops_per_pair", "FLOP", false),
    m("kernels.weight_bytes_per_pair", "bytes", false),
    // em-checkpoint.
    m("checkpoint.save.busy_s", "s", false),
    m("checkpoint.load.busy_s", "s", false),
    m("checkpoint.bytes", "bytes", false),
    // em-gateway, seen from the client side of the socket.
    m("gateway.healthz.p50_ms", "ms", false),
    m("gateway.overhead.p50_ms", "ms", false),
    m("gateway.requests", "count", false),
    m("gateway.status_2xx", "count", true),
    m("gateway.status_4xx", "count", false),
    m("gateway.status_5xx", "count", false),
    m("gateway.bytes_in", "bytes", false),
    m("gateway.bytes_out", "bytes", false),
    m("gateway.redials", "count", false),
    // The benchmark's own load generator: validity of the run.
    m("loadgen.nominal.sent", "count", false),
    m("loadgen.nominal.ok", "count", true),
    m("loadgen.nominal.within_limit_share", "ratio", true),
    m("loadgen.high.p99_ms", "ms", false),
    m("loadgen.high.within_limit_share", "ratio", true),
    m("loadgen.lag.p99_ms", "ms", false),
    // em-core / em-tensor / em-nn through the spans em-core publishes.
    m("core.finetune.epoch_s", "s", false),
    m("core.finetune.forward.busy_s", "s", false),
    m("core.finetune.backward.busy_s", "s", false),
    m("core.finetune.step.busy_s", "s", false),
    m("core.eval.busy_s", "s", false),
    m("core.eval.pairs_per_s", "pairs/s", true),
    m("core.finetune.padding_efficiency", "ratio", true),
    m("core.finetune.final_loss", "loss", false),
    // em-obs: the price of leaving tracing on.
    m("obs.overhead_share", "ratio", false),
    // Units the timed window held; says how many samples a median rests on.
    m("bench.units", "count", true),
];

/// A request slower than this (or failed, or refused) counts as failed.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// A run whose generator ran later than this at p99 measured itself, not
/// the program, and is reported invalid. Just above one forward pass: on
/// a two-core box a generator thread that wakes behind a running forward
/// waits it out (README.md, "Generator lateness"), and that much is the
/// machine, not a generator that cannot keep its schedule.
pub const LAG_LIMIT_MS: f64 = 5.0;
/// Blocker recall below this fails the dedup correctness gate.
pub const RECALL_FLOOR: f64 = 0.95;
/// Decisions and scores re-computed in-process must agree to this.
pub const SCORE_TOLERANCE: f32 = 1e-5;
/// How many decisions / responses the correctness gates re-score.
pub const RESCORE_SAMPLES: usize = 256;
/// Batch bodies carry this many pairs.
pub const BATCH_BODY_PAIRS: usize = 8;

/// Input sizes, model geometry and offered rates. [`Sizes::FULL`] is
/// what `BENCHMARK.json` runs and is frozen; [`Sizes::SMOKE`] is the tiny
/// set `tests/smoke.rs` uses. README.md records how FULL was chosen.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// `dedup_block`: rows per table; one timed unit is a full run.
    pub block_rows: u32,
    /// `dedup_serve`: rows per table (the index side is always whole).
    pub serve_rows: u32,
    /// `dedup_serve`: probe rows per timed unit, so units never repeat a pair.
    pub serve_unit_rows: u32,
    /// Catalog rows the tokenizer is trained on, and its vocabulary size.
    pub tokenizer_rows: u32,
    /// WordPiece vocabulary size.
    pub vocab: usize,
    /// Serve-side bench model: hidden width.
    pub hidden: usize,
    /// Serve-side bench model: feed-forward width.
    pub inner: usize,
    /// Serve-side bench model: encoder layers.
    pub layers: usize,
    /// Serve-side bench model: attention heads.
    pub heads: usize,
    /// Serve-side bench model: input length.
    pub max_len: usize,
    /// `gateway_open` offered rates (nominal, high), requests per second.
    pub open_rates: (f64, f64),
    /// `gateway_hot` offered rates (nominal, high), requests per second.
    pub hot_rates: (f64, f64),
    /// `gateway_hot`: pairs in the hot set (fits the 1024-entry LRU).
    pub hot_set: u32,
    /// `finetune`: Abt-Buy scale (0.05 gives 286 training pairs).
    pub ft_scale: f64,
    /// `finetune`: epochs per timed unit.
    pub ft_epochs: usize,
    /// `finetune`: use the tiny test geometry instead of BERT small.
    pub ft_tiny: bool,
}

impl Sizes {
    /// The sizes every `BENCHMARK.json` run uses.
    pub const FULL: Sizes = Sizes {
        setup_reps: 3,
        block_rows: 50_000,
        serve_rows: 8_000,
        serve_unit_rows: 500,
        tokenizer_rows: 1_000,
        vocab: 600,
        hidden: 256,
        inner: 1024,
        layers: 4,
        heads: 4,
        max_len: 64,
        open_rates: (120.0, 180.0),
        hot_rates: (800.0, 1200.0),
        hot_set: 256,
        ft_scale: 0.05,
        ft_epochs: 5,
        ft_tiny: false,
    };

    /// Tiny sizes for `cargo test`: every code path, seconds in total.
    pub const SMOKE: Sizes = Sizes {
        setup_reps: 2,
        block_rows: 3_000,
        serve_rows: 600,
        serve_unit_rows: 60,
        tokenizer_rows: 200,
        vocab: 200,
        hidden: 32,
        inner: 64,
        layers: 2,
        heads: 2,
        max_len: 64,
        open_rates: (100.0, 160.0),
        hot_rates: (200.0, 320.0),
        hot_set: 64,
        ft_scale: 0.012,
        ft_epochs: 1,
        ft_tiny: true,
    };
}

/// Share of `--seconds` each gateway leg gets: nominal open loop, high
/// open loop, closed loop. The rest is slack for leg hand-over.
pub const LEG_SHARES: (f64, f64, f64) = (0.50, 0.20, 0.25);
