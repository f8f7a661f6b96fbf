//! The `em-gateway` binary: build a servable matcher and put the HTTP
//! front end on it.
//!
//! ```text
//! cargo run -p em-gateway --release -- \
//!     [--host 127.0.0.1] [--port 7878] [--workers 2] [--batch 16] \
//!     [--max-len 64] [--seed 42] [--queue-depth 256] [--cache 1024] \
//!     [--max-connections 64] [--deadline-ms 10000] [--no-shed] [--smoke] \
//!     [--checkpoint model.emck] [--quant f32|int8]
//! ```
//!
//! Prints `listening on http://<addr>` to stdout once live (with
//! `--port 0` the OS-assigned port is resolved in that line — scripts
//! and the load generator parse it), then serves until killed.
//!
//! The model is a randomly initialized BERT over a tokenizer trained on
//! the synthetic product corpus — real weights, real tokenization, real
//! forward passes; only the *training* is skipped, which is irrelevant
//! to gateway behavior (routing, batching, deadlines, shedding).
//!
//! `--checkpoint` serves an `em-checkpoint` file instead (mmap-loaded:
//! embedding tables stay views into the mapping, and linear weights of
//! both dtypes are repacked once into their kernel's panel layout; the
//! tokenizer is still built in-process and validated against the
//! file). `--quant` re-quantizes whatever model is being
//! served (`f32` or `int8`); without it a checkpoint serves in the
//! representation it was saved in. A live gateway can also be
//! re-pointed at a new checkpoint at runtime via `POST /admin/swap`.
//!
//! A flag value that does not parse (`--port 80a`, `--workers two`) is
//! a usage error: the binary exits with status 2, as it does for an
//! unknown `--quant` or a checkpoint it cannot load.

#![deny(missing_docs)]

use em_core::pipeline::train_tokenizer;
use em_gateway::{Gateway, GatewayConfig};
use em_serve::{freeze_parts, FrozenMatcher, QuantMode, ServeConfig, ServeMatcher};
use em_tokenizers::Tokenizer;
use em_transformers::{Architecture, ClassificationHead, TransformerConfig, TransformerModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// `--key value` / `--flag` parser (kept local: `em-bench` depends on
/// this crate for its load generator, so borrowing its `Args` would be
/// a cycle).
struct Args(Vec<String>);

impl Args {
    /// The value after `name`, parsed; `default` when the flag is absent.
    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(default);
        };
        match self.0.get(at + 1) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {name}: {v:?}")),
            None => Err(format!("missing value for {name}")),
        }
    }

    /// [`Args::parse`], exiting with status 2 on a usage error.
    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.parse(name, default).unwrap_or_else(|e| {
            eprintln!("em-gateway: {e}");
            std::process::exit(2);
        })
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    let host: String = args.get("--host", "127.0.0.1".to_string());
    let port: u16 = args.get("--port", 7878);
    let workers: usize = args.get("--workers", 2);
    let max_batch: usize = args.get("--batch", 16);
    let max_len: usize = args.get("--max-len", 64);
    let seed: u64 = args.get("--seed", 42);
    let queue_depth: usize = args.get("--queue-depth", 256);
    let cache: usize = args.get("--cache", 1024);
    let max_connections: usize = args.get("--max-connections", 64);
    let deadline_ms: u64 = args.get("--deadline-ms", 10_000);
    let smoke = args.has("--smoke");
    let checkpoint: String = args.get("--checkpoint", String::new());
    let quant: String = args.get("--quant", String::new());

    // /metrics should expose something even without EM_OBS in the
    // environment; aggregation is the cheap level.
    if !em_obs::enabled() {
        em_obs::set_level(em_obs::LEVEL_AGGREGATE);
    }

    eprintln!(
        "em-gateway: building {} model (seed {seed})",
        if smoke { "tiny" } else { "small" }
    );
    let arch = Architecture::Bert;
    let corpus = em_data::generate_corpus(if smoke { 30 } else { 200 }, seed);
    let tokenizer = train_tokenizer(arch, &corpus, if smoke { 200 } else { 400 });
    let mut cfg = if smoke {
        TransformerConfig::tiny(arch, tokenizer.vocab_size())
    } else {
        TransformerConfig::small(arch, tokenizer.vocab_size())
    };
    cfg.max_position = cfg.max_position.max(max_len);
    let mut frozen = if checkpoint.is_empty() {
        let hidden = cfg.hidden;
        let model = TransformerModel::new(cfg, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
        freeze_parts(&model, &head, tokenizer, max_len)
    } else {
        match FrozenMatcher::load_checkpoint(std::path::Path::new(&checkpoint), tokenizer) {
            Ok(m) => {
                eprintln!("em-gateway: loaded checkpoint {checkpoint} ({})", m.quant());
                m
            }
            Err(e) => {
                eprintln!("em-gateway: cannot load checkpoint {checkpoint}: {e}");
                std::process::exit(2);
            }
        }
    };
    if !quant.is_empty() {
        match QuantMode::parse(&quant) {
            Some(mode) => frozen = frozen.quantize(mode),
            None => {
                eprintln!("em-gateway: unknown --quant {quant:?} (use f32, int8)");
                std::process::exit(2);
            }
        }
    }
    eprintln!("em-gateway: serving {} weights", frozen.quant());
    let frozen = frozen;

    let serve_cfg = ServeConfig::builder()
        .workers(workers)
        .max_batch(max_batch)
        .queue_depth(queue_depth)
        .cache_capacity(cache)
        // Over the wire, backpressure must become 429s, not blocked
        // connection threads — shedding is the gateway's native mode.
        .shed(!args.has("--no-shed"))
        .build()
        .unwrap_or_else(|e| {
            eprintln!("em-gateway: bad serving config: {e}");
            std::process::exit(2);
        });
    let matcher = Arc::new(ServeMatcher::start(frozen, serve_cfg));

    let gw_cfg = GatewayConfig {
        addr: format!("{host}:{port}"),
        max_connections,
        default_deadline: Duration::from_millis(deadline_ms),
        ..GatewayConfig::default()
    };
    let mut gateway = match Gateway::spawn(matcher, gw_cfg) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("em-gateway: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on http://{}", gateway.addr());
    gateway.wait();
}

#[cfg(test)]
mod tests {
    use super::Args;

    fn args(line: &str) -> Args {
        Args(line.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn flag_values_parse_default_or_fail_loudly() {
        let a = args("--port 80a --workers 3 --batch");
        assert_eq!(
            a.parse::<u16>("--port", 7878),
            Err(r#"bad value for --port: "80a""#.to_string())
        );
        assert_eq!(a.parse::<usize>("--workers", 2), Ok(3));
        assert_eq!(a.parse::<u64>("--seed", 42), Ok(42));
        assert_eq!(
            a.parse::<usize>("--batch", 16),
            Err("missing value for --batch".to_string())
        );
    }
}
